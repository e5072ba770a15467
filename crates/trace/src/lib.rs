//! # scalesim-trace
//!
//! Unified observability for the simulator: deterministic timeline traces,
//! an always-on counters registry, and std-only exporters.
//!
//! The paper's contribution *is* its measurement infrastructure — DTrace
//! lock probes, Elephant-Tracks object traces, `-verbose:gc` decomposition.
//! This crate gives the simulated runtime the equivalent layer:
//!
//! * [`Timeline`] — a ring-buffered recorder of spans, instant markers and
//!   counter samples stamped in **simulated** time. Every subsystem (the
//!   scheduler, the lock table, the collector, the runtime itself) owns one
//!   recorder; the runtime merges them into a single deterministic timeline
//!   at the end of a run. Same `(config, seed)` ⇒ byte-identical trace.
//!   A merged (closed) timeline packs its events into one shared buffer
//!   of delta-coded varints, about 7 bytes per event, and that buffer is
//!   also its on-disk form: a run-report snapshot stores it as it is
//!   ([`Timeline::packed_parts`]) and adopts it back only after checking
//!   it ([`Timeline::from_packed_parts`], [`PackedError`]).
//! * [`to_chrome_json`] — a Chrome trace-event / Perfetto JSON exporter
//!   (load the output at <https://ui.perfetto.dev>).
//! * [`Counters`] — fixed-slot monotonic counters and gauges
//!   ([`CounterId`]), O(1) to increment and always on, unifying the tallies
//!   that were previously scattered across `LockReport`, `HeapStats`,
//!   `StateTimes` and sweep internals.
//! * [`write_atomic`] — the shared write-to-temp-then-rename helper every
//!   artifact goes through, so a killed process never leaves a truncated
//!   file behind.
//!
//! Recording is opt-in per run via [`TraceConfig`] (or the
//! `SCALESIM_TRACE=<path>` environment variable); when disabled every
//! recording call is a single-branch no-op so the tracing plumbing stays
//! out of the simulation hot path.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod artifact;
mod chrome;
mod config;
mod counters;
mod event;
mod packed;
mod timeline;

pub use artifact::{sync_dir, write_atomic};
pub use chrome::to_chrome_json;
pub use config::TraceConfig;
pub use counters::{CounterId, Counters, COUNTER_SLOTS};
pub use event::{EventKind, Phase, Process, TimelineEvent};
pub use packed::PackedError;
pub use timeline::Timeline;
