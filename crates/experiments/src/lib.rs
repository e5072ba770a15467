//! # scalesim-experiments
//!
//! The artifacts of the ISPASS'15 evaluation — the §II-C scalability
//! table, the §III work distribution, Figs. 1a–d and 2 — plus the §IV
//! ablations and the extensions built on them, each printing the same
//! rows/series the paper reports.
//!
//! Every artifact is one entry of [`ARTIFACTS`], in `all` order: its
//! id, CSV name and banner, the run specs it sweeps and the renderer
//! that draws its table from those specs and their reports. The CLI,
//! [`campaign`] and the figure benchmark read that table, and
//! [`artifact_tables`] runs any entry by id. The paper's artifacts and
//! the richer extensions also return typed studies: [`run_workdist`],
//! [`run_scalability`], [`run_fig1_locks`], [`run_fig1c`],
//! [`run_fig1d`], [`run_fig2`], [`run_biased_sched`], [`run_heaplets`],
//! [`run_heap_size`], [`run_topology`], [`run_server_study`] and
//! [`run_lock_algorithms`].
//!
//! Sweeps run in parallel across host cores ([`run_all`]); every
//! simulation itself is deterministic and single-threaded, so results are
//! reproducible bit-for-bit for a given [`ExpParams`].
//!
//! Three self-healing layers keep long sweeps durable: completed runs
//! checkpoint to disk and replay on resume ([`checkpoint`]), hung runs
//! are cancelled by a watchdog and quarantined (see [`run_all`]), and
//! quarantined specs are minimized into standalone repro files
//! ([`shrink_failure`] / [`write_repro`]). A fourth layer audits the
//! evidence: [`audit_spec`] re-executes a spec with salvage + tracing
//! and runs the offline concurrency auditor ([`scalesim_audit`]) over
//! the recovered timeline, and [`write_audit_repro`] snapshots a
//! finding-bearing run as an `audit-<key>.json` repro artifact. A fifth
//! layer scales out: [`campaign`] lets N independent worker *processes*
//! drain the sweep of any artifact whose registry entry is a
//! [`Runs::Sweep`] (all but `ext-heapsize`) over a shared directory with
//! lease-based claiming, crash recovery, and byte-identical merges. Completed sweeps feed the
//! offline analytics layer ([`run_analytics`] / `scalesim-analytics`):
//! USL fitting with collapse prediction, scalability classification,
//! and per-run time attribution, emitted as a deterministic
//! fingerprinted `analytics.json` ([`write_analytics`]).
//!
//! ```
//! use scalesim_experiments::{run_fig1d, ExpParams};
//!
//! let params = ExpParams::quick().with_scale(0.01).with_threads(vec![4, 16]);
//! let fig1d = run_fig1d(&params).unwrap();
//! println!("{}", fig1d.table());
//! assert!(fig1d.frac_below_1k(4).unwrap() > fig1d.frac_below_1k(16).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablation;
mod analyze;
mod artifacts;
mod auditing;
pub mod campaign;
pub mod check;
pub mod checkpoint;
mod ext_locks;
mod extensions;
mod fig1_lifespan;
mod fig1_locks;
mod fig2_gc;
mod params;
mod scalability;
mod server;
mod shrink;
mod sweep;
mod topo;
mod workdist;

pub use ablation::{run_biased_sched, run_heaplets, Ablation, AblationRow};
pub use analyze::{run_analytics, write_analytics};
pub use artifacts::{
    artifact, artifact_tables, Artifact, ArtifactTable, RenderFn, Runs, SpecsFn, ARTIFACTS,
};
pub use auditing::{audit_spec, write_audit_repro, AUDIT_EVENT_BACKSTOP};
pub use checkpoint::ResumeStats;
pub use ext_locks::{run_lock_algorithms, LockAlgRow, LockAlgStudy};
pub use extensions::{run_heap_size, HeapSizeRow, HeapSizeStudy};
pub use fig1_lifespan::{
    run_fig1c, run_fig1d, run_lifespan_curves, LifespanCurves, DEFAULT_THRESHOLDS,
};
pub use fig1_locks::{run_fig1_locks, Fig1Locks};
pub use fig2_gc::{run_fig2, Fig2, Fig2Row};
pub use params::ExpParams;
pub use scalability::{run_scalability, Scalability, ScalabilityRow, SCALABLE_SPEEDUP_THRESHOLD};
pub use server::{run_server_study, ServerRow, ServerStudy, SERVER_SCENARIOS};
pub use shrink::{run_isolated, shrink_failure, write_repro, ShrinkOutcome, SHRINK_ATTEMPT_BUDGET};
pub use sweep::{
    cached_event_total, clear_run_cache, run_all, run_cache_size, take_run_manifests,
    take_sweep_failures, RunManifest, RunSpec, SweepFailure, SweepFailureKind,
};
pub use topo::{run_topology, TopoRow, TopologyStudy};
pub use workdist::{run_workdist, Workdist, WorkdistRow};
