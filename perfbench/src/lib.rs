//! # scalesim-perfbench
//!
//! The repository benchmark. It drives scalesim's public API from one
//! process on three workloads (see [`workloads::Workload`]) and prints
//! every metric with its name and unit, then one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-figures --seed 42 --seconds 30 --trace 0
//! ```
//!
//! * `--trace 0` measures the end-to-end metrics with span recording off:
//!   `wall_s` (host seconds for the workload's pipeline from a cold memo
//!   cache, median over repetitions), `events_per_s` (unique simulated
//!   events over `wall_s`), `setup_s` (median set-up time before the
//!   first simulated event) and `peak_rss_mb` (host memory high-water
//!   mark). The failure ratio is `failed / attempted` in the result line.
//! * `--trace 1` alternates untraced and span-traced repetitions and
//!   prints the per-layer metrics: exact counts from the reports, host
//!   times from the spans the benchmark records around each public call
//!   ([`spans`]), ns per operation from standalone drives of each layer
//!   crate ([`micro`]), and the span overhead against the untraced
//!   repetitions.
//!
//! Every workload checks its outputs; a failed check makes the result
//! incorrect. A digest of all rendered tables is printed so two commits
//! can be compared exactly.

#![warn(missing_docs)]

pub mod bench;
pub mod micro;
pub mod spans;
pub mod workloads;
