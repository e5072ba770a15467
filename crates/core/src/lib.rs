//! # scalesim-core
//!
//! The JVM-like managed runtime simulator — the measurement system at the
//! heart of the ISPASS'15 reproduction.
//!
//! [`Jvm`] glues the substrates together: a [`MachineTopology`] supplies
//! cores, the [`CpuScheduler`] time-shares them among mutator and helper
//! threads, the [`LockTable`] arbitrates monitors, the [`Heap`] tracks the
//! allocation clock and occupancy, the [`Collector`] runs stop-the-world
//! generational collections, and the [`ObjectTracer`] records every
//! object's lifespan. A run executes an [`AppModel`] to completion and
//! yields a [`RunReport`] carrying exactly the observables the paper's
//! figures plot.
//!
//! The paper's two future-work proposals are first-class configuration:
//! [`SchedPolicy::Biased`] cohort scheduling and per-thread nursery
//! heaplets (`JvmConfigBuilder::heaplets`).
//!
//! [`MachineTopology`]: scalesim_machine::MachineTopology
//! [`CpuScheduler`]: scalesim_sched::CpuScheduler
//! [`LockTable`]: scalesim_sync::LockTable
//! [`Heap`]: scalesim_heap::Heap
//! [`Collector`]: scalesim_gc::Collector
//! [`ObjectTracer`]: scalesim_objtrace::ObjectTracer
//! [`AppModel`]: scalesim_workloads::AppModel
//! [`SchedPolicy::Biased`]: scalesim_sched::SchedPolicy::Biased
//!
//! ```
//! use scalesim_core::{Jvm, JvmConfig};
//! use scalesim_workloads::lusearch;
//!
//! let config = JvmConfig::builder().threads(8).build().unwrap();
//! let report = Jvm::new(config).run(&lusearch().scaled(0.01)).unwrap();
//! println!("{report}");
//! assert!(report.gc_share() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod driver;
mod error;
pub mod json;
mod replay;
mod report;
mod runtime;
mod server;
pub mod snapshot;

pub use config::{JvmConfig, JvmConfigBuilder, OldGenPolicy};
pub use error::{ConfigError, InvariantViolation, MonitorKind, SimError};
pub use json::{JsonCursor, JsonValue, JsonWriter};
pub use replay::{replay_gc, ReplayOutcome};
pub use report::{RunOutcome, RunReport, ServerStats, ThreadReport};
pub use runtime::Jvm;
pub use scalesim_sync::LockAlg;
pub use scalesim_trace::TraceConfig;
pub use snapshot::{
    read_report, report_from_json, report_from_str, report_to_json, write_report, ReproSpec,
    SnapshotError, SNAPSHOT_VERSION,
};
