//! Typed errors for the run path.
//!
//! A bad configuration or a detected invariant violation is a structured,
//! reportable failure — not a process abort. [`ConfigError`] covers
//! validation at build time, [`InvariantViolation`] covers the always-on
//! monitors checked while a run executes, and [`SimError`] is the umbrella
//! the public entry points return.

use std::fmt;

/// A rejected [`JvmConfig`](crate::JvmConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The config asked for zero mutator threads.
    ZeroThreads,
    /// The nursery fraction is outside `(0, 1)` — the nursery would be
    /// empty or swallow the whole heap.
    NurseryOutOfRange {
        /// The rejected fraction.
        fraction_millis: i64,
    },
    /// The scheduler time slice is zero.
    ZeroQuantum,
    /// More parallel GC workers than enabled cores.
    GcWorkersExceedCores {
        /// Requested GC workers.
        workers: usize,
        /// Enabled cores.
        cores: usize,
    },
    /// An explicit heap-size override of zero bytes.
    ZeroHeap,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(f, "need at least one mutator thread"),
            ConfigError::NurseryOutOfRange { fraction_millis } => write!(
                f,
                "nursery fraction must be in (0, 1), got {:.3}",
                *fraction_millis as f64 / 1000.0
            ),
            ConfigError::ZeroQuantum => write!(f, "scheduler quantum must be positive"),
            ConfigError::GcWorkersExceedCores { workers, cores } => {
                write!(f, "{workers} GC workers exceed the {cores} enabled cores")
            }
            ConfigError::ZeroHeap => write!(f, "heap size override must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which invariant monitor flagged a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorKind {
    /// Scheduler sanity: at most one thread per core, no lost runnable
    /// threads, occupancy consistent with per-thread state.
    Scheduler,
    /// Monitor protocol: mutual exclusion and well-formed handoff of the
    /// grant under the configured lock algorithm (re-entrant acquire,
    /// double enqueue, and non-owner release all land here).
    MonitorProtocol,
    /// Heap conservation: every allocated object is live or collected and
    /// per-region accounting is consistent.
    HeapConservation,
    /// Event-queue liveness: unfinished mutators with no pending events.
    QueueLiveness,
    /// A GC pause exceeded any physically plausible bound for the heap.
    GcPauseBound,
}

impl fmt::Display for MonitorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MonitorKind::Scheduler => "scheduler",
            MonitorKind::MonitorProtocol => "monitor-protocol",
            MonitorKind::HeapConservation => "heap-conservation",
            MonitorKind::QueueLiveness => "queue-liveness",
            MonitorKind::GcPauseBound => "gc-pause-bound",
        };
        f.write_str(name)
    }
}

/// A violated runtime invariant, as caught by one of the always-on
/// monitors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The monitor that flagged it.
    pub kind: MonitorKind,
    /// Human-readable description of the inconsistent state.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violated [{}]: {}", self.kind, self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

/// Any failure the simulator's public entry points can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration was rejected.
    Config(ConfigError),
    /// An invariant monitor detected inconsistent runtime state.
    Invariant(InvariantViolation),
    /// An experiment driver was asked for a workload it does not know.
    UnknownApp(String),
    /// A persisted snapshot (checkpoint record or repro spec) failed to
    /// parse or reconstruct.
    Snapshot(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "bad config: {e}"),
            SimError::Invariant(v) => v.fmt(f),
            SimError::UnknownApp(name) => write!(f, "unknown app {name}"),
            SimError::Snapshot(detail) => write!(f, "snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Invariant(v) => Some(v),
            SimError::UnknownApp(_) | SimError::Snapshot(_) => None,
        }
    }
}

impl From<crate::snapshot::SnapshotError> for SimError {
    fn from(e: crate::snapshot::SnapshotError) -> Self {
        SimError::Snapshot(e.detail())
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> Self {
        SimError::Invariant(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_errors_display() {
        assert!(ConfigError::ZeroThreads.to_string().contains("thread"));
        assert!(ConfigError::NurseryOutOfRange {
            fraction_millis: 1500
        }
        .to_string()
        .contains("1.500"));
        assert!(ConfigError::ZeroQuantum.to_string().contains("quantum"));
        assert!(ConfigError::GcWorkersExceedCores {
            workers: 9,
            cores: 4
        }
        .to_string()
        .contains("9 GC workers"));
        assert!(ConfigError::ZeroHeap.to_string().contains("heap"));
    }

    #[test]
    fn sim_error_wraps_and_sources() {
        use std::error::Error;
        let e: SimError = ConfigError::ZeroThreads.into();
        assert!(matches!(e, SimError::Config(_)));
        assert!(e.source().is_some());

        let v: SimError = InvariantViolation {
            kind: MonitorKind::Scheduler,
            detail: "two threads on core 3".to_owned(),
        }
        .into();
        assert!(v.to_string().contains("scheduler"));
        assert!(v.to_string().contains("core 3"));

        let u = SimError::UnknownApp("frobnicate".to_owned());
        assert!(u.to_string().contains("frobnicate"));
        assert!(u.source().is_none());
    }
}
