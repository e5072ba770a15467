//! The timeline event model: what a recorder can say and how it maps onto
//! the Chrome trace-event `pid`/`tid`/`ph` coordinate system.

use scalesim_simkit::{SimDuration, SimTime};

/// Which Chrome trace-event *phase* an [`EventKind`] renders as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`ph = "X"`): has a duration.
    Span,
    /// An instant marker (`ph = "I"`): a point in time.
    Instant,
    /// A counter sample (`ph = "C"`): a point on a value track.
    CounterSample,
}

/// The process row a track belongs to in the exported trace.
///
/// Chrome/Perfetto group tracks by `pid`; scalesim uses one synthetic
/// process per subsystem so thread states, monitors and GC phases land in
/// separate collapsible groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Process {
    /// Mutator/helper thread state spans (`tid` = thread index).
    Threads,
    /// Monitor wait/hold spans (`tid` = monitor index).
    Monitors,
    /// GC phase spans and heap-pressure counters (`tid` = region).
    Gc,
    /// Runtime-level instants: chaos injections (`tid` = 0).
    Runtime,
    /// Server request-lifecycle instants: sheds, retries, timeouts
    /// (`tid` = request class index).
    Server,
}

impl Process {
    /// The synthetic `pid` used in the Chrome export.
    #[must_use]
    pub const fn pid(self) -> u32 {
        match self {
            Process::Threads => 1,
            Process::Monitors => 2,
            Process::Gc => 3,
            Process::Runtime => 4,
            Process::Server => 5,
        }
    }

    /// Human-readable process name for the export's metadata events.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Process::Threads => "threads",
            Process::Monitors => "monitors",
            Process::Gc => "gc",
            Process::Runtime => "runtime",
            Process::Server => "server",
        }
    }
}

/// Everything a [`TimelineEvent`](crate::TimelineEvent) can record.
///
/// The `arg` field of the event is kind-specific and documented per
/// variant; `track` is the row within the kind's [`Process`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Thread span: on a core, executing mutator work. `arg` unused.
    ThreadRunning,
    /// Thread span: runnable, waiting for a core. `arg` unused.
    ThreadRunnable,
    /// Thread span: blocked on a monitor queue. `arg` unused.
    ThreadBlockedMonitor,
    /// Thread span: blocked with no work available. `arg` unused.
    ThreadBlockedStarved,
    /// Thread span: sleeping. `arg` unused.
    ThreadBlockedSleep,
    /// Thread span: suspended at a stop-the-world safepoint. `arg` unused.
    ThreadSafepoint,
    /// Monitor span: held from acquisition to release. `arg` = owning
    /// thread index (owner attribution).
    MonitorHold,
    /// Monitor span: a thread queued waiting for the monitor. `arg` = the
    /// waiting thread's index.
    MonitorWait,
    /// Monitor instant: a thread joined the monitor's wait queue. `arg` =
    /// the enqueued thread's index. Paired with a closing [`MonitorWait`]
    /// span by the audit pass; an enqueue without a close is a dangling
    /// wait.
    ///
    /// [`MonitorWait`]: EventKind::MonitorWait
    MonitorEnqueue,
    /// GC span: stop-the-world minor (nursery) collection. `arg` = bytes
    /// collected.
    GcMinor,
    /// GC span: per-heaplet local minor collection. `arg` = bytes
    /// collected.
    GcLocalMinor,
    /// GC span: stop-the-world full collection. `arg` = bytes collected.
    GcFull,
    /// GC span: concurrent old-gen cycle, initial-mark pause. `arg` =
    /// bytes under trace.
    GcConcMark,
    /// GC span: concurrent old-gen cycle, background marking work running
    /// alongside the mutators. `arg` unused.
    GcConcWork,
    /// GC span: concurrent old-gen cycle, remark pause. `arg` = bytes
    /// collected.
    GcConcRemark,
    /// Chaos instant: a monitor-release wakeup was dropped. `arg` = the
    /// thread whose wakeup was lost.
    ChaosDropWakeup,
    /// Chaos instant: a blocked thread was woken without the lock. `arg` =
    /// the spuriously-woken thread.
    ChaosSpuriousWakeup,
    /// Chaos instant: a GC pause was inflated by a stalled worker. `arg` =
    /// extra pause nanoseconds.
    ChaosGcStall,
    /// Chaos instant: an admitted server request was silently dropped.
    /// `arg` = the dropped request's id.
    ChaosRequestDrop,
    /// Server instant: a request attempt was shed at the door. `arg` =
    /// the request's id.
    ReqShed,
    /// Server instant: a client issued a retry after a timeout or shed.
    /// `arg` = the request's id.
    ReqRetry,
    /// Server instant: a client-side timeout fired before completion.
    /// `arg` = the request's id.
    ReqTimeout,
    /// Counter sample: heap bytes in use in a region (allocation
    /// pressure). `arg` = bytes.
    HeapUsed,
}

impl EventKind {
    /// Every kind, in export/declaration order.
    pub const ALL: [EventKind; 23] = [
        EventKind::ThreadRunning,
        EventKind::ThreadRunnable,
        EventKind::ThreadBlockedMonitor,
        EventKind::ThreadBlockedStarved,
        EventKind::ThreadBlockedSleep,
        EventKind::ThreadSafepoint,
        EventKind::MonitorHold,
        EventKind::MonitorWait,
        EventKind::MonitorEnqueue,
        EventKind::GcMinor,
        EventKind::GcLocalMinor,
        EventKind::GcFull,
        EventKind::GcConcMark,
        EventKind::GcConcWork,
        EventKind::GcConcRemark,
        EventKind::ChaosDropWakeup,
        EventKind::ChaosSpuriousWakeup,
        EventKind::ChaosGcStall,
        EventKind::ChaosRequestDrop,
        EventKind::ReqShed,
        EventKind::ReqRetry,
        EventKind::ReqTimeout,
        EventKind::HeapUsed,
    ];

    /// The Chrome trace-event phase this kind renders as.
    #[must_use]
    pub const fn phase(self) -> Phase {
        match self {
            EventKind::ThreadRunning
            | EventKind::ThreadRunnable
            | EventKind::ThreadBlockedMonitor
            | EventKind::ThreadBlockedStarved
            | EventKind::ThreadBlockedSleep
            | EventKind::ThreadSafepoint
            | EventKind::MonitorHold
            | EventKind::MonitorWait
            | EventKind::GcMinor
            | EventKind::GcLocalMinor
            | EventKind::GcFull
            | EventKind::GcConcMark
            | EventKind::GcConcWork
            | EventKind::GcConcRemark => Phase::Span,
            EventKind::MonitorEnqueue
            | EventKind::ChaosDropWakeup
            | EventKind::ChaosSpuriousWakeup
            | EventKind::ChaosGcStall
            | EventKind::ChaosRequestDrop
            | EventKind::ReqShed
            | EventKind::ReqRetry
            | EventKind::ReqTimeout => Phase::Instant,
            EventKind::HeapUsed => Phase::CounterSample,
        }
    }

    /// The process group this kind's tracks belong to.
    #[must_use]
    pub const fn process(self) -> Process {
        match self {
            EventKind::ThreadRunning
            | EventKind::ThreadRunnable
            | EventKind::ThreadBlockedMonitor
            | EventKind::ThreadBlockedStarved
            | EventKind::ThreadBlockedSleep
            | EventKind::ThreadSafepoint => Process::Threads,
            EventKind::MonitorHold | EventKind::MonitorWait | EventKind::MonitorEnqueue => {
                Process::Monitors
            }
            EventKind::GcMinor
            | EventKind::GcLocalMinor
            | EventKind::GcFull
            | EventKind::GcConcMark
            | EventKind::GcConcWork
            | EventKind::GcConcRemark
            | EventKind::HeapUsed => Process::Gc,
            EventKind::ChaosDropWakeup
            | EventKind::ChaosSpuriousWakeup
            | EventKind::ChaosGcStall
            | EventKind::ChaosRequestDrop => Process::Runtime,
            EventKind::ReqShed | EventKind::ReqRetry | EventKind::ReqTimeout => Process::Server,
        }
    }

    /// Stable event name, used in both the Chrome and text exports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::ThreadRunning => "running",
            EventKind::ThreadRunnable => "runnable",
            EventKind::ThreadBlockedMonitor => "blocked-monitor",
            EventKind::ThreadBlockedStarved => "blocked-starved",
            EventKind::ThreadBlockedSleep => "blocked-sleep",
            EventKind::ThreadSafepoint => "safepoint",
            EventKind::MonitorHold => "hold",
            EventKind::MonitorWait => "wait",
            EventKind::MonitorEnqueue => "enqueue",
            EventKind::GcMinor => "minor-gc",
            EventKind::GcLocalMinor => "local-minor-gc",
            EventKind::GcFull => "full-gc",
            EventKind::GcConcMark => "conc-initial-mark",
            EventKind::GcConcWork => "conc-mark-work",
            EventKind::GcConcRemark => "conc-remark",
            EventKind::ChaosDropWakeup => "chaos:drop-wakeup",
            EventKind::ChaosSpuriousWakeup => "chaos:spurious-wakeup",
            EventKind::ChaosGcStall => "chaos:gc-stall",
            EventKind::ChaosRequestDrop => "chaos:request-drop",
            EventKind::ReqShed => "req-shed",
            EventKind::ReqRetry => "req-retry",
            EventKind::ReqTimeout => "req-timeout",
            EventKind::HeapUsed => "heap-used",
        }
    }

    /// Export category, one per kind family (Chrome's `cat` field).
    #[must_use]
    pub const fn category(self) -> &'static str {
        match self.process() {
            Process::Threads => "thread-state",
            Process::Monitors => "monitor",
            Process::Gc => match self.phase() {
                Phase::CounterSample => "heap",
                _ => "gc",
            },
            Process::Runtime => "chaos",
            Process::Server => "server",
        }
    }

    /// Inverse of [`EventKind::name`], for the text-format parser and
    /// the snapshot codec (once per decoded event).
    #[must_use]
    pub fn from_name(name: &str) -> Option<EventKind> {
        Some(match name {
            "running" => EventKind::ThreadRunning,
            "runnable" => EventKind::ThreadRunnable,
            "blocked-monitor" => EventKind::ThreadBlockedMonitor,
            "blocked-starved" => EventKind::ThreadBlockedStarved,
            "blocked-sleep" => EventKind::ThreadBlockedSleep,
            "safepoint" => EventKind::ThreadSafepoint,
            "hold" => EventKind::MonitorHold,
            "wait" => EventKind::MonitorWait,
            "enqueue" => EventKind::MonitorEnqueue,
            "minor-gc" => EventKind::GcMinor,
            "local-minor-gc" => EventKind::GcLocalMinor,
            "full-gc" => EventKind::GcFull,
            "conc-initial-mark" => EventKind::GcConcMark,
            "conc-mark-work" => EventKind::GcConcWork,
            "conc-remark" => EventKind::GcConcRemark,
            "chaos:drop-wakeup" => EventKind::ChaosDropWakeup,
            "chaos:spurious-wakeup" => EventKind::ChaosSpuriousWakeup,
            "chaos:gc-stall" => EventKind::ChaosGcStall,
            "chaos:request-drop" => EventKind::ChaosRequestDrop,
            "req-shed" => EventKind::ReqShed,
            "req-retry" => EventKind::ReqRetry,
            "req-timeout" => EventKind::ReqTimeout,
            "heap-used" => EventKind::HeapUsed,
            _ => return None,
        })
    }
}

/// One recorded timeline event.
///
/// `at` is the start time (spans) or the timestamp (instants / counter
/// samples); `dur` is zero for non-spans. Events are plain `Copy` data so
/// ring-buffer retention and merging never allocate per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimelineEvent {
    /// What happened.
    pub kind: EventKind,
    /// Row within the kind's process group (thread / monitor / region).
    pub track: u32,
    /// Start (spans) or timestamp (instants, counter samples).
    pub at: SimTime,
    /// Span length; [`SimDuration::ZERO`] for instants and samples.
    pub dur: SimDuration,
    /// Kind-specific argument (owner thread, bytes, sample value, …).
    pub arg: u64,
}

impl TimelineEvent {
    /// The instant the event ends (`at + dur`; equals `at` for non-spans).
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.at.saturating_add(self.dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_for_every_kind() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_name("hold "), None);
        assert_eq!(EventKind::from_name(""), None);
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in EventKind::ALL.iter().enumerate() {
            for b in &EventKind::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn phases_partition_the_catalog() {
        let spans = EventKind::ALL
            .iter()
            .filter(|k| k.phase() == Phase::Span)
            .count();
        let instants = EventKind::ALL
            .iter()
            .filter(|k| k.phase() == Phase::Instant)
            .count();
        let samples = EventKind::ALL
            .iter()
            .filter(|k| k.phase() == Phase::CounterSample)
            .count();
        assert_eq!(spans + instants + samples, EventKind::ALL.len());
        assert!(spans > 0 && instants > 0 && samples > 0);
    }

    #[test]
    fn pids_are_distinct_per_process() {
        let pids = [
            Process::Threads.pid(),
            Process::Monitors.pid(),
            Process::Gc.pid(),
            Process::Runtime.pid(),
            Process::Server.pid(),
        ];
        for (i, a) in pids.iter().enumerate() {
            for b in &pids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn span_end_is_start_plus_duration() {
        let ev = TimelineEvent {
            kind: EventKind::GcMinor,
            track: 0,
            at: SimTime::from_nanos(10),
            dur: SimDuration::from_nanos(5),
            arg: 0,
        };
        assert_eq!(ev.end(), SimTime::from_nanos(15));
    }
}
