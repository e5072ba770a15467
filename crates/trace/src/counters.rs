//! The always-on counters registry.
//!
//! A [`Counters`] is a fixed array of `u64` slots indexed by [`CounterId`]
//! — incrementing is one array add, cheap enough to stay on even in the
//! simulation hot path. It unifies the tallies that were previously
//! scattered across `LockReport`, `HeapStats`, `StateTimes` and the sweep
//! harness into one machine-readable catalog carried by every `RunReport`.
//!
//! Most slots are *monotonic counters* incremented live at the runtime's
//! existing hooks; a few are *gauges* ([`CounterId::is_gauge`]) set once at
//! report-assembly time from subsystem logs (GC collection counts, events
//! processed, trace-ring drops). Both kinds are deterministic functions of
//! `(config, seed)`.

use std::fmt;

/// Number of slots in a [`Counters`] registry.
pub const COUNTER_SLOTS: usize = 22;

/// A fixed slot in the counters registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Objects allocated by mutators.
    Allocations,
    /// Bytes allocated by mutators.
    AllocBytes,
    /// Objects whose death was observed by the tracer hooks.
    ObjectDeaths,
    /// Monitor acquisition attempts (immediate or contended).
    LockAcquires,
    /// Monitor acquisition attempts that had to queue.
    LockContentions,
    /// Thread dispatches onto a core.
    Dispatches,
    /// Quantum-expiry preemptions.
    Preemptions,
    /// Stop-the-world pauses applied (minor, full, and concurrent-cycle
    /// initial/remark pauses all count).
    StwPauses,
    /// Invariant-monitor sweeps executed (periodic and at safepoints).
    MonitorScans,
    /// Chaos faults injected by the run's `ChaosPlan`.
    ChaosInjections,
    /// Gauge: minor collections, from the GC log.
    MinorGcs,
    /// Gauge: per-heaplet local minor collections, from the GC log.
    LocalMinorGcs,
    /// Gauge: full collections, from the GC log.
    FullGcs,
    /// Gauge: concurrent old-gen phases (initial mark + remark entries).
    ConcGcPhases,
    /// Gauge: events the engine processed.
    EventsProcessed,
    /// Gauge: timeline events evicted by ring retention.
    TimelineDropped,
    /// Server request arrivals (first attempts and retries both count).
    ReqArrivals,
    /// Server requests completed within their client's deadline (goodput).
    ReqGoodput,
    /// Server request attempts shed at the door (queue full, admission
    /// cap, deadline shed, or degraded-mode class shedding).
    ReqSheds,
    /// Server request attempts whose client-side timeout fired first.
    ReqTimeouts,
    /// Client retries issued after a timeout or shed.
    ReqRetries,
    /// Gauge: request attempts still unsettled when the run ended.
    ReqInFlight,
}

impl CounterId {
    /// Every slot, in registry order.
    pub const ALL: [CounterId; COUNTER_SLOTS] = [
        CounterId::Allocations,
        CounterId::AllocBytes,
        CounterId::ObjectDeaths,
        CounterId::LockAcquires,
        CounterId::LockContentions,
        CounterId::Dispatches,
        CounterId::Preemptions,
        CounterId::StwPauses,
        CounterId::MonitorScans,
        CounterId::ChaosInjections,
        CounterId::MinorGcs,
        CounterId::LocalMinorGcs,
        CounterId::FullGcs,
        CounterId::ConcGcPhases,
        CounterId::EventsProcessed,
        CounterId::TimelineDropped,
        CounterId::ReqArrivals,
        CounterId::ReqGoodput,
        CounterId::ReqSheds,
        CounterId::ReqTimeouts,
        CounterId::ReqRetries,
        CounterId::ReqInFlight,
    ];

    /// The slot's array index.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            CounterId::Allocations => 0,
            CounterId::AllocBytes => 1,
            CounterId::ObjectDeaths => 2,
            CounterId::LockAcquires => 3,
            CounterId::LockContentions => 4,
            CounterId::Dispatches => 5,
            CounterId::Preemptions => 6,
            CounterId::StwPauses => 7,
            CounterId::MonitorScans => 8,
            CounterId::ChaosInjections => 9,
            CounterId::MinorGcs => 10,
            CounterId::LocalMinorGcs => 11,
            CounterId::FullGcs => 12,
            CounterId::ConcGcPhases => 13,
            CounterId::EventsProcessed => 14,
            CounterId::TimelineDropped => 15,
            CounterId::ReqArrivals => 16,
            CounterId::ReqGoodput => 17,
            CounterId::ReqSheds => 18,
            CounterId::ReqTimeouts => 19,
            CounterId::ReqRetries => 20,
            CounterId::ReqInFlight => 21,
        }
    }

    /// Stable name used in manifests and debug output.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CounterId::Allocations => "allocations",
            CounterId::AllocBytes => "alloc-bytes",
            CounterId::ObjectDeaths => "object-deaths",
            CounterId::LockAcquires => "lock-acquires",
            CounterId::LockContentions => "lock-contentions",
            CounterId::Dispatches => "dispatches",
            CounterId::Preemptions => "preemptions",
            CounterId::StwPauses => "stw-pauses",
            CounterId::MonitorScans => "monitor-scans",
            CounterId::ChaosInjections => "chaos-injections",
            CounterId::MinorGcs => "minor-gcs",
            CounterId::LocalMinorGcs => "local-minor-gcs",
            CounterId::FullGcs => "full-gcs",
            CounterId::ConcGcPhases => "conc-gc-phases",
            CounterId::EventsProcessed => "events-processed",
            CounterId::TimelineDropped => "timeline-dropped",
            CounterId::ReqArrivals => "req-arrivals",
            CounterId::ReqGoodput => "req-goodput",
            CounterId::ReqSheds => "req-sheds",
            CounterId::ReqTimeouts => "req-timeouts",
            CounterId::ReqRetries => "req-retries",
            CounterId::ReqInFlight => "req-in-flight",
        }
    }

    /// True for slots set from subsystem logs at report assembly rather
    /// than incremented live.
    #[must_use]
    pub const fn is_gauge(self) -> bool {
        matches!(
            self,
            CounterId::MinorGcs
                | CounterId::LocalMinorGcs
                | CounterId::FullGcs
                | CounterId::ConcGcPhases
                | CounterId::EventsProcessed
                | CounterId::TimelineDropped
                | CounterId::ReqInFlight
        )
    }
}

/// The fixed-slot registry carried by every run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Counters {
    slots: [u64; COUNTER_SLOTS],
}

impl Counters {
    /// An all-zero registry.
    #[must_use]
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds one to a slot (O(1), the hot-path operation).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.slots[id.index()] += 1;
    }

    /// Adds `n` to a slot.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.slots[id.index()] += n;
    }

    /// Overwrites a slot (gauges at report assembly).
    pub fn set(&mut self, id: CounterId, value: u64) {
        self.slots[id.index()] = value;
    }

    /// Reads a slot.
    #[must_use]
    pub fn get(&self, id: CounterId) -> u64 {
        self.slots[id.index()]
    }

    /// Iterates `(id, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        CounterId::ALL.iter().map(|&id| (id, self.get(id)))
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (id, value) in self.iter() {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{}={value}", id.name())?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_a_bijection_onto_the_slots() {
        let mut seen = [false; COUNTER_SLOTS];
        for id in CounterId::ALL {
            assert!(!seen[id.index()], "{id:?} shares an index");
            seen[id.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in CounterId::ALL.iter().enumerate() {
            for b in &CounterId::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn inc_add_set_get_round_trip() {
        let mut c = Counters::new();
        c.inc(CounterId::Allocations);
        c.inc(CounterId::Allocations);
        c.add(CounterId::AllocBytes, 128);
        c.set(CounterId::EventsProcessed, 7);
        assert_eq!(c.get(CounterId::Allocations), 2);
        assert_eq!(c.get(CounterId::AllocBytes), 128);
        assert_eq!(c.get(CounterId::EventsProcessed), 7);
        assert_eq!(c.get(CounterId::FullGcs), 0);
    }

    #[test]
    fn display_lists_every_slot_once() {
        let text = Counters::new().to_string();
        for id in CounterId::ALL {
            assert!(
                text.contains(&format!("{}=0", id.name())),
                "missing {}",
                id.name()
            );
        }
        assert_eq!(text.split(' ').count(), COUNTER_SLOTS);
    }
}
