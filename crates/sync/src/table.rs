//! The lock table and the DTrace-analog profiler report.

use std::collections::BTreeMap;
use std::fmt;

use scalesim_metrics::LogHistogram;
use scalesim_sched::ThreadId;
use scalesim_simkit::SimTime;
use scalesim_trace::{EventKind, Timeline};

use crate::alg::{LockAlg, LockMisuse};
use crate::monitor::{AcquireOutcome, Grant, Monitor, MonitorId, MonitorStats};

/// Owns every monitor in a simulated JVM and aggregates their statistics.
///
/// Monitors are created with a *class* label (e.g. `"workqueue"`,
/// `"dtm-cache"`) so the profiler can report per-class breakdowns the way
/// a DTrace lockstat script groups probes by call site. Every monitor in
/// a table uses the same handoff algorithm (a [`LockAlg`], default FIFO).
///
/// # Examples
///
/// ```
/// use scalesim_sync::{AcquireOutcome, LockTable};
/// use scalesim_sched::ThreadId;
/// use scalesim_simkit::SimTime;
///
/// let mut locks = LockTable::new();
/// let q = locks.create("workqueue");
/// let t0 = ThreadId::new(0);
/// assert_eq!(
///     locks.acquire(q, t0, SimTime::ZERO),
///     Ok(AcquireOutcome::Acquired)
/// );
/// locks.release(q, t0, SimTime::from_nanos(100)).unwrap();
/// assert_eq!(locks.report().total.acquisitions, 1);
/// ```
#[derive(Debug, Default)]
pub struct LockTable {
    monitors: Vec<Monitor>,
    /// Handoff algorithm newly created monitors use.
    alg: LockAlg,
    /// Timeline recorder for hold/wait spans (disabled by default).
    timeline: Timeline,
    /// Distribution of completed hold durations (ns) over every monitor
    /// — the monitor-hold percentiles the analytics layer reports.
    hold_hist: LogHistogram,
    /// Distribution of completed contended-wait durations (ns) — the
    /// lock-acquisition latency percentiles.
    wait_hist: LogHistogram,
}

impl LockTable {
    /// Creates an empty table using the default FIFO handoff algorithm.
    #[must_use]
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Creates an empty table whose monitors use `alg` for handoff.
    #[must_use]
    pub fn with_algorithm(alg: LockAlg) -> Self {
        LockTable {
            alg,
            ..LockTable::default()
        }
    }

    /// The handoff algorithm this table's monitors use.
    #[must_use]
    pub fn algorithm(&self) -> LockAlg {
        self.alg
    }

    /// Installs a timeline recorder; each release then records the closed
    /// hold span (and the granted waiter's wait span, on a handoff).
    ///
    /// Holds and waits still open when the run ends are not emitted.
    pub fn set_timeline(&mut self, timeline: Timeline) {
        self.timeline = timeline;
    }

    /// Removes the recorder (leaving a disabled one) and returns it.
    pub fn take_timeline(&mut self) -> Timeline {
        std::mem::take(&mut self.timeline)
    }

    /// Creates a monitor with a class label and returns its id.
    pub fn create(&mut self, class: &str) -> MonitorId {
        let id = MonitorId(self.monitors.len());
        self.monitors.push(Monitor::new(class, self.alg));
        id
    }

    /// Number of monitors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Whether the table holds no monitors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// Attempts to acquire monitor `m` for `tid`.
    ///
    /// On [`AcquireOutcome::Contended`] the caller must block the thread;
    /// it will be granted ownership by a future release.
    ///
    /// # Errors
    ///
    /// Returns the [`LockMisuse`] on re-entrant acquisition or double
    /// enqueue (state and statistics untouched) so callers can quarantine
    /// the run instead of crashing.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn acquire(
        &mut self,
        m: MonitorId,
        tid: ThreadId,
        now: SimTime,
    ) -> Result<AcquireOutcome, LockMisuse> {
        let outcome = self.monitors[m.0].acquire(tid, now)?;
        if outcome == AcquireOutcome::Contended {
            // Wait-begin marker: the audit pass pairs it with the closing
            // MonitorWait span emitted on handoff; an enqueue that is never
            // closed is a dangling wait.
            self.timeline.instant(
                EventKind::MonitorEnqueue,
                m.0 as u32,
                now,
                tid.index() as u64,
            );
        }
        Ok(outcome)
    }

    /// Releases monitor `m`; returns the handoff grant if a waiter took
    /// over.
    ///
    /// # Errors
    ///
    /// Returns [`LockMisuse::ReleaseByNonOwner`] if `tid` is not the
    /// owner (state and statistics untouched).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn release(
        &mut self,
        m: MonitorId,
        tid: ThreadId,
        now: SimTime,
    ) -> Result<Option<Grant>, LockMisuse> {
        let held_since = self.monitors[m.0].lock.held_since();
        let grant = self.monitors[m.0].release(tid, now)?;
        // The release was accepted, so `tid` owned the monitor and the
        // hold start is known.
        let held_since = held_since.expect("accepted release implies an owned monitor");
        let track = m.0 as u32;
        self.hold_hist
            .record(now.saturating_since(held_since).as_nanos());
        if let Some(g) = grant {
            self.wait_hist.record(g.waited.as_nanos());
        }
        self.timeline.span(
            EventKind::MonitorHold,
            track,
            held_since,
            now,
            tid.index() as u64,
        );
        if let Some(g) = grant {
            let enqueued = SimTime::from_nanos(now.as_nanos().saturating_sub(g.waited.as_nanos()));
            self.timeline.span(
                EventKind::MonitorWait,
                track,
                enqueued,
                now,
                g.next.index() as u64,
            );
        }
        Ok(grant)
    }

    /// Accounts for threads still queued on any monitor when a run ends
    /// mid-wait (budget truncation or quarantine): their partial waits
    /// enter the wait totals and [`MonitorStats::queued`] tallies them,
    /// keeping [`MonitorStats::contention_rate`] honest on truncated
    /// runs. Completed-sample histograms are deliberately untouched.
    pub fn finalize(&mut self, now: SimTime) {
        for mon in &mut self.monitors {
            mon.account_truncated(now);
        }
    }

    /// The current owner of monitor `m`.
    #[must_use]
    pub fn owner(&self, m: MonitorId) -> Option<ThreadId> {
        self.monitors[m.0].lock.owner()
    }

    /// When monitor `m`'s current owner took it; `None` while unowned.
    #[must_use]
    pub fn held_since(&self, m: MonitorId) -> Option<SimTime> {
        self.monitors[m.0].lock.held_since()
    }

    /// Number of threads queued on monitor `m`.
    #[must_use]
    pub fn queue_len(&self, m: MonitorId) -> usize {
        self.monitors[m.0].lock.queue_len()
    }

    /// Whether `tid` is queued on monitor `m` (invariant monitors
    /// cross-check this against the scheduler's blocked state).
    #[must_use]
    pub fn is_waiting(&self, m: MonitorId, tid: ThreadId) -> bool {
        self.monitors[m.0].lock.is_waiting(tid)
    }

    /// Statistics for a single monitor.
    #[must_use]
    pub fn stats(&self, m: MonitorId) -> &MonitorStats {
        &self.monitors[m.0].stats
    }

    /// The class label of monitor `m`.
    #[must_use]
    pub fn class(&self, m: MonitorId) -> &str {
        &self.monitors[m.0].class
    }

    /// Builds the profiler report: per-class and global aggregates.
    #[must_use]
    pub fn report(&self) -> LockReport {
        let mut by_class: BTreeMap<String, MonitorStats> = BTreeMap::new();
        let mut total = MonitorStats::default();
        for mon in &self.monitors {
            by_class
                .entry(mon.class.clone())
                .or_default()
                .merge(&mon.stats);
            total.merge(&mon.stats);
        }
        LockReport {
            by_class,
            total,
            hold_hist: self.hold_hist.clone(),
            wait_hist: self.wait_hist.clone(),
        }
    }
}

/// The DTrace-analog lock-usage report: what Figures 1a/1b are plotted
/// from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LockReport {
    /// Aggregated statistics per lock class, sorted by class name.
    pub by_class: BTreeMap<String, MonitorStats>,
    /// Statistics over every monitor in the VM.
    pub total: MonitorStats,
    /// Distribution of hold durations (ns) across all monitors.
    pub hold_hist: LogHistogram,
    /// Distribution of contended-wait durations (ns) across all monitors.
    pub wait_hist: LogHistogram,
}

impl LockReport {
    /// Acquisition count for one class (0 if the class never appeared).
    #[must_use]
    pub fn acquisitions_of(&self, class: &str) -> u64 {
        self.by_class.get(class).map_or(0, |s| s.acquisitions)
    }

    /// Contention count for one class (0 if the class never appeared).
    #[must_use]
    pub fn contentions_of(&self, class: &str) -> u64 {
        self.by_class.get(class).map_or(0, |s| s.contentions)
    }
}

impl fmt::Display for LockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "locks: {} acquisitions, {} contentions ({:.1}% contended)",
            self.total.acquisitions,
            self.total.contentions,
            self.total.contention_rate() * 100.0
        )?;
        for (class, s) in &self.by_class {
            writeln!(
                f,
                "  {class}: acq={} cont={} wait={} hold={}",
                s.acquisitions, s.contentions, s.total_wait, s.total_hold
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_simkit::SimDuration;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }
    fn tid(n: usize) -> ThreadId {
        ThreadId::new(n)
    }

    #[test]
    fn create_and_query() {
        let mut lt = LockTable::new();
        assert!(lt.is_empty());
        assert_eq!(lt.algorithm(), LockAlg::Fifo);
        let a = lt.create("queue");
        let b = lt.create("cache");
        assert_eq!(lt.len(), 2);
        assert_eq!(lt.class(a), "queue");
        assert_eq!(lt.class(b), "cache");
        assert_eq!(lt.owner(a), None);
        assert_eq!(lt.held_since(a), None);
        assert_eq!(lt.queue_len(a), 0);
    }

    #[test]
    fn report_aggregates_by_class_and_total() {
        let mut lt = LockTable::new();
        let q1 = lt.create("queue");
        let q2 = lt.create("queue");
        let c = lt.create("cache");

        lt.acquire(q1, tid(0), t(0)).unwrap();
        lt.acquire(q1, tid(1), t(1)).unwrap(); // contention
        lt.release(q1, tid(0), t(5)).unwrap(); // handoff -> acquisition 2
        lt.release(q1, tid(1), t(6)).unwrap();
        lt.acquire(q2, tid(2), t(2)).unwrap();
        lt.release(q2, tid(2), t(3)).unwrap();
        lt.acquire(c, tid(3), t(4)).unwrap();
        lt.release(c, tid(3), t(9)).unwrap();

        let r = lt.report();
        assert_eq!(r.acquisitions_of("queue"), 3);
        assert_eq!(r.contentions_of("queue"), 1);
        assert_eq!(r.acquisitions_of("cache"), 1);
        assert_eq!(r.contentions_of("cache"), 0);
        assert_eq!(r.acquisitions_of("nope"), 0);
        assert_eq!(r.total.acquisitions, 4);
        assert_eq!(r.total.contentions, 1);
        assert_eq!(
            r.by_class["queue"].total_wait,
            SimDuration::from_nanos(4) // tid1 waited 1..5
        );
    }

    #[test]
    fn handoff_grant_propagates_through_table() {
        let mut lt = LockTable::new();
        let m = lt.create("db");
        lt.acquire(m, tid(0), t(0)).unwrap();
        assert_eq!(lt.acquire(m, tid(1), t(10)), Ok(AcquireOutcome::Contended));
        let g = lt.release(m, tid(0), t(30)).unwrap().expect("grant");
        assert_eq!(g.next, tid(1));
        assert_eq!(g.waited, SimDuration::from_nanos(20));
        assert_eq!(lt.owner(m), Some(tid(1)));
    }

    #[test]
    fn misuse_propagates_without_side_effects() {
        let mut lt = LockTable::new();
        lt.set_timeline(scalesim_trace::Timeline::with_capacity(16));
        let m = lt.create("db");
        lt.acquire(m, tid(0), t(0)).unwrap();
        assert_eq!(
            lt.acquire(m, tid(0), t(1)),
            Err(LockMisuse::ReentrantAcquire(tid(0)))
        );
        assert_eq!(
            lt.release(m, tid(1), t(2)),
            Err(LockMisuse::ReleaseByNonOwner(tid(1)))
        );
        assert_eq!(lt.owner(m), Some(tid(0)));
        assert_eq!(lt.stats(m).acquisitions, 1);
        // No spurious timeline events or histogram samples were emitted.
        assert_eq!(lt.take_timeline().len(), 0);
        assert_eq!(lt.report().hold_hist.count(), 0);
    }

    #[test]
    fn finalize_accounts_queued_waiters() {
        let mut lt = LockTable::new();
        let m = lt.create("db");
        lt.acquire(m, tid(0), t(0)).unwrap();
        lt.acquire(m, tid(1), t(10)).unwrap();
        lt.acquire(m, tid(2), t(20)).unwrap();
        lt.finalize(t(100));
        let r = lt.report();
        assert_eq!(r.total.queued, 2);
        assert_eq!(r.total.contentions, 2);
        assert_eq!(r.total.total_wait, SimDuration::from_nanos(90 + 80));
        // 2 contentions over (1 acquisition + 2 truncated attempts).
        assert!((r.total.contention_rate() - 2.0 / 3.0).abs() < 1e-12);
        // Histograms only hold completed samples.
        assert_eq!(r.wait_hist.count(), 0);
    }

    #[test]
    fn timeline_records_hold_and_wait_spans() {
        use scalesim_trace::EventKind;

        let mut lt = LockTable::new();
        lt.set_timeline(scalesim_trace::Timeline::with_capacity(16));
        let m = lt.create("db");
        lt.acquire(m, tid(0), t(0)).unwrap();
        lt.acquire(m, tid(1), t(10)).unwrap(); // contended
        lt.release(m, tid(0), t(30)).unwrap(); // handoff to tid 1
        lt.release(m, tid(1), t(45)).unwrap();

        let tl = lt.take_timeline();
        let events: Vec<_> = tl.events().copied().collect();
        let holds: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::MonitorHold)
            .collect();
        assert_eq!(holds.len(), 2);
        assert_eq!(holds[0].at, t(0));
        assert_eq!(holds[0].end(), t(30));
        assert_eq!(holds[0].arg, 0, "owner attribution");
        assert_eq!(holds[1].arg, 1);
        let waits: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::MonitorWait)
            .collect();
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].at, t(10));
        assert_eq!(waits[0].end(), t(30));
        assert_eq!(waits[0].arg, 1, "waiter attribution");
        let enqueues: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::MonitorEnqueue)
            .collect();
        assert_eq!(enqueues.len(), 1);
        assert_eq!(enqueues[0].at, t(10));
        assert_eq!(enqueues[0].arg, 1, "waiter attribution");
        // The recorder left behind is disabled.
        assert_eq!(lt.take_timeline().len(), 0);
    }

    #[test]
    fn timeline_works_for_every_algorithm() {
        use scalesim_trace::EventKind;

        for alg in LockAlg::ALL {
            let mut lt = LockTable::with_algorithm(alg);
            assert_eq!(lt.algorithm(), alg);
            lt.set_timeline(scalesim_trace::Timeline::with_capacity(16));
            let m = lt.create("db");
            lt.acquire(m, tid(0), t(0)).unwrap();
            lt.acquire(m, tid(1), t(10)).unwrap();
            let g = lt.release(m, tid(0), t(30)).unwrap().expect("grant");
            assert_eq!(g.next, tid(1));
            lt.release(m, g.next, t(45)).unwrap();

            // Every algorithm emits the same trace shape: one enqueue,
            // one closed wait span, two closed hold spans — and the wait
            // span reconstructs the enqueue instant exactly.
            let events: Vec<_> = lt.take_timeline().events().copied().collect();
            let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
            assert_eq!(count(EventKind::MonitorEnqueue), 1, "{alg}");
            assert_eq!(count(EventKind::MonitorHold), 2, "{alg}");
            let waits: Vec<_> = events
                .iter()
                .filter(|e| e.kind == EventKind::MonitorWait)
                .collect();
            assert_eq!(waits.len(), 1, "{alg}");
            assert_eq!(waits[0].at, t(10), "{alg}: wait span starts at enqueue");
            assert_eq!(waits[0].end(), t(30), "{alg}");
        }
    }

    #[test]
    fn report_histograms_record_holds_and_waits() {
        let mut lt = LockTable::new();
        let m = lt.create("db");
        // Uncontended acquire/release: one hold sample, no wait sample.
        lt.acquire(m, tid(0), t(0)).unwrap();
        lt.release(m, tid(0), t(100)).unwrap();
        // Contended handoff: second hold sample plus one wait sample.
        lt.acquire(m, tid(0), t(200)).unwrap();
        lt.acquire(m, tid(1), t(210)).unwrap();
        lt.release(m, tid(0), t(250)).unwrap(); // tid1 waited 40 ns
        lt.release(m, tid(1), t(300)).unwrap(); // tid1 held 50 ns

        let r = lt.report();
        assert_eq!(r.hold_hist.count(), 3);
        assert_eq!(r.wait_hist.count(), 1);
        assert_eq!(r.hold_hist.sum(), 100 + 50 + 50);
        assert_eq!(r.wait_hist.sum(), 40);
        // Quantiles report power-of-two bucket upper bounds.
        let p50 = r.hold_hist.quantile(0.5).expect("non-empty");
        assert!(p50 >= 50, "{p50}");
        assert!(r.wait_hist.quantile(0.99).expect("non-empty") >= 40);
    }

    #[test]
    fn display_report_is_readable() {
        let mut lt = LockTable::new();
        let m = lt.create("db");
        lt.acquire(m, tid(0), t(0)).unwrap();
        lt.release(m, tid(0), t(5)).unwrap();
        let text = lt.report().to_string();
        assert!(text.contains("1 acquisitions"), "{text}");
        assert!(text.contains("db:"), "{text}");
    }
}
