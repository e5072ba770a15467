//! Java-style monitors with per-lock statistics.
//!
//! A [`Monitor`] models an object monitor under the JVM's inflated-lock
//! slow path: one owner, a wait queue, and direct handoff on release.
//! Every acquisition and every *contention instance* (an acquire attempt
//! that finds the monitor held — the quantity DTrace's lockstat probes
//! count, and the y-axis of the paper's Figure 1b) is recorded.
//!
//! The handoff discipline — who waits where and which waiter a release
//! hands the monitor to — is the run's [`LockAlg`] (see [`crate::alg`]).
//! Statistics are accrued here in the wrapper, derived purely from
//! acquire outcomes and release grants, so every algorithm shares one
//! arithmetic path and the counters stay comparable across algorithms.

use std::fmt;

use scalesim_sched::ThreadId;
use scalesim_simkit::{SimDuration, SimTime};

use crate::alg::{Lock, LockAlg, LockMisuse};

/// Identifies a monitor within a [`LockTable`](crate::LockTable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MonitorId(pub(crate) usize);

impl MonitorId {
    /// The raw index within the owning table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MonitorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "monitor{}", self.0)
    }
}

/// Outcome of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The monitor was free; the caller now owns it (fast path).
    Acquired,
    /// The monitor was held; the caller was enqueued and must block until
    /// a release hands the monitor over.
    Contended,
}

/// A completed handoff returned by [`LockTable::release`].
///
/// [`LockTable::release`]: crate::LockTable::release
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The thread that now owns the monitor.
    pub next: ThreadId,
    /// How long that thread waited in the queue (exactly grant time minus
    /// enqueue time, for every algorithm — the audit pass reconstructs
    /// enqueue instants from this).
    pub waited: SimDuration,
    /// Modeled handoff cost charged to the new owner's critical section
    /// (park/wake latency on the lock's critical path). Always zero for
    /// the baseline FIFO algorithm.
    pub penalty: SimDuration,
}

/// Cumulative statistics for one monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorStats {
    /// Successful lock acquisitions (fast path + granted handoffs) —
    /// Figure 1a's quantity.
    pub acquisitions: u64,
    /// Acquire attempts that found the monitor held — Figure 1b's
    /// quantity.
    pub contentions: u64,
    /// Total time threads spent waiting in this monitor's queue,
    /// including partial waits of threads still queued when a run
    /// truncates (see [`queued`](MonitorStats::queued)).
    pub total_wait: SimDuration,
    /// Longest single wait.
    pub max_wait: SimDuration,
    /// Total time the monitor was held.
    pub total_hold: SimDuration,
    /// Waiters still queued when the run ended (budget truncation or
    /// quarantine). Each was counted in `contentions` at enqueue but
    /// never granted, so without this the contention/acquisition
    /// equalities — and [`contention_rate`](MonitorStats::contention_rate)
    /// — would skew on truncated runs.
    pub queued: u64,
}

impl MonitorStats {
    /// Fraction of acquire attempts that were contended (0 when there
    /// were no attempts). Still-queued waiters at truncation count as
    /// attempts: every contention instance has a matching attempt in the
    /// denominator, completed or not.
    #[must_use]
    pub fn contention_rate(&self) -> f64 {
        let attempts = self.acquisitions + self.queued;
        if attempts == 0 {
            0.0
        } else {
            self.contentions as f64 / attempts as f64
        }
    }

    /// Adds another monitor's statistics into this one (class and global
    /// aggregation).
    pub fn merge(&mut self, other: &MonitorStats) {
        self.acquisitions += other.acquisitions;
        self.contentions += other.contentions;
        self.total_wait += other.total_wait;
        self.max_wait = self.max_wait.max(other.max_wait);
        self.total_hold += other.total_hold;
        self.queued += other.queued;
    }
}

#[derive(Debug)]
pub(crate) struct Monitor {
    pub class: String,
    pub lock: Lock,
    pub stats: MonitorStats,
}

impl Monitor {
    pub fn new(class: &str, alg: LockAlg) -> Self {
        Monitor {
            class: class.to_owned(),
            lock: Lock::new(alg),
            stats: MonitorStats::default(),
        }
    }

    /// Attempts to acquire for `tid` at `now`.
    ///
    /// # Errors
    ///
    /// Returns the [`LockMisuse`] on re-entrant acquisition (the
    /// workload models never re-enter a monitor they hold), double
    /// enqueue, or other protocol misuse, leaving the monitor state and
    /// statistics untouched.
    pub fn acquire(&mut self, tid: ThreadId, now: SimTime) -> Result<AcquireOutcome, LockMisuse> {
        let outcome = self.lock.acquire(tid, now)?;
        match outcome {
            AcquireOutcome::Acquired => self.stats.acquisitions += 1,
            AcquireOutcome::Contended => self.stats.contentions += 1,
        }
        Ok(outcome)
    }

    /// Releases the monitor, handing it to the waiter the algorithm
    /// chooses (the oldest one, under the default FIFO discipline).
    ///
    /// # Errors
    ///
    /// Returns [`LockMisuse::ReleaseByNonOwner`] if `tid` is not the
    /// current owner, leaving the monitor state and statistics untouched.
    pub fn release(&mut self, tid: ThreadId, now: SimTime) -> Result<Option<Grant>, LockMisuse> {
        let held_since = self.lock.held_since();
        let grant = self.lock.release(tid, now)?;
        // Only accrue after the algorithm accepted the release; a
        // misused release must not perturb the counters.
        if let Some(held_since) = held_since {
            self.stats.total_hold += now.saturating_since(held_since);
        }
        if let Some(g) = &grant {
            self.stats.acquisitions += 1;
            self.stats.total_wait += g.waited;
            self.stats.max_wait = self.stats.max_wait.max(g.waited);
        }
        Ok(grant)
    }

    /// Accounts for waiters still queued at `now` when the run ends
    /// mid-wait: their partial waits enter `total_wait`/`max_wait` and
    /// they are tallied in [`MonitorStats::queued`].
    pub fn account_truncated(&mut self, now: SimTime) {
        for (_, enqueued_at) in self.lock.queued_waiters() {
            let waited = now.saturating_since(enqueued_at);
            self.stats.total_wait += waited;
            self.stats.max_wait = self.stats.max_wait.max(waited);
            self.stats.queued += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }
    fn tid(n: usize) -> ThreadId {
        ThreadId::new(n)
    }
    fn fifo(class: &str) -> Monitor {
        Monitor::new(class, LockAlg::Fifo)
    }

    #[test]
    fn fast_path_acquire_release() {
        let mut m = fifo("q");
        assert_eq!(m.acquire(tid(0), t(0)), Ok(AcquireOutcome::Acquired));
        assert_eq!(m.lock.owner(), Some(tid(0)));
        assert_eq!(m.lock.held_since(), Some(t(0)));
        assert_eq!(m.release(tid(0), t(10)), Ok(None));
        assert_eq!(m.lock.owner(), None);
        assert_eq!(m.lock.held_since(), None);
        assert_eq!(m.stats.acquisitions, 1);
        assert_eq!(m.stats.contentions, 0);
        assert_eq!(m.stats.total_hold, SimDuration::from_nanos(10));
    }

    #[test]
    fn contended_acquire_queues_fifo_and_hands_off() {
        let mut m = fifo("q");
        m.acquire(tid(0), t(0)).unwrap();
        assert_eq!(m.acquire(tid(1), t(2)), Ok(AcquireOutcome::Contended));
        assert_eq!(m.acquire(tid(2), t(3)), Ok(AcquireOutcome::Contended));
        assert_eq!(m.lock.queue_len(), 2);
        assert_eq!(m.stats.contentions, 2);

        let g = m.release(tid(0), t(10)).unwrap().expect("handoff");
        assert_eq!(g.next, tid(1));
        assert_eq!(g.waited, SimDuration::from_nanos(8));
        assert_eq!(g.penalty, SimDuration::ZERO);
        assert_eq!(m.lock.owner(), Some(tid(1)));
        assert_eq!(m.stats.acquisitions, 2);

        let g = m.release(tid(1), t(20)).unwrap().expect("handoff");
        assert_eq!(g.next, tid(2));
        assert_eq!(g.waited, SimDuration::from_nanos(17));
        assert_eq!(m.release(tid(2), t(25)), Ok(None));
        assert_eq!(m.stats.total_wait, SimDuration::from_nanos(8 + 17));
        assert_eq!(m.stats.max_wait, SimDuration::from_nanos(17));
    }

    #[test]
    fn reentrant_acquire_is_typed_misuse() {
        let mut m = fifo("q");
        m.acquire(tid(0), t(0)).unwrap();
        assert_eq!(
            m.acquire(tid(0), t(1)),
            Err(LockMisuse::ReentrantAcquire(tid(0)))
        );
        // State and stats untouched.
        assert_eq!(m.lock.owner(), Some(tid(0)));
        assert_eq!(m.stats.acquisitions, 1);
    }

    #[test]
    fn release_by_non_owner_is_typed_misuse() {
        let mut m = fifo("q");
        m.acquire(tid(0), t(0)).unwrap();
        assert_eq!(
            m.release(tid(1), t(1)),
            Err(LockMisuse::ReleaseByNonOwner(tid(1)))
        );
        assert_eq!(m.lock.owner(), Some(tid(0)));
        assert_eq!(m.stats.total_hold, SimDuration::ZERO);
    }

    #[test]
    fn double_enqueue_is_typed_misuse() {
        let mut m = fifo("q");
        m.acquire(tid(0), t(0)).unwrap();
        m.acquire(tid(1), t(1)).unwrap();
        assert_eq!(
            m.acquire(tid(1), t(2)),
            Err(LockMisuse::DoubleEnqueue(tid(1)))
        );
        assert_eq!(m.lock.queue_len(), 1);
        assert_eq!(m.stats.contentions, 1);
    }

    #[test]
    fn truncation_accounts_still_queued_waiters() {
        let mut m = fifo("q");
        m.acquire(tid(0), t(0)).unwrap();
        m.acquire(tid(1), t(10)).unwrap();
        m.acquire(tid(2), t(20)).unwrap();
        m.account_truncated(t(100));
        assert_eq!(m.stats.queued, 2);
        assert_eq!(m.stats.total_wait, SimDuration::from_nanos(90 + 80));
        assert_eq!(m.stats.max_wait, SimDuration::from_nanos(90));
        // Contention rate denominator now includes the truncated
        // attempts: 2 contentions / (1 acquisition + 2 queued).
        assert!((m.stats.contention_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn contention_rate() {
        let mut s = MonitorStats::default();
        assert_eq!(s.contention_rate(), 0.0);
        s.acquisitions = 10;
        s.contentions = 3;
        assert!((s.contention_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = MonitorStats {
            acquisitions: 1,
            contentions: 1,
            total_wait: SimDuration::from_nanos(5),
            max_wait: SimDuration::from_nanos(5),
            total_hold: SimDuration::from_nanos(9),
            queued: 1,
        };
        let b = MonitorStats {
            acquisitions: 2,
            contentions: 0,
            total_wait: SimDuration::from_nanos(1),
            max_wait: SimDuration::from_nanos(1),
            total_hold: SimDuration::from_nanos(2),
            queued: 0,
        };
        a.merge(&b);
        assert_eq!(a.acquisitions, 3);
        assert_eq!(a.max_wait, SimDuration::from_nanos(5));
        assert_eq!(a.total_hold, SimDuration::from_nanos(11));
        assert_eq!(a.queued, 1);
    }

    #[test]
    fn monitor_id_display() {
        assert_eq!(MonitorId(4).to_string(), "monitor4");
        assert_eq!(MonitorId(4).index(), 4);
    }
}
