//! Monitor handoff algorithms.
//!
//! The paper *measures* lock contention as a scalability limiter; the
//! related work (Dice & Kogan, "Malthusian Locks" / "Avoiding Scalability
//! Collapse by Restricting Concurrency") shows how the handoff discipline
//! itself decides whether a saturated lock collapses. This module makes
//! the discipline a per-run choice ([`LockAlg`]), realised by one enum
//! over three concrete algorithms:
//!
//! * **FIFO** — the paper-calibrated baseline: strict FIFO handoff
//!   with no modeled handoff cost (the seed model every figure table was
//!   produced with; it must stay byte-identical).
//! * **MCS** — an MCS/CLH-style queue lock: the same strict FIFO
//!   order, but a waiter that spins longer than [`MCS_SPIN_BOUND`] parks,
//!   and waking a parked successor puts [`PARK_WAKE_COST`] on the lock's
//!   critical path. Under saturation every handoff pays it — the
//!   scalability collapse knee.
//! * **Malthusian** — concurrency restriction: at most
//!   [`MALTHUSIAN_ACTIVE_CAP`] waiters stay active (spinning); the
//!   surplus parks in a passive list. Handoffs go to active waiters, so
//!   the wake cost stays off the critical path; passive waiters are
//!   culled back in periodically for long-term fairness.
//!
//! Every algorithm reports `Grant::waited` as exactly `now − enqueue
//! time`, keeps contention counting at enqueue, and exposes its full
//! waiter set (parked or not) to the monitor's `is_waiting` — the
//! invariant scanner, the tracing layer, and the offline audit crate
//! rely on those three contracts and run unchanged across algorithms.

use std::collections::VecDeque;
use std::fmt;

use scalesim_sched::ThreadId;
use scalesim_simkit::{SimDuration, SimTime};

use crate::monitor::{AcquireOutcome, Grant};

/// A waiter spinning longer than this is modeled as parked (MCS).
pub const MCS_SPIN_BOUND: SimDuration = SimDuration::from_micros(5);

/// Cost of waking a parked waiter when the wake sits on the lock's
/// critical path: scheduler latency plus the refill of the
/// lock-protected cache lines. Charged by extending the new owner's
/// hold (the runtime adds [`Grant::penalty`] to the critical step).
pub const PARK_WAKE_COST: SimDuration = SimDuration::from_micros(25);

/// Maximum concurrently *active* (spinning) waiters under the
/// Malthusian lock; everyone else parks in the passive list.
pub const MALTHUSIAN_ACTIVE_CAP: usize = 2;

/// Every this-many grants the Malthusian lock readmits the oldest
/// passive waiter into the active set (long-term fairness).
pub const MALTHUSIAN_CULL_PERIOD: u64 = 64;

/// Selects the monitor handoff algorithm for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LockAlg {
    /// The paper-calibrated FIFO handoff monitor (byte-identical to the
    /// pre-refactor seed model).
    #[default]
    Fifo,
    /// MCS/CLH-style queue lock with bounded spinning before parking.
    Mcs,
    /// Malthusian / concurrency-restricting lock (active + passive sets).
    Malthusian,
}

impl LockAlg {
    /// Every algorithm, in the order studies sweep them.
    pub const ALL: [LockAlg; 3] = [LockAlg::Fifo, LockAlg::Mcs, LockAlg::Malthusian];

    /// Parses a CLI/env spelling. Returns `None` for unknown names.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(LockAlg::Fifo),
            "mcs" => Some(LockAlg::Mcs),
            "malthusian" => Some(LockAlg::Malthusian),
            _ => None,
        }
    }

    /// The canonical spelling [`LockAlg::parse`] accepts.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LockAlg::Fifo => "fifo",
            LockAlg::Mcs => "mcs",
            LockAlg::Malthusian => "malthusian",
        }
    }

    /// Reads `SCALESIM_LOCK_ALG`; unset or unrecognized values fall back
    /// to the default FIFO algorithm (lenient like the other env knobs).
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("SCALESIM_LOCK_ALG")
            .ok()
            .and_then(|v| LockAlg::parse(&v))
            .unwrap_or_default()
    }
}

impl fmt::Display for LockAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol misuse detected by a lock algorithm. Previously these were
/// `assert!`s on the run path; returning them typed lets chaos-injected
/// misuse quarantine the run instead of crashing the sweep worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMisuse {
    /// A thread tried to acquire a monitor it already owns (the workload
    /// models never re-enter).
    ReentrantAcquire(ThreadId),
    /// A thread tried to enqueue twice on one monitor.
    DoubleEnqueue(ThreadId),
    /// A thread released a monitor it does not own.
    ReleaseByNonOwner(ThreadId),
}

impl fmt::Display for LockMisuse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMisuse::ReentrantAcquire(tid) => write!(f, "{tid} re-entered a held monitor"),
            LockMisuse::DoubleEnqueue(tid) => write!(f, "{tid} enqueued twice on one monitor"),
            LockMisuse::ReleaseByNonOwner(tid) => {
                write!(f, "{tid} released a monitor it does not own")
            }
        }
    }
}

/// One monitor's lock under its handoff algorithm: who owns it, who
/// waits, and which waiter a release hands it to (at what modeled cost).
/// Held inline by the monitor and dispatched by `match`, so every
/// algorithm takes the same statically dispatched path.
///
/// Contracts every variant keeps (the invariant scanner, the trace
/// layer, and the audit crate depend on them):
///
/// * mutual exclusion — at most one owner at a time, changed only by
///   `acquire` on a free lock or a release handoff;
/// * `Grant::waited` is exactly `now − enqueue time`, so the audit
///   pass can reconstruct the enqueue instant from the wait span;
/// * contention is observable at enqueue: `acquire` on a held lock
///   returns [`AcquireOutcome::Contended`] and the waiter is visible
///   through `is_waiting` until granted (parked or not);
/// * eventual admission — every waiter is granted after finitely many
///   releases (no starvation).
#[derive(Debug)]
pub(crate) enum Lock {
    /// The paper-calibrated baseline.
    Fifo(FifoLock),
    /// MCS/CLH-style queue lock: the FIFO lock, plus [`PARK_WAKE_COST`]
    /// on every handoff to a waiter that queued longer than
    /// [`MCS_SPIN_BOUND`] (modeled as parked).
    Mcs(FifoLock),
    /// Malthusian / concurrency-restricting lock.
    Malthusian(MalthusianLock),
}

impl Lock {
    /// A free lock running `alg`.
    pub(crate) fn new(alg: LockAlg) -> Self {
        match alg {
            LockAlg::Fifo => Lock::Fifo(FifoLock::default()),
            LockAlg::Mcs => Lock::Mcs(FifoLock::default()),
            LockAlg::Malthusian => Lock::Malthusian(MalthusianLock::default()),
        }
    }

    /// Attempts to acquire for `tid` at `now`.
    ///
    /// # Errors
    ///
    /// [`LockMisuse::ReentrantAcquire`] when `tid` already owns the
    /// monitor, [`LockMisuse::DoubleEnqueue`] when it is already queued.
    pub(crate) fn acquire(
        &mut self,
        tid: ThreadId,
        now: SimTime,
    ) -> Result<AcquireOutcome, LockMisuse> {
        match self {
            Lock::Fifo(f) | Lock::Mcs(f) => f.acquire(tid, now),
            Lock::Malthusian(m) => m.acquire(tid, now),
        }
    }

    /// Releases the monitor, handing it to the algorithm's chosen waiter.
    ///
    /// # Errors
    ///
    /// [`LockMisuse::ReleaseByNonOwner`] when `tid` is not the owner.
    pub(crate) fn release(
        &mut self,
        tid: ThreadId,
        now: SimTime,
    ) -> Result<Option<Grant>, LockMisuse> {
        match self {
            Lock::Fifo(f) => f.release(tid, now),
            Lock::Mcs(f) => Ok(f.release(tid, now)?.map(|mut g| {
                if g.waited > MCS_SPIN_BOUND {
                    g.penalty = PARK_WAKE_COST;
                }
                g
            })),
            Lock::Malthusian(m) => m.release(tid, now),
        }
    }

    /// The current owner.
    pub(crate) fn owner(&self) -> Option<ThreadId> {
        match self {
            Lock::Fifo(f) | Lock::Mcs(f) => f.owner,
            Lock::Malthusian(m) => m.owner,
        }
    }

    /// When the current owner took the monitor; `None` while unowned.
    pub(crate) fn held_since(&self) -> Option<SimTime> {
        match self {
            Lock::Fifo(f) | Lock::Mcs(f) => f.owner.map(|_| f.held_since),
            Lock::Malthusian(m) => m.owner.map(|_| m.held_since),
        }
    }

    /// Number of queued waiters (active and parked).
    pub(crate) fn queue_len(&self) -> usize {
        match self {
            Lock::Fifo(f) | Lock::Mcs(f) => f.waiters.len(),
            Lock::Malthusian(m) => m.active.len() + m.passive.len(),
        }
    }

    /// Whether `tid` is queued (active or parked).
    pub(crate) fn is_waiting(&self, tid: ThreadId) -> bool {
        match self {
            Lock::Fifo(f) | Lock::Mcs(f) => f.is_waiting(tid),
            Lock::Malthusian(m) => m.is_waiting(tid),
        }
    }

    /// Every queued waiter with its enqueue time (used to account for
    /// still-queued waiters when a run truncates mid-wait).
    pub(crate) fn queued_waiters(&self) -> Vec<(ThreadId, SimTime)> {
        match self {
            Lock::Fifo(f) | Lock::Mcs(f) => f.waiters.iter().copied().collect(),
            Lock::Malthusian(m) => m.active.iter().chain(&m.passive).copied().collect(),
        }
    }
}

// ---------------------------------------------------------------------
// FIFO (the seed model; MCS shares it)
// ---------------------------------------------------------------------

/// The paper-calibrated baseline: one owner, a FIFO wait queue, direct
/// handoff on release, no modeled handoff cost.
#[derive(Debug, Default)]
pub(crate) struct FifoLock {
    owner: Option<ThreadId>,
    held_since: SimTime,
    waiters: VecDeque<(ThreadId, SimTime)>,
}

impl FifoLock {
    fn acquire(&mut self, tid: ThreadId, now: SimTime) -> Result<AcquireOutcome, LockMisuse> {
        if self.owner == Some(tid) {
            return Err(LockMisuse::ReentrantAcquire(tid));
        }
        match self.owner {
            None => {
                self.owner = Some(tid);
                self.held_since = now;
                Ok(AcquireOutcome::Acquired)
            }
            Some(_) => {
                if self.is_waiting(tid) {
                    return Err(LockMisuse::DoubleEnqueue(tid));
                }
                self.waiters.push_back((tid, now));
                Ok(AcquireOutcome::Contended)
            }
        }
    }

    fn release(&mut self, tid: ThreadId, now: SimTime) -> Result<Option<Grant>, LockMisuse> {
        if self.owner != Some(tid) {
            return Err(LockMisuse::ReleaseByNonOwner(tid));
        }
        match self.waiters.pop_front() {
            None => {
                self.owner = None;
                Ok(None)
            }
            Some((next, enqueued_at)) => {
                let waited = now.saturating_since(enqueued_at);
                self.owner = Some(next);
                self.held_since = now;
                Ok(Some(Grant {
                    next,
                    waited,
                    penalty: SimDuration::ZERO,
                }))
            }
        }
    }

    fn is_waiting(&self, tid: ThreadId) -> bool {
        self.waiters.iter().any(|&(w, _)| w == tid)
    }
}

// ---------------------------------------------------------------------
// Malthusian / concurrency-restricting lock
// ---------------------------------------------------------------------

/// Malthusian lock (Dice & Kogan): at most [`MALTHUSIAN_ACTIVE_CAP`]
/// waiters stay *active* (spinning, cheap to hand to); the surplus parks
/// in a *passive* list. Handoffs prefer the active set, keeping
/// [`PARK_WAKE_COST`] off the critical path; a direct grant from the
/// passive list (only when the active set is empty) pays it. Every
/// [`MALTHUSIAN_CULL_PERIOD`] grants the oldest passive waiter is
/// readmitted to the active tail — its wakeup happens while the lock
/// keeps moving, so readmission itself is free on the critical path —
/// which bounds passive waiting and preserves eventual admission.
#[derive(Debug, Default)]
pub(crate) struct MalthusianLock {
    owner: Option<ThreadId>,
    held_since: SimTime,
    /// Spinning waiters, FIFO among themselves.
    active: VecDeque<(ThreadId, SimTime)>,
    /// Parked surplus, FIFO; readmitted by culling or drained when the
    /// active set empties.
    passive: VecDeque<(ThreadId, SimTime)>,
    /// Grant counter driving the culling cadence.
    grants: u64,
}

impl MalthusianLock {
    fn acquire(&mut self, tid: ThreadId, now: SimTime) -> Result<AcquireOutcome, LockMisuse> {
        if self.owner == Some(tid) {
            return Err(LockMisuse::ReentrantAcquire(tid));
        }
        match self.owner {
            None => {
                self.owner = Some(tid);
                self.held_since = now;
                Ok(AcquireOutcome::Acquired)
            }
            Some(_) => {
                if self.is_waiting(tid) {
                    return Err(LockMisuse::DoubleEnqueue(tid));
                }
                if self.active.len() < MALTHUSIAN_ACTIVE_CAP {
                    self.active.push_back((tid, now));
                } else {
                    self.passive.push_back((tid, now));
                }
                Ok(AcquireOutcome::Contended)
            }
        }
    }

    fn release(&mut self, tid: ThreadId, now: SimTime) -> Result<Option<Grant>, LockMisuse> {
        if self.owner != Some(tid) {
            return Err(LockMisuse::ReleaseByNonOwner(tid));
        }
        let (next, enqueued_at, penalty) = match self.active.pop_front() {
            Some((next, at)) => (next, at, SimDuration::ZERO),
            None => match self.passive.pop_front() {
                // The active set ran dry: wake a parked waiter on the
                // critical path.
                Some((next, at)) => (next, at, PARK_WAKE_COST),
                None => {
                    self.owner = None;
                    return Ok(None);
                }
            },
        };
        self.owner = Some(next);
        self.held_since = now;
        self.grants += 1;
        // Long-term fairness: periodically readmit the oldest parked
        // waiter. It starts spinning while the current owner holds the
        // lock, so the wakeup is off the critical path.
        if self.grants.is_multiple_of(MALTHUSIAN_CULL_PERIOD) {
            if let Some(parked) = self.passive.pop_front() {
                self.active.push_back(parked);
            }
        }
        Ok(Some(Grant {
            next,
            waited: now.saturating_since(enqueued_at),
            penalty,
        }))
    }

    fn is_waiting(&self, tid: ThreadId) -> bool {
        self.active.iter().any(|&(w, _)| w == tid) || self.passive.iter().any(|&(w, _)| w == tid)
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

    #[test]
    fn parse_round_trips_every_algorithm() {
        for alg in LockAlg::ALL {
            assert_eq!(LockAlg::parse(alg.as_str()), Some(alg));
            assert_eq!(alg.to_string(), alg.as_str());
        }
        assert_eq!(LockAlg::parse("nope"), None);
        assert_eq!(LockAlg::default(), LockAlg::Fifo);
    }

    #[test]
    fn misuse_displays_name_the_thread() {
        assert_eq!(
            LockMisuse::ReentrantAcquire(tid(3)).to_string(),
            "thread3 re-entered a held monitor"
        );
        assert!(LockMisuse::ReleaseByNonOwner(tid(1))
            .to_string()
            .contains("does not own"));
    }

    #[test]
    fn mcs_charges_park_wake_only_past_the_spin_bound() {
        let mut m = Lock::new(LockAlg::Mcs);
        m.acquire(tid(0), t(0)).unwrap();
        m.acquire(tid(1), t(100)).unwrap();
        // tid1 waited 900 ns < 5 µs: still spinning, free handoff.
        let g = m.release(tid(0), t(1_000)).unwrap().unwrap();
        assert_eq!(g.next, tid(1));
        assert_eq!(g.penalty, SimDuration::ZERO);
        // tid2 waits 50 µs > 5 µs: parked, the handoff pays the wake.
        m.acquire(tid(2), t(2_000)).unwrap();
        let g = m.release(tid(1), t(52_000)).unwrap().unwrap();
        assert_eq!(g.next, tid(2));
        assert_eq!(g.waited, SimDuration::from_micros(50));
        assert_eq!(g.penalty, PARK_WAKE_COST);
    }

    #[test]
    fn malthusian_parks_surplus_and_prefers_active() {
        let mut m = Lock::new(LockAlg::Malthusian);
        m.acquire(tid(0), t(0)).unwrap();
        // Fill the active set, then overflow into the passive list.
        for i in 1..=MALTHUSIAN_ACTIVE_CAP + 2 {
            assert_eq!(
                m.acquire(tid(i), t(i as u64)).unwrap(),
                AcquireOutcome::Contended
            );
        }
        assert_eq!(m.queue_len(), MALTHUSIAN_ACTIVE_CAP + 2);
        // Parked waiters are still visible to the invariant scanner.
        assert!(m.is_waiting(tid(MALTHUSIAN_ACTIVE_CAP + 2)));
        // Handoffs come from the active set, penalty-free, FIFO order.
        let g = m.release(tid(0), t(100_000)).unwrap().unwrap();
        assert_eq!(g.next, tid(1));
        assert_eq!(g.penalty, SimDuration::ZERO);
        assert_eq!(g.waited, t(100_000).saturating_since(t(1)));
    }

    #[test]
    fn malthusian_wakes_passive_when_active_runs_dry() {
        let mut m = Lock::new(LockAlg::Malthusian);
        m.acquire(tid(0), t(0)).unwrap();
        for i in 1..=MALTHUSIAN_ACTIVE_CAP + 1 {
            m.acquire(tid(i), t(i as u64)).unwrap();
        }
        // Drain the active set.
        let mut owner = tid(0);
        for _ in 0..MALTHUSIAN_ACTIVE_CAP {
            let g = m.release(owner, t(1_000)).unwrap().unwrap();
            assert_eq!(g.penalty, SimDuration::ZERO);
            owner = g.next;
        }
        // The next grant must come from the passive list and pay the wake.
        let g = m.release(owner, t(2_000)).unwrap().unwrap();
        assert_eq!(g.next, tid(MALTHUSIAN_ACTIVE_CAP + 1));
        assert_eq!(g.penalty, PARK_WAKE_COST);
        assert_eq!(m.release(g.next, t(3_000)).unwrap(), None);
        assert_eq!(m.owner(), None);
        assert_eq!(m.held_since(), None);
    }

    #[test]
    fn malthusian_culls_passive_waiters_back_in() {
        let mut m = Lock::new(LockAlg::Malthusian);
        m.acquire(tid(0), t(0)).unwrap();
        // A tagged waiter parks behind a full active set.
        for i in 1..=MALTHUSIAN_ACTIVE_CAP {
            m.acquire(tid(i), t(1)).unwrap();
        }
        let tagged = tid(900);
        m.acquire(tagged, t(2)).unwrap();
        // Churn: every grant is followed by a fresh arrival that retakes
        // the freed active slot, so only culling can admit the tagged
        // waiter.
        let mut owner = tid(0);
        for (fresh, round) in (1000..).zip(0..2 * MALTHUSIAN_CULL_PERIOD) {
            let g = m
                .release(owner, t(10_000 + round))
                .unwrap()
                .expect("queue never empties");
            if g.next == tagged {
                return; // admitted — no starvation
            }
            owner = g.next;
            m.acquire(tid(fresh), t(10_000 + round)).unwrap();
        }
        panic!("tagged waiter starved past two cull periods");
    }
}
