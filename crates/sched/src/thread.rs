//! Thread identity, states, and per-state time accounting.
//!
//! The paper's causal story for lifespan inflation is *suspension*: a
//! thread that is runnable-but-waiting (or blocked on a monitor) is not
//! using the objects it already allocated, while every other thread keeps
//! advancing the allocation clock. The scheduler therefore accounts, per
//! thread, exactly how long it spent in each state.

use std::fmt;

use scalesim_simkit::{SimDuration, SimTime};

/// A simulated thread (mutator or helper), numbered densely from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(usize);

impl ThreadId {
    /// Creates a thread id from a raw index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        ThreadId(index)
    }

    /// The raw index (dense; usable to index parallel `Vec`s).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

impl From<usize> for ThreadId {
    fn from(index: usize) -> Self {
        ThreadId(index)
    }
}

/// Why a thread is blocked (not runnable, not on a core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// Waiting to acquire a contended monitor.
    Monitor,
    /// Waiting for more work to appear in an application queue.
    WorkStarvation,
    /// Voluntary sleep / timed wait.
    Sleep,
}

/// The scheduling state of a thread at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Registered but never started.
    New,
    /// On the ready queue, waiting for a core — the paper's "suspended
    /// while runnable".
    Runnable,
    /// Executing on a core.
    Running,
    /// Off the ready queue for the given reason.
    Blocked(BlockReason),
    /// Finished; never scheduled again.
    Terminated,
}

impl ThreadState {
    /// Whether the thread still exists for scheduling purposes.
    #[must_use]
    pub fn is_live(self) -> bool {
        !matches!(self, ThreadState::Terminated)
    }
}

impl fmt::Display for ThreadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadState::New => write!(f, "new"),
            ThreadState::Runnable => write!(f, "runnable"),
            ThreadState::Running => write!(f, "running"),
            ThreadState::Blocked(r) => write!(f, "blocked({r:?})"),
            ThreadState::Terminated => write!(f, "terminated"),
        }
    }
}

/// Cumulative time a thread has spent in each state, plus the
/// stop-the-world GC pause time it absorbed.
///
/// `running + runnable_wait + blocked_* + gc_paused` equals the thread's
/// lifetime from first dispatch to termination (the integration tests
/// assert this conservation property).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StateTimes {
    /// Time actually executing on a core (mutator time, by the paper's
    /// definition, for mutator threads).
    pub running: SimDuration,
    /// Time runnable but waiting for a core.
    pub runnable_wait: SimDuration,
    /// Time blocked on contended monitors.
    pub blocked_monitor: SimDuration,
    /// Time blocked waiting for work.
    pub blocked_starved: SimDuration,
    /// Time in voluntary sleeps.
    pub blocked_sleep: SimDuration,
    /// Stop-the-world GC pause time absorbed while live.
    pub gc_paused: SimDuration,
}

impl StateTimes {
    /// Total accounted lifetime.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.running
            + self.runnable_wait
            + self.blocked_monitor
            + self.blocked_starved
            + self.blocked_sleep
            + self.gc_paused
    }

    /// Total time *suspended* in the paper's sense: alive but not
    /// executing (waiting for a core, blocked, or frozen by GC).
    #[must_use]
    pub fn suspended(&self) -> SimDuration {
        self.total() - self.running
    }

    pub(crate) fn charge(&mut self, state: ThreadState, elapsed: SimDuration) {
        match state {
            ThreadState::Running => self.running += elapsed,
            ThreadState::Runnable => self.runnable_wait += elapsed,
            ThreadState::Blocked(BlockReason::Monitor) => self.blocked_monitor += elapsed,
            ThreadState::Blocked(BlockReason::WorkStarvation) => self.blocked_starved += elapsed,
            ThreadState::Blocked(BlockReason::Sleep) => self.blocked_sleep += elapsed,
            ThreadState::New | ThreadState::Terminated => {}
        }
    }
}

/// Internal bookkeeping for one thread.
#[derive(Debug, Clone)]
pub(crate) struct ThreadRec {
    pub state: ThreadState,
    /// When the current state was entered.
    pub since: SimTime,
    pub times: StateTimes,
    pub dispatches: u64,
    pub preemptions: u64,
    /// Cohort index for biased scheduling.
    pub cohort: usize,
}

impl ThreadRec {
    pub fn new(now: SimTime, cohort: usize) -> Self {
        ThreadRec {
            state: ThreadState::New,
            since: now,
            times: StateTimes::default(),
            dispatches: 0,
            preemptions: 0,
            cohort,
        }
    }

    /// Transitions to `next`, charging the elapsed interval to the old
    /// state's accumulator.
    ///
    /// Returns the outgoing state and the instant it was entered, so the
    /// caller can record the closed interval on a timeline.
    pub fn transition(&mut self, next: ThreadState, now: SimTime) -> (ThreadState, SimTime) {
        let elapsed = now.saturating_since(self.since);
        self.times.charge(self.state, elapsed);
        let prev = (self.state, self.since);
        self.state = next;
        self.since = now;
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn thread_id_round_trip() {
        let id = ThreadId::new(9);
        assert_eq!(id.index(), 9);
        assert_eq!(id.to_string(), "thread9");
        assert_eq!(ThreadId::from(9), id);
    }

    #[test]
    fn state_liveness() {
        assert!(ThreadState::Running.is_live());
        assert!(ThreadState::Blocked(BlockReason::Monitor).is_live());
        assert!(!ThreadState::Terminated.is_live());
    }

    #[test]
    fn transition_charges_previous_state() {
        let mut rec = ThreadRec::new(t(0), 0);
        rec.transition(ThreadState::Runnable, t(0));
        rec.transition(ThreadState::Running, t(10));
        rec.transition(ThreadState::Blocked(BlockReason::Monitor), t(25));
        rec.transition(ThreadState::Running, t(30));
        rec.transition(ThreadState::Terminated, t(50));

        assert_eq!(rec.times.runnable_wait, SimDuration::from_nanos(10));
        assert_eq!(rec.times.running, SimDuration::from_nanos(15 + 20));
        assert_eq!(rec.times.blocked_monitor, SimDuration::from_nanos(5));
        assert_eq!(rec.times.total(), SimDuration::from_nanos(50));
        assert_eq!(rec.times.suspended(), SimDuration::from_nanos(15));
    }

    #[test]
    fn new_and_terminated_charge_nowhere() {
        let mut rec = ThreadRec::new(t(0), 0);
        rec.transition(ThreadState::Runnable, t(100)); // 100ns in New: dropped
        assert_eq!(rec.times.total(), SimDuration::ZERO);
    }

    #[test]
    fn state_display() {
        assert_eq!(ThreadState::Running.to_string(), "running");
        assert_eq!(
            ThreadState::Blocked(BlockReason::Sleep).to_string(),
            "blocked(Sleep)"
        );
    }
}
