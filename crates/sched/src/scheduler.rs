//! The simulated OS CPU scheduler.
//!
//! A round-robin, time-sliced scheduler over the enabled cores of a
//! [`MachineTopology`](scalesim_machine::MachineTopology). It is driven by
//! the runtime's event loop: the runtime tells it about thread lifecycle
//! transitions and quantum expiries, and asks it to [`dispatch`] threads to
//! idle cores; the scheduler answers with decisions and keeps per-thread
//! [`StateTimes`] accounting.
//!
//! Two policies are provided:
//!
//! * [`SchedPolicy::Fair`] — plain round-robin over one ready queue, the
//!   Linux-like default used for the paper's main experiments.
//! * [`SchedPolicy::Biased`] — the paper's *future work* suggestion 1:
//!   cohort (phase-staggered) scheduling that restricts which worker
//!   threads may run concurrently to reduce lifetime interference.
//!
//! [`dispatch`]: CpuScheduler::dispatch

use std::collections::VecDeque;
use std::fmt;

use scalesim_machine::CoreId;
use scalesim_simkit::{SimDuration, SimTime};
use scalesim_trace::{EventKind, Timeline};

use crate::thread::{BlockReason, StateTimes, ThreadId, ThreadRec, ThreadState};

/// Which thread the scheduler placed on which core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// The thread that was moved from the ready queue to a core.
    pub thread: ThreadId,
    /// The core it now occupies.
    pub core: CoreId,
}

/// Result of a quantum-expiry check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumOutcome {
    /// No eligible waiter: the thread keeps its core for another quantum.
    Continued,
    /// The thread was preempted and re-enqueued; its core is free.
    Preempted,
}

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Round-robin over a single ready queue (the default, models CFS
    /// closely enough for this study).
    Fair,
    /// Lifetime-interference-aware cohort scheduling (paper §IV,
    /// suggestion 1): threads are partitioned into `cohorts` groups and
    /// only the active cohort is dispatched; the runtime rotates cohorts
    /// periodically so groups run in staggered phases.
    Biased {
        /// Number of cohorts; must be at least 1.
        cohorts: usize,
    },
}

impl SchedPolicy {
    fn cohorts(self) -> usize {
        match self {
            SchedPolicy::Fair => 1,
            SchedPolicy::Biased { cohorts } => cohorts,
        }
    }
}

/// The CPU scheduler: enabled cores, one ready queue, per-thread records.
///
/// # Examples
///
/// ```
/// use scalesim_machine::MachineTopology;
/// use scalesim_sched::{CpuScheduler, SchedPolicy};
/// use scalesim_simkit::{SimDuration, SimTime};
///
/// let cores = MachineTopology::amd_6168().enabled(2);
/// let mut sched = CpuScheduler::new(cores, SimDuration::from_millis(10), SchedPolicy::Fair);
/// let t0 = sched.register(SimTime::ZERO);
/// sched.start(t0, SimTime::ZERO);
/// let placed = sched.dispatch(SimTime::ZERO);
/// assert_eq!(placed.len(), 1);
/// assert_eq!(placed[0].thread, t0);
/// ```
#[derive(Debug)]
pub struct CpuScheduler {
    cores: Vec<CoreId>,
    occupants: Vec<Option<ThreadId>>,
    ready: VecDeque<ThreadId>,
    threads: Vec<ThreadRec>,
    quantum: SimDuration,
    policy: SchedPolicy,
    active_cohort: usize,
    cohort_rotations: u64,
    /// Timeline recorder for per-thread state spans (disabled by default).
    timeline: Timeline,
}

impl CpuScheduler {
    /// Creates a scheduler over the given enabled cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty, `quantum` is zero, or a biased policy
    /// requests zero cohorts.
    #[must_use]
    pub fn new(cores: Vec<CoreId>, quantum: SimDuration, policy: SchedPolicy) -> Self {
        assert!(!cores.is_empty(), "scheduler needs at least one core");
        assert!(!quantum.is_zero(), "quantum must be positive");
        assert!(
            policy.cohorts() >= 1,
            "biased policy needs at least one cohort"
        );
        let n = cores.len();
        CpuScheduler {
            cores,
            occupants: vec![None; n],
            ready: VecDeque::new(),
            threads: Vec::new(),
            quantum,
            policy,
            active_cohort: 0,
            cohort_rotations: 0,
            timeline: Timeline::disabled(),
        }
    }

    /// Installs a timeline recorder; every subsequent state transition
    /// closes the outgoing state's interval as a span on it.
    pub fn set_timeline(&mut self, timeline: Timeline) {
        self.timeline = timeline;
    }

    /// Removes the recorder (leaving a disabled one) and returns it.
    pub fn take_timeline(&mut self) -> Timeline {
        std::mem::take(&mut self.timeline)
    }

    /// The timeline span kind for time spent in `state`, if it is traced.
    fn state_kind(state: ThreadState) -> Option<EventKind> {
        match state {
            ThreadState::Running => Some(EventKind::ThreadRunning),
            ThreadState::Runnable => Some(EventKind::ThreadRunnable),
            ThreadState::Blocked(BlockReason::Monitor) => Some(EventKind::ThreadBlockedMonitor),
            ThreadState::Blocked(BlockReason::WorkStarvation) => {
                Some(EventKind::ThreadBlockedStarved)
            }
            ThreadState::Blocked(BlockReason::Sleep) => Some(EventKind::ThreadBlockedSleep),
            ThreadState::New | ThreadState::Terminated => None,
        }
    }

    /// Records the closed interval `[from, to)` spent by `tid` in `state`.
    fn emit_state(
        timeline: &mut Timeline,
        tid: ThreadId,
        state: ThreadState,
        from: SimTime,
        to: SimTime,
    ) {
        if let Some(kind) = Self::state_kind(state) {
            timeline.span(kind, tid.index() as u32, from, to, 0);
        }
    }

    /// Registers a new thread (state `New`) and returns its id.
    pub fn register(&mut self, now: SimTime) -> ThreadId {
        let id = ThreadId::new(self.threads.len());
        let cohort = id.index() % self.policy.cohorts();
        self.threads.push(ThreadRec::new(now, cohort));
        id
    }

    /// Moves a `New` thread onto the ready queue.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not in state `New`.
    pub fn start(&mut self, tid: ThreadId, now: SimTime) {
        let rec = self.rec_mut(tid);
        assert_eq!(rec.state, ThreadState::New, "start() on non-new {tid}");
        rec.transition(ThreadState::Runnable, now);
        self.ready.push_back(tid);
    }

    /// Closes and records the interval that `transition` just charged.
    fn traced_transition(&mut self, tid: ThreadId, next: ThreadState, now: SimTime) {
        let (prev, entered) = self.rec_mut(tid).transition(next, now);
        Self::emit_state(&mut self.timeline, tid, prev, entered, now);
    }

    /// Fills idle cores from the ready queue (respecting the active cohort
    /// under the biased policy) and returns the placements made.
    ///
    /// Call after any transition that may have freed a core or added a
    /// ready thread.
    pub fn dispatch(&mut self, now: SimTime) -> Vec<Dispatch> {
        let mut placed = Vec::new();
        for slot in 0..self.occupants.len() {
            if self.occupants[slot].is_some() {
                continue;
            }
            let Some(tid) = self.take_eligible() else {
                break;
            };
            let core = self.cores[slot];
            self.occupants[slot] = Some(tid);
            self.traced_transition(tid, ThreadState::Running, now);
            self.rec_mut(tid).dispatches += 1;
            placed.push(Dispatch { thread: tid, core });
        }
        placed
    }

    /// Removes the first ready thread eligible under the current policy.
    fn take_eligible(&mut self) -> Option<ThreadId> {
        match self.policy {
            SchedPolicy::Fair => self.ready.pop_front(),
            SchedPolicy::Biased { .. } => {
                let pos = self
                    .ready
                    .iter()
                    .position(|&t| self.threads[t.index()].cohort == self.active_cohort)?;
                self.ready.remove(pos)
            }
        }
    }

    /// Blocks a `Running` thread for `reason`, freeing its core.
    ///
    /// Returns the freed core.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not currently running.
    pub fn block(&mut self, tid: ThreadId, now: SimTime, reason: BlockReason) -> CoreId {
        let core = self
            .core_of(tid)
            .unwrap_or_else(|| panic!("block() on non-running {tid}"));
        self.vacate(tid);
        self.traced_transition(tid, ThreadState::Blocked(reason), now);
        core
    }

    /// Makes a `Blocked` thread runnable again (tail of the ready queue).
    ///
    /// # Panics
    ///
    /// Panics if the thread is not blocked.
    pub fn unblock(&mut self, tid: ThreadId, now: SimTime) {
        let rec = self.rec_mut(tid);
        assert!(
            matches!(rec.state, ThreadState::Blocked(_)),
            "unblock() on non-blocked {tid} (state {})",
            rec.state
        );
        self.traced_transition(tid, ThreadState::Runnable, now);
        self.ready.push_back(tid);
    }

    /// Handles a quantum expiry for a running thread: if another eligible
    /// thread is waiting (or the thread's cohort is no longer active), the
    /// thread is preempted to the tail of the ready queue; otherwise it
    /// keeps the core.
    ///
    /// Returns what happened. If the thread is no longer running (it
    /// blocked or terminated before its timer fired) this is a no-op
    /// reported as `Continued` — the runtime's stale-timer case.
    pub fn quantum_expired(&mut self, tid: ThreadId, now: SimTime) -> QuantumOutcome {
        if self.core_of(tid).is_none() {
            return QuantumOutcome::Continued;
        }
        let cohort_evicted = matches!(self.policy, SchedPolicy::Biased { .. })
            && self.threads[tid.index()].cohort != self.active_cohort;
        let waiter_exists = match self.policy {
            SchedPolicy::Fair => !self.ready.is_empty(),
            SchedPolicy::Biased { .. } => self
                .ready
                .iter()
                .any(|&t| self.threads[t.index()].cohort == self.active_cohort),
        };
        if !waiter_exists && !cohort_evicted {
            return QuantumOutcome::Continued;
        }
        self.vacate(tid);
        self.traced_transition(tid, ThreadState::Runnable, now);
        self.rec_mut(tid).preemptions += 1;
        self.ready.push_back(tid);
        QuantumOutcome::Preempted
    }

    /// Terminates a thread; frees its core if it was running.
    ///
    /// Returns the freed core, if any.
    ///
    /// # Panics
    ///
    /// Panics if the thread was already terminated.
    pub fn terminate(&mut self, tid: ThreadId, now: SimTime) -> Option<CoreId> {
        assert!(
            self.threads[tid.index()].state.is_live(),
            "terminate() on already-terminated {tid}"
        );
        let core = self.core_of(tid);
        if core.is_some() {
            self.vacate(tid);
        } else if let Some(pos) = self.ready.iter().position(|&t| t == tid) {
            self.ready.remove(pos);
        }
        self.traced_transition(tid, ThreadState::Terminated, now);
        core
    }

    /// Accounts a stop-the-world pause beginning at `now`: every live
    /// thread absorbs `pause` as GC time without it leaking into its
    /// current state's accumulator.
    ///
    /// The runtime shifts the event clock by the same amount, so `since`
    /// timestamps are moved forward to match. On the timeline this closes
    /// the in-progress state span at `now` and records a safepoint span
    /// covering the pause itself; the accounting arithmetic is untouched
    /// by tracing.
    pub fn apply_stw_pause(&mut self, pause: SimDuration, now: SimTime) {
        let CpuScheduler {
            threads, timeline, ..
        } = self;
        for (i, rec) in threads.iter_mut().enumerate() {
            if !rec.state.is_live() {
                continue;
            }
            rec.times.gc_paused += pause;
            Self::emit_state(timeline, ThreadId::new(i), rec.state, rec.since, now);
            timeline.span(
                EventKind::ThreadSafepoint,
                i as u32,
                now,
                now.saturating_add(pause),
                0,
            );
            rec.since = rec.since.saturating_add(pause);
        }
    }

    /// Advances to the next cohort (biased policy). Running threads from
    /// the outgoing cohort are *not* forcibly evicted here; they yield at
    /// their next quantum expiry, which models a cooperative phase change.
    ///
    /// A no-op under [`SchedPolicy::Fair`].
    pub fn rotate_cohort(&mut self) {
        if let SchedPolicy::Biased { cohorts } = self.policy {
            self.active_cohort = (self.active_cohort + 1) % cohorts;
            self.cohort_rotations += 1;
        }
    }

    fn vacate(&mut self, tid: ThreadId) {
        for slot in self.occupants.iter_mut() {
            if *slot == Some(tid) {
                *slot = None;
                return;
            }
        }
        panic!("{tid} occupies no core");
    }

    fn rec_mut(&mut self, tid: ThreadId) -> &mut ThreadRec {
        &mut self.threads[tid.index()]
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The scheduling quantum.
    #[must_use]
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// The configured policy.
    #[must_use]
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Number of enabled cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current state of a thread.
    #[must_use]
    pub fn state(&self, tid: ThreadId) -> ThreadState {
        self.threads[tid.index()].state
    }

    /// The core a thread is running on, if any.
    #[must_use]
    pub fn core_of(&self, tid: ThreadId) -> Option<CoreId> {
        self.occupants
            .iter()
            .position(|&o| o == Some(tid))
            .map(|slot| self.cores[slot])
    }

    /// Per-state time accounting for a thread.
    #[must_use]
    pub fn times(&self, tid: ThreadId) -> &StateTimes {
        &self.threads[tid.index()].times
    }

    /// How often a thread was placed on a core.
    #[must_use]
    pub fn dispatches(&self, tid: ThreadId) -> u64 {
        self.threads[tid.index()].dispatches
    }

    /// How often a thread was preempted at quantum expiry.
    #[must_use]
    pub fn preemptions(&self, tid: ThreadId) -> u64 {
        self.threads[tid.index()].preemptions
    }

    /// Number of threads waiting on the ready queue.
    #[must_use]
    pub fn runnable_count(&self) -> usize {
        self.ready.len()
    }

    /// Number of threads currently on cores.
    #[must_use]
    pub fn running_count(&self) -> usize {
        self.occupants.iter().filter(|o| o.is_some()).count()
    }

    /// Number of registered, not-yet-terminated threads.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.threads.iter().filter(|r| r.state.is_live()).count()
    }

    /// Total registered threads (including terminated).
    #[must_use]
    pub fn registered_count(&self) -> usize {
        self.threads.len()
    }

    /// Whether demand currently exceeds core supply.
    #[must_use]
    pub fn is_contended(&self) -> bool {
        !self.ready.is_empty()
    }

    /// How many cohort rotations have occurred (biased policy).
    #[must_use]
    pub fn cohort_rotations(&self) -> u64 {
        self.cohort_rotations
    }

    /// Ids of the threads currently running, in core order.
    pub fn running_threads(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.occupants.iter().filter_map(|&o| o)
    }

    /// Full cross-structure consistency check, for the runtime's invariant
    /// monitors: at most one thread per core, occupancy agrees with
    /// per-thread state, the ready queue holds exactly the `Runnable`
    /// threads, and no thread appears twice.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn sanity_check(&self) -> Result<(), String> {
        let mut seen = vec![0u32; self.threads.len()];
        for (slot, &occ) in self.occupants.iter().enumerate() {
            if let Some(tid) = occ {
                seen[tid.index()] += 1;
                if seen[tid.index()] > 1 {
                    return Err(format!("{tid} occupies more than one core"));
                }
                if self.state(tid) != ThreadState::Running {
                    return Err(format!(
                        "{tid} occupies core slot {slot} but is {}",
                        self.state(tid)
                    ));
                }
            }
        }
        let mut queued = vec![false; self.threads.len()];
        for &tid in &self.ready {
            if queued[tid.index()] {
                return Err(format!("{tid} is on the ready queue twice"));
            }
            queued[tid.index()] = true;
            if self.state(tid) != ThreadState::Runnable {
                return Err(format!(
                    "{tid} is on the ready queue but is {}",
                    self.state(tid)
                ));
            }
        }
        for (i, rec) in self.threads.iter().enumerate() {
            let tid = ThreadId::new(i);
            match rec.state {
                ThreadState::Running if seen[i] == 0 => {
                    return Err(format!("{tid} is Running but occupies no core"));
                }
                ThreadState::Runnable if !queued[i] => {
                    return Err(format!("{tid} is Runnable but not on the ready queue"));
                }
                _ => {}
            }
        }
        if self.running_count() > self.num_cores() {
            return Err(format!(
                "{} threads running on {} cores",
                self.running_count(),
                self.num_cores()
            ));
        }
        Ok(())
    }
}

impl fmt::Display for CpuScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CpuScheduler(cores={}, running={}, ready={}, live={})",
            self.num_cores(),
            self.running_count(),
            self.runnable_count(),
            self.live_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }
    fn cores(n: usize) -> Vec<CoreId> {
        (0..n).map(CoreId::new).collect()
    }
    fn quantum() -> SimDuration {
        SimDuration::from_millis(10)
    }

    fn sched(n: usize) -> CpuScheduler {
        CpuScheduler::new(cores(n), quantum(), SchedPolicy::Fair)
    }

    fn spawn_started(s: &mut CpuScheduler, k: usize) -> Vec<ThreadId> {
        (0..k)
            .map(|_| {
                let id = s.register(t(0));
                s.start(id, t(0));
                id
            })
            .collect()
    }

    #[test]
    fn dispatch_fills_cores_fifo() {
        let mut s = sched(2);
        let ids = spawn_started(&mut s, 3);
        let placed = s.dispatch(t(0));
        assert_eq!(placed.len(), 2);
        assert_eq!(placed[0].thread, ids[0]);
        assert_eq!(placed[1].thread, ids[1]);
        assert_eq!(s.state(ids[2]), ThreadState::Runnable);
        assert_eq!(s.running_count(), 2);
        assert_eq!(s.runnable_count(), 1);
        assert!(s.is_contended());
    }

    #[test]
    fn sanity_check_accepts_consistent_states() {
        let mut s = sched(2);
        let ids = spawn_started(&mut s, 4);
        assert_eq!(s.sanity_check(), Ok(()));
        s.dispatch(t(0));
        assert_eq!(s.sanity_check(), Ok(()));
        s.block(ids[0], t(1), BlockReason::Monitor);
        s.dispatch(t(1));
        assert_eq!(s.sanity_check(), Ok(()));
        s.terminate(ids[1], t(2));
        s.unblock(ids[0], t(2));
        s.dispatch(t(2));
        assert_eq!(s.sanity_check(), Ok(()));
    }

    #[test]
    fn sanity_check_flags_a_lost_runnable_thread() {
        let mut s = sched(1);
        let ids = spawn_started(&mut s, 2);
        s.dispatch(t(0));
        // Corrupt the cross-structure invariant the way a lost wakeup
        // does: a thread claims Runnable but sits on no queue.
        s.ready.clear();
        let err = s.sanity_check().unwrap_err();
        assert!(err.contains(&format!("{}", ids[1])), "{err}");
        assert!(err.contains("not on the ready queue"), "{err}");
    }

    #[test]
    fn each_core_has_at_most_one_thread() {
        let mut s = sched(3);
        spawn_started(&mut s, 5);
        let placed = s.dispatch(t(0));
        let mut seen: Vec<CoreId> = placed.iter().map(|d| d.core).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), placed.len(), "a core was double-booked");
    }

    #[test]
    fn block_frees_core_and_unblock_requeues() {
        let mut s = sched(1);
        let ids = spawn_started(&mut s, 2);
        s.dispatch(t(0));
        let core = s.block(ids[0], t(5), BlockReason::Monitor);
        assert_eq!(core, CoreId::new(0));
        assert_eq!(s.state(ids[0]), ThreadState::Blocked(BlockReason::Monitor));
        // the waiter takes over
        let placed = s.dispatch(t(5));
        assert_eq!(placed[0].thread, ids[1]);
        s.unblock(ids[0], t(8));
        assert_eq!(s.state(ids[0]), ThreadState::Runnable);
    }

    #[test]
    fn quantum_expiry_preempts_only_when_contended() {
        let mut s = sched(1);
        let ids = spawn_started(&mut s, 1);
        s.dispatch(t(0));
        assert_eq!(s.quantum_expired(ids[0], t(10)), QuantumOutcome::Continued);

        let id2 = s.register(t(10));
        s.start(id2, t(10));
        assert_eq!(s.quantum_expired(ids[0], t(20)), QuantumOutcome::Preempted);
        assert_eq!(s.preemptions(ids[0]), 1);
        let placed = s.dispatch(t(20));
        assert_eq!(placed[0].thread, id2);
    }

    #[test]
    fn stale_quantum_timer_is_harmless() {
        let mut s = sched(1);
        let ids = spawn_started(&mut s, 1);
        s.dispatch(t(0));
        s.block(ids[0], t(5), BlockReason::Sleep);
        assert_eq!(s.quantum_expired(ids[0], t(10)), QuantumOutcome::Continued);
    }

    #[test]
    fn terminate_running_frees_core_and_ready_thread_is_dequeued() {
        let mut s = sched(1);
        let ids = spawn_started(&mut s, 2);
        s.dispatch(t(0));
        assert_eq!(s.terminate(ids[0], t(5)), Some(CoreId::new(0)));
        assert_eq!(s.live_count(), 1);
        assert_eq!(s.terminate(ids[1], t(6)), None);
        assert_eq!(s.runnable_count(), 0);
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    #[should_panic(expected = "already-terminated")]
    fn double_terminate_panics() {
        let mut s = sched(1);
        let ids = spawn_started(&mut s, 1);
        s.terminate(ids[0], t(1));
        s.terminate(ids[0], t(2));
    }

    #[test]
    fn accounting_conserves_time() {
        let mut s = sched(1);
        let ids = spawn_started(&mut s, 2);
        s.dispatch(t(0));
        s.quantum_expired(ids[0], t(10)); // preempt
        s.dispatch(t(10));
        s.block(ids[1], t(15), BlockReason::Monitor);
        s.dispatch(t(15));
        s.unblock(ids[1], t(18));
        s.terminate(ids[0], t(30));
        s.terminate(ids[1], t(30));

        let t0 = s.times(ids[0]);
        assert_eq!(t0.running, SimDuration::from_nanos(10 + 15));
        assert_eq!(t0.runnable_wait, SimDuration::from_nanos(5));
        assert_eq!(t0.total(), SimDuration::from_nanos(30));

        let t1 = s.times(ids[1]);
        assert_eq!(t1.running, SimDuration::from_nanos(5));
        assert_eq!(t1.blocked_monitor, SimDuration::from_nanos(3));
        assert_eq!(t1.runnable_wait, SimDuration::from_nanos(10 + 12));
        assert_eq!(t1.total(), SimDuration::from_nanos(30));
    }

    #[test]
    fn stw_pause_is_accounted_separately() {
        let mut s = sched(1);
        let ids = spawn_started(&mut s, 1);
        s.dispatch(t(0));
        // STW at t=10 for 100ns; the runtime shifts its clock so the thread
        // later terminates at t=210 having run 10ns before and 100ns after.
        s.apply_stw_pause(SimDuration::from_nanos(100), t(10));
        s.terminate(ids[0], t(210));
        let times = s.times(ids[0]);
        assert_eq!(times.gc_paused, SimDuration::from_nanos(100));
        assert_eq!(times.running, SimDuration::from_nanos(110));
    }

    #[test]
    fn timeline_records_state_spans_and_safepoints() {
        let mut s = sched(1);
        s.set_timeline(Timeline::with_capacity(64));
        let ids = spawn_started(&mut s, 2);
        s.dispatch(t(0));
        s.quantum_expired(ids[0], t(10)); // closes running[0,10), runnable span opens
        s.dispatch(t(10));
        s.apply_stw_pause(SimDuration::from_nanos(5), t(20));
        s.block(ids[1], t(30), BlockReason::Monitor);
        s.terminate(ids[0], t(40));

        let tl = s.take_timeline();
        let events: Vec<_> = tl.events().collect();
        assert!(!events.is_empty());
        let running: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::ThreadRunning)
            .collect();
        assert_eq!(running[0].track, 0);
        assert_eq!(running[0].at, t(0));
        assert_eq!(running[0].end(), t(10));
        let safepoints = events
            .iter()
            .filter(|e| e.kind == EventKind::ThreadSafepoint)
            .count();
        assert_eq!(safepoints, 2, "one safepoint span per live thread");
        // The recorder left behind is disabled: no further spans recorded.
        s.unblock(ids[1], t(41));
        s.terminate(ids[1], t(50));
        assert_eq!(s.take_timeline().len(), 0);
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let mut s = sched(1);
        let ids = spawn_started(&mut s, 1);
        s.dispatch(t(0));
        s.terminate(ids[0], t(10));
        assert_eq!(s.take_timeline().len(), 0);
    }

    #[test]
    fn biased_policy_gates_dispatch_to_active_cohort() {
        let mut s = CpuScheduler::new(cores(4), quantum(), SchedPolicy::Biased { cohorts: 2 });
        let ids = spawn_started(&mut s, 4);
        // cohort 0 = threads 0, 2; cohort 1 = threads 1, 3
        let placed = s.dispatch(t(0));
        let threads: Vec<_> = placed.iter().map(|d| d.thread).collect();
        assert_eq!(threads, vec![ids[0], ids[2]]);
        assert_eq!(s.running_count(), 2, "inactive cohort leaves cores idle");

        s.rotate_cohort();
        // running cohort-0 threads yield at quantum expiry
        assert_eq!(s.quantum_expired(ids[0], t(10)), QuantumOutcome::Preempted);
        let placed = s.dispatch(t(10));
        assert_eq!(placed[0].thread, ids[1]);
    }

    #[test]
    fn fair_policy_ignores_rotation() {
        let mut s = sched(1);
        s.rotate_cohort();
        assert_eq!(s.cohort_rotations(), 0);
    }

    #[test]
    fn running_threads_iterates_core_order() {
        let mut s = sched(2);
        let ids = spawn_started(&mut s, 2);
        s.dispatch(t(0));
        let running: Vec<_> = s.running_threads().collect();
        assert_eq!(running, ids);
    }

    #[test]
    #[should_panic(expected = "needs at least one core")]
    fn zero_cores_panics() {
        let _ = CpuScheduler::new(vec![], quantum(), SchedPolicy::Fair);
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_panics() {
        let _ = CpuScheduler::new(cores(1), SimDuration::ZERO, SchedPolicy::Fair);
    }

    #[test]
    fn display_summarizes() {
        let s = sched(2);
        assert!(s.to_string().contains("cores=2"));
    }
}
