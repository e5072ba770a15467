//! The simulated JVM: mutator threads, helper threads, work dispatch,
//! allocation, locking, and stop-the-world collection. [`Jvm::run`] drives
//! this batch engine, or the request server, through the one deterministic
//! event loop in [`crate::driver`].
//!
//! # Execution model
//!
//! Every mutator thread is a state machine advanced whenever it holds a
//! core: it fetches work (a guided batch from the shared queue, or its
//! static assignment), then interprets its current item's steps — compute
//! bursts become timed events, allocations hit the heap (possibly
//! triggering a stop-the-world collection), critical sections go through
//! the monitor table (possibly blocking the thread). Helper threads
//! alternate sleeps and compute bursts, creating the transient
//! core-oversubscription the paper attributes to "many helper threads
//! [that] also run concurrently with the application threads" (§II-C).
//!
//! A stop-the-world pause is realized literally: the collector computes
//! the pause, every pending event is shifted by it, and the scheduler's
//! accounting absorbs it as GC time. From the mutators' perspective the
//! world stops and resumes; the allocation clock does not advance during
//! a pause, exactly as in a real JVM.

use rand::rngs::StdRng;
use rand::Rng;

use scalesim_gc::{AdaptiveSizer, Collector, GcCostModel};
use scalesim_heap::{AllocResult, Heap, HeapConfig, NurseryLayout, ObjectId};
use scalesim_objtrace::{ObjSeq, ObjectTracer};
use scalesim_sched::{BlockReason, CpuScheduler, SchedPolicy, ThreadId, ThreadState};
use scalesim_simkit::{
    CancelToken, ChaosPlan, EventId, EventQueue, FaultClass, RngFactory, SimDuration, SimTime,
};
use scalesim_sync::{AcquireOutcome, LockTable, MonitorId};
use scalesim_trace::{CounterId, Counters, EventKind, Timeline};
use scalesim_workloads::{AppModel, DeathPoint, Distribution, Step, WorkItem};

use crate::config::{JvmConfig, OldGenPolicy};
use crate::driver::{self, Engine};
use crate::error::{InvariantViolation, MonitorKind, SimError};
use crate::report::{RunOutcome, RunReport, ThreadReport};

/// The simulated JVM. Construct with a [`JvmConfig`], then [`Jvm::run`]
/// an application; each run is independent and deterministic.
///
/// # Examples
///
/// ```
/// use scalesim_core::{Jvm, JvmConfig};
/// use scalesim_workloads::xalan;
///
/// let config = JvmConfig::builder().threads(4).build().unwrap();
/// let report = Jvm::new(config).run(&xalan().scaled(0.01)).unwrap();
/// assert!(report.total_items() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Jvm {
    config: JvmConfig,
    /// External cancellation handle (the sweep watchdog), if attached.
    /// Deliberately outside [`JvmConfig`] so attaching a watchdog never
    /// changes a run's identity (memo keys hash the config).
    cancel: Option<CancelToken>,
}

impl Jvm {
    /// Creates a VM with the given configuration.
    #[must_use]
    pub fn new(config: JvmConfig) -> Self {
        Jvm {
            config,
            cancel: None,
        }
    }

    /// Attaches a cooperative cancellation token. The driver polls it
    /// at the budget-check cadence; once cancelled, the run truncates with
    /// [`AbortReason::Watchdog`](scalesim_simkit::AbortReason::Watchdog)
    /// and returns its partial metrics.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The VM's configuration.
    #[must_use]
    pub fn config(&self) -> &JvmConfig {
        &self.config
    }

    /// Executes `app` to completion and returns the measurements.
    ///
    /// A run that exhausts its [`JvmConfig::budget`] still returns `Ok`,
    /// with the report's outcome marked [`RunOutcome::Truncated`] and
    /// metrics covering the portion that did execute.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invariant`] when an invariant monitor detects
    /// inconsistent runtime state (which injected chaos faults are
    /// designed to provoke).
    pub fn run(&self, app: &dyn AppModel) -> Result<RunReport, SimError> {
        let cancel = self.cancel.as_ref();
        if let Some(spec) = &self.config.server {
            // Server mode: the app is only a carrier for memoization and
            // repro plumbing; the request workload drives the run.
            let mut sim = crate::server::ServerSim::new(&self.config, spec);
            sim.start();
            let end = driver::run(&mut sim, &self.config, cancel)?;
            return Ok(sim.finish(end));
        }
        let mut sim = Sim::new(&self.config, app);
        sim.start();
        let end = driver::run(&mut sim, &self.config, cancel)?;
        Ok(sim.finish(end))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A thread was placed on a core and should take its next action.
    Resume(ThreadId),
    /// A thread's timed step (compute / critical hold / fetch) finished.
    StepDone(ThreadId),
    /// A thread's scheduling quantum expired.
    Quantum(ThreadId),
    /// A sleeping helper thread wakes for its next burst.
    HelperWake(ThreadId),
    /// Rotate the active cohort (biased scheduling).
    CohortRotate,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// Plain on-CPU compute.
    Compute,
    /// Holding an application monitor; release on completion.
    Critical(MonitorId),
    /// Holding the work-queue monitor for a batch dispatch.
    Fetch(MonitorId),
    /// A helper thread's burst.
    HelperBurst,
    /// The concurrent old-generation collector's background work.
    CycleWork,
}

#[derive(Debug, Clone, Copy)]
struct RunningStep {
    kind: StepKind,
    deadline: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    Fetch,
    Critical,
    /// Per-batch result merge (guided queue mode): holds the merge lock
    /// but is not an item step, so no cursor movement.
    Merge,
}

#[derive(Debug, Clone, Copy)]
struct PendingAcquire {
    monitor: MonitorId,
    held: SimDuration,
    purpose: Purpose,
    granted: bool,
    /// Handoff cost charged by the lock algorithm (park/wake latency on
    /// the critical path); added to the critical step's duration when
    /// the grant is consumed. Zero under the FIFO baseline.
    penalty: SimDuration,
}

#[derive(Debug)]
struct ItemCursor {
    item: WorkItem,
    next: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadKind {
    Mutator,
    Helper,
    /// Background thread of a mostly-concurrent old-gen cycle.
    GcBackground,
}

#[derive(Debug)]
struct ThreadCtx {
    kind: ThreadKind,
    rng: StdRng,
    participates: bool,
    assigned_remaining: u64,
    batch_remaining: u64,
    cursor: Option<ItemCursor>,
    /// The last finished item, whose step buffer the next item reuses.
    spare: WorkItem,
    slots: Vec<Option<(ObjectId, ObjSeq)>>,
    item_end: Vec<(ObjectId, ObjSeq)>,
    carried: Vec<(ObjectId, ObjSeq, u32)>,
    pending: Option<PendingAcquire>,
    merge_pending: bool,
    /// Local heaplet-GC time the thread must absorb before continuing.
    local_pause_debt: SimDuration,
    /// Parked by cooperative phase (biased) scheduling until its cohort
    /// becomes active.
    parked: bool,
    running: Option<RunningStep>,
    paused: Option<(StepKind, SimDuration)>,
    step_timer: Option<EventId>,
    quantum_timer: Option<EventId>,
    items_done: u64,
    done: bool,
}

impl ThreadCtx {
    fn new(kind: ThreadKind, rng: StdRng) -> Self {
        ThreadCtx {
            kind,
            rng,
            participates: false,
            assigned_remaining: 0,
            batch_remaining: 0,
            cursor: None,
            spare: WorkItem::default(),
            slots: Vec::new(),
            item_end: Vec::new(),
            carried: Vec::new(),
            pending: None,
            merge_pending: false,
            local_pause_debt: SimDuration::ZERO,
            parked: false,
            running: None,
            paused: None,
            step_timer: None,
            quantum_timer: None,
            items_done: 0,
            done: false,
        }
    }
}

enum WorkOutcome {
    GotItem,
    StepScheduled,
    Blocked,
    Finished,
}

struct Sim<'a> {
    config: &'a JvmConfig,
    app: &'a dyn AppModel,
    queue: EventQueue<Event>,
    sched: CpuScheduler,
    locks: LockTable,
    heap: Heap,
    collector: Collector,
    tracer: ObjectTracer,
    ctxs: Vec<ThreadCtx>,
    /// Monitor instances per lock class.
    class_monitors: Vec<Vec<MonitorId>>,
    /// Remaining undistributed items (guided queue mode).
    shared_remaining: u64,
    /// Effective workers (threads that receive work).
    workers: usize,
    mutators: Vec<ThreadId>,
    helpers: Vec<ThreadId>,
    mutators_left: usize,
    permanents: Vec<(ObjectId, ObjSeq)>,
    /// Scratch list of the objects an item's end kills, reused across
    /// items.
    dying: Vec<(ObjectId, ObjSeq)>,
    /// Cohort count for cooperative phase scheduling (0 under fair).
    cohorts: usize,
    active_cohort: usize,
    /// A mostly-concurrent old-gen cycle in flight: (background thread,
    /// initial-mark pause to report at the end, remaining work).
    concurrent_cycle: Option<(ThreadId, SimDuration)>,
    /// Seed-derived fault-injection schedule.
    chaos: ChaosPlan,
    /// First invariant violation detected; aborts the run after the
    /// current event.
    violation: Option<InvariantViolation>,
    /// The runtime's own timeline recorder: chaos instant markers and
    /// allocation-pressure samples. The scheduler, lock table and
    /// collector carry their own; all four merge at report time.
    timeline: Timeline,
    /// The always-on fixed-slot counters registry.
    counters: Counters,
}

impl<'a> Sim<'a> {
    fn new(config: &'a JvmConfig, app: &'a dyn AppModel) -> Self {
        let cores = config.placement.enabled(&config.machine, config.cores());
        let mean_numa = config.machine.mean_numa_factor_of(&cores);
        // The runtime implements the *cooperative* phase variant of biased
        // scheduling itself (threads yield at item boundaries), so the OS
        // scheduler proper always runs the fair policy. `CpuScheduler`'s
        // strict cohort gating remains available for standalone studies.
        let mut sched = CpuScheduler::new(cores, config.quantum, SchedPolicy::Fair);
        sched.set_timeline(config.trace.recorder());
        let cohorts = match config.policy {
            SchedPolicy::Fair => 0,
            SchedPolicy::Biased { cohorts } => cohorts,
        };

        let layout = if config.heaplets {
            NurseryLayout::Heaplets {
                count: config.threads,
            }
        } else {
            NurseryLayout::Shared
        };
        let heap = Heap::new(HeapConfig::new(
            config.heap_bytes(app.min_heap_bytes()),
            config.nursery_fraction,
            layout,
        ));
        let gc_model = config
            .gc_model_override
            .unwrap_or_else(|| GcCostModel::hotspot_like(config.gc_workers(), mean_numa));
        let mut collector = Collector::new(gc_model);
        collector.set_timeline(config.trace.recorder());
        if config.old_gen == OldGenPolicy::MostlyConcurrent {
            // The runtime starts concurrent cycles; only promotion
            // failure may still escalate to a STW full collection.
            collector.set_occupancy_escalation(false);
        }

        let mut locks = LockTable::with_algorithm(config.lock_alg);
        locks.set_timeline(config.trace.recorder());
        let class_monitors: Vec<Vec<MonitorId>> = app
            .lock_classes()
            .iter()
            .map(|class| {
                (0..class.instances)
                    .map(|_| locks.create(&class.name))
                    .collect()
            })
            .collect();

        Sim {
            config,
            app,
            queue: EventQueue::new(),
            sched,
            locks,
            heap,
            collector,
            tracer: ObjectTracer::new(config.retention),
            ctxs: Vec::new(),
            class_monitors,
            shared_remaining: 0,
            workers: app.effective_workers(config.threads),
            mutators: Vec::new(),
            helpers: Vec::new(),
            mutators_left: 0,
            permanents: Vec::new(),
            dying: Vec::new(),
            cohorts,
            active_cohort: 0,
            concurrent_cycle: None,
            chaos: ChaosPlan::new(config.chaos, config.seed),
            violation: None,
            timeline: config.trace.recorder(),
            counters: Counters::new(),
        }
    }

    /// Records the first invariant violation; the driver aborts after the
    /// current event.
    fn flag_violation(&mut self, kind: MonitorKind, detail: String) {
        self.violation
            .get_or_insert(InvariantViolation { kind, detail });
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    // ------------------------------------------------------------------
    // Setup and report assembly
    // ------------------------------------------------------------------

    fn start(&mut self) {
        let rngs = RngFactory::new(self.config.seed);
        let total = self.app.total_items();

        // Static assignments, when applicable.
        let static_assign: Option<Vec<u64>> = match self.app.distribution() {
            Distribution::GuidedQueue { .. } => {
                self.shared_remaining = total;
                None
            }
            Distribution::StaticSkewed { .. } => {
                let shares = self.app.distribution().shares(self.workers);
                let mut assigned: Vec<u64> =
                    shares.iter().map(|s| (s * total as f64) as u64).collect();
                let leftover = total - assigned.iter().sum::<u64>();
                let n = assigned.len();
                for k in 0..leftover as usize {
                    assigned[k % n] += 1;
                }
                Some(assigned)
            }
        };

        for i in 0..self.config.threads {
            let tid = self.sched.register(self.now());
            debug_assert_eq!(tid.index(), i);
            let mut ctx = ThreadCtx::new(ThreadKind::Mutator, rngs.stream("mutator", i as u64));
            ctx.participates = i < self.workers;
            if let Some(assign) = &static_assign {
                ctx.assigned_remaining = if i < assign.len() { assign[i] } else { 0 };
            }
            self.ctxs.push(ctx);
            self.mutators.push(tid);
        }
        self.mutators_left = self.mutators.len();

        for h in 0..self.config.helper_threads {
            let tid = self.sched.register(self.now());
            self.ctxs.push(ThreadCtx::new(
                ThreadKind::Helper,
                rngs.stream("helper", h as u64),
            ));
            self.helpers.push(tid);
        }

        // Mutators start first so they win the initial dispatch race.
        for &tid in &self.mutators.clone() {
            let idle = {
                let ctx = &self.ctxs[tid.index()];
                !ctx.participates
                    || (matches!(self.app.distribution(), Distribution::StaticSkewed { .. })
                        && ctx.assigned_remaining == 0)
            };
            if idle {
                // No work will ever reach this thread; it exits at once.
                self.finish_thread(tid);
            } else {
                self.sched.start(tid, self.now());
            }
        }
        for &tid in &self.helpers.clone() {
            self.sched.start(tid, self.now());
        }

        if let SchedPolicy::Biased { .. } = self.config.policy {
            self.queue
                .schedule_after(self.config.cohort_rotation, Event::CohortRotate);
        }
        self.dispatch_and_resume();
    }

    fn finish(mut self, (wall, outcome): (SimTime, RunOutcome)) -> RunReport {
        // Helpers (and an unfinished concurrent-GC background thread)
        // outlive the measurement window; stop them for clean accounting.
        for &tid in &self.helpers.clone() {
            if self.sched.state(tid).is_live() {
                self.sched.terminate(tid, wall);
            }
        }
        if let Some((tid, _)) = self.concurrent_cycle.take() {
            if self.sched.state(tid).is_live() {
                self.sched.terminate(tid, wall);
            }
        }

        // Right-censor objects still alive at VM shutdown.
        let clock = self.heap.clock();
        for (obj, seq) in std::mem::take(&mut self.permanents) {
            if self.heap.is_live(obj) {
                let lifespan = clock - self.heap.object(obj).birth;
                self.tracer.on_censored(seq, lifespan, clock);
            }
        }

        let per_thread: Vec<ThreadReport> = self
            .mutators
            .iter()
            .map(|&tid| ThreadReport {
                items_done: self.ctxs[tid.index()].items_done,
                times: *self.sched.times(tid),
                dispatches: self.sched.dispatches(tid),
                preemptions: self.sched.preemptions(tid),
            })
            .collect();
        RunReport {
            app: self.app.name().to_owned(),
            mutator_cpu: per_thread.iter().map(|t| t.times.running).sum(),
            trace: self.tracer,
            heap: *self.heap.stats(),
            per_thread,
            ..RunReport::close(
                self.config,
                (wall, outcome),
                self.locks,
                self.collector,
                [self.sched.take_timeline(), self.timeline],
                self.queue.popped_total(),
                self.counters,
            )
        }
    }

    fn dispatch_and_resume(&mut self) {
        for d in self.sched.dispatch(self.now()) {
            self.counters.inc(CounterId::Dispatches);
            self.queue.schedule_now(Event::Resume(d.thread));
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_resume(&mut self, tid: ThreadId) {
        if self.ctxs[tid.index()].done || self.sched.core_of(tid).is_none() {
            return; // stale
        }
        if self.ctxs[tid.index()].running.is_some() {
            return; // already mid-step
        }
        self.arm_quantum(tid);
        self.next_action(tid);
    }

    fn on_step_done(&mut self, tid: ThreadId) {
        let ctx = &mut self.ctxs[tid.index()];
        ctx.step_timer = None;
        let Some(running) = ctx.running.take() else {
            return; // cancelled late; defensive
        };
        match running.kind {
            StepKind::Compute => self.next_action(tid),
            StepKind::Critical(mon) => {
                self.release_monitor(mon, tid);
                self.next_action(tid);
            }
            StepKind::Fetch(mon) => {
                self.complete_fetch(tid);
                self.release_monitor(mon, tid);
                self.next_action(tid);
            }
            StepKind::HelperBurst => {
                self.disarm_quantum(tid);
                self.sched.block(tid, self.now(), BlockReason::Sleep);
                let period = self.config.helper_period;
                let sleep = exp_sample(&mut self.ctxs[tid.index()].rng, period);
                self.queue.schedule_after(sleep, Event::HelperWake(tid));
                self.dispatch_and_resume();
            }
            StepKind::CycleWork => {
                self.finish_concurrent_cycle(tid);
            }
        }
    }

    fn on_quantum(&mut self, tid: ThreadId) {
        self.ctxs[tid.index()].quantum_timer = None;
        if self.ctxs[tid.index()].done {
            return;
        }
        match self.sched.quantum_expired(tid, self.now()) {
            scalesim_sched::QuantumOutcome::Continued => {
                if self.sched.core_of(tid).is_some() {
                    self.arm_quantum(tid);
                }
            }
            scalesim_sched::QuantumOutcome::Preempted => {
                self.counters.inc(CounterId::Preemptions);
                self.pause_running_step(tid);
                self.dispatch_and_resume();
            }
        }
    }

    fn on_helper_wake(&mut self, tid: ThreadId) {
        if self.ctxs[tid.index()].done || !self.sched.state(tid).is_live() {
            return;
        }
        self.sched.unblock(tid, self.now());
        self.dispatch_and_resume();
    }

    fn on_cohort_rotate(&mut self) {
        self.active_cohort = (self.active_cohort + 1) % self.cohorts.max(1);
        self.queue
            .schedule_after(self.config.cohort_rotation, Event::CohortRotate);
        let now = self.now();
        for &tid in &self.mutators.clone() {
            let idx = tid.index();
            if self.ctxs[idx].parked && idx % self.cohorts == self.active_cohort {
                self.ctxs[idx].parked = false;
                self.sched.unblock(tid, now);
            }
        }
        self.dispatch_and_resume();
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn arm_quantum(&mut self, tid: ThreadId) {
        let id = self
            .queue
            .schedule_after(self.sched.quantum(), Event::Quantum(tid));
        if let Some(old) = self.ctxs[tid.index()].quantum_timer.replace(id) {
            self.queue.cancel(old);
        }
    }

    fn disarm_quantum(&mut self, tid: ThreadId) {
        if let Some(id) = self.ctxs[tid.index()].quantum_timer.take() {
            self.queue.cancel(id);
        }
    }

    /// Schedules a timed step for a thread currently on a core.
    fn begin_step(&mut self, tid: ThreadId, kind: StepKind, duration: SimDuration) {
        let deadline = self.now() + duration;
        let id = self.queue.schedule_at(deadline, Event::StepDone(tid));
        let ctx = &mut self.ctxs[tid.index()];
        debug_assert!(ctx.running.is_none(), "{tid} began a step mid-step");
        ctx.running = Some(RunningStep { kind, deadline });
        ctx.step_timer = Some(id);
    }

    /// Interrupts a thread's running step, remembering the remainder.
    fn pause_running_step(&mut self, tid: ThreadId) {
        let now = self.now();
        let ctx = &mut self.ctxs[tid.index()];
        if let Some(r) = ctx.running.take() {
            if let Some(timer) = ctx.step_timer.take() {
                self.queue.cancel(timer);
            }
            ctx.paused = Some((r.kind, r.deadline.saturating_since(now)));
        }
    }

    // ------------------------------------------------------------------
    // The mutator state machine
    // ------------------------------------------------------------------

    fn next_action(&mut self, tid: ThreadId) {
        // Resume an interrupted step first.
        if let Some((kind, remaining)) = self.ctxs[tid.index()].paused.take() {
            self.begin_step(tid, kind, remaining);
            return;
        }
        // A monitor granted while we waited?
        if let Some(p) = self.ctxs[tid.index()].pending {
            if !p.granted {
                // A spurious wakeup: the thread reached a core without the
                // monitor handoff. Always checked inline — this is the
                // mutual-exclusion boundary.
                self.flag_violation(
                    MonitorKind::MonitorProtocol,
                    format!(
                        "{tid} resumed with an ungranted pending acquire on {}",
                        p.monitor
                    ),
                );
                return;
            }
            self.ctxs[tid.index()].pending = None;
            // The algorithm's handoff penalty (park/wake latency) lands
            // inside the granted hold: the monitor is owned while the
            // waiter finishes waking and refills its cache.
            let held = p.held + p.penalty;
            match p.purpose {
                Purpose::Fetch => {
                    self.begin_step(tid, StepKind::Fetch(p.monitor), held);
                }
                Purpose::Critical => {
                    self.ctxs[tid.index()]
                        .cursor
                        .as_mut()
                        .expect("critical without an item")
                        .next += 1;
                    self.begin_step(tid, StepKind::Critical(p.monitor), held);
                }
                Purpose::Merge => {
                    self.begin_step(tid, StepKind::Critical(p.monitor), held);
                }
            }
            return;
        }

        match self.ctxs[tid.index()].kind {
            ThreadKind::Helper => {
                let burst = {
                    let mean = self.config.helper_burst;
                    exp_sample(&mut self.ctxs[tid.index()].rng, mean)
                };
                self.begin_step(tid, StepKind::HelperBurst, burst);
                return;
            }
            ThreadKind::GcBackground => {
                debug_assert!(
                    self.concurrent_cycle.is_some(),
                    "background thread without a cycle"
                );
                // the cycle's CPU work was stashed as pause debt at spawn
                let duration = std::mem::take(&mut self.ctxs[tid.index()].local_pause_debt);
                self.begin_step(tid, StepKind::CycleWork, duration);
                return;
            }
            ThreadKind::Mutator => {}
        }

        loop {
            // Absorb thread-local heaplet-GC time before anything else.
            let debt = std::mem::take(&mut self.ctxs[tid.index()].local_pause_debt);
            if !debt.is_zero() {
                self.begin_step(tid, StepKind::Compute, debt);
                return;
            }
            if self.ctxs[tid.index()].cursor.is_none() {
                match self.try_get_work(tid) {
                    WorkOutcome::GotItem => continue,
                    WorkOutcome::StepScheduled | WorkOutcome::Blocked => return,
                    WorkOutcome::Finished => {
                        self.finish_thread(tid);
                        self.dispatch_and_resume();
                        return;
                    }
                }
            }

            // Execute steps until one needs simulated time or blocks.
            let cursor = self.ctxs[tid.index()].cursor.as_ref().expect("item");
            if cursor.next >= cursor.item.len() {
                self.finish_item(tid);
                continue;
            }
            let step = cursor.item.steps()[cursor.next];
            match step {
                Step::Alloc { bytes, death } => {
                    let (obj, seq) = self.do_alloc(tid, bytes);
                    let ctx = &mut self.ctxs[tid.index()];
                    match death {
                        DeathPoint::Slot(s) => {
                            let s = s as usize;
                            if ctx.slots.len() <= s {
                                ctx.slots.resize(s + 1, None);
                            }
                            ctx.slots[s] = Some((obj, seq));
                        }
                        DeathPoint::ItemEnd => ctx.item_end.push((obj, seq)),
                        DeathPoint::CarryItems(n) => ctx.carried.push((obj, seq, n)),
                        DeathPoint::Permanent => self.permanents.push((obj, seq)),
                    }
                    self.ctxs[tid.index()].cursor.as_mut().expect("item").next += 1;
                }
                Step::KillSlot(s) => {
                    let (obj, seq) = self.ctxs[tid.index()].slots[s as usize]
                        .take()
                        .expect("validated item: slot allocated before kill");
                    self.kill_object(obj, seq);
                    self.ctxs[tid.index()].cursor.as_mut().expect("item").next += 1;
                }
                Step::Compute(d) => {
                    self.ctxs[tid.index()].cursor.as_mut().expect("item").next += 1;
                    self.begin_step(tid, StepKind::Compute, d);
                    return;
                }
                Step::Critical { class, held } => {
                    let mon = self.pick_monitor(tid, class.0);
                    match self.locks.acquire(mon, tid, self.now()) {
                        Ok(AcquireOutcome::Acquired) => {
                            self.counters.inc(CounterId::LockAcquires);
                            self.ctxs[tid.index()].cursor.as_mut().expect("item").next += 1;
                            self.begin_step(tid, StepKind::Critical(mon), held);
                            return;
                        }
                        Ok(AcquireOutcome::Contended) => {
                            self.counters.inc(CounterId::LockContentions);
                            self.ctxs[tid.index()].pending = Some(PendingAcquire {
                                monitor: mon,
                                held,
                                purpose: Purpose::Critical,
                                granted: false,
                                penalty: SimDuration::ZERO,
                            });
                            self.block_on_monitor(tid);
                            return;
                        }
                        Err(misuse) => {
                            self.flag_violation(
                                MonitorKind::MonitorProtocol,
                                format!("{misuse} ({mon})"),
                            );
                            return;
                        }
                    }
                }
            }
        }
    }

    fn try_get_work(&mut self, tid: ThreadId) -> WorkOutcome {
        // Cooperative phase scheduling: a thread whose cohort is inactive
        // parks at the item boundary — "worker threads are scheduled at
        // the different phases of the execution" (paper SIV.1). Parking
        // here (never mid-item) means no locks are held and no in-flight
        // objects are kept alive while parked.
        if self.cohorts > 1
            && tid.index() % self.cohorts != self.active_cohort
            && self.has_more_work(tid)
        {
            self.ctxs[tid.index()].parked = true;
            self.disarm_quantum(tid);
            self.sched.block(tid, self.now(), BlockReason::Sleep);
            self.dispatch_and_resume();
            return WorkOutcome::Blocked;
        }
        match self.app.distribution() {
            Distribution::StaticSkewed { .. } => {
                let ctx = &mut self.ctxs[tid.index()];
                if ctx.assigned_remaining == 0 {
                    return WorkOutcome::Finished;
                }
                ctx.assigned_remaining -= 1;
                self.start_item(tid);
                WorkOutcome::GotItem
            }
            Distribution::GuidedQueue {
                lock,
                dispatch,
                merge,
                ..
            } => {
                if self.ctxs[tid.index()].batch_remaining > 0 {
                    self.ctxs[tid.index()].batch_remaining -= 1;
                    self.start_item(tid);
                    return WorkOutcome::GotItem;
                }
                // The batch is drained: merge its results under the shared
                // merge lock before returning to the queue.
                if self.ctxs[tid.index()].merge_pending {
                    self.ctxs[tid.index()].merge_pending = false;
                    if let Some(m) = merge {
                        let mon = self.class_monitors[m.class.0][0];
                        let held = {
                            let rng = &mut self.ctxs[tid.index()].rng;
                            SimDuration::from_nanos(rng.gen_range(m.held_ns.0..=m.held_ns.1))
                        };
                        match self.locks.acquire(mon, tid, self.now()) {
                            Ok(AcquireOutcome::Acquired) => {
                                self.counters.inc(CounterId::LockAcquires);
                                self.begin_step(tid, StepKind::Critical(mon), held);
                                return WorkOutcome::StepScheduled;
                            }
                            Ok(AcquireOutcome::Contended) => {
                                self.counters.inc(CounterId::LockContentions);
                                self.ctxs[tid.index()].pending = Some(PendingAcquire {
                                    monitor: mon,
                                    held,
                                    purpose: Purpose::Merge,
                                    granted: false,
                                    penalty: SimDuration::ZERO,
                                });
                                self.block_on_monitor(tid);
                                return WorkOutcome::Blocked;
                            }
                            Err(misuse) => {
                                self.flag_violation(
                                    MonitorKind::MonitorProtocol,
                                    format!("{misuse} ({mon})"),
                                );
                                return WorkOutcome::Blocked;
                            }
                        }
                    }
                }
                if self.shared_remaining == 0 {
                    return WorkOutcome::Finished;
                }
                let mon = self.class_monitors[lock.0][0];
                let dispatch = *dispatch;
                match self.locks.acquire(mon, tid, self.now()) {
                    Ok(AcquireOutcome::Acquired) => {
                        self.counters.inc(CounterId::LockAcquires);
                        self.begin_step(tid, StepKind::Fetch(mon), dispatch);
                        WorkOutcome::StepScheduled
                    }
                    Ok(AcquireOutcome::Contended) => {
                        self.counters.inc(CounterId::LockContentions);
                        self.ctxs[tid.index()].pending = Some(PendingAcquire {
                            monitor: mon,
                            held: dispatch,
                            purpose: Purpose::Fetch,
                            granted: false,
                            penalty: SimDuration::ZERO,
                        });
                        self.block_on_monitor(tid);
                        WorkOutcome::Blocked
                    }
                    Err(misuse) => {
                        self.flag_violation(
                            MonitorKind::MonitorProtocol,
                            format!("{misuse} ({mon})"),
                        );
                        WorkOutcome::Blocked
                    }
                }
            }
        }
    }

    /// Computes the guided batch at fetch completion: `max(1, remaining /
    /// (factor * workers))` items, clamped to what is left.
    fn complete_fetch(&mut self, tid: ThreadId) {
        let Distribution::GuidedQueue { factor, .. } = self.app.distribution() else {
            unreachable!("fetch completed under a static distribution");
        };
        let batch = if self.shared_remaining == 0 {
            0
        } else {
            let guided =
                (self.shared_remaining as f64 / (factor * self.workers as f64)).ceil() as u64;
            guided.clamp(1, self.shared_remaining)
        };
        self.shared_remaining -= batch;
        let has_merge = matches!(
            self.app.distribution(),
            Distribution::GuidedQueue { merge: Some(_), .. }
        );
        let ctx = &mut self.ctxs[tid.index()];
        ctx.batch_remaining = batch;
        ctx.merge_pending = batch > 0 && has_merge;
    }

    fn start_item(&mut self, tid: ThreadId) {
        let ctx = &mut self.ctxs[tid.index()];
        let spare = std::mem::take(&mut ctx.spare);
        let item = self.app.make_item_reusing(&mut ctx.rng, spare);
        ctx.slots.clear();
        ctx.cursor = Some(ItemCursor { item, next: 0 });
    }

    /// Ends a thread's item: its per-item objects die, then the carried
    /// objects whose last item this was, each in allocation order.
    fn finish_item(&mut self, tid: ThreadId) {
        let mut dying = std::mem::take(&mut self.dying);
        let ctx = &mut self.ctxs[tid.index()];
        if let Some(cursor) = ctx.cursor.take() {
            ctx.spare = cursor.item;
        }
        ctx.items_done += 1;
        debug_assert!(ctx.slots.iter().all(Option::is_none), "leaked slot object");
        dying.append(&mut ctx.item_end);
        ctx.carried.retain_mut(|(obj, seq, left)| {
            if *left <= 1 {
                dying.push((*obj, *seq));
                false
            } else {
                *left -= 1;
                true
            }
        });
        for &(obj, seq) in &dying {
            self.kill_object(obj, seq);
        }
        dying.clear();
        self.dying = dying;
    }

    fn finish_thread(&mut self, tid: ThreadId) {
        let carried = std::mem::take(&mut self.ctxs[tid.index()].carried);
        for (obj, seq, _) in carried {
            self.kill_object(obj, seq);
        }
        self.disarm_quantum(tid);
        let ctx = &mut self.ctxs[tid.index()];
        debug_assert!(ctx.running.is_none() && ctx.paused.is_none());
        ctx.done = true;
        self.sched.terminate(tid, self.now());
        if self.ctxs[tid.index()].kind == ThreadKind::Mutator {
            self.mutators_left -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Allocation & GC
    // ------------------------------------------------------------------

    fn do_alloc(&mut self, tid: ThreadId, bytes: u64) -> (ObjectId, ObjSeq) {
        for attempt in 0..2 {
            match self.heap.alloc(tid, bytes) {
                AllocResult::Ok(obj) => {
                    self.counters.inc(CounterId::Allocations);
                    self.counters.add(CounterId::AllocBytes, bytes);
                    let seq = self.tracer.on_alloc(tid.index(), bytes, self.heap.clock());
                    return (obj, seq);
                }
                AllocResult::NurseryFull { region } => {
                    assert_eq!(attempt, 0, "allocation failed after a collection");
                    if self.config.heaplets {
                        self.run_gc_local(region, tid);
                    } else {
                        self.run_gc(region);
                    }
                }
            }
        }
        unreachable!("two allocation attempts always suffice")
    }

    fn run_gc(&mut self, region: usize) {
        let live = self.sched.live_count();
        let now = self.now();
        let pre_used = self.heap.region_used(region) + self.heap.mature_used();
        self.timeline.sample(EventKind::HeapUsed, 0, now, pre_used);
        let mut pause = self
            .collector
            .collect_minor(&mut self.heap, region, live, now);
        if self.chaos.fires(FaultClass::GcStall) {
            // Injected fault: a GC worker stalls at the safepoint and the
            // whole pause stretches. The pause-bound monitor must catch
            // it (at test-sized stall factors).
            let extra = pause.mul_f64(self.chaos.config().gc_stall_factor);
            self.counters.inc(CounterId::ChaosInjections);
            self.timeline
                .instant(EventKind::ChaosGcStall, 0, now, extra.as_nanos());
            pause += extra;
        }
        let post_used = self.heap.region_used(region) + self.heap.mature_used();
        self.timeline
            .sample(EventKind::HeapUsed, 0, now.saturating_add(pause), post_used);
        self.check_collection_invariants(pause, live);
        self.apply_stw(pause);
        self.maybe_start_concurrent_cycle();
        if let Some(goal) = self.config.pause_goal {
            // Feed the observed pause back into the nursery size
            // (HotSpot AdaptiveSizePolicy), discounting the irreducible
            // safepoint floor that nursery size cannot influence.
            let floor = SimDuration::from_nanos(self.collector.model().pause_floor_ns(live) as u64);
            let sizer = AdaptiveSizer::new(goal);
            let next = sizer.next_capacity(self.heap.region_capacity(region), pause, floor);
            // Cap growth at half the heap (HotSpot's NewRatio-style bound)
            // so the mature space always keeps promotion headroom.
            let next = next.min(self.heap.config().total_bytes() / 2);
            self.heap.resize_region(region, next);
        }
    }

    /// Collection-boundary invariant checks: heap conservation (allocated
    /// = live + collected, consistent per-space accounting) and the GC
    /// pause bound — no stop-the-world pause can exceed twice the model
    /// cost of evacuating *and* compacting the entire heap, so a stalled
    /// GC worker shows up immediately.
    fn check_collection_invariants(&mut self, pause: SimDuration, live_threads: usize) {
        if !self.config.monitors || self.violation.is_some() {
            return;
        }
        if let Err(detail) = self.heap.check_conservation() {
            self.flag_violation(MonitorKind::HeapConservation, detail);
            return;
        }
        let model = self.collector.model();
        let total = self.heap.config().total_bytes();
        let ceiling_ns = 2.0
            * (model.minor_pause_ns(total, live_threads)
                + model.full_pause_ns(total, live_threads));
        if pause.as_nanos() as f64 > ceiling_ns {
            self.flag_violation(
                MonitorKind::GcPauseBound,
                format!(
                    "GC pause {pause} exceeds the physical ceiling {} for a {total}-byte heap",
                    SimDuration::from_nanos(ceiling_ns as u64)
                ),
            );
        }
    }

    /// Thread-local heaplet collection: the owner absorbs the pause as
    /// compute-time debt; only an escalated full collection stops the
    /// world.
    fn run_gc_local(&mut self, region: usize, tid: ThreadId) {
        let live = self.sched.live_count();
        let now = self.now();
        let pre_used = self.heap.region_used(region) + self.heap.mature_used();
        self.timeline.sample(EventKind::HeapUsed, 0, now, pre_used);
        let out = self
            .collector
            .collect_minor_local(&mut self.heap, region, live, now);
        let post_used = self.heap.region_used(region) + self.heap.mature_used();
        self.timeline.sample(
            EventKind::HeapUsed,
            0,
            now.saturating_add(out.local_pause.max(out.stw_pause)),
            post_used,
        );
        self.check_collection_invariants(out.local_pause.max(out.stw_pause), live);
        self.ctxs[tid.index()].local_pause_debt += out.local_pause;
        if !out.stw_pause.is_zero() {
            self.apply_stw(out.stw_pause);
        }
        self.maybe_start_concurrent_cycle();
    }

    /// Kicks off a mostly-concurrent old-gen cycle when occupancy calls
    /// for one: a short initial-mark STW pause, then a fresh background
    /// thread that competes with mutators for a core while it marks and
    /// sweeps.
    fn maybe_start_concurrent_cycle(&mut self) {
        if self.config.old_gen != OldGenPolicy::MostlyConcurrent
            || self.concurrent_cycle.is_some()
            || !self.collector.wants_concurrent_cycle(&self.heap)
        {
            return;
        }
        let live = self.sched.live_count();
        let now = self.now();
        let (initial, work) = self.collector.begin_concurrent_cycle(&self.heap, live, now);
        self.apply_stw(initial);

        let tid = self.sched.register(self.now());
        let rngs = RngFactory::new(self.config.seed);
        let mut ctx = ThreadCtx::new(
            ThreadKind::GcBackground,
            rngs.stream("gc-background", tid.index() as u64),
        );
        // stash the cycle's CPU work where next_action will find it
        ctx.local_pause_debt = work;
        self.ctxs.push(ctx);
        self.concurrent_cycle = Some((tid, initial));
        self.sched.start(tid, self.now());
        self.dispatch_and_resume();
    }

    /// Completes the cycle: remark STW pause, sweep, retire the
    /// background thread.
    fn finish_concurrent_cycle(&mut self, tid: ThreadId) {
        let (cycle_tid, _initial) = self
            .concurrent_cycle
            .take()
            .expect("cycle work finished without a cycle");
        debug_assert_eq!(cycle_tid, tid);
        let live = self.sched.live_count();
        let now = self.now();
        let remark = self
            .collector
            .finish_concurrent_cycle(&mut self.heap, live, now);
        self.apply_stw(remark);
        self.disarm_quantum(tid);
        self.ctxs[tid.index()].done = true;
        self.sched.terminate(tid, self.now());
        self.dispatch_and_resume();
    }

    fn apply_stw(&mut self, pause: SimDuration) {
        let now = self.now();
        self.counters.inc(CounterId::StwPauses);
        self.queue.shift_all(pause);
        self.sched.apply_stw_pause(pause, now);
        // Cached step deadlines move with the world.
        for ctx in &mut self.ctxs {
            if let Some(r) = &mut ctx.running {
                r.deadline = r.deadline.saturating_add(pause);
            }
        }
        // A stop-the-world pause is a safepoint: every mutator is parked at
        // a known boundary, so this is the cheapest moment to cross-check
        // scheduler and monitor state.
        if self.config.monitors {
            self.scan_invariants();
        }
    }

    /// Whether the thread still has (or can still get) work.
    fn has_more_work(&self, tid: ThreadId) -> bool {
        let ctx = &self.ctxs[tid.index()];
        match self.app.distribution() {
            Distribution::StaticSkewed { .. } => ctx.assigned_remaining > 0,
            Distribution::GuidedQueue { .. } => {
                ctx.batch_remaining > 0 || ctx.merge_pending || self.shared_remaining > 0
            }
        }
    }

    fn kill_object(&mut self, obj: ObjectId, seq: ObjSeq) {
        self.counters.inc(CounterId::ObjectDeaths);
        let death = self.heap.kill(obj);
        self.tracer.on_death(seq, death.lifespan, self.heap.clock());
    }

    // ------------------------------------------------------------------
    // Locking
    // ------------------------------------------------------------------

    fn pick_monitor(&mut self, tid: ThreadId, class: usize) -> MonitorId {
        let instances = &self.class_monitors[class];
        if instances.len() == 1 {
            instances[0]
        } else {
            let i = self.ctxs[tid.index()].rng.gen_range(0..instances.len());
            instances[i]
        }
    }

    fn block_on_monitor(&mut self, tid: ThreadId) {
        self.disarm_quantum(tid);
        self.sched.block(tid, self.now(), BlockReason::Monitor);
        if self.chaos.fires(FaultClass::SpuriousWakeup) {
            // Injected fault: the waiter becomes runnable without the
            // monitor handoff, as a broken park/unpark would produce. The
            // inline protocol check in `next_action` must catch it.
            self.counters.inc(CounterId::ChaosInjections);
            let now = self.now();
            self.timeline
                .instant(EventKind::ChaosSpuriousWakeup, 0, now, tid.index() as u64);
            self.sched.unblock(tid, self.now());
        }
        self.dispatch_and_resume();
    }

    fn release_monitor(&mut self, mon: MonitorId, tid: ThreadId) {
        let grant = match self.locks.release(mon, tid, self.now()) {
            Ok(grant) => grant,
            Err(misuse) => {
                self.flag_violation(MonitorKind::MonitorProtocol, format!("{misuse} ({mon})"));
                return;
            }
        };
        if let Some(grant) = grant {
            let next = grant.next;
            self.counters.inc(CounterId::LockAcquires);
            let p = self.ctxs[next.index()]
                .pending
                .as_mut()
                .expect("granted thread has a pending acquire");
            debug_assert_eq!(p.monitor, mon);
            p.granted = true;
            p.penalty = grant.penalty;
            if self.chaos.fires(FaultClass::DropWakeup) {
                // Injected fault: the handoff is recorded but the waiter
                // is never made runnable — a classic lost wakeup. The
                // scheduler monitor (or the run budget) must catch it.
                self.counters.inc(CounterId::ChaosInjections);
                let now = self.now();
                self.timeline
                    .instant(EventKind::ChaosDropWakeup, 0, now, next.index() as u64);
                return;
            }
            // A prior spurious wakeup may have made the thread runnable
            // already; only a still-blocked waiter needs the unblock.
            if matches!(self.sched.state(next), ThreadState::Blocked(_)) {
                self.sched.unblock(next, self.now());
            }
            self.dispatch_and_resume();
        }
    }

    // ------------------------------------------------------------------
    // Invariant monitors
    // ------------------------------------------------------------------

    /// The periodic full scan: scheduler cross-structure consistency plus
    /// scheduler↔monitor-table agreement. Runs every
    /// [`MONITOR_SCAN_PERIOD`](driver::MONITOR_SCAN_PERIOD) events and at
    /// stop-the-world safepoints when `JvmConfig::monitors` is on.
    fn scan_invariants(&mut self) {
        if self.violation.is_some() {
            return;
        }
        self.counters.inc(CounterId::MonitorScans);
        if let Err(detail) = self.sched.sanity_check() {
            self.flag_violation(MonitorKind::Scheduler, detail);
            return;
        }
        for i in 0..self.ctxs.len() {
            let tid = ThreadId::new(i);
            let Some(p) = self.ctxs[i].pending else {
                continue;
            };
            let state = self.sched.state(tid);
            if p.granted {
                // A granted waiter is unblocked in the same event that
                // granted it; still being blocked means a lost wakeup.
                if matches!(state, ThreadState::Blocked(_)) {
                    self.flag_violation(
                        MonitorKind::Scheduler,
                        format!(
                            "lost wakeup: {tid} was granted {} but is still blocked",
                            p.monitor
                        ),
                    );
                    return;
                }
                // The handoff made the thread the owner.
                if self.locks.owner(p.monitor) != Some(tid) {
                    self.flag_violation(
                        MonitorKind::MonitorProtocol,
                        format!("{tid} holds a grant for {} it does not own", p.monitor),
                    );
                    return;
                }
            } else {
                // An ungranted waiter stays blocked until the handoff; any
                // other state means a spurious wakeup slipped through.
                if !matches!(state, ThreadState::Blocked(_)) {
                    self.flag_violation(
                        MonitorKind::MonitorProtocol,
                        format!(
                            "spurious wakeup: {tid} is {state} while waiting ungranted on {}",
                            p.monitor
                        ),
                    );
                    return;
                }
                // An ungranted waiter must sit in the monitor's FIFO queue
                // behind a live owner.
                if !self.locks.is_waiting(p.monitor, tid) {
                    self.flag_violation(
                        MonitorKind::MonitorProtocol,
                        format!("{tid} blocks on {} but is not in its wait queue", p.monitor),
                    );
                    return;
                }
                if self.locks.owner(p.monitor).is_none() {
                    self.flag_violation(
                        MonitorKind::MonitorProtocol,
                        format!("{tid} waits on {} although it is unowned", p.monitor),
                    );
                    return;
                }
            }
        }
        // Mutual exclusion: a thread inside a critical step owns the lock.
        for i in 0..self.ctxs.len() {
            let tid = ThreadId::new(i);
            if let Some(r) = &self.ctxs[i].running {
                if let StepKind::Critical(mon) | StepKind::Fetch(mon) = r.kind {
                    if self.locks.owner(mon) != Some(tid) {
                        self.flag_violation(
                            MonitorKind::MonitorProtocol,
                            format!("{tid} executes a critical section without owning {mon}"),
                        );
                        return;
                    }
                }
            }
        }
    }
}

impl Engine for Sim<'_> {
    type Event = Event;

    fn queue(&self) -> &EventQueue<Event> {
        &self.queue
    }

    /// Done once every mutator finished; an empty queue before that is a deadlock.
    fn next_event(&mut self) -> Result<Option<Event>, InvariantViolation> {
        if self.mutators_left == 0 {
            return Ok(None);
        }
        match self.queue.pop() {
            Some((_, event)) => Ok(Some(event)),
            None => Err(InvariantViolation {
                kind: MonitorKind::QueueLiveness,
                detail: format!(
                    "simulation deadlock: {} mutators unfinished with no pending events",
                    self.mutators_left
                ),
            }),
        }
    }

    fn handle(&mut self, event: Event) -> Option<InvariantViolation> {
        match event {
            Event::Resume(tid) => self.on_resume(tid),
            Event::StepDone(tid) => self.on_step_done(tid),
            Event::Quantum(tid) => self.on_quantum(tid),
            Event::HelperWake(tid) => self.on_helper_wake(tid),
            Event::CohortRotate => self.on_cohort_rotate(),
        }
        self.violation.take()
    }

    fn scan(&mut self) -> Option<InvariantViolation> {
        self.scan_invariants();
        self.violation.take()
    }
}

/// Exponential sample with the given mean (for helper sleep/burst times).
fn exp_sample(rng: &mut StdRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(1e-12f64..1.0);
    SimDuration::from_secs_f64(-u.ln() * mean.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JvmConfig;
    use scalesim_gc::GcKind;
    use scalesim_workloads::{eclipse, h2, jython, xalan, SyntheticApp};

    fn quick(app: &SyntheticApp, threads: usize) -> RunReport {
        let cfg = JvmConfig::builder()
            .threads(threads)
            .seed(1)
            .build()
            .unwrap();
        Jvm::new(cfg).run(&app.scaled(0.02)).unwrap()
    }

    #[test]
    fn single_thread_run_completes_all_items() {
        let app = xalan().scaled(0.02);
        let report = Jvm::new(JvmConfig::builder().threads(1).build().unwrap())
            .run(&app)
            .unwrap();
        assert_eq!(report.total_items(), app.total_items());
        assert!(report.wall_time.as_nanos() > 0);
        assert!(report.mutator_cpu.as_nanos() > 0);
    }

    #[test]
    fn multithreaded_run_completes_all_items() {
        let app = xalan().scaled(0.02);
        let report = quick(&xalan(), 8);
        assert_eq!(report.total_items(), app.total_items());
        assert_eq!(report.per_thread.len(), 8);
    }

    #[test]
    fn scalable_app_speeds_up() {
        let t1 = quick(&xalan(), 1);
        let t8 = quick(&xalan(), 8);
        let speedup = t1.wall_time.as_secs_f64() / t8.wall_time.as_secs_f64();
        assert!(speedup > 3.0, "xalan 8-thread speedup only {speedup:.2}");
    }

    #[test]
    fn non_scalable_app_does_not_speed_up_much() {
        let t1 = quick(&h2(), 1);
        let t8 = quick(&h2(), 8);
        let speedup = t1.wall_time.as_secs_f64() / t8.wall_time.as_secs_f64();
        assert!(speedup < 2.0, "h2 8-thread speedup {speedup:.2} too high");
    }

    #[test]
    fn gc_happens_and_is_logged() {
        let report = quick(&xalan(), 4);
        assert!(report.gc.count(GcKind::Minor) > 0, "no minor GC occurred");
        assert!(report.gc_time.as_nanos() > 0);
        assert!(report.gc_time < report.wall_time);
    }

    #[test]
    fn lock_profile_reports_app_classes() {
        let report = quick(&xalan(), 4);
        assert!(report.locks.acquisitions_of("workqueue") > 0);
        assert!(report.locks.acquisitions_of("dtm-cache") > 0);
    }

    #[test]
    fn trace_balances_allocations_and_deaths() {
        let report = quick(&xalan(), 4);
        assert!(report.trace.allocations() > 0);
        assert_eq!(
            report.trace.allocations(),
            report.trace.deaths() + report.trace.censored(),
            "every object dies or is censored"
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = quick(&xalan(), 4);
        let b = quick(&xalan(), 4);
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.locks.total.contentions, b.locks.total.contentions);
        assert_eq!(a.trace.allocations(), b.trace.allocations());
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn different_seeds_differ() {
        let app = xalan().scaled(0.02);
        let a = Jvm::new(JvmConfig::builder().threads(4).seed(1).build().unwrap())
            .run(&app)
            .unwrap();
        let b = Jvm::new(JvmConfig::builder().threads(4).seed(2).build().unwrap())
            .run(&app)
            .unwrap();
        assert_ne!(a.wall_time, b.wall_time);
    }

    #[test]
    fn jython_concentrates_work_in_four_threads() {
        let report = quick(&jython(), 16);
        assert!(report.threads_for_90pct_work() <= 4);
        let idle: u64 = report.per_thread[4..].iter().map(|t| t.items_done).sum();
        assert_eq!(idle, 0, "threads beyond the cap received work");
    }

    #[test]
    fn eclipse_work_is_skewed() {
        let report = quick(&eclipse(), 8);
        let shares = report.work_shares();
        assert!(shares[0] > shares[3], "{shares:?}");
    }

    #[test]
    fn mutator_wall_plus_gc_equals_wall() {
        let report = quick(&xalan(), 4);
        assert_eq!(report.mutator_wall() + report.gc_time, report.wall_time);
    }

    #[test]
    fn heaplets_mode_runs_and_collects_per_region() {
        let cfg = JvmConfig::builder()
            .threads(4)
            .heaplets(true)
            .seed(1)
            .build()
            .unwrap();
        let report = Jvm::new(cfg).run(&xalan().scaled(0.02)).unwrap();
        assert!(report.gc.collections() > 0);
        let regions: std::collections::HashSet<usize> = report
            .gc
            .events()
            .iter()
            .filter(|e| e.kind == GcKind::LocalMinor)
            .map(|e| e.region)
            .collect();
        assert!(regions.len() > 1, "only one heaplet was ever collected");
        assert_eq!(
            report.gc.count(GcKind::Minor),
            0,
            "heaplet mode never runs global minors"
        );
    }

    #[test]
    fn biased_policy_completes_work() {
        let cfg = JvmConfig::builder()
            .threads(8)
            .policy(SchedPolicy::Biased { cohorts: 2 })
            .seed(1)
            .build()
            .unwrap();
        let app = xalan().scaled(0.02);
        let report = Jvm::new(cfg).run(&app).unwrap();
        assert_eq!(report.total_items(), app.total_items());
    }

    #[test]
    fn helper_threads_are_excluded_from_mutator_reports() {
        let report = quick(&xalan(), 4);
        assert_eq!(report.per_thread.len(), 4);
    }

    #[test]
    fn concurrent_old_gen_replaces_full_collections() {
        use crate::config::OldGenPolicy;
        // full-scale xalan at 48 threads: promotion pressure produces
        // full GCs in the baseline (see Figure 2)
        let app = xalan();
        let stw = Jvm::new(JvmConfig::builder().threads(48).seed(1).build().unwrap())
            .run(&app)
            .unwrap();
        let conc = Jvm::new(
            JvmConfig::builder()
                .threads(48)
                .seed(1)
                .old_gen(OldGenPolicy::MostlyConcurrent)
                .build()
                .unwrap(),
        )
        .run(&app)
        .unwrap();
        assert_eq!(conc.total_items(), app.total_items());
        assert!(
            stw.gc.count(GcKind::Full) > 0,
            "baseline must have full GCs for the comparison to mean anything"
        );
        let cycles = conc.gc.count(GcKind::ConcurrentOld);
        let failures = conc.gc.count(GcKind::Full);
        assert!(
            cycles > 0 || failures > 0,
            "occupancy pressure must trigger old-gen work"
        );
        // The win is the worst old-gen pause: each concurrent STW phase
        // (initial mark / remark) is far shorter than a full collection.
        let max_of = |r: &crate::RunReport, kind: GcKind| {
            r.gc.events()
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.pause)
                .max()
                .unwrap_or(SimDuration::ZERO)
        };
        let worst_full = max_of(&stw, GcKind::Full);
        let worst_phase = max_of(&conc, GcKind::ConcurrentOld);
        assert!(
            worst_phase < worst_full,
            "worst concurrent phase {worst_phase} vs worst full GC {worst_full}"
        );
    }

    #[test]
    fn permanent_objects_are_censored_at_shutdown() {
        // every app allocates some permanent objects with nonzero
        // probability; they must be right-censored, never leaked
        let report = quick(&xalan(), 4);
        assert!(report.trace.censored() > 0, "xalan allocates permanents");
        assert_eq!(
            report.trace.allocations(),
            report.trace.deaths() + report.trace.censored()
        );
    }

    #[test]
    fn biased_cohorts_park_and_stagger_threads() {
        let cfg = JvmConfig::builder()
            .threads(8)
            .policy(SchedPolicy::Biased { cohorts: 2 })
            .seed(1)
            .build()
            .unwrap();
        let app = xalan().scaled(0.05);
        let biased = Jvm::new(cfg).run(&app).unwrap();
        let fair = Jvm::new(JvmConfig::builder().threads(8).seed(1).build().unwrap())
            .run(&app)
            .unwrap();
        // parked threads accumulate sleep-state time that fair never has
        let sleep: SimDuration = biased
            .per_thread
            .iter()
            .map(|t| t.times.blocked_sleep)
            .sum();
        assert!(sleep.as_nanos() > 0, "cohort parking must show up as sleep");
        assert!(biased.wall_time > fair.wall_time);
        // but work and objects are conserved identically
        assert_eq!(biased.total_items(), fair.total_items());
    }

    #[test]
    fn heaplet_local_pause_debt_is_charged_to_the_allocating_thread() {
        let cfg = JvmConfig::builder()
            .threads(4)
            .heaplets(true)
            .seed(1)
            .build()
            .unwrap();
        let app = xalan().scaled(0.05);
        let report = Jvm::new(cfg).run(&app).unwrap();
        let local_pause = report.gc.pause_of(GcKind::LocalMinor);
        assert!(local_pause.as_nanos() > 0);
        // local collection time rides inside mutator running time (the
        // owner thread does the copying), so aggregate running exceeds
        // the items' pure CPU demand
        assert!(report.mutator_cpu > local_pause);
    }

    #[test]
    fn gc_share_is_monotone_across_big_thread_jumps() {
        // the core Figure-2 relation at unit-test scale
        let shares: Vec<f64> = [2usize, 12, 48]
            .iter()
            .map(|&t| quick(&xalan(), t).gc_share())
            .collect();
        assert!(shares.windows(2).all(|w| w[1] > w[0]), "{shares:?}");
    }

    #[test]
    fn more_threads_than_cores_still_completes() {
        let cfg = JvmConfig::builder()
            .threads(6)
            .cores(2)
            .seed(1)
            .build()
            .unwrap();
        let app = xalan().scaled(0.01);
        let report = Jvm::new(cfg).run(&app).unwrap();
        assert_eq!(report.total_items(), app.total_items());
        let runnable_wait: SimDuration = report
            .per_thread
            .iter()
            .map(|t| t.times.runnable_wait)
            .sum();
        assert!(
            runnable_wait > SimDuration::ZERO,
            "6 threads on 2 cores must wait for cores"
        );
    }

    #[test]
    fn every_lock_algorithm_completes_contended_runs() {
        let app = xalan().scaled(0.02);
        let fifo_items = {
            let cfg = JvmConfig::builder()
                .threads(8)
                .seed(1)
                .lock_alg(scalesim_sync::LockAlg::Fifo)
                .build()
                .unwrap();
            Jvm::new(cfg).run(&app).unwrap().total_items()
        };
        for alg in scalesim_sync::LockAlg::ALL {
            let cfg = JvmConfig::builder()
                .threads(8)
                .seed(1)
                .lock_alg(alg)
                .build()
                .unwrap();
            let report = Jvm::new(cfg).run(&app).unwrap();
            assert!(matches!(report.outcome, RunOutcome::Ok), "{alg}");
            // Work conservation is algorithm-independent: every item
            // completes no matter who gets the lock when.
            assert_eq!(report.total_items(), fifo_items, "{alg}");
            assert!(report.locks.total.contentions > 0, "{alg}: uncontended");
        }
    }

    /// Metamorphic: with one mutator thread no lock is ever contended,
    /// so MCS and Malthusian must be indistinguishable from FIFO — the
    /// algorithms may only differ on a contended handoff.
    #[test]
    fn single_thread_runs_are_identical_under_every_lock_algorithm() {
        use scalesim_sync::LockAlg;
        let run = |app: &SyntheticApp, alg: LockAlg| {
            let cfg = JvmConfig::builder()
                .threads(1)
                .seed(42)
                .lock_alg(alg)
                .build()
                .unwrap();
            Jvm::new(cfg).run(app).unwrap()
        };
        for app in scalesim_workloads::all_apps() {
            let app = app.scaled(0.05);
            let fifo = run(&app, LockAlg::Fifo);
            for alg in [LockAlg::Mcs, LockAlg::Malthusian] {
                let other = run(&app, alg);
                let who = format!("{} under {alg}", app.name());
                assert_eq!(other.wall_time, fifo.wall_time, "{who}");
                assert_eq!(other.gc_time, fifo.gc_time, "{who}");
                assert_eq!(other.locks, fifo.locks, "{who}");
                assert_eq!(other.per_thread, fifo.per_thread, "{who}");
                assert_eq!(other.heap, fifo.heap, "{who}");
                assert_eq!(other.events_processed, fifo.events_processed, "{who}");
                assert_eq!(other.outcome, fifo.outcome, "{who}");
            }
        }
    }

    #[test]
    fn every_lock_algorithm_quarantines_under_wakeup_drops() {
        // Chaos eventual-admission property: dropped wakeups must never
        // panic or hang any algorithm — the invariant monitors (or the
        // event budget) catch the lost handoff and the salvaged run
        // finalizes as a quarantined/truncated report.
        use scalesim_simkit::ChaosConfig;
        for alg in scalesim_sync::LockAlg::ALL {
            let chaos = ChaosConfig {
                drop_wakeup_period: 64,
                ..ChaosConfig::default()
            };
            let cfg = JvmConfig::builder()
                .threads(8)
                .seed(1)
                .lock_alg(alg)
                .chaos(chaos)
                .salvage(true)
                .build()
                .unwrap();
            let report = Jvm::new(cfg).run(&xalan().scaled(0.02)).unwrap();
            assert!(
                !matches!(report.outcome, RunOutcome::Ok),
                "{alg}: a dropped wakeup must not finalize clean"
            );
        }
    }
}
