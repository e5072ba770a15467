//! The request-serving engine: executes a [`ServerSpec`] instead of a
//! batch benchmark, against the same subsystems the batch runtime uses
//! (the `scalesim-sync` monitor table, the generational heap and
//! collector, the chaos plan, the trace registry), under the same
//! [`driver`](crate::driver) loop; a run ends at the spec's horizon.
//!
//! # Execution model
//!
//! Requests arrive open-loop (a Poisson schedule that keeps coming
//! regardless of server state) or closed-loop (clients that think, issue,
//! and wait). Each arrival is admitted into a bounded accept queue —
//! subject to admission control, a degraded-mode priority watermark and
//! the queue bound itself — and served by a fixed worker pool (one worker
//! per configured mutator thread). Serving a request allocates its
//! class's burst (driving real minor collections), optionally takes a
//! monitor critical section (driving real contention), then computes for
//! the class's service time.
//!
//! Clients time out, retry with their configured backoff, and stop at
//! their retry budget. The failure mode under study is *metastable*: a
//! transient GC stall freezes the workers while open-loop arrivals keep
//! queueing; once queue delay exceeds the client timeout, naive immediate
//! retries multiply the offered load and the server stays saturated long
//! after the stall has ended, its capacity wasted on orphan work nobody
//! is waiting for. Admission control plus backoff removes the
//! amplification loop, and goodput recovers as soon as the backlog
//! drains.
//!
//! # Stop-the-world without a clock shift
//!
//! The batch runtime realizes a pause by shifting every pending event.
//! Here that would be wrong: client timers and future arrivals are
//! *outside* the server and must not freeze. Instead the engine keeps a
//! cumulative STW counter; every in-service completion event carries the
//! counter value at schedule time and, on firing, re-schedules itself by
//! the pause time that accrued in between. Work stretches, the outside
//! world does not — which is exactly how a backlog forms.
//!
//! # Attempt handles
//!
//! Admitted attempts live in an [`AttemptSlab`]; the accept queue, a busy
//! worker and a pending [`Ev::Timeout`] each hold an [`AttemptKey`]
//! (slot, generation). Resolving an attempt frees its slot and bumps the
//! slot's generation, so every key still left behind — a queue entry
//! skipped lazily, a timeout that raced its cancel — reads as absent,
//! even after a later attempt reuses the slot.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use rand::rngs::StdRng;

use scalesim_gc::{Collector, GcCostModel};
use scalesim_heap::{AllocResult, Heap, HeapConfig, NurseryLayout, ObjectId};
use scalesim_metrics::LogHistogram;
use scalesim_sched::{StateTimes, ThreadId};
use scalesim_simkit::{
    ChaosPlan, EventId, EventQueue, FaultClass, RngFactory, SimDuration, SimTime,
};
use scalesim_sync::{AcquireOutcome, LockTable, MonitorId};
use scalesim_trace::{CounterId, Counters, EventKind, Timeline};
use scalesim_workloads::{poisson_gap_ns, think_ns, ArrivalProcess, ServerSpec};

use crate::config::JvmConfig;
use crate::driver::Engine;
use crate::error::{InvariantViolation, MonitorKind};
use crate::report::{RunOutcome, RunReport, ServerStats, ThreadReport};

/// Heap floor when the config has no explicit sizing: small enough that
/// the allocation bursts produce regular minor collections for the chaos
/// plan to amplify.
const SERVER_MIN_HEAP: u64 = 4 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// The next open-loop arrival fires (the schedule is generated
    /// lazily, one gap at a time, from the `server-arrival` RNG stream).
    OpenArrival,
    /// A request attempt reaches the server. `client` is the closed-loop
    /// issuer, carried into every retry of the request.
    Arrival {
        req: u64,
        attempt: u32,
        client: Option<u32>,
    },
    /// A client's per-attempt timer expires.
    Timeout(AttemptKey),
    /// A worker's critical-section hold ends; release and continue into
    /// the compute phase. `accum` is the STW counter at schedule time.
    HoldDone { worker: usize, accum: u64 },
    /// A worker's compute phase ends; the reply is ready.
    Done { worker: usize, accum: u64 },
}

// Every pending event carries an `Ev`; carrying the client in `Arrival`
// must not grow it.
const _: () = assert!(std::mem::size_of::<Ev>() <= 24);

/// Which in-service phase a completion event ends.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// The critical-section hold ([`Ev::HoldDone`]).
    Hold,
    /// The compute phase ([`Ev::Done`]).
    Compute,
}

impl Stage {
    fn event(self, worker: usize, accum: u64) -> Ev {
        match self {
            Stage::Hold => Ev::HoldDone { worker, accum },
            Stage::Compute => Ev::Done { worker, accum },
        }
    }
}

/// Where an admitted attempt currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// In the accept queue.
    Queued,
    /// On a worker.
    InService,
    /// Silently discarded by the request-drop chaos fault; the client
    /// will find out at its timeout.
    DroppedSilent,
}

#[derive(Debug)]
struct Attempt {
    req: u64,
    attempt: u32,
    class: usize,
    arrival_at: u64,
    phase: Phase,
    /// The client's timer fired; a later completion is orphan work.
    timed_out: bool,
    timeout_ev: EventId,
    /// Closed-loop issuer (client index), when applicable.
    client: Option<u32>,
    /// The allocation burst's object, once in service.
    obj: Option<ObjectId>,
}

/// Handle to an attempt in an [`AttemptSlab`]: valid until the attempt
/// resolves, absent from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttemptKey {
    slot: u32,
    gen: u32,
}

#[derive(Debug)]
struct AttemptSlot {
    gen: u32,
    attempt: Option<Attempt>,
}

/// The admitted, unresolved attempts: a free-listed slab whose slots
/// carry a generation, as in the heap's `ObjectTable` and the event
/// queue's stamps.
#[derive(Debug, Default)]
struct AttemptSlab {
    slots: Vec<AttemptSlot>,
    free: Vec<u32>,
    live: usize,
}

impl AttemptSlab {
    /// The key the next [`insert`](Self::insert) will return.
    fn next_key(&self) -> AttemptKey {
        match self.free.last() {
            Some(&slot) => AttemptKey {
                slot,
                gen: self.slots[slot as usize].gen,
            },
            None => AttemptKey {
                slot: u32::try_from(self.slots.len()).expect("attempt slab overflow"),
                gen: 0,
            },
        }
    }

    fn insert(&mut self, attempt: Attempt) -> AttemptKey {
        let key = self.next_key();
        self.live += 1;
        if self.free.pop().is_some() {
            self.slots[key.slot as usize].attempt = Some(attempt);
        } else {
            self.slots.push(AttemptSlot {
                gen: 0,
                attempt: Some(attempt),
            });
        }
        key
    }

    /// The attempt behind `key`, or `None` once it has resolved. A
    /// resolved slot's generation has moved past every key issued for it.
    fn get(&self, key: AttemptKey) -> Option<&Attempt> {
        let s = &self.slots[key.slot as usize];
        if s.gen == key.gen {
            s.attempt.as_ref()
        } else {
            None
        }
    }

    fn get_mut(&mut self, key: AttemptKey) -> Option<&mut Attempt> {
        let s = &mut self.slots[key.slot as usize];
        if s.gen == key.gen {
            s.attempt.as_mut()
        } else {
            None
        }
    }

    /// Resolves the attempt behind `key`: frees its slot and bumps the
    /// slot's generation, so `key` and all its copies read as absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already absent.
    fn remove(&mut self, key: AttemptKey) -> Attempt {
        let s = &mut self.slots[key.slot as usize];
        assert_eq!(s.gen, key.gen, "stale attempt key");
        let attempt = s.attempt.take().expect("live attempt key");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(key.slot);
        self.live -= 1;
        attempt
    }

    /// Unresolved attempts.
    fn len(&self) -> usize {
        self.live
    }
}

impl Index<AttemptKey> for AttemptSlab {
    type Output = Attempt;

    fn index(&self, key: AttemptKey) -> &Attempt {
        self.get(key).expect("live attempt key")
    }
}

impl IndexMut<AttemptKey> for AttemptSlab {
    fn index_mut(&mut self, key: AttemptKey) -> &mut Attempt {
        self.get_mut(key).expect("live attempt key")
    }
}

#[derive(Debug, Default)]
struct Worker {
    /// The attempt being served, if any (including blocked on a monitor).
    busy: Option<AttemptKey>,
    /// Waiting in a monitor queue (dispatch must not hand it new work).
    blocked: bool,
    service_start_ns: u64,
    busy_ns: u64,
    items_done: u64,
    dispatches: u64,
}

pub(crate) struct ServerSim<'a> {
    config: &'a JvmConfig,
    spec: &'a ServerSpec,
    seed: u64,
    queue: EventQueue<Ev>,
    locks: LockTable,
    /// Per request class, the monitor of its lock profile: classes that
    /// name the same lock class share one.
    monitors: Vec<Option<MonitorId>>,
    heap: Heap,
    collector: Collector,
    chaos: ChaosPlan,
    timeline: Timeline,
    counters: Counters,
    arrival_rng: StdRng,
    accept: VecDeque<AttemptKey>,
    attempts: AttemptSlab,
    workers: Vec<Worker>,
    /// Cumulative stop-the-world nanoseconds (see module docs).
    stw_accum: u64,
    next_req: u64,
    retries_issued: u64,
    /// Closed-loop round counter per client.
    client_round: Vec<u64>,
    /// First monitor-protocol misuse observed; the driver stops the run
    /// after the current event and `JvmConfig::salvage` decides between
    /// [`RunOutcome::Quarantined`] and an error, as for the batch runtime.
    violation: Option<InvariantViolation>,
    stats: ServerStats,
}

impl<'a> ServerSim<'a> {
    pub(crate) fn new(config: &'a JvmConfig, spec: &'a ServerSpec) -> Self {
        let cores = config.placement.enabled(&config.machine, config.cores());
        let mean_numa = config.machine.mean_numa_factor_of(&cores);
        let gc_model = config
            .gc_model_override
            .unwrap_or_else(|| GcCostModel::hotspot_like(config.gc_workers(), mean_numa));
        let mut collector = Collector::new(gc_model);
        collector.set_timeline(config.trace.recorder());
        let heap = Heap::new(HeapConfig::new(
            config.heap_bytes(SERVER_MIN_HEAP),
            config.nursery_fraction,
            NurseryLayout::Shared,
        ));
        let mut locks = LockTable::with_algorithm(config.lock_alg);
        locks.set_timeline(config.trace.recorder());
        let mut monitors: Vec<Option<MonitorId>> = Vec::with_capacity(spec.classes.len());
        for (i, class) in spec.classes.iter().enumerate() {
            let m = class.lock.as_ref().map(|lock| {
                let earlier = spec.classes[..i]
                    .iter()
                    .position(|c| c.lock.as_ref().is_some_and(|l| l.class == lock.class));
                match earlier {
                    Some(j) => monitors[j].expect("a locked class has a monitor"),
                    None => locks.create(&lock.class),
                }
            });
            monitors.push(m);
        }
        let clients = match spec.arrival {
            ArrivalProcess::ClosedLoop { clients, .. } => clients,
            ArrivalProcess::OpenPoisson { .. } => 0,
        };
        ServerSim {
            config,
            spec,
            seed: config.seed,
            queue: EventQueue::new(),
            locks,
            monitors,
            heap,
            collector,
            chaos: ChaosPlan::new(config.chaos, config.seed),
            timeline: config.trace.recorder(),
            counters: Counters::new(),
            arrival_rng: RngFactory::new(config.seed).stream("server-arrival", 0),
            accept: VecDeque::new(),
            attempts: AttemptSlab::default(),
            workers: (0..config.threads).map(|_| Worker::default()).collect(),
            stw_accum: 0,
            next_req: 0,
            retries_issued: 0,
            client_round: vec![0; clients],
            violation: None,
            stats: ServerStats {
                policy: spec.name.clone(),
                arrivals: 0,
                goodput: 0,
                orphan_completions: 0,
                sheds: 0,
                timeouts: 0,
                retries: 0,
                in_flight: 0,
                degraded: false,
                latency: LogHistogram::new(),
                queue_depth: LogHistogram::new(),
                tail_goodput: 0,
                tail_arrivals: 0,
            },
        }
    }

    fn now_ns(&self) -> u64 {
        self.queue.now().as_nanos()
    }

    /// Seeds the first open-loop arrival or every closed-loop client.
    pub(crate) fn start(&mut self) {
        match self.spec.arrival {
            ArrivalProcess::OpenPoisson { rate_per_sec } => {
                if rate_per_sec > 0 {
                    let gap = poisson_gap_ns(rate_per_sec, &mut self.arrival_rng);
                    self.queue
                        .schedule_at(SimTime::from_nanos(gap), Ev::OpenArrival);
                }
            }
            ArrivalProcess::ClosedLoop {
                clients,
                think_ns: range,
            } => {
                for c in 0..clients {
                    let at = think_ns(self.seed, c as u64, 0, range).max(1);
                    let req = self.next_req;
                    self.next_req += 1;
                    self.queue.schedule_at(
                        SimTime::from_nanos(at),
                        Ev::Arrival {
                            req,
                            attempt: 1,
                            client: Some(u32::try_from(c).expect("client index fits in u32")),
                        },
                    );
                }
            }
        }
    }

    fn flag_misuse(&mut self, detail: String) {
        let kind = MonitorKind::MonitorProtocol;
        self.violation
            .get_or_insert(InvariantViolation { kind, detail });
    }

    // ------------------------------------------------------------------
    // Arrivals and admission
    // ------------------------------------------------------------------

    fn on_open_arrival(&mut self) {
        let req = self.next_req;
        self.next_req += 1;
        self.on_arrival(req, 1, None);
        let ArrivalProcess::OpenPoisson { rate_per_sec } = self.spec.arrival else {
            unreachable!("open arrival under closed-loop spec");
        };
        let gap = poisson_gap_ns(rate_per_sec, &mut self.arrival_rng);
        let next = self.now_ns() + gap;
        if next < self.spec.horizon_ns {
            self.queue
                .schedule_at(SimTime::from_nanos(next), Ev::OpenArrival);
        }
    }

    fn on_arrival(&mut self, req: u64, attempt: u32, client: Option<u32>) {
        let now = self.now_ns();
        let class = self.spec.class_of(self.seed, req);
        self.stats.arrivals += 1;
        if attempt == 1 && now >= self.spec.measure_from_ns {
            self.stats.tail_arrivals += 1;
        }
        self.stats.queue_depth.record(self.accept.len() as u64);

        // Door checks, most drastic first. A shed is answered
        // immediately — the client reacts now, not at its timeout.
        let depth = self.accept.len();
        let in_service = self.workers.iter().filter(|w| w.busy.is_some()).count();
        let degraded_shed = match self.spec.policy.degrade_above {
            Some(mark) if depth >= mark => {
                self.stats.degraded = true;
                self.spec.classes[class].priority > 0
            }
            _ => false,
        };
        let admission_shed = match self.spec.policy.admission_cap {
            Some(cap) => depth + in_service >= cap,
            None => false,
        };
        if degraded_shed || admission_shed || depth >= self.spec.policy.queue_cap {
            self.shed(req, attempt, class, client);
            return;
        }

        // Admitted. The request-drop chaos fault discards it silently:
        // the server took it and nothing will ever come back.
        let key = self.attempts.next_key();
        let timeout_ev = self.queue.schedule_at(
            SimTime::from_nanos(now + self.spec.client.timeout_ns),
            Ev::Timeout(key),
        );
        let phase = if self.chaos.fires(FaultClass::RequestDrop) {
            self.counters.inc(CounterId::ChaosInjections);
            self.timeline
                .instant(EventKind::ChaosRequestDrop, 0, self.queue.now(), req);
            Phase::DroppedSilent
        } else {
            self.accept.push_back(key);
            Phase::Queued
        };
        let inserted = self.attempts.insert(Attempt {
            req,
            attempt,
            class,
            arrival_at: now,
            phase,
            timed_out: false,
            timeout_ev,
            client,
            obj: None,
        });
        debug_assert_eq!(inserted, key, "the timeout carries the attempt's key");
        self.dispatch_idle_workers();
    }

    fn shed(&mut self, req: u64, attempt: u32, class: usize, client: Option<u32>) {
        self.stats.sheds += 1;
        self.timeline
            .instant(EventKind::ReqShed, class as u32, self.queue.now(), req);
        self.client_reacts(req, attempt, class, client);
    }

    /// The client learned this attempt failed (shed reply or timeout):
    /// retry with backoff if attempts and budget remain, else abandon.
    fn client_reacts(&mut self, req: u64, attempt: u32, class: usize, client: Option<u32>) {
        let can_retry = attempt <= self.spec.client.max_retries
            && self.retries_issued < self.spec.client.retry_budget;
        if can_retry {
            self.retries_issued += 1;
            self.stats.retries += 1;
            self.timeline
                .instant(EventKind::ReqRetry, class as u32, self.queue.now(), req);
            let delay = self.spec.client.backoff.delay_ns(self.seed, req, attempt);
            self.queue.schedule_at(
                SimTime::from_nanos(self.now_ns() + delay.max(1)),
                Ev::Arrival {
                    req,
                    attempt: attempt + 1,
                    client,
                },
            );
        } else if let Some(c) = client {
            // The request is abandoned; the closed-loop client moves on.
            self.next_client_round(c);
        }
    }

    /// Schedules closed-loop client `c`'s next request after a think.
    fn next_client_round(&mut self, c: u32) {
        let ArrivalProcess::ClosedLoop {
            think_ns: range, ..
        } = self.spec.arrival
        else {
            return;
        };
        self.client_round[c as usize] += 1;
        let round = self.client_round[c as usize];
        let req = self.next_req;
        self.next_req += 1;
        let delay = think_ns(self.seed, u64::from(c), round, range).max(1);
        let at = self.now_ns() + delay;
        if at < self.spec.horizon_ns {
            self.queue.schedule_at(
                SimTime::from_nanos(at),
                Ev::Arrival {
                    req,
                    attempt: 1,
                    client: Some(c),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Service
    // ------------------------------------------------------------------

    fn dispatch_idle_workers(&mut self) {
        for w in 0..self.workers.len() {
            if self.workers[w].busy.is_some() || self.workers[w].blocked {
                continue;
            }
            self.dispatch_one(w);
        }
    }

    fn dispatch_one(&mut self, w: usize) {
        while let Some(key) = self.accept.pop_front() {
            // Lazily skip entries resolved while queued (timeouts): their
            // keys are stale.
            let Some(state) = self.attempts.get(key) else {
                continue;
            };
            debug_assert_eq!(state.phase, Phase::Queued, "a live queued key");
            // Deadline shedding: don't waste a worker on a request that
            // has already waited past the deadline.
            if let Some(deadline) = self.spec.policy.deadline_shed_ns {
                if self.now_ns().saturating_sub(state.arrival_at) > deadline {
                    let state = self.attempts.remove(key);
                    self.queue.cancel(state.timeout_ev);
                    self.shed(state.req, state.attempt, state.class, state.client);
                    continue;
                }
            }
            self.start_service(w, key);
            return;
        }
    }

    fn start_service(&mut self, w: usize, key: AttemptKey) {
        let now = self.now_ns();
        let state = &mut self.attempts[key];
        state.phase = Phase::InService;
        let (req, class) = (state.req, state.class);
        self.workers[w].busy = Some(key);
        self.workers[w].dispatches += 1;
        self.workers[w].service_start_ns = now;

        // Allocation burst first (the session / response buffers), which
        // may stop the world.
        let mut pause_ns = 0u64;
        let bytes = self.spec.classes[class].alloc_bytes;
        if bytes > 0 {
            let tid = ThreadId::new(w);
            let obj = loop {
                match self.heap.alloc(tid, bytes) {
                    AllocResult::Ok(obj) => break obj,
                    AllocResult::NurseryFull { region } => {
                        pause_ns += self.minor_gc(region);
                    }
                }
            };
            self.attempts[key].obj = Some(obj);
        }

        // Critical section (if the class has one), then compute.
        if let Some(m) = self.monitors[class] {
            let tid = ThreadId::new(w);
            match self.locks.acquire(m, tid, self.queue.now()) {
                Ok(AcquireOutcome::Acquired) => {
                    self.counters.inc(CounterId::LockAcquires);
                    let hold = self
                        .spec
                        .hold_ns(self.seed, req, class)
                        .expect("locked class has a hold draw");
                    self.queue.schedule_at(
                        SimTime::from_nanos(now + pause_ns + hold),
                        Ev::HoldDone {
                            worker: w,
                            accum: self.stw_accum,
                        },
                    );
                }
                Ok(AcquireOutcome::Contended) => {
                    self.counters.inc(CounterId::LockContentions);
                    self.workers[w].blocked = true;
                }
                Err(misuse) => {
                    self.flag_misuse(format!("{misuse} ({m})"));
                    self.workers[w].blocked = true;
                }
            }
        } else {
            let svc = self.spec.service_ns(self.seed, req, class);
            self.queue.schedule_at(
                SimTime::from_nanos(now + pause_ns + svc),
                Ev::Done {
                    worker: w,
                    accum: self.stw_accum,
                },
            );
        }
    }

    /// Re-schedules worker `w`'s end of `stage`, scheduled when the STW
    /// counter read `accum`, by the STW time that accrued since. Returns
    /// `true` when the event was pushed forward and must not be handled
    /// now.
    fn stretch(&mut self, stage: Stage, w: usize, accum: u64) -> bool {
        if self.stw_accum > accum {
            let delta = self.stw_accum - accum;
            let at = SimTime::from_nanos(self.now_ns() + delta);
            self.queue.schedule_at(at, stage.event(w, self.stw_accum));
            return true;
        }
        false
    }

    fn on_hold_done(&mut self, w: usize, accum: u64) {
        if self.stretch(Stage::Hold, w, accum) {
            return;
        }
        let key = self.workers[w].busy.expect("hold ends on a busy worker");
        let state = &self.attempts[key];
        let (req, class) = (state.req, state.class);
        let m = self.monitors[class].expect("held class has a monitor");
        let tid = ThreadId::new(w);
        match self.locks.release(m, tid, self.queue.now()) {
            Ok(Some(grant)) => {
                // Hand the monitor to the blocked worker and start its
                // hold, stretched by the algorithm's handoff penalty
                // (park/wake latency on the critical path).
                let next = grant.next.index();
                self.counters.inc(CounterId::LockAcquires);
                self.workers[next].blocked = false;
                let waiter = self.workers[next].busy.expect("waiter is mid-request");
                let waiter = &self.attempts[waiter];
                let hold = self
                    .spec
                    .hold_ns(self.seed, waiter.req, waiter.class)
                    .expect("waiter's class has a hold draw");
                self.queue.schedule_at(
                    SimTime::from_nanos(self.now_ns() + hold + grant.penalty.as_nanos()),
                    Ev::HoldDone {
                        worker: next,
                        accum: self.stw_accum,
                    },
                );
            }
            Ok(None) => {}
            Err(misuse) => {
                self.flag_misuse(format!("{misuse} ({m})"));
                return;
            }
        }
        let svc = self.spec.service_ns(self.seed, req, class);
        self.queue.schedule_at(
            SimTime::from_nanos(self.now_ns() + svc),
            Ev::Done {
                worker: w,
                accum: self.stw_accum,
            },
        );
    }

    fn on_done(&mut self, w: usize, accum: u64) {
        if self.stretch(Stage::Compute, w, accum) {
            return;
        }
        let now = self.now_ns();
        let key = self.workers[w].busy.take().expect("done on a busy worker");
        self.workers[w].items_done += 1;
        self.workers[w].busy_ns += now.saturating_sub(self.workers[w].service_start_ns);
        let state = self.attempts.remove(key);
        // Only this completion frees a burst object (the collector never
        // kills), so a dead one here is a double free: let the heap panic.
        if let Some(obj) = state.obj {
            self.heap.kill(obj);
        }
        if state.timed_out {
            // Nobody is waiting: the reply is orphan work.
            self.stats.orphan_completions += 1;
        } else {
            self.queue.cancel(state.timeout_ev);
            self.stats.goodput += 1;
            self.stats
                .latency
                .record(now.saturating_sub(state.arrival_at));
            if state.arrival_at >= self.spec.measure_from_ns {
                self.stats.tail_goodput += 1;
            }
            if let Some(c) = state.client {
                self.next_client_round(c);
            }
        }
        self.dispatch_one(w);
    }

    // ------------------------------------------------------------------
    // Timeouts and faults
    // ------------------------------------------------------------------

    fn on_timeout(&mut self, key: AttemptKey) {
        let Some(state) = self.attempts.get_mut(key) else {
            return; // resolved in the meantime; cancel raced the pop
        };
        if state.timed_out {
            return;
        }
        state.timed_out = true;
        let (req, attempt) = (state.req, state.attempt);
        let (class, phase, client) = (state.class, state.phase, state.client);
        self.timeline
            .instant(EventKind::ReqTimeout, class as u32, self.queue.now(), req);
        match phase {
            Phase::InService => {
                // The server keeps going; resolution (orphan) happens at
                // completion. The client moves on now.
            }
            Phase::Queued | Phase::DroppedSilent => {
                // Never served and never will be: resolve as a timeout.
                self.attempts.remove(key);
                self.stats.timeouts += 1;
            }
        }
        self.client_reacts(req, attempt, class, client);
    }

    /// One minor collection, amplified by the GC-stall chaos fault when
    /// inside the spec's fault window. Returns the pause in nanoseconds
    /// and adds it to the cumulative STW counter.
    fn minor_gc(&mut self, region: usize) -> u64 {
        let at = self.queue.now();
        let mut pause =
            self.collector
                .collect_minor(&mut self.heap, region, self.workers.len(), at);
        let in_window = match self.spec.fault_window_ns {
            Some((start, end)) => {
                let now = at.as_nanos();
                now >= start && now < end
            }
            None => false,
        };
        if in_window && self.chaos.fires(FaultClass::GcStall) {
            let extra = pause.mul_f64(self.chaos.config().gc_stall_factor);
            self.counters.inc(CounterId::ChaosInjections);
            self.timeline
                .instant(EventKind::ChaosGcStall, 0, at, extra.as_nanos());
            pause += extra;
        }
        self.stw_accum += pause.as_nanos();
        pause.as_nanos()
    }

    // ------------------------------------------------------------------
    // Report assembly
    // ------------------------------------------------------------------

    pub(crate) fn finish(mut self, (mut wall, outcome): (SimTime, RunOutcome)) -> RunReport {
        if outcome == RunOutcome::Ok {
            wall = SimTime::from_nanos(self.spec.horizon_ns);
        }
        self.stats.in_flight = self.attempts.len() as u64;
        debug_assert!(self.stats.conserves(), "attempt conservation broke");
        let (stats, counters) = (&self.stats, &mut self.counters);
        counters.set(CounterId::ReqArrivals, stats.arrivals);
        counters.set(CounterId::ReqGoodput, stats.goodput);
        counters.set(CounterId::ReqSheds, stats.sheds);
        counters.set(CounterId::ReqTimeouts, stats.timeouts);
        counters.set(CounterId::ReqRetries, stats.retries);
        counters.set(CounterId::ReqInFlight, stats.in_flight);

        let per_thread: Vec<ThreadReport> = self
            .workers
            .iter()
            .map(|w| ThreadReport {
                items_done: w.items_done,
                times: StateTimes {
                    running: SimDuration::from_nanos(w.busy_ns),
                    ..StateTimes::default()
                },
                dispatches: w.dispatches,
                preemptions: 0,
            })
            .collect();
        RunReport {
            app: self.spec.name.clone(),
            mutator_cpu: per_thread.iter().map(|t| t.times.running).sum(),
            heap: *self.heap.stats(),
            per_thread,
            server: Some(self.stats),
            ..RunReport::close(
                self.config,
                (wall, outcome),
                self.locks,
                self.collector,
                [Timeline::disabled(), self.timeline],
                self.queue.popped_total(),
                self.counters,
            )
        }
    }
}

impl Engine for ServerSim<'_> {
    type Event = Ev;

    fn queue(&self) -> &EventQueue<Ev> {
        &self.queue
    }

    /// Done once the queue is empty or its head is at or past the horizon.
    fn next_event(&mut self) -> Result<Option<Ev>, InvariantViolation> {
        let horizon = SimTime::from_nanos(self.spec.horizon_ns);
        Ok(match self.queue.peek_time() {
            Some(at) if at < horizon => self.queue.pop().map(|(_, ev)| ev),
            _ => None,
        })
    }

    fn handle(&mut self, ev: Ev) -> Option<InvariantViolation> {
        match ev {
            Ev::OpenArrival => self.on_open_arrival(),
            Ev::Arrival {
                req,
                attempt,
                client,
            } => self.on_arrival(req, attempt, client),
            Ev::Timeout(key) => self.on_timeout(key),
            Ev::HoldDone { worker, accum } => self.on_hold_done(worker, accum),
            Ev::Done { worker, accum } => self.on_done(worker, accum),
        }
        self.violation.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Jvm;
    use scalesim_gc::GcKind;
    use scalesim_simkit::{AbortReason, ChaosConfig, RunBudget};
    use scalesim_workloads::xalan;

    fn run_spec(spec: ServerSpec, threads: usize, seed: u64) -> RunReport {
        let config = JvmConfig::builder()
            .threads(threads)
            .seed(seed)
            .server(spec)
            .build()
            .unwrap();
        Jvm::new(config).run(&xalan()).unwrap()
    }

    fn short(mut spec: ServerSpec) -> ServerSpec {
        spec.horizon_ns = 200_000_000;
        spec.measure_from_ns = 100_000_000;
        spec
    }

    #[test]
    fn open_loop_run_serves_requests_and_conserves_attempts() {
        let report = run_spec(short(ServerSpec::naive(20_000)), 4, 42);
        let stats = report.server.as_ref().unwrap();
        assert!(stats.arrivals > 3_000, "{} arrivals", stats.arrivals);
        assert!(stats.goodput > 0);
        assert!(stats.conserves(), "{stats:?}");
        assert!(stats.latency.count() == stats.goodput);
        assert!(report.locks.total.acquisitions > 0, "session lock used");
        assert_eq!(report.app, "naive");
    }

    #[test]
    fn server_runs_are_deterministic() {
        let a = run_spec(short(ServerSpec::robust(20_000, 64)), 4, 7);
        let b = run_spec(short(ServerSpec::robust(20_000, 64)), 4, 7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = run_spec(short(ServerSpec::robust(20_000, 64)), 4, 8);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "seed matters");
    }

    #[test]
    fn closed_loop_is_self_limiting() {
        let mut spec = short(ServerSpec::naive(0));
        spec.arrival = ArrivalProcess::ClosedLoop {
            clients: 8,
            think_ns: (50_000, 150_000),
        };
        let report = run_spec(spec, 4, 42);
        let stats = report.server.as_ref().unwrap();
        assert!(stats.conserves(), "{stats:?}");
        assert!(stats.goodput > 100, "{} goodput", stats.goodput);
        // Eight clients with one outstanding request each can never
        // queue deeper than the client count.
        assert!(stats.queue_depth.max().unwrap_or(0) <= 8);
        assert_eq!(stats.sheds, 0);
    }

    fn truncated_config(max_events: u64) -> JvmConfig {
        JvmConfig::builder()
            .threads(4)
            .seed(42)
            .budget(RunBudget {
                max_events,
                ..RunBudget::default()
            })
            .server(short(ServerSpec::naive(40_000)))
            .build()
            .unwrap()
    }

    #[test]
    fn event_budget_truncates_before_the_horizon_and_conserves() {
        let report = Jvm::new(truncated_config(20_000)).run(&xalan()).unwrap();
        assert_eq!(
            report.outcome,
            RunOutcome::Truncated(AbortReason::MaxEvents(20_000))
        );
        // The event over budget is popped, never handled.
        assert_eq!(report.events_processed, 20_001);
        assert!(report.server.as_ref().unwrap().conserves());
        assert!(
            report.wall_time.as_nanos() < 200_000_000,
            "below the horizon"
        );
    }

    #[test]
    fn an_expired_watchdog_truncates_the_run_at_the_first_poll() {
        let mut config = truncated_config(u64::MAX);
        config.budget.watchdog_ms = Some(0);
        let report = Jvm::new(config).run(&xalan()).unwrap();
        assert_eq!(report.outcome, RunOutcome::Truncated(AbortReason::Watchdog));
        assert_eq!(report.events_processed, crate::driver::BUDGET_CHECK_PERIOD);
        assert!(report.server.as_ref().unwrap().conserves());
    }

    #[test]
    fn allocation_bursts_drive_minor_collections() {
        let mut spec = short(ServerSpec::naive(20_000));
        spec.classes[1].alloc_bytes = 32_768;
        let config = JvmConfig::builder()
            .threads(4)
            .seed(42)
            .heap_bytes(8 << 20)
            .server(spec)
            .build()
            .unwrap();
        let report = Jvm::new(config).run(&xalan()).unwrap();
        assert!(report.gc.count(GcKind::Minor) > 0, "nursery pressure");
        assert!(report.gc_time.as_nanos() > 0);
    }

    #[test]
    fn a_resolved_attempts_keys_stay_absent_after_its_slot_is_reused() {
        let mut spec = ServerSpec::naive(0);
        // The lock-free class alone, so `Done` ends every service.
        spec.classes.remove(0);
        let config = JvmConfig::builder()
            .threads(1)
            .seed(42)
            .server(spec)
            .build()
            .unwrap();
        let mut sim = ServerSim::new(&config, config.server.as_ref().unwrap());
        let arrive = |sim: &mut ServerSim, req| {
            let ev = Ev::Arrival {
                req,
                attempt: 1,
                client: None,
            };
            assert!(sim.handle(ev).is_none());
        };
        arrive(&mut sim, 0);
        assert!(sim.workers[0].busy.is_some(), "the one worker serves req 0");
        arrive(&mut sim, 1);
        let stale = *sim.accept.back().expect("req 1 queues behind req 0");

        // req 1's timer fires while it is queued: the attempt resolves
        // and its accept-queue entry stays behind.
        sim.handle(Ev::Timeout(stale));
        assert_eq!((sim.stats.timeouts, sim.attempts.len()), (1, 1));
        arrive(&mut sim, 2);
        let reused = *sim.accept.back().expect("req 2 queues");
        assert_eq!(reused.slot, stale.slot, "req 2 reuses the freed slot");
        assert_ne!(reused, stale);
        assert_eq!(sim.accept.len(), 2);

        // The stale timeout is skipped and does not touch req 2.
        sim.handle(Ev::Timeout(stale));
        assert_eq!((sim.stats.timeouts, sim.stats.retries), (1, 1));
        assert!(!sim.attempts[reused].timed_out);

        // req 0 completes; dispatch skips the stale entry and serves req 2.
        sim.handle(Ev::Done {
            worker: 0,
            accum: 0,
        });
        assert_eq!(sim.stats.goodput, 1);
        assert_eq!(sim.workers[0].busy, Some(reused));
        assert_eq!(sim.attempts[reused].req, 2);
        assert!(sim.accept.is_empty());
    }

    #[test]
    fn in_flight_is_the_slabs_live_count_at_finish() {
        let config = JvmConfig::builder()
            .threads(4)
            .seed(42)
            .chaos(ChaosConfig {
                request_drop_period: 7,
                ..ChaosConfig::default()
            })
            .server(short(ServerSpec::naive(20_000)))
            .build()
            .unwrap();
        let mut sim = ServerSim::new(&config, config.server.as_ref().unwrap());
        sim.start();
        let end = crate::driver::run(&mut sim, &config).unwrap();
        let live = sim
            .attempts
            .slots
            .iter()
            .filter(|s| s.attempt.is_some())
            .count();
        assert!(live > 0, "the horizon leaves attempts unresolved");
        assert_eq!(sim.attempts.len(), live);
        let report = sim.finish(end);
        assert_eq!(report.server.unwrap().in_flight, live as u64);
    }
}
