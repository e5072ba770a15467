//! Standalone drives of each layer crate's public API, reported as host
//! nanoseconds per operation.
//!
//! The op mix and sizes come from the workload's own counters
//! ([`MicroSizes::from_reports`]), so a drive prices the layer at the
//! shape the workload actually exercises it. Every drive is
//! deterministic: the same sizes give the same op sequence.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use scalesim_core::{LockAlg, RunReport};
use scalesim_gc::{Collector, GcCostModel};
use scalesim_heap::{AllocResult, Heap, HeapConfig, NurseryLayout};
use scalesim_machine::CoreId;
use scalesim_sched::{BlockReason, CpuScheduler, SchedPolicy, ThreadId, ThreadState};
use scalesim_simkit::{EventQueue, SimDuration, SimTime};
use scalesim_sync::{AcquireOutcome, LockTable};
use scalesim_trace::CounterId;

/// Operation counts are clamped into this range per drive, so a drive
/// neither drowns in timer resolution nor dominates the traced run.
const MIN_OPS: u64 = 50_000;
const MAX_OPS: u64 = 1_000_000;

/// `peek_time` is linear in the pending depth, so its drive is capped by
/// total work (ops × depth) instead.
const MAX_PEEK_WORK: u64 = 400_000_000;

/// The heap drive sizes its nursery so that it collects this often.
const MINORS_PER_DRIVE: u64 = 20;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

fn clamp_ops(n: u64) -> u64 {
    n.clamp(MIN_OPS, MAX_OPS)
}

/// Drive sizes derived from one workload's reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroSizes {
    /// Largest mutator thread count among the workload's runs.
    pub threads: usize,
    /// Pending events the batch engine keeps queued (a step and a
    /// quantum timer per thread, plus helper threads).
    pub batch_depth: usize,
    /// Pending events the server engine keeps queued, estimated as a
    /// timeout and a next arrival per request in the accept queue (at
    /// its mean depth, in the deepest run) plus a completion and a timer
    /// per worker. Equals `batch_depth` for workloads without server
    /// runs.
    pub server_depth: usize,
    /// Events per run, averaged over the workload's runs.
    pub events_per_run: u64,
    /// Dispatches per run.
    pub dispatches_per_run: u64,
    /// Contended share of monitor acquisitions.
    pub contention_ratio: f64,
    /// Monitor acquisitions per run.
    pub acquires_per_run: u64,
    /// Mean object size in bytes.
    pub mean_alloc_bytes: u64,
    /// Share of nursery bytes that survive a minor collection.
    pub survival: f64,
    /// Allocations per run.
    pub allocs_per_run: u64,
}

impl MicroSizes {
    /// Sizes from the workload's unique reports.
    #[must_use]
    pub fn from_reports(reports: &[RunReport]) -> Self {
        let runs = reports.len().max(1) as u64;
        let sum = |id: CounterId| reports.iter().map(|r| r.counters.get(id)).sum::<u64>();
        let threads = reports.iter().map(|r| r.threads).max().unwrap_or(4).max(1);
        let batch_depth = 2 * threads + 4;
        let server_depth = reports
            .iter()
            .filter_map(|r| r.server.as_ref())
            .map(|s| 2 * s.queue_depth.mean().unwrap_or(0.0) as usize + 2 * threads)
            .max()
            .unwrap_or(batch_depth)
            .max(1);
        let acquires = sum(CounterId::LockAcquires);
        let allocs = sum(CounterId::Allocations);
        let (mut survived, mut total) = (0.0, 0.0);
        for r in reports {
            if let Some(rate) = r.gc.minor_survival_rate() {
                let bytes = (r.gc.survived_bytes() + r.gc.collected_bytes()) as f64;
                survived += rate * bytes;
                total += bytes;
            }
        }
        MicroSizes {
            threads,
            batch_depth,
            server_depth,
            events_per_run: reports.iter().map(|r| r.events_processed).sum::<u64>() / runs,
            dispatches_per_run: sum(CounterId::Dispatches) / runs,
            contention_ratio: if acquires == 0 {
                0.0
            } else {
                sum(CounterId::LockContentions) as f64 / acquires as f64
            },
            acquires_per_run: acquires / runs,
            mean_alloc_bytes: (sum(CounterId::AllocBytes) / allocs.max(1)).max(8),
            survival: if total > 0.0 { survived / total } else { 0.05 },
            allocs_per_run: allocs / runs,
        }
    }
}

/// The batch engine's queue mix: pop, reschedule, cancel every 8th step,
/// and a stop-the-world `shift_all` every 64 pops, at `depth` pending
/// events. Returns ns per delivered event.
#[must_use]
pub fn queue_churn_ns(depth: usize, ops: u64) -> f64 {
    let depth = depth.max(2);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut ids = VecDeque::with_capacity(depth);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..depth as u64 {
        x = lcg(x);
        ids.push_back(q.schedule_at(q.now() + SimDuration::from_nanos(x % 10_000), i));
    }
    let start = Instant::now();
    for delivered in 1..=ops {
        x = lcg(x);
        if x.is_multiple_of(8) {
            if let Some(id) = ids.pop_back() {
                if q.cancel(id) {
                    ids.push_back(q.schedule_at(q.now() + SimDuration::from_nanos(x % 10_000), 0));
                }
            }
        }
        let (_, payload) = q.pop().expect("queue kept at depth");
        if delivered.is_multiple_of(64) {
            q.shift_all(SimDuration::from_nanos(x % 500));
        }
        if ids.len() >= depth {
            ids.pop_front();
        }
        ids.push_back(q.schedule_at(q.now() + SimDuration::from_nanos(x % 10_000), payload));
    }
    black_box(q.now());
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// The server engine's queue mix: `peek_time`, then `pop`, then
/// reschedule, at `depth` pending events. Returns ns per delivered event.
#[must_use]
pub fn queue_peek_pop_ns(depth: usize, ops: u64) -> f64 {
    let depth = depth.max(1);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..depth as u64 {
        x = lcg(x);
        q.schedule_at(q.now() + SimDuration::from_nanos(x % 100_000), i);
    }
    let start = Instant::now();
    for _ in 0..ops {
        x = lcg(x);
        black_box(q.peek_time());
        let (_, payload) = q.pop().expect("queue kept at depth");
        q.schedule_at(q.now() + SimDuration::from_nanos(x % 100_000), payload);
    }
    black_box(q.now());
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Scheduler transitions at `threads` cores with two extra (helper)
/// threads, so the ready queue is never empty: each step preempts,
/// blocks or unblocks one thread and refills idle cores. Returns ns per
/// dispatch placed.
#[must_use]
pub fn sched_dispatch_ns(threads: usize, ops: u64) -> f64 {
    let cores: Vec<CoreId> = (0..threads.max(1)).map(CoreId::new).collect();
    let mut s = CpuScheduler::new(cores, SimDuration::from_millis(2), SchedPolicy::Fair);
    let mut now = SimTime::ZERO;
    let tids: Vec<ThreadId> = (0..threads.max(1) + 2).map(|_| s.register(now)).collect();
    for &t in &tids {
        s.start(t, now);
    }
    s.dispatch(now);
    let mut dispatches = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while dispatches < ops {
        now += SimDuration::from_nanos(1_000);
        let tid = tids[i % tids.len()];
        match s.state(tid) {
            ThreadState::Running if i.is_multiple_of(3) => {
                s.block(tid, now, BlockReason::Monitor);
            }
            ThreadState::Running => {
                black_box(s.quantum_expired(tid, now));
            }
            ThreadState::Blocked(_) => s.unblock(tid, now),
            _ => {}
        }
        dispatches += s.dispatch(now).len() as u64;
        i += 1;
    }
    black_box(s.running_count());
    start.elapsed().as_nanos() as f64 / dispatches.max(1) as f64
}

/// Monitor acquire/release pairs on one monitor under `alg`, with
/// `threads` threads and the given contended share of acquisitions.
/// Rounds of one uncontended acquire, `w` contended enqueues and the
/// release chain that hands the monitor to every waiter. Returns ns per
/// acquire + release pair and the contended share achieved.
#[must_use]
pub fn lock_pair_ns(alg: LockAlg, threads: usize, contention: f64, ops: u64) -> (f64, f64) {
    let threads = threads.max(2);
    let r = contention.clamp(0.0, 0.99);
    let mut table = LockTable::with_algorithm(alg);
    let m = table.create("bench");
    let mut now = SimTime::ZERO;
    let (mut acquires, mut contended) = (0u64, 0u64);
    let mut next = 0usize;
    let start = Instant::now();
    while acquires < ops {
        let owner = ThreadId::new(next % threads);
        now += SimDuration::from_nanos(100);
        let first = table.acquire(m, owner, now).expect("free monitor");
        debug_assert_eq!(first, AcquireOutcome::Acquired);
        // Waiters this round, so the running contended share tracks `r`.
        let want = (r * (acquires + 1) as f64 - contended as f64) / (1.0 - r);
        let w = (want.round().max(0.0) as usize).min(threads - 1);
        for k in 1..=w {
            now += SimDuration::from_nanos(100);
            let waiter = ThreadId::new((next + k) % threads);
            black_box(table.acquire(m, waiter, now).expect("distinct waiter"));
        }
        acquires += 1 + w as u64;
        contended += w as u64;
        let mut holder = owner;
        loop {
            now += SimDuration::from_nanos(100);
            match table.release(m, holder, now).expect("owner releases") {
                Some(grant) => holder = grant.next,
                None => break,
            }
        }
        next += w + 1;
    }
    black_box(table.report());
    (
        start.elapsed().as_nanos() as f64 / acquires as f64,
        contended as f64 / acquires as f64,
    )
}

/// Allocation into a shared nursery and the minor collections it forces.
/// The nursery is sized for [`MINORS_PER_DRIVE`] collections, and a ring
/// of live objects for `survival` of its bytes to be live at each one;
/// each allocation kills the ring's oldest object. Returns (ns per
/// allocation, ns per minor collection).
#[must_use]
pub fn heap_gc_ns(mean_bytes: u64, survival: f64, threads: usize, allocs: u64) -> (f64, f64) {
    let nursery = allocs.saturating_mul(mean_bytes.max(8)) / MINORS_PER_DRIVE;
    let config = HeapConfig::new(
        (3 * nursery).clamp(96 << 10, 64 << 20),
        1.0 / 3.0,
        NurseryLayout::Shared,
    );
    let region_bytes = config.region_bytes();
    let mean = mean_bytes.clamp(8, region_bytes / 64);
    let mut heap = Heap::new(config);
    let mut gc = Collector::new(GcCostModel::hotspot_like(threads.clamp(1, 48), 1.0));
    let ring_cap =
        ((survival.clamp(0.0, 0.5) * region_bytes as f64) / mean as f64).max(1.0) as usize;
    let mut ring = VecDeque::with_capacity(ring_cap + 1);
    let mut x = 0x853c_49e6_748f_ea9bu64;
    let (mut alloc_ns, mut gc_ns) = (0u128, 0u128);
    let (mut done, mut minors) = (0u64, 0u64);
    let mut now = SimTime::ZERO;
    while done < allocs {
        let batch = Instant::now();
        let full_region = loop {
            if done >= allocs {
                break None;
            }
            x = lcg(x);
            let tid = ThreadId::new((x >> 32) as usize % threads.max(1));
            match heap.alloc(tid, 1 + x % (2 * mean)) {
                AllocResult::Ok(obj) => {
                    ring.push_back(obj);
                    if ring.len() > ring_cap {
                        let dead = ring.pop_front().expect("ring is non-empty");
                        black_box(heap.kill(dead));
                    }
                    done += 1;
                }
                AllocResult::NurseryFull { region } => break Some(region),
            }
        };
        alloc_ns += batch.elapsed().as_nanos();
        if let Some(region) = full_region {
            now += SimDuration::from_millis(1);
            let pause = Instant::now();
            black_box(gc.collect_minor(&mut heap, region, threads.max(1), now));
            gc_ns += pause.elapsed().as_nanos();
            minors += 1;
        }
    }
    (
        alloc_ns as f64 / done.max(1) as f64,
        gc_ns as f64 / minors.max(1) as f64,
    )
}

/// One layer's drive result.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroResult {
    /// Metric name.
    pub name: &'static str,
    /// Nanoseconds per operation.
    pub ns: f64,
}

/// Runs every drive at `sizes`.
#[must_use]
pub fn run_all_drives(sizes: &MicroSizes) -> Vec<MicroResult> {
    let peek_ops = (MAX_PEEK_WORK / sizes.server_depth.max(1) as u64).clamp(1_000, MAX_OPS);
    let mut out = vec![
        MicroResult {
            name: "simkit.queue.churn_ns",
            ns: queue_churn_ns(sizes.batch_depth, clamp_ops(sizes.events_per_run)),
        },
        MicroResult {
            name: "simkit.queue.peek_pop_ns",
            ns: queue_peek_pop_ns(
                sizes.server_depth,
                peek_ops.min(clamp_ops(sizes.events_per_run)),
            ),
        },
        MicroResult {
            name: "sched.dispatch_ns",
            ns: sched_dispatch_ns(sizes.threads, clamp_ops(sizes.dispatches_per_run)),
        },
    ];
    for (alg, name) in [
        (LockAlg::Fifo, "sync.acquire_release_ns.fifo"),
        (LockAlg::Mcs, "sync.acquire_release_ns.mcs"),
        (LockAlg::Malthusian, "sync.acquire_release_ns.malthusian"),
    ] {
        out.push(MicroResult {
            name,
            ns: lock_pair_ns(
                alg,
                sizes.threads,
                sizes.contention_ratio,
                clamp_ops(sizes.acquires_per_run),
            )
            .0,
        });
    }
    let (alloc, minor) = heap_gc_ns(
        sizes.mean_alloc_bytes,
        sizes.survival,
        sizes.threads,
        clamp_ops(sizes.allocs_per_run),
    );
    out.push(MicroResult {
        name: "heap.alloc_ns",
        ns: alloc,
    });
    out.push(MicroResult {
        name: "gc.minor_ns",
        ns: minor,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_drive_hits_the_requested_contention() {
        for alg in LockAlg::ALL {
            let (ns, share) = lock_pair_ns(alg, 8, 0.6, 10_000);
            assert!(ns > 0.0);
            assert!((share - 0.6).abs() < 0.01, "{alg}: contended share {share}");
        }
    }

    #[test]
    fn drives_report_positive_costs() {
        assert!(queue_churn_ns(40, 10_000) > 0.0);
        assert!(queue_peek_pop_ns(200, 10_000) > 0.0);
        assert!(sched_dispatch_ns(8, 10_000) > 0.0);
        let (alloc, minor) = heap_gc_ns(512, 0.05, 4, 200_000);
        assert!(alloc > 0.0 && minor > 0.0);
    }
}
