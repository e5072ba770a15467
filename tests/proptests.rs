//! Property-based tests over the core data structures and, at small
//! scale, whole simulations.
//!
//! `proptest` cannot be built in this repository's offline environment,
//! so these run on a small in-file harness: each property is checked for
//! many deterministically-seeded random cases, and a failure reports the
//! case seed to rerun. There is no shrinking — cases are kept small
//! enough to debug directly.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scalesim::metrics::{Cdf, LogHistogram};
use scalesim::simkit::{EventQueue, SimDuration, SimTime};

/// Runs `check` once per case, each with an independent deterministic
/// RNG, attributing any failure to its case seed.
fn for_cases(cases: u64, check: impl Fn(&mut StdRng) + std::panic::RefUnwindSafe) {
    for case in 0..cases {
        let seed = 0xC0FF_EE00 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let outcome = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            check(&mut rng);
        });
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property failed for case {case} (seed {seed:#x}): {msg}");
        }
    }
}

fn sample_vec(rng: &mut StdRng, max_value: u64, len: std::ops::Range<usize>) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(0..max_value)).collect()
}

// ---------------------------------------------------------------------
// Event queue vs. a reference model
// ---------------------------------------------------------------------

/// The slab queue against a plain sorted-`Vec` model:
/// schedule/cancel/pop/peek/`shift_all` agree with `(time, insertion
/// order)` semantics, including when the cancelled event is the head.
/// `EventId`s never repeat across slot recycling, cancelling an id that
/// was already popped or cancelled returns `false`, the lifetime counters
/// match the model, and a final drain delivers the sorted model, FIFO
/// ties included. Across the cases both delivery paths serve pops: the
/// front slot and the heap.
#[test]
fn event_queue_matches_vec_model() {
    let front_pops = AtomicU64::new(0);
    let heap_pops = AtomicU64::new(0);
    for_cases(256, |rng| {
        let mut queue: EventQueue<usize> = EventQueue::new();
        // Reference: (absolute time, insertion order, payload), popped in
        // lexicographic order.
        let mut model: Vec<(u64, usize, usize)> = Vec::new();
        // Every id ever issued, by insertion order.
        let mut issued = Vec::new();
        let mut ever_issued = std::collections::HashSet::new();
        let (mut now, mut popped) = (0u64, 0u64);

        for op in 0..rng.gen_range(0usize..200) {
            match rng.gen_range(0u32..5) {
                0 => {
                    let at = now + rng.gen_range(0u64..1000);
                    let id = queue.schedule_at(SimTime::from_nanos(at), op);
                    assert!(
                        ever_issued.insert(id),
                        "EventId reused across generations: {id:?}"
                    );
                    model.push((at, issued.len(), op));
                    issued.push(id);
                }
                // Cancel any id ever issued: pending, popped or cancelled.
                1 => {
                    if issued.is_empty() {
                        continue;
                    }
                    let ord = rng.gen_range(0..issued.len());
                    let was_pending = model.iter().any(|&(_, o, _)| o == ord);
                    assert_eq!(queue.cancel(issued[ord]), was_pending);
                    model.retain(|&(_, o, _)| o != ord);
                }
                // Cancel the earliest pending event, i.e. the heap's head.
                2 => {
                    let Some(&(_, ord, _)) = model.iter().min() else {
                        continue;
                    };
                    assert!(queue.cancel(issued[ord]));
                    model.retain(|&(_, o, _)| o != ord);
                }
                // A pause: every pending time and the clock move by delta.
                3 => {
                    let delta = rng.gen_range(0u64..500);
                    queue.shift_all(SimDuration::from_nanos(delta));
                    for entry in &mut model {
                        entry.0 += delta;
                    }
                    now += delta;
                }
                _ => {
                    model.sort_unstable();
                    let expected = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    let got = queue.pop();
                    match (expected, got) {
                        (None, None) => {}
                        (Some((at, _, payload)), Some((t, p))) => {
                            assert_eq!(t, SimTime::from_nanos(at));
                            assert_eq!(p, payload);
                            now = at;
                            popped += 1;
                        }
                        (e, g) => panic!("model {e:?} vs queue {g:?}"),
                    }
                }
            }
            assert_eq!(queue.len(), model.len());
            assert_eq!(queue.is_empty(), model.is_empty());
            assert_eq!(queue.now(), SimTime::from_nanos(now));
            assert_eq!(queue.scheduled_total(), issued.len() as u64);
            assert_eq!(queue.popped_total(), popped);
            let head = model
                .iter()
                .min()
                .map(|&(at, _, _)| SimTime::from_nanos(at));
            assert_eq!(queue.peek_time(), head);
        }
        front_pops.fetch_add(queue.front_hits(), Ordering::Relaxed);
        heap_pops.fetch_add(queue.popped_total() - queue.front_hits(), Ordering::Relaxed);

        // Drain to the end: the rest comes out in model order, FIFO ties
        // included.
        model.sort_unstable();
        for (at, _, payload) in model {
            assert_eq!(queue.pop(), Some((SimTime::from_nanos(at), payload)));
        }
        assert_eq!(queue.pop(), None);
    });
    assert!(front_pops.into_inner() > 0, "no pop took the front slot");
    assert!(heap_pops.into_inner() > 0, "no pop took the heap");
}

// ---------------------------------------------------------------------
// Histogram / CDF invariants
// ---------------------------------------------------------------------

#[test]
fn histogram_fraction_below_is_exact_at_powers_of_two() {
    for_cases(256, |rng| {
        let values = sample_vec(rng, 1_000_000, 1..500);
        let shift = rng.gen_range(1u32..20);
        let hist: LogHistogram = values.iter().copied().collect();
        let threshold = 1u64 << shift;
        let exact = values.iter().filter(|&&v| v < threshold).count() as f64 / values.len() as f64;
        // Bucket 0 holds {0, 1} jointly, so thresholds >= 2 are exact.
        assert!(
            (hist.fraction_below(threshold) - exact).abs() < 1e-9,
            "threshold {threshold}: {} vs {exact}",
            hist.fraction_below(threshold)
        );
    });
}

#[test]
fn histogram_merge_equals_pooled() {
    for_cases(256, |rng| {
        let a = sample_vec(rng, 1_000_000, 0..200);
        let b = sample_vec(rng, 1_000_000, 0..200);
        let mut merged: LogHistogram = a.iter().copied().collect();
        merged.merge(&b.iter().copied().collect());
        let pooled: LogHistogram = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged, pooled);
    });
}

#[test]
fn histogram_stats_match_exact() {
    for_cases(256, |rng| {
        let values = sample_vec(rng, 1_000_000, 1..300);
        let hist: LogHistogram = values.iter().copied().collect();
        assert_eq!(hist.count(), values.len() as u64);
        assert_eq!(hist.min(), values.iter().copied().min());
        assert_eq!(hist.max(), values.iter().copied().max());
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((hist.mean().unwrap() - mean).abs() < 1e-6);
    });
}

#[test]
fn cdf_quantile_and_fraction_are_consistent() {
    for_cases(256, |rng| {
        let values = sample_vec(rng, 1_000_000, 1..300);
        let q = rng.gen_range(0.0f64..1.0);
        let cdf = Cdf::from_samples(values);
        let v = cdf.quantile(q).unwrap();
        // At least q of the mass lies at or below the q-quantile.
        assert!(cdf.fraction_at_most(v) >= q - 1e-9);
        // CDF is monotone.
        assert!(cdf.fraction_at_most(v) >= cdf.fraction_below(v));
    });
}

#[test]
fn cdf_ks_distance_is_a_metric_ish() {
    for_cases(256, |rng| {
        let a = sample_vec(rng, 1000, 1..100);
        let b = sample_vec(rng, 1000, 1..100);
        let ca = Cdf::from_samples(a);
        let cb = Cdf::from_samples(b);
        let d = ca.ks_distance(&cb);
        assert!((0.0..=1.0).contains(&d));
        assert!((ca.ks_distance(&ca)).abs() < 1e-12);
        assert!((d - cb.ks_distance(&ca)).abs() < 1e-12, "symmetry");
    });
}

// ---------------------------------------------------------------------
// Monitor mutual exclusion under random schedules
// ---------------------------------------------------------------------

#[test]
fn monitors_preserve_mutual_exclusion_and_fifo() {
    for_cases(128, |rng| {
        use scalesim::sched::ThreadId;
        use scalesim::sync::{AcquireOutcome, LockTable};

        let mut locks = LockTable::new();
        let m = locks.create("prop");
        let mut holder: Option<usize> = None;
        let mut waiting: Vec<usize> = Vec::new();
        let mut t = 0u64;

        for _ in 0..rng.gen_range(1usize..300) {
            let thread = rng.gen_range(0usize..6);
            let wants_acquire: bool = rng.gen_bool(0.5);
            t += 1;
            let now = SimTime::from_nanos(t);
            if wants_acquire {
                // skip threads already involved
                if holder == Some(thread) || waiting.contains(&thread) {
                    continue;
                }
                match locks.acquire(m, ThreadId::new(thread), now).unwrap() {
                    AcquireOutcome::Acquired => {
                        assert!(holder.is_none(), "mutual exclusion violated");
                        holder = Some(thread);
                    }
                    AcquireOutcome::Contended => {
                        assert!(holder.is_some());
                        waiting.push(thread);
                    }
                }
            } else if let Some(h) = holder {
                let grant = locks.release(m, ThreadId::new(h), now).unwrap();
                match grant {
                    None => {
                        assert!(waiting.is_empty(), "grant skipped a waiter");
                        holder = None;
                    }
                    Some(g) => {
                        // FIFO: the longest waiter gets the monitor.
                        assert_eq!(g.next, ThreadId::new(waiting.remove(0)));
                        holder = Some(g.next.index());
                    }
                }
            }
        }

        let stats = locks.stats(m);
        assert!(stats.acquisitions >= stats.contentions.saturating_sub(waiting.len() as u64));
    });
}

// ---------------------------------------------------------------------
// Heap conservation under random alloc/kill interleavings
// ---------------------------------------------------------------------

#[test]
fn heap_occupancy_is_conserved() {
    for_cases(64, |rng| {
        use scalesim::heap::{AllocResult, Heap, HeapConfig, NurseryLayout};
        use scalesim::sched::ThreadId;

        let mut heap = Heap::new(HeapConfig::new(3 << 20, 1.0 / 3.0, NurseryLayout::Shared));
        let mut live: Vec<(scalesim::heap::ObjectId, u64)> = Vec::new();
        let mut allocated = 0u64;

        for _ in 0..rng.gen_range(1usize..300) {
            let size = rng.gen_range(1u64..2000);
            let kill_one: bool = rng.gen_bool(0.5);
            if kill_one && !live.is_empty() {
                let (obj, sz) = live.swap_remove(live.len() / 2);
                let death = heap.kill(obj);
                assert_eq!(death.size, sz);
                assert!(death.lifespan <= allocated);
            } else {
                match heap.alloc(ThreadId::new(0), size) {
                    AllocResult::Ok(obj) => {
                        live.push((obj, size));
                        allocated += size;
                    }
                    AllocResult::NurseryFull { region } => {
                        // reclaim dead space the way a collection would
                        heap.reset_region_to_survivors(region);
                    }
                }
            }
            // occupancy >= live bytes (dead space may linger)
            let live_bytes: u64 = live.iter().map(|&(_, s)| s).sum();
            assert!(heap.region_used(0) >= live_bytes);
            assert_eq!(heap.clock(), allocated);
            assert_eq!(heap.live_objects(), live.len());
        }

        heap.reset_region_to_survivors(0);
        let live_bytes: u64 = live.iter().map(|&(_, s)| s).sum();
        assert_eq!(heap.region_used(0), live_bytes);
    });
}

// ---------------------------------------------------------------------
// Whole-simulation properties at tiny scale
// ---------------------------------------------------------------------

#[test]
fn any_small_run_conserves_work_and_objects() {
    for_cases(12, |rng| {
        use scalesim::runtime::{Jvm, JvmConfig};
        use scalesim::workloads::{all_apps, AppModel};

        let app_idx = rng.gen_range(0usize..6);
        let threads = rng.gen_range(1usize..10);
        let seed = rng.gen_range(0u64..1000);

        let app = all_apps().swap_remove(app_idx).scaled(0.002);
        let report = Jvm::new(
            JvmConfig::builder()
                .threads(threads)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .run(&app)
        .unwrap();
        assert_eq!(report.total_items(), app.total_items());
        assert_eq!(
            report.trace.allocations(),
            report.trace.deaths() + report.trace.censored()
        );
        assert!(report.locks.total.acquisitions >= report.locks.total.contentions);
        assert_eq!(report.mutator_wall() + report.gc_time, report.wall_time);
    });
}

// ---------------------------------------------------------------------
// CPU scheduler vs. a reference model
// ---------------------------------------------------------------------

#[test]
fn scheduler_matches_reference_model() {
    for_cases(128, |rng| {
        use scalesim::machine::CoreId;
        use scalesim::sched::{BlockReason, CpuScheduler, QuantumOutcome, SchedPolicy, ThreadId};
        use scalesim::simkit::SimDuration;

        #[derive(Clone, Copy, PartialEq, Debug)]
        enum M {
            New,
            Ready,
            Running,
            Blocked,
            Dead,
        }

        let cores = rng.gen_range(1usize..5);
        let mut sched = CpuScheduler::new(
            (0..cores).map(CoreId::new).collect(),
            SimDuration::from_millis(1),
            SchedPolicy::Fair,
        );
        // register 8 threads
        let tids: Vec<ThreadId> = (0..8).map(|_| sched.register(SimTime::ZERO)).collect();
        let mut model = [M::New; 8];
        let mut ready: Vec<usize> = Vec::new();
        let mut on_core: Vec<Option<usize>> = vec![None; cores];
        let mut t = 0u64;

        for _ in 0..rng.gen_range(1usize..250) {
            let i = rng.gen_range(0usize..8);
            let action = rng.gen_range(0u8..5);
            t += 1;
            let now = SimTime::from_nanos(t);
            let tid = tids[i];
            match action {
                // start
                0 => {
                    if model[i] == M::New {
                        sched.start(tid, now);
                        model[i] = M::Ready;
                        ready.push(i);
                    }
                }
                // dispatch
                1 => {
                    let placed = sched.dispatch(now);
                    for d in &placed {
                        let idx = d.thread.index();
                        assert_eq!(ready.remove(0), idx, "dispatch order");
                        model[idx] = M::Running;
                        let slot = on_core
                            .iter()
                            .position(Option::is_none)
                            .expect("model has a free core");
                        on_core[slot] = Some(idx);
                    }
                    // a free core and a ready thread cannot coexist after dispatch
                    let free = on_core.iter().filter(|c| c.is_none()).count();
                    assert!(free == 0 || ready.is_empty());
                }
                // block
                2 => {
                    if model[i] == M::Running {
                        sched.block(tid, now, BlockReason::Monitor);
                        model[i] = M::Blocked;
                        let slot = on_core.iter().position(|&c| c == Some(i)).expect("on core");
                        on_core[slot] = None;
                    }
                }
                // unblock
                3 => {
                    if model[i] == M::Blocked {
                        sched.unblock(tid, now);
                        model[i] = M::Ready;
                        ready.push(i);
                    }
                }
                // quantum expiry / terminate
                _ => {
                    if model[i] == M::Running {
                        let outcome = sched.quantum_expired(tid, now);
                        if ready.is_empty() {
                            assert_eq!(outcome, QuantumOutcome::Continued);
                        } else {
                            assert_eq!(outcome, QuantumOutcome::Preempted);
                            model[i] = M::Ready;
                            ready.push(i);
                            let slot = on_core.iter().position(|&c| c == Some(i)).expect("on core");
                            on_core[slot] = None;
                        }
                    } else if model[i] != M::Dead && model[i] != M::New {
                        sched.terminate(tid, now);
                        if model[i] == M::Running {
                            let slot = on_core.iter().position(|&c| c == Some(i)).expect("on core");
                            on_core[slot] = None;
                        }
                        ready.retain(|&r| r != i);
                        model[i] = M::Dead;
                    }
                }
            }

            // cross-check aggregate state after every op
            assert_eq!(
                sched.running_count(),
                on_core.iter().filter(|c| c.is_some()).count()
            );
            assert_eq!(sched.runnable_count(), ready.len());
            for (k, &tid) in tids.iter().enumerate() {
                use scalesim::sched::ThreadState;
                let expected_running = matches!(model[k], M::Running);
                assert_eq!(sched.core_of(tid).is_some(), expected_running);
                assert_eq!(
                    matches!(sched.state(tid), ThreadState::Terminated),
                    model[k] == M::Dead
                );
            }
        }
    });
}

// ---------------------------------------------------------------------
// Work-item generator invariants
// ---------------------------------------------------------------------

#[test]
fn generated_items_are_always_well_formed() {
    for_cases(64, |rng| {
        use scalesim::workloads::{all_apps, AppModel, Step};

        let app_idx = rng.gen_range(0usize..6);
        let seed = rng.gen_range(0u64..10_000);
        let app = all_apps().swap_remove(app_idx);
        let mut item_rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            // WorkItem::new() inside the generator validates slot
            // discipline; here we check the coarser contracts.
            let item = app.make_item(&mut item_rng);
            assert!(!item.is_empty());
            assert!(item.alloc_bytes() > 0);
            assert!(item.cpu_time().as_nanos() > 0);
            // every critical references a declared class
            for step in item.steps() {
                if let Step::Critical { class, .. } = step {
                    assert!(class.0 < app.lock_classes().len());
                }
            }
            // compute time lands within the spec's target plus hold times
            let max_target = app.spec().compute_ns.1
                + app
                    .spec()
                    .criticals
                    .iter()
                    .map(|c| c.held_ns.1)
                    .sum::<u64>();
            assert!(item.cpu_time().as_nanos() <= max_target + 1);
        }
    });
}

// ---------------------------------------------------------------------
// Chaos determinism
// ---------------------------------------------------------------------

/// A chaos run is a pure function of `(config, seed, ChaosPlan)`: the
/// same triple reproduces the same result bit-for-bit, whether that
/// result is a clean report, a truncation, or a detected violation.
#[test]
fn chaos_runs_are_a_pure_function_of_config_and_seed() {
    for_cases(6, |rng| {
        use scalesim::runtime::{Jvm, JvmConfig};
        use scalesim::simkit::{ChaosConfig, RunBudget};
        use scalesim::workloads::all_apps;

        let app_idx = rng.gen_range(0usize..6);
        let threads = rng.gen_range(2usize..10);
        let seed = rng.gen_range(0u64..1000);
        let chaos = ChaosConfig {
            drop_wakeup_period: rng.gen_range(0u64..3) * 64,
            spurious_wakeup_period: rng.gen_range(0u64..3) * 64,
            gc_stall_period: rng.gen_range(0u64..4),
            gc_stall_factor: 0.1,
            ..ChaosConfig::default()
        };
        let budget = RunBudget {
            max_events: 2_000_000,
            max_sim_time: None,
            max_host_ms: None,
            watchdog_ms: None,
        };
        let app = all_apps().swap_remove(app_idx).scaled(0.002);
        let run = || {
            let cfg = JvmConfig::builder()
                .threads(threads)
                .seed(seed)
                .chaos(chaos)
                .budget(budget)
                .build()
                .unwrap();
            format!("{:?}", Jvm::new(cfg).run(&app))
        };
        assert_eq!(run(), run());
    });
}

/// With every chaos class off, the chaos/budget/monitor plumbing must be
/// invisible: explicit all-off knobs and disabled monitors produce a
/// report byte-identical to the default configuration's, and the default
/// run at the pinned paper seed still matches its golden totals.
#[test]
fn chaos_off_is_byte_identical_to_the_plain_run() {
    use scalesim::runtime::{Jvm, JvmConfig, RunOutcome};
    use scalesim::simkit::ChaosConfig;
    use scalesim::workloads::{xalan, AppModel};

    let app = xalan().scaled(0.01);
    let plain = Jvm::new(JvmConfig::builder().threads(4).seed(42).build().unwrap())
        .run(&app)
        .unwrap();
    let explicit = Jvm::new(
        JvmConfig::builder()
            .threads(4)
            .seed(42)
            .chaos(ChaosConfig::default())
            .monitors(false)
            .build()
            .unwrap(),
    )
    .run(&app)
    .unwrap();
    assert_eq!(format!("{plain:?}"), format!("{explicit:?}"));

    // Golden totals at the pinned seed: a chaos-layer change that
    // perturbs clean runs shows up here as a diff, not as silent drift.
    assert_eq!(plain.outcome, RunOutcome::Ok);
    assert_eq!(plain.total_items(), app.total_items());
    assert_eq!(plain.events_processed, 9512);
    assert_eq!(plain.wall_time.as_nanos(), 13_439_563);
}

// ---------------------------------------------------------------------
// Timeline tracing
// ---------------------------------------------------------------------

/// Traced runs are well-formed for arbitrary small configurations: the
/// merged timeline is time-ordered, spans never end before they start,
/// the always-on counters agree with the report totals, and rerunning
/// the same `(config, seed)` reproduces the timeline exactly.
#[test]
fn traced_runs_are_ordered_and_agree_with_counters() {
    for_cases(6, |rng| {
        use scalesim::runtime::{Jvm, JvmConfig};
        use scalesim::trace::{CounterId, TraceConfig};
        use scalesim::workloads::all_apps;

        let app_idx = rng.gen_range(0usize..6);
        let threads = rng.gen_range(2usize..10);
        let seed = rng.gen_range(0u64..1000);
        let app = all_apps().swap_remove(app_idx).scaled(0.002);
        let run = || {
            Jvm::new(
                JvmConfig::builder()
                    .threads(threads)
                    .seed(seed)
                    .trace(TraceConfig::on())
                    .build()
                    .unwrap(),
            )
            .run(&app)
            .unwrap()
        };
        let report = run();

        let mut prev = 0u64;
        for ev in report.timeline.events() {
            assert!(ev.at.as_nanos() >= prev, "merged timeline out of order");
            prev = ev.at.as_nanos();
            assert!(ev.end() >= ev.at, "span ends before it starts");
        }
        assert_eq!(
            report.counters.get(CounterId::EventsProcessed),
            report.events_processed
        );
        assert_eq!(
            report.counters.get(CounterId::Allocations),
            report.trace.allocations()
        );
        assert_eq!(report.timeline, run().timeline);
    });
}

/// The checkpoint snapshot layer is lossless: any small run — clean,
/// truncated, or chaos-perturbed, with or without full object retention —
/// survives `report_to_json` → text → parse → `report_from_json` with a
/// `Debug`-identical report, which is exactly the property the durable
/// sweep checkpoints rely on to verify fingerprints on resume.
#[test]
fn snapshot_round_trip_preserves_any_small_report() {
    for_cases(8, |rng| {
        use scalesim::objtrace::Retention;
        use scalesim::runtime::{report_from_json, report_to_json, JsonValue, Jvm, JvmConfig};
        use scalesim::simkit::{ChaosConfig, RunBudget};
        use scalesim::workloads::all_apps;

        let app_idx = rng.gen_range(0usize..6);
        let threads = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..10_000);
        let chaos = ChaosConfig {
            drop_wakeup_period: rng.gen_range(0u64..2) * 128,
            gc_stall_period: rng.gen_range(0u64..3),
            gc_stall_factor: 0.25,
            ..ChaosConfig::default()
        };
        let budget = RunBudget {
            max_events: if rng.gen_bool(0.3) { 10_000 } else { 2_000_000 },
            max_sim_time: None,
            max_host_ms: None,
            watchdog_ms: None,
        };
        let retention = if rng.gen_bool(0.5) {
            Retention::Full
        } else {
            Retention::HistogramOnly
        };
        let app = all_apps().swap_remove(app_idx).scaled(0.002);
        let report = Jvm::new(
            JvmConfig::builder()
                .threads(threads)
                .seed(seed)
                .chaos(chaos)
                .budget(budget)
                .retention(retention)
                .monitors(false)
                .build()
                .unwrap(),
        )
        .run(&app)
        .unwrap();

        let text = report_to_json(&report).to_string();
        let back = report_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
    });
}

// ---------------------------------------------------------------------
// USL fitting
// ---------------------------------------------------------------------

/// The USL fitter inverts its own model exactly: for random positive
/// (λ, σ, κ) and a noiseless curve sampled from
/// `X(n) = λn / (1 + σ(n−1) + κn(n−1))`, the recovered parameters match
/// to within numerical round-off.
#[test]
fn usl_fit_recovers_exact_parameters_from_clean_curves() {
    use scalesim::analytics::fit_usl;

    for_cases(256, |rng| {
        let lambda = rng.gen_range(1.0..10_000.0);
        let sigma = rng.gen_range(0.0..0.8);
        let kappa = rng.gen_range(0.0..0.02);
        let points: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0]
            .iter()
            .map(|&n| {
                let x = lambda * n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0));
                (n, x)
            })
            .collect();
        let fit = fit_usl(&points).expect("clean curve must fit");
        assert!(
            (fit.lambda - lambda).abs() / lambda < 1e-6,
            "lambda {lambda} -> {}",
            fit.lambda
        );
        assert!(
            (fit.sigma - sigma).abs() < 1e-6,
            "sigma {sigma} -> {}",
            fit.sigma
        );
        assert!(
            (fit.kappa - kappa).abs() < 1e-6,
            "kappa {kappa} -> {}",
            fit.kappa
        );
        assert!(fit.rms_residual < 1e-9, "residual {}", fit.rms_residual);
    });
}

/// Recovery degrades gracefully under measurement noise: with every
/// throughput sample perturbed by up to ±1%, the recovered contention
/// and coherency coefficients stay close to the generating values, and
/// the residual reflects the injected noise instead of vanishing.
#[test]
fn usl_fit_recovers_parameters_from_noisy_curves() {
    use scalesim::analytics::fit_usl;

    for_cases(128, |rng| {
        let lambda = rng.gen_range(10.0..1000.0);
        let sigma = rng.gen_range(0.0..0.5);
        let kappa = rng.gen_range(0.0..0.01);
        let points: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0]
            .iter()
            .map(|&n| {
                let x = lambda * n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0));
                (n, x * (1.0 + rng.gen_range(-0.01..0.01)))
            })
            .collect();
        let fit = fit_usl(&points).expect("noisy curve must fit");
        assert!(
            (fit.lambda - lambda).abs() / lambda < 0.1,
            "lambda {lambda} -> {}",
            fit.lambda
        );
        assert!(
            (fit.sigma - sigma).abs() < 0.05,
            "sigma {sigma} -> {} (lambda {lambda}, kappa {kappa})",
            fit.sigma
        );
        assert!(
            (fit.kappa - kappa).abs() < 0.005,
            "kappa {kappa} -> {} (lambda {lambda}, sigma {sigma})",
            fit.kappa
        );
        assert!(fit.rms_residual < 0.05, "residual {}", fit.rms_residual);
    });
}
