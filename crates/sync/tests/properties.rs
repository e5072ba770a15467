//! Property tests over every [`LockAlg`]: mutual exclusion, exact wait
//! accounting, and eventual admission (no starvation), driven by a
//! deterministic pseudo-random schedule (std-only splitmix64 — the
//! workspace deliberately has no property-testing dependency).

use std::collections::HashMap;

use scalesim_sched::ThreadId;
use scalesim_simkit::SimTime;
use scalesim_sync::{AcquireOutcome, LockAlg, LockTable};

/// splitmix64: the same tiny deterministic generator the chaos layer
/// uses; good enough to shuffle acquire/release schedules.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Idle,
    Waiting { enqueued: SimTime },
    Owner,
}

/// Drives one monitor through a random schedule of acquires and
/// releases, checking the algorithm contracts at every step.
fn drive(alg: LockAlg, seed: u64, threads: usize, steps: u64) {
    let mut lt = LockTable::with_algorithm(alg);
    let m = lt.create("prop");
    let mut rng = Rng(seed);
    let mut state = vec![State::Idle; threads];
    let mut now = SimTime::ZERO;
    let mut grants_while_waiting: HashMap<usize, u64> = HashMap::new();
    // Eventual-admission bound: generous (cull period × queue capacity
    // amply covered), but finite — a starving waiter trips it.
    let starvation_bound = 64 * threads as u64 + 256;

    let on_grant = |state: &mut Vec<State>,
                    grants_while_waiting: &mut HashMap<usize, u64>,
                    next: ThreadId,
                    waited: scalesim_simkit::SimDuration,
                    now: SimTime| {
        let idx = next.index();
        let State::Waiting { enqueued } = state[idx] else {
            panic!("{alg}: granted {next} which was not waiting");
        };
        // Exact wait accounting: the audit layer reconstructs enqueue
        // instants from `waited`, so it must be exact for every
        // algorithm, parked or spinning.
        assert_eq!(
            waited,
            now.saturating_since(enqueued),
            "{alg}: grant.waited must be exactly now - enqueue time"
        );
        state[idx] = State::Owner;
        grants_while_waiting.remove(&idx);
    };

    for _ in 0..steps {
        now = SimTime::from_nanos(now.as_nanos() + 1 + rng.below(1000));
        let tid = rng.below(threads as u64) as usize;
        match state[tid] {
            State::Idle => match lt.acquire(m, ThreadId::new(tid), now).unwrap() {
                AcquireOutcome::Acquired => {
                    state[tid] = State::Owner;
                    // Mutual exclusion: a fast-path acquire only happens
                    // on a free monitor.
                    assert_eq!(
                        state.iter().filter(|&&s| s == State::Owner).count(),
                        1,
                        "{alg}: fast-path acquire on a held monitor"
                    );
                }
                AcquireOutcome::Contended => {
                    state[tid] = State::Waiting { enqueued: now };
                    grants_while_waiting.insert(tid, 0);
                    assert!(
                        lt.is_waiting(m, ThreadId::new(tid)),
                        "{alg}: contended waiter invisible to is_waiting"
                    );
                }
            },
            State::Owner => {
                if let Some(g) = lt.release(m, ThreadId::new(tid), now).unwrap() {
                    state[tid] = State::Idle;
                    on_grant(&mut state, &mut grants_while_waiting, g.next, g.waited, now);
                    for count in grants_while_waiting.values_mut() {
                        *count += 1;
                        assert!(
                            *count < starvation_bound,
                            "{alg}: a waiter starved past {starvation_bound} grants"
                        );
                    }
                } else {
                    state[tid] = State::Idle;
                    assert_eq!(lt.owner(m), None, "{alg}: empty release left an owner");
                    assert_eq!(
                        lt.held_since(m),
                        None,
                        "{alg}: held_since must be None while unowned"
                    );
                }
            }
            State::Waiting { .. } => {} // blocked; nothing to do
        }

        // Mutual exclusion, continuously: the table's owner matches the
        // unique thread in Owner state.
        let owners: Vec<_> = (0..threads).filter(|&i| state[i] == State::Owner).collect();
        assert!(owners.len() <= 1, "{alg}: two threads own one monitor");
        assert_eq!(
            lt.owner(m),
            owners.first().map(|&i| ThreadId::new(i)),
            "{alg}: table owner disagrees with driver state"
        );
    }

    // Drain: the owner releases until the queue empties. Every waiter
    // must be admitted (eventual admission at shutdown).
    let mut drained = 0u64;
    while let Some(owner) = lt.owner(m) {
        now = SimTime::from_nanos(now.as_nanos() + 1);
        let grant = lt.release(m, owner, now).unwrap();
        if let Some(g) = grant {
            on_grant(&mut state, &mut grants_while_waiting, g.next, g.waited, now);
        } else {
            state[owner.index()] = State::Idle;
        }
        drained += 1;
        assert!(drained < 10_000, "{alg}: drain loop did not terminate");
    }
    assert_eq!(
        lt.queue_len(m),
        0,
        "{alg}: drained monitor still has waiters"
    );
    assert!(
        state.iter().all(|s| !matches!(s, State::Waiting { .. })),
        "{alg}: a waiter was never admitted"
    );

    // Counter equality on a fully drained run: every contention was
    // eventually granted, so no truncation residue remains.
    let r = lt.report();
    assert_eq!(r.total.queued, 0, "{alg}");
    assert!(r.total.acquisitions >= r.total.contentions, "{alg}");
}

#[test]
fn every_algorithm_upholds_exclusion_and_admission() {
    for alg in LockAlg::ALL {
        for seed in [1_u64, 42, 0xdead_beef] {
            for threads in [2usize, 5, 16] {
                drive(alg, seed, threads, 4_000);
            }
        }
    }
}
