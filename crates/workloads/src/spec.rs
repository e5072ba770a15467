//! Application specification and the work-item generator.
//!
//! Each synthetic benchmark is a parameter set ([`AppSpec`]) over one
//! generator: object demography (temporaries with alloc-to-use gaps,
//! per-item state, carried results, permanent data), lock discipline
//! (critical-section classes with hold times), and a work-distribution
//! policy. The six DaCapo analogs in [`crate::apps`] are instances.

use rand::rngs::StdRng;
use rand::Rng;
use scalesim_simkit::SimDuration;

use crate::item::{DeathPoint, LockClass, LockClassId, Step, WorkItem};

/// The paper's §II-C classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalabilityClass {
    /// Execution time drops as threads/cores grow (sunflow, lusearch,
    /// xalan).
    Scalable,
    /// Execution time barely improves (h2, eclipse, jython).
    NonScalable,
}

impl ScalabilityClass {
    /// Short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ScalabilityClass::Scalable => "scalable",
            ScalabilityClass::NonScalable => "non-scalable",
        }
    }
}

/// Per-batch result merging under a shared lock (guided queue mode).
///
/// Real queue-parallel applications synchronize at batch boundaries —
/// xalan merges serialized output, sunflow composites image tiles,
/// lusearch aggregates hit lists. Because batch count scales with the
/// worker count under guided self-scheduling, this lock's traffic grows
/// with threads while total application work stays fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMerge {
    /// Lock class acquired at each batch boundary.
    pub class: LockClassId,
    /// Hold-time range in nanoseconds.
    pub held_ns: (u64, u64),
}

/// How work items reach worker threads.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Guided self-scheduling from a shared queue: a worker grabs a batch
    /// of `max(1, remaining / (factor * workers))` items under the queue
    /// lock. Finer batches at higher thread counts make queue-lock
    /// traffic grow roughly linearly with workers — the mechanism behind
    /// Figure 1a's rising curves for scalable applications.
    GuidedQueue {
        /// Batch granularity factor (larger ⇒ smaller batches, more
        /// queue traffic).
        factor: f64,
        /// Lock class guarding the queue.
        lock: LockClassId,
        /// Time the queue lock is held per batch dispatch.
        dispatch: SimDuration,
        /// Optional per-batch merge critical section.
        merge: Option<BatchMerge>,
    },
    /// Static assignment: worker `i` receives `weights[i]` of the items
    /// (normalized over the effective workers), with no dispatch lock.
    /// Skewed weights model jython/eclipse, where "three to four threads
    /// do most of the work" regardless of the configured count.
    StaticSkewed {
        /// Relative per-worker weights; workers beyond the list get 0.
        weights: Vec<f64>,
    },
}

impl Distribution {
    /// Per-worker item shares for `workers` effective workers
    /// (normalized, summing to 1 unless all weights are zero).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn shares(&self, workers: usize) -> Vec<f64> {
        assert!(workers >= 1, "need at least one worker");
        match self {
            Distribution::GuidedQueue { .. } => vec![1.0 / workers as f64; workers],
            Distribution::StaticSkewed { weights } => {
                let mut w: Vec<f64> = (0..workers)
                    .map(|i| weights.get(i).copied().unwrap_or(0.0))
                    .collect();
                let sum: f64 = w.iter().sum();
                if sum > 0.0 {
                    for v in &mut w {
                        *v /= sum;
                    }
                }
                w
            }
        }
    }
}

/// A class of temporary objects: allocated, used after a short compute
/// gap, then dead. The gap is the lever that controls how far the
/// allocation clock (driven by *all* threads) advances before death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TempClass {
    /// Temporaries of this class per item.
    pub count: u32,
    /// Object size range in bytes (inclusive).
    pub bytes: (u64, u64),
    /// Alloc-to-last-use compute gap range in nanoseconds (inclusive).
    pub gap_ns: (u64, u64),
}

/// Objects that live to the end of their item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemStateSpec {
    /// Objects per item.
    pub count: u32,
    /// Size range in bytes.
    pub bytes: (u64, u64),
}

/// Objects carried across items on the same thread (caches, partial
/// results).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarrySpec {
    /// Size range in bytes.
    pub bytes: (u64, u64),
    /// Items after which the object dies.
    pub items: u32,
    /// Probability an item allocates one.
    pub probability: f64,
}

/// Objects that live until VM shutdown (metadata, caches that never
/// drain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermanentSpec {
    /// Size in bytes.
    pub bytes: u64,
    /// Probability an item allocates one.
    pub probability: f64,
}

/// Application critical sections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalSpec {
    /// Lock class acquired.
    pub class: LockClassId,
    /// Hold-time range in nanoseconds.
    pub held_ns: (u64, u64),
    /// Probability an item contains this critical section.
    pub probability: f64,
}

/// Full parameter set for one synthetic application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Benchmark name (DaCapo analog).
    pub name: String,
    /// Scalable or not, per the paper's classification.
    pub class: ScalabilityClass,
    /// Minimum heap the app needs; the harness sizes the real heap at 3×.
    pub min_heap_bytes: u64,
    /// Total work items (fixed regardless of thread count — the paper's
    /// §II-C: "about the same number of objects ... even as we increase
    /// the number of threads").
    pub total_items: u64,
    /// Cap on threads that actually receive work (`None` = all).
    pub effective_cap: Option<usize>,
    /// Work-distribution policy.
    pub distribution: Distribution,
    /// Lock classes (indexed by [`LockClassId`]).
    pub lock_classes: Vec<LockClass>,
    /// Target total compute per item, nanoseconds (range).
    pub compute_ns: (u64, u64),
    /// Temporary-object classes.
    pub temps: Vec<TempClass>,
    /// Per-item state objects.
    pub item_state: ItemStateSpec,
    /// Carried objects.
    pub carries: Vec<CarrySpec>,
    /// Permanent objects.
    pub permanent: Option<PermanentSpec>,
    /// Application critical sections.
    pub criticals: Vec<CriticalSpec>,
}

impl AppSpec {
    /// Generates one work item.
    ///
    /// The layout is: per-item state and carried/permanent allocations up
    /// front, then temporaries interleaved with their use gaps and the
    /// critical sections, then padding compute to reach the item's target
    /// CPU time.
    #[must_use]
    pub fn make_item(&self, rng: &mut StdRng) -> WorkItem {
        self.make_item_reusing(rng, WorkItem::default())
    }

    /// Generates one work item into `old`'s step buffer, which is cleared
    /// first: the same draws in the same order as [`AppSpec::make_item`],
    /// so the same item, without allocating once the buffer has grown to
    /// the app's item size.
    #[must_use]
    pub fn make_item_reusing(&self, rng: &mut StdRng, old: WorkItem) -> WorkItem {
        let mut steps = old.into_steps();
        steps.clear();
        let target = SimDuration::from_nanos(range_sample(rng, self.compute_ns));
        let mut used = SimDuration::ZERO;

        for _ in 0..self.item_state.count {
            steps.push(Step::Alloc {
                bytes: range_sample(rng, self.item_state.bytes),
                death: DeathPoint::ItemEnd,
            });
        }
        for carry in &self.carries {
            if rng.gen_bool(carry.probability) {
                steps.push(Step::Alloc {
                    bytes: range_sample(rng, carry.bytes),
                    death: DeathPoint::CarryItems(carry.items),
                });
            }
        }
        if let Some(perm) = self.permanent {
            if rng.gen_bool(perm.probability) {
                steps.push(Step::Alloc {
                    bytes: perm.bytes,
                    death: DeathPoint::Permanent,
                });
            }
        }

        // Decide this item's critical sections up front so they can be
        // interleaved among the temporaries (as lock operations are in
        // real code) rather than clustered at the end — under contention
        // a monitor wait then stretches in-flight temporaries' lifespans.
        // They are staged at the buffer's tail, copied into place as the
        // temporaries reach them, and the staged run is drained last.
        let staged = steps.len();
        for crit in &self.criticals {
            if rng.gen_bool(crit.probability) {
                steps.push(Step::Critical {
                    class: crit.class,
                    held: SimDuration::from_nanos(range_sample(rng, crit.held_ns)),
                });
            }
        }
        let crit_count = steps.len() - staged;
        let total_temps: u32 = self.temps.iter().map(|c| c.count).sum();
        let crit_stride = if crit_count == 0 {
            u32::MAX
        } else {
            (total_temps / (crit_count as u32 + 1)).max(1)
        };

        // Temporaries with explicit use gaps, criticals interleaved.
        let mut next_crit = staged;
        let mut slot: u8 = 0;
        let mut since_crit = 0u32;
        for class in &self.temps {
            for _ in 0..class.count {
                let gap = SimDuration::from_nanos(range_sample(rng, class.gap_ns));
                steps.push(Step::Alloc {
                    bytes: range_sample(rng, class.bytes),
                    death: DeathPoint::Slot(slot),
                });
                steps.push(Step::Compute(gap));
                steps.push(Step::KillSlot(slot));
                used += gap;
                slot = slot
                    .checked_add(1)
                    .expect("more than 256 temporaries per item");
                since_crit += 1;
                if since_crit >= crit_stride {
                    since_crit = 0;
                    if next_crit < staged + crit_count {
                        steps.push(steps[next_crit]);
                        next_crit += 1;
                    }
                }
            }
        }
        steps.extend_from_within(next_crit..staged + crit_count);
        steps.drain(staged..staged + crit_count);

        if used < target {
            steps.push(Step::Compute(target - used));
        }
        WorkItem::new(steps)
    }

    /// Threads that actually receive work when `requested` are configured.
    ///
    /// # Panics
    ///
    /// Panics if `requested` is zero.
    #[must_use]
    pub fn effective_workers(&self, requested: usize) -> usize {
        assert!(requested >= 1, "need at least one thread");
        match self.effective_cap {
            Some(cap) => requested.min(cap),
            None => requested,
        }
    }

    /// Returns a copy with `total_items` scaled by `factor` (≥ 1 item),
    /// for fast tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> AppSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut spec = self.clone();
        spec.total_items = ((self.total_items as f64 * factor) as u64).max(1);
        spec
    }
}

fn range_sample(rng: &mut StdRng, (lo, hi): (u64, u64)) -> u64 {
    assert!(lo <= hi, "empty range {lo}..={hi}");
    rng.gen_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn test_spec() -> AppSpec {
        AppSpec {
            name: "test".into(),
            class: ScalabilityClass::Scalable,
            min_heap_bytes: 1 << 20,
            total_items: 100,
            effective_cap: None,
            distribution: Distribution::GuidedQueue {
                factor: 2.0,
                lock: LockClassId(0),
                dispatch: SimDuration::from_nanos(1000),
                merge: None,
            },
            lock_classes: vec![LockClass::new("workqueue"), LockClass::new("cache")],
            compute_ns: (50_000, 60_000),
            temps: vec![TempClass {
                count: 3,
                bytes: (64, 128),
                gap_ns: (100, 500),
            }],
            item_state: ItemStateSpec {
                count: 2,
                bytes: (256, 512),
            },
            carries: vec![CarrySpec {
                bytes: (512, 512),
                items: 4,
                probability: 1.0,
            }],
            permanent: Some(PermanentSpec {
                bytes: 2048,
                probability: 1.0,
            }),
            criticals: vec![CriticalSpec {
                class: LockClassId(1),
                held_ns: (500, 900),
                probability: 1.0,
            }],
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn generated_item_has_expected_structure() {
        let spec = test_spec();
        let item = spec.make_item(&mut rng());
        // 2 item-state + 1 carry + 1 permanent + 3 temps = 7 allocs
        assert_eq!(item.alloc_count(), 7);
        assert_eq!(item.critical_count(), 1);
        // compute reaches the target
        let cpu = item.cpu_time().as_nanos();
        assert!(cpu >= 50_000, "cpu {cpu}");
        assert!(cpu <= 61_000, "cpu {cpu}");
    }

    #[test]
    fn items_are_deterministic_per_seed() {
        let spec = test_spec();
        let a = spec.make_item(&mut rng());
        let b = spec.make_item(&mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn make_item_reusing_matches_make_item_for_every_app() {
        for app in crate::all_apps() {
            let spec = app.spec();
            let mut fresh_rng = rng();
            let mut reused_rng = rng();
            // A dirty buffer from a different app's shape.
            let mut item = test_spec().make_item(&mut StdRng::seed_from_u64(1));
            for i in 0..2000 {
                let fresh = spec.make_item(&mut fresh_rng);
                item = spec.make_item_reusing(&mut reused_rng, item);
                assert_eq!(item, fresh, "{} item {i}", spec.name);
            }
        }
    }

    #[test]
    fn probabilities_gate_optional_allocs() {
        let mut spec = test_spec();
        spec.carries[0].probability = 0.0;
        spec.permanent = Some(PermanentSpec {
            bytes: 1,
            probability: 0.0,
        });
        spec.criticals[0].probability = 0.0;
        let item = spec.make_item(&mut rng());
        assert_eq!(item.alloc_count(), 5); // 2 state + 3 temps
        assert_eq!(item.critical_count(), 0);
    }

    #[test]
    fn guided_shares_are_uniform() {
        let spec = test_spec();
        let shares = spec.distribution.shares(4);
        assert_eq!(shares, vec![0.25; 4]);
    }

    #[test]
    fn skewed_shares_normalize_and_pad() {
        let dist = Distribution::StaticSkewed {
            weights: vec![3.0, 1.0],
        };
        let shares = dist.shares(4);
        assert_eq!(shares, vec![0.75, 0.25, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_shares_panics() {
        let _ = Distribution::StaticSkewed { weights: vec![] }.shares(0);
    }

    #[test]
    fn effective_workers_cap() {
        let mut spec = test_spec();
        assert_eq!(spec.effective_workers(16), 16);
        spec.effective_cap = Some(4);
        assert_eq!(spec.effective_workers(16), 4);
        assert_eq!(spec.effective_workers(2), 2);
    }

    #[test]
    fn scaled_changes_items_only() {
        let spec = test_spec();
        let half = spec.scaled(0.5);
        assert_eq!(half.total_items, 50);
        assert_eq!(half.name, spec.name);
        let tiny = spec.scaled(1e-9);
        assert_eq!(tiny.total_items, 1, "floor at one item");
    }

    #[test]
    fn class_labels() {
        assert_eq!(ScalabilityClass::Scalable.label(), "scalable");
        assert_eq!(ScalabilityClass::NonScalable.label(), "non-scalable");
    }
}
