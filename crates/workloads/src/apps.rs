//! The six DaCapo-9.12 analogs the paper studies (§II-C).
//!
//! Parameters encode each benchmark's *qualitative* published behaviour —
//! work-distribution shape, lock discipline, object demography — not its
//! bytecode. Scalable apps (sunflow, lusearch, xalan) pull fixed total
//! work from a shared guided-self-scheduling queue, so per-thread work
//! shrinks and queue-lock traffic grows as threads are added. Non-scalable
//! apps either serialize on a coarse lock (h2's database latch, jython's
//! interpreter lock) or concentrate work in 3–4 threads regardless of the
//! configured count (jython, eclipse — §III: "jython mainly uses three to
//! four threads ... even when we set the number of mutator threads to be
//! larger than 16").

use rand::rngs::StdRng;

use scalesim_simkit::SimDuration;

use crate::item::{LockClass, LockClassId, WorkItem};
use crate::spec::{
    AppSpec, BatchMerge, CarrySpec, CriticalSpec, Distribution, ItemStateSpec, PermanentSpec,
    ScalabilityClass, TempClass,
};
use crate::AppModel;

/// A synthetic application: an [`AppSpec`] behind the [`AppModel`] trait.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticApp {
    spec: AppSpec,
}

impl SyntheticApp {
    /// Wraps a spec.
    #[must_use]
    pub fn new(spec: AppSpec) -> Self {
        SyntheticApp { spec }
    }

    /// The underlying spec.
    #[must_use]
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// Returns a copy with total work scaled by `factor` (for fast tests,
    /// examples and CI-sized experiment runs).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> SyntheticApp {
        SyntheticApp {
            spec: self.spec.scaled(factor),
        }
    }

    /// Returns a copy with lock class `class` backed by `instances`
    /// monitor shards — the classic contention fix evaluated by the
    /// `ext-sharding` extension experiment.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or `instances` is zero.
    #[must_use]
    pub fn with_lock_instances(&self, class: usize, instances: usize) -> SyntheticApp {
        assert!(
            class < self.spec.lock_classes.len(),
            "lock class {class} out of range"
        );
        assert!(instances >= 1, "need at least one lock instance");
        let mut spec = self.spec.clone();
        spec.lock_classes[class] = LockClass::sharded(&spec.lock_classes[class].name, instances);
        SyntheticApp { spec }
    }
}

impl AppModel for SyntheticApp {
    fn name(&self) -> &str {
        &self.spec.name
    }
    fn class(&self) -> ScalabilityClass {
        self.spec.class
    }
    fn min_heap_bytes(&self) -> u64 {
        self.spec.min_heap_bytes
    }
    fn total_items(&self) -> u64 {
        self.spec.total_items
    }
    fn effective_workers(&self, requested: usize) -> usize {
        self.spec.effective_workers(requested)
    }
    fn distribution(&self) -> &Distribution {
        &self.spec.distribution
    }
    fn lock_classes(&self) -> &[LockClass] {
        &self.spec.lock_classes
    }
    fn make_item(&self, rng: &mut StdRng) -> WorkItem {
        self.spec.make_item(rng)
    }
    fn make_item_reusing(&self, rng: &mut StdRng, old: WorkItem) -> WorkItem {
        self.spec.make_item_reusing(rng, old)
    }
}

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// `xalan`: XSLT transformer — scalable. Worker threads pull transform
/// jobs from a shared queue and hit a hot shared DTM cache. The paper's
/// Figure 1d shows its lifespan CDF: >80 % of objects die within 1 KB of
/// allocation at 4 threads, only ~50 % at 48.
#[must_use]
pub fn xalan() -> SyntheticApp {
    SyntheticApp::new(AppSpec {
        name: "xalan".into(),
        class: ScalabilityClass::Scalable,
        min_heap_bytes: 8 * MIB,
        total_items: 60_000,
        effective_cap: None,
        distribution: Distribution::GuidedQueue {
            factor: 24.0,
            lock: LockClassId(0),
            dispatch: SimDuration::from_nanos(1_500),
            merge: Some(BatchMerge {
                class: LockClassId(2),
                held_ns: (1_000, 2_500),
            }),
        },
        lock_classes: vec![
            LockClass::new("workqueue"),
            LockClass::new("dtm-cache"),
            LockClass::new("output"),
        ],
        compute_ns: (70_000, 90_000),
        temps: vec![
            // parser/serializer scratch: dies almost immediately
            TempClass {
                count: 7,
                bytes: (64, 512),
                gap_ns: (40, 120),
            },
            // per-template intermediates: die within a couple of microseconds
            TempClass {
                count: 6,
                bytes: (128, 1024),
                gap_ns: (800, 2_000),
            },
        ],
        item_state: ItemStateSpec {
            count: 2,
            bytes: (256, 1024),
        },
        carries: vec![CarrySpec {
            bytes: (512, 2_048),
            items: 64,
            probability: 0.5,
        }],
        permanent: Some(PermanentSpec {
            bytes: 4 * KIB,
            probability: 0.02,
        }),
        criticals: vec![
            CriticalSpec {
                class: LockClassId(1),
                held_ns: (800, 1_500),
                probability: 0.6,
            },
            CriticalSpec {
                class: LockClassId(2),
                held_ns: (500, 1_000),
                probability: 0.3,
            },
        ],
    })
}

/// `lusearch`: text search — scalable. Independent queries from a shared
/// queue; mostly tiny, immediately-dead parser/scorer temporaries.
#[must_use]
pub fn lusearch() -> SyntheticApp {
    SyntheticApp::new(AppSpec {
        name: "lusearch".into(),
        class: ScalabilityClass::Scalable,
        min_heap_bytes: 8 * MIB,
        total_items: 80_000,
        effective_cap: None,
        distribution: Distribution::GuidedQueue {
            factor: 32.0,
            lock: LockClassId(0),
            dispatch: SimDuration::from_nanos(1_200),
            merge: Some(BatchMerge {
                class: LockClassId(2),
                held_ns: (800, 2_000),
            }),
        },
        lock_classes: vec![
            LockClass::new("query-queue"),
            LockClass::new("index-reader"),
            LockClass::new("results"),
        ],
        compute_ns: (50_000, 70_000),
        temps: vec![
            TempClass {
                count: 10,
                bytes: (32, 256),
                gap_ns: (40, 120),
            },
            TempClass {
                count: 4,
                bytes: (128, 512),
                gap_ns: (500, 1_500),
            },
        ],
        item_state: ItemStateSpec {
            count: 2,
            bytes: (512, 2_048),
        },
        carries: vec![CarrySpec {
            bytes: (1_024, 4_096),
            items: 48,
            probability: 0.3,
        }],
        permanent: Some(PermanentSpec {
            bytes: 2 * KIB,
            probability: 0.01,
        }),
        criticals: vec![CriticalSpec {
            class: LockClassId(1),
            held_ns: (600, 1_200),
            probability: 0.8,
        }],
    })
}

/// `sunflow`: ray tracer — scalable. Embarrassingly parallel ray bundles
/// with a per-bundle image-merge lock; extreme rates of tiny short-lived
/// vector/ray objects.
#[must_use]
pub fn sunflow() -> SyntheticApp {
    SyntheticApp::new(AppSpec {
        name: "sunflow".into(),
        class: ScalabilityClass::Scalable,
        min_heap_bytes: 6 * MIB,
        total_items: 40_000,
        effective_cap: None,
        distribution: Distribution::GuidedQueue {
            factor: 16.0,
            lock: LockClassId(0),
            dispatch: SimDuration::from_nanos(1_000),
            merge: Some(BatchMerge {
                class: LockClassId(1),
                held_ns: (1_500, 3_000),
            }),
        },
        lock_classes: vec![
            LockClass::new("bundle-queue"),
            LockClass::new("image-merge"),
        ],
        compute_ns: (100_000, 140_000),
        temps: vec![
            TempClass {
                count: 18,
                bytes: (32, 128),
                gap_ns: (30, 100),
            },
            TempClass {
                count: 4,
                bytes: (64, 256),
                gap_ns: (400, 1_200),
            },
        ],
        item_state: ItemStateSpec {
            count: 1,
            bytes: (512, 1_024),
        },
        carries: vec![],
        permanent: Some(PermanentSpec {
            bytes: 8 * KIB,
            probability: 0.005,
        }),
        criticals: vec![CriticalSpec {
            class: LockClassId(1),
            held_ns: (1_500, 2_500),
            probability: 1.0,
        }],
    })
}

/// `h2`: in-memory SQL database — non-scalable. Transactions are spread
/// evenly across client threads but serialize on a coarse database latch
/// held for most of each transaction, so added threads buy almost
/// nothing and lock counts stay flat.
#[must_use]
pub fn h2() -> SyntheticApp {
    SyntheticApp::new(AppSpec {
        name: "h2".into(),
        class: ScalabilityClass::NonScalable,
        min_heap_bytes: 32 * MIB,
        total_items: 30_000,
        effective_cap: None,
        distribution: Distribution::StaticSkewed {
            weights: vec![1.0; 64],
        },
        lock_classes: vec![LockClass::new("db-latch"), LockClass::new("tx-log")],
        compute_ns: (60_000, 90_000),
        temps: vec![
            TempClass {
                count: 8,
                bytes: (64, 512),
                gap_ns: (150, 400),
            },
            TempClass {
                count: 3,
                bytes: (256, 2_048),
                gap_ns: (1_000, 3_000),
            },
        ],
        item_state: ItemStateSpec {
            count: 2,
            bytes: (512, 4_096),
        },
        carries: vec![CarrySpec {
            bytes: (2_048, 8_192),
            items: 10,
            probability: 0.4,
        }],
        permanent: Some(PermanentSpec {
            bytes: 8 * KIB,
            probability: 0.05,
        }),
        criticals: vec![
            // the database latch: ~70% of the transaction
            CriticalSpec {
                class: LockClassId(0),
                held_ns: (180_000, 260_000),
                probability: 1.0,
            },
            CriticalSpec {
                class: LockClassId(1),
                held_ns: (2_000, 4_000),
                probability: 1.0,
            },
        ],
    })
}

/// `eclipse`: IDE workloads — non-scalable. Three to four worker threads
/// do nearly all the work under coarse workspace locks; a large permanent
/// metadata graph keeps the lifespan CDF insensitive to the configured
/// thread count (the paper's Figure 1c).
#[must_use]
pub fn eclipse() -> SyntheticApp {
    SyntheticApp::new(AppSpec {
        name: "eclipse".into(),
        class: ScalabilityClass::NonScalable,
        min_heap_bytes: 48 * MIB,
        total_items: 25_000,
        effective_cap: Some(4),
        distribution: Distribution::StaticSkewed {
            weights: vec![0.4, 0.3, 0.2, 0.1],
        },
        lock_classes: vec![LockClass::new("workspace"), LockClass::new("resource-tree")],
        compute_ns: (100_000, 140_000),
        temps: vec![
            TempClass {
                count: 9,
                bytes: (64, 512),
                gap_ns: (150, 500),
            },
            TempClass {
                count: 4,
                bytes: (256, 1_024),
                gap_ns: (1_000, 4_000),
            },
        ],
        item_state: ItemStateSpec {
            count: 2,
            bytes: (1_024, 4_096),
        },
        carries: vec![CarrySpec {
            bytes: (4_096, 16_384),
            items: 12,
            probability: 0.3,
        }],
        permanent: Some(PermanentSpec {
            bytes: 16 * KIB,
            probability: 0.08,
        }),
        criticals: vec![
            CriticalSpec {
                class: LockClassId(0),
                held_ns: (5_000, 15_000),
                probability: 0.7,
            },
            CriticalSpec {
                class: LockClassId(1),
                held_ns: (1_000, 3_000),
                probability: 0.5,
            },
        ],
    })
}

/// `jython`: Python interpreter — non-scalable. An interpreter lock held
/// for a large share of every item plus a hard 3–4-thread concentration
/// of work, independent of the configured thread count.
#[must_use]
pub fn jython() -> SyntheticApp {
    SyntheticApp::new(AppSpec {
        name: "jython".into(),
        class: ScalabilityClass::NonScalable,
        min_heap_bytes: 12 * MIB,
        total_items: 35_000,
        effective_cap: Some(4),
        distribution: Distribution::StaticSkewed {
            weights: vec![0.45, 0.30, 0.15, 0.10],
        },
        lock_classes: vec![LockClass::new("interp-lock"), LockClass::new("module-dict")],
        compute_ns: (80_000, 120_000),
        temps: vec![
            TempClass {
                count: 12,
                bytes: (32, 256),
                gap_ns: (100, 300),
            },
            TempClass {
                count: 3,
                bytes: (128, 512),
                gap_ns: (800, 2_000),
            },
        ],
        item_state: ItemStateSpec {
            count: 1,
            bytes: (256, 1_024),
        },
        carries: vec![CarrySpec {
            bytes: (512, 2_048),
            items: 5,
            probability: 0.3,
        }],
        permanent: Some(PermanentSpec {
            bytes: 4 * KIB,
            probability: 0.02,
        }),
        criticals: vec![
            CriticalSpec {
                class: LockClassId(0),
                held_ns: (30_000, 50_000),
                probability: 1.0,
            },
            CriticalSpec {
                class: LockClassId(1),
                held_ns: (500, 1_500),
                probability: 0.4,
            },
        ],
    })
}

/// All six benchmarks, in the paper's order.
#[must_use]
pub fn all_apps() -> Vec<SyntheticApp> {
    vec![sunflow(), lusearch(), xalan(), h2(), eclipse(), jython()]
}

/// The three scalable benchmarks (sunflow, lusearch, xalan).
#[must_use]
pub fn scalable_apps() -> Vec<SyntheticApp> {
    all_apps()
        .into_iter()
        .filter(|a| a.class() == ScalabilityClass::Scalable)
        .collect()
}

/// The three non-scalable benchmarks (h2, eclipse, jython).
#[must_use]
pub fn non_scalable_apps() -> Vec<SyntheticApp> {
    all_apps()
        .into_iter()
        .filter(|a| a.class() == ScalabilityClass::NonScalable)
        .collect()
}

/// Looks an app up by name.
#[must_use]
pub fn app_by_name(name: &str) -> Option<SyntheticApp> {
    all_apps().into_iter().find(|a| a.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn paper_roster_is_complete() {
        let names: Vec<_> = all_apps().iter().map(|a| a.name().to_owned()).collect();
        assert_eq!(
            names,
            vec!["sunflow", "lusearch", "xalan", "h2", "eclipse", "jython"]
        );
    }

    #[test]
    fn classification_matches_the_paper() {
        for app in scalable_apps() {
            assert!(matches!(app.name(), "sunflow" | "lusearch" | "xalan"));
        }
        for app in non_scalable_apps() {
            assert!(matches!(app.name(), "h2" | "eclipse" | "jython"));
        }
    }

    #[test]
    fn jython_and_eclipse_concentrate_work_in_few_threads() {
        for app in [jython(), eclipse()] {
            assert_eq!(app.effective_workers(48), 4, "{}", app.name());
            let shares = app.distribution().shares(4);
            assert!(shares[0] > shares[3], "skewed shares for {}", app.name());
        }
    }

    #[test]
    fn scalable_apps_use_a_guided_queue() {
        for app in scalable_apps() {
            assert!(
                matches!(app.distribution(), Distribution::GuidedQueue { .. }),
                "{}",
                app.name()
            );
            assert_eq!(app.effective_workers(48), 48, "{}", app.name());
        }
    }

    #[test]
    fn every_critical_references_a_declared_lock_class() {
        for app in all_apps() {
            let n = app.lock_classes().len();
            for crit in &app.spec().criticals {
                assert!(crit.class.0 < n, "{} lock class OOB", app.name());
            }
            if let Distribution::GuidedQueue { lock, .. } = app.distribution() {
                assert!(lock.0 < n, "{} queue lock OOB", app.name());
            }
        }
    }

    #[test]
    fn items_generate_for_every_app() {
        let mut rng = StdRng::seed_from_u64(1);
        for app in all_apps() {
            let item = app.make_item(&mut rng);
            assert!(!item.is_empty(), "{}", app.name());
            assert!(item.alloc_bytes() > 0, "{}", app.name());
            assert!(item.cpu_time().as_nanos() > 10_000, "{}", app.name());
        }
    }

    #[test]
    fn h2_latch_dominates_the_item() {
        let app = h2();
        let latch = &app.spec().criticals[0];
        assert_eq!(latch.probability, 1.0);
        // the latch dominates the transaction: even its shortest hold
        // exceeds the longest non-latch compute
        assert!(latch.held_ns.0 >= app.spec().compute_ns.1);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(app_by_name("xalan").unwrap().name(), "xalan");
        assert!(app_by_name("nope").is_none());
    }

    #[test]
    fn scaled_app_keeps_identity() {
        let tiny = xalan().scaled(0.01);
        assert_eq!(tiny.name(), "xalan");
        assert_eq!(tiny.total_items(), 600);
    }
}
