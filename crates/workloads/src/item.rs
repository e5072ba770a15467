//! Work items: the unit of application work a mutator thread executes.
//!
//! A [`WorkItem`] is an interpretable step stream — compute bursts, object
//! allocations with explicit death points, and critical sections. The
//! runtime executes steps in order on the simulated CPU; the *shape* of
//! the stream (how far an allocation sits from its death, how long locks
//! are held) is what produces the paper's lock and lifespan observables.

use std::fmt;

use scalesim_simkit::SimDuration;

/// Index into an application's lock-class list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockClassId(pub usize);

/// A class of application locks (e.g. `"workqueue"`, `"db-latch"`).
///
/// Each class materializes as `instances` monitor(s) in the VM; threads
/// touching the class pick an instance (instance 0 unless sharded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockClass {
    /// Human-readable class name (appears in the lock profiler report).
    pub name: String,
    /// Number of monitor instances backing the class.
    pub instances: usize,
}

impl LockClass {
    /// Creates a lock class with one instance.
    #[must_use]
    pub fn new(name: &str) -> Self {
        LockClass {
            name: name.to_owned(),
            instances: 1,
        }
    }

    /// Creates a sharded lock class.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero.
    #[must_use]
    pub fn sharded(name: &str, instances: usize) -> Self {
        assert!(instances >= 1, "lock class needs at least one instance");
        LockClass {
            name: name.to_owned(),
            instances,
        }
    }
}

/// When an allocated object dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathPoint {
    /// Dies when the matching [`Step::KillSlot`] executes within the same
    /// item (a temporary).
    Slot(u8),
    /// Dies when the item's last step completes (per-item state).
    ItemEnd,
    /// Dies after the owning thread completes this many further items
    /// (caches, carried results).
    CarryItems(u32),
    /// Lives until VM shutdown (right-censored in the trace).
    Permanent,
}

/// One step of a work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Execute on-CPU for the duration.
    Compute(SimDuration),
    /// Allocate `bytes` with the given death point.
    Alloc {
        /// Object size in bytes.
        bytes: u64,
        /// When the object dies.
        death: DeathPoint,
    },
    /// Last use of the slot allocated earlier in this item: the object
    /// dies here.
    KillSlot(u8),
    /// Acquire a lock of the class, stay on-CPU for `held`, release.
    Critical {
        /// Which lock class to acquire.
        class: LockClassId,
        /// How long the lock is held (critical-section work).
        held: SimDuration,
    },
}

/// A validated sequence of steps.
///
/// # Examples
///
/// ```
/// use scalesim_workloads::{DeathPoint, Step, WorkItem};
/// use scalesim_simkit::SimDuration;
///
/// let item = WorkItem::new(vec![
///     Step::Alloc { bytes: 64, death: DeathPoint::Slot(0) },
///     Step::Compute(SimDuration::from_nanos(200)),
///     Step::KillSlot(0),
/// ]);
/// assert_eq!(item.alloc_bytes(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkItem {
    steps: Vec<Step>,
}

impl WorkItem {
    /// Creates an item after validating slot discipline, in O(steps)
    /// with two 256-bit slot sets.
    ///
    /// # Panics
    ///
    /// Panics if a `KillSlot` precedes its `Alloc`, targets a never-
    /// allocated slot, a slot is allocated or killed twice, or a slot
    /// allocation is never killed (use [`DeathPoint::ItemEnd`] for that;
    /// the message names the lowest such slot).
    #[must_use]
    pub fn new(steps: Vec<Step>) -> Self {
        let mut allocated = SlotSet::default();
        let mut killed = SlotSet::default();
        for step in &steps {
            match *step {
                Step::Alloc {
                    death: DeathPoint::Slot(s),
                    ..
                } => {
                    assert!(allocated.insert(s), "slot {s} allocated twice");
                }
                Step::KillSlot(s) => {
                    assert!(allocated.contains(s), "KillSlot({s}) without a prior Alloc");
                    assert!(killed.insert(s), "slot {s} killed twice");
                }
                _ => {}
            }
        }
        // Every kill found its alloc, so `killed` is a subset of
        // `allocated` and the difference is the unkilled slots.
        if let Some(s) = allocated.lowest_outside(&killed) {
            panic!("slot {s} allocated but never killed (use DeathPoint::ItemEnd instead)");
        }
        WorkItem { steps }
    }

    /// The item's step buffer, for a generator to clear and refill (see
    /// [`crate::AppModel::make_item_reusing`]).
    #[must_use]
    pub fn into_steps(self) -> Vec<Step> {
        self.steps
    }

    /// The steps in execution order.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the item has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total on-CPU time of the item (compute + critical sections),
    /// ignoring scheduling and lock waits.
    #[must_use]
    pub fn cpu_time(&self) -> SimDuration {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Compute(d) => *d,
                Step::Critical { held, .. } => *held,
                _ => SimDuration::ZERO,
            })
            .sum()
    }

    /// Total bytes allocated by the item.
    #[must_use]
    pub fn alloc_bytes(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Alloc { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Number of objects the item allocates.
    #[must_use]
    pub fn alloc_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Alloc { .. }))
            .count()
    }

    /// Number of critical sections in the item.
    #[must_use]
    pub fn critical_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Critical { .. }))
            .count()
    }
}

/// A set of the 256 item slots, one bit each.
#[derive(Default)]
struct SlotSet([u64; 4]);

impl SlotSet {
    fn contains(&self, slot: u8) -> bool {
        self.0[usize::from(slot / 64)] & (1 << (slot % 64)) != 0
    }

    /// Adds `slot`; `false` if it was already present.
    fn insert(&mut self, slot: u8) -> bool {
        let word = &mut self.0[usize::from(slot / 64)];
        let bit = 1 << (slot % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// The lowest slot in `self` but not in `other`.
    fn lowest_outside(&self, other: &SlotSet) -> Option<usize> {
        self.0
            .iter()
            .zip(&other.0)
            .enumerate()
            .find_map(|(w, (a, b))| {
                let only = a & !b;
                (only != 0).then(|| w * 64 + only.trailing_zeros() as usize)
            })
    }
}

impl fmt::Display for WorkItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WorkItem({} steps, {} cpu, {} B, {} locks)",
            self.len(),
            self.cpu_time(),
            self.alloc_bytes(),
            self.critical_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn aggregates() {
        let item = WorkItem::new(vec![
            Step::Alloc {
                bytes: 100,
                death: DeathPoint::Slot(0),
            },
            Step::Compute(ns(500)),
            Step::KillSlot(0),
            Step::Critical {
                class: LockClassId(0),
                held: ns(200),
            },
            Step::Alloc {
                bytes: 50,
                death: DeathPoint::ItemEnd,
            },
        ]);
        assert_eq!(item.len(), 5);
        assert_eq!(item.cpu_time(), ns(700));
        assert_eq!(item.alloc_bytes(), 150);
        assert_eq!(item.alloc_count(), 2);
        assert_eq!(item.critical_count(), 1);
    }

    #[test]
    #[should_panic(expected = "without a prior Alloc")]
    fn kill_before_alloc_panics() {
        let _ = WorkItem::new(vec![Step::KillSlot(0)]);
    }

    #[test]
    #[should_panic(expected = "never killed")]
    fn unkilled_slot_panics() {
        let _ = WorkItem::new(vec![Step::Alloc {
            bytes: 1,
            death: DeathPoint::Slot(3),
        }]);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn double_alloc_slot_panics() {
        let _ = WorkItem::new(vec![
            Step::Alloc {
                bytes: 1,
                death: DeathPoint::Slot(0),
            },
            Step::KillSlot(0),
            Step::Alloc {
                bytes: 1,
                death: DeathPoint::Slot(0),
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "killed twice")]
    fn double_kill_panics() {
        let _ = WorkItem::new(vec![
            Step::Alloc {
                bytes: 1,
                death: DeathPoint::Slot(0),
            },
            Step::KillSlot(0),
            Step::KillSlot(0),
        ]);
    }

    fn alloc(slot: u8) -> Step {
        Step::Alloc {
            bytes: 1,
            death: DeathPoint::Slot(slot),
        }
    }

    #[test]
    fn slots_in_every_bitset_word_validate() {
        let slots = [0u8, 63, 64, 200, 255];
        let mut steps: Vec<Step> = slots.iter().map(|&s| alloc(s)).collect();
        steps.extend(slots.iter().rev().map(|&s| Step::KillSlot(s)));
        assert_eq!(WorkItem::new(steps).alloc_count(), slots.len());
    }

    #[test]
    fn violations_are_caught_in_every_bitset_word() {
        for s in [0u8, 63, 64, 200, 255] {
            let cases: [(Vec<Step>, String); 4] = [
                (
                    vec![Step::KillSlot(s)],
                    format!("KillSlot({s}) without a prior Alloc"),
                ),
                (
                    vec![alloc(s), Step::KillSlot(s), alloc(s)],
                    format!("slot {s} allocated twice"),
                ),
                (
                    vec![alloc(s), Step::KillSlot(s), Step::KillSlot(s)],
                    format!("slot {s} killed twice"),
                ),
                (
                    vec![alloc(s)],
                    format!("slot {s} allocated but never killed"),
                ),
            ];
            for (steps, expected) in cases {
                let err = std::panic::catch_unwind(|| WorkItem::new(steps)).unwrap_err();
                let msg = err.downcast_ref::<String>().expect("formatted message");
                assert!(msg.contains(&expected), "{msg:?} lacks {expected:?}");
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "slot 64 allocated but never killed (use DeathPoint::ItemEnd instead)"
    )]
    fn unkilled_slot_panic_names_the_lowest_slot() {
        let _ = WorkItem::new(vec![
            alloc(200),
            alloc(3),
            alloc(64),
            alloc(255),
            Step::KillSlot(3),
        ]);
    }

    #[test]
    fn into_steps_returns_the_buffer() {
        let steps = vec![alloc(9), Step::KillSlot(9)];
        assert_eq!(WorkItem::new(steps.clone()).into_steps(), steps);
    }

    #[test]
    fn non_slot_deaths_require_no_kill() {
        let item = WorkItem::new(vec![
            Step::Alloc {
                bytes: 1,
                death: DeathPoint::ItemEnd,
            },
            Step::Alloc {
                bytes: 2,
                death: DeathPoint::CarryItems(3),
            },
            Step::Alloc {
                bytes: 3,
                death: DeathPoint::Permanent,
            },
        ]);
        assert_eq!(item.alloc_count(), 3);
    }

    #[test]
    fn lock_class_constructors() {
        assert_eq!(LockClass::new("q").instances, 1);
        assert_eq!(LockClass::sharded("c", 4).instances, 4);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_shards_panics() {
        let _ = LockClass::sharded("c", 0);
    }

    #[test]
    fn display_mentions_shape() {
        let item = WorkItem::new(vec![Step::Compute(ns(100))]);
        assert!(item.to_string().contains("1 steps"));
    }
}
