//! The managed heap: allocation clock, nursery regions, mature space,
//! TLABs.
//!
//! The heap knows nothing about *why* objects die or when collections run
//! — that is the runtime's and collector's business. It provides exact
//! occupancy accounting, the VM-wide **allocation clock** (total bytes
//! ever allocated — the x-axis of the paper's lifespan metric), and the
//! object bookkeeping a copying collector needs.

use scalesim_sched::ThreadId;

use crate::config::HeapConfig;
use crate::object::{ObjectId, ObjectRecord, ObjectTable, Space};

/// Result of an allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocResult {
    /// The object was allocated.
    Ok(ObjectId),
    /// The target nursery region cannot fit the object: a minor collection
    /// of that region is required, after which the caller retries.
    NurseryFull {
        /// The full region.
        region: usize,
    },
}

/// A dead object's vital statistics, returned by [`Heap::kill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeathRecord {
    /// Object size in bytes.
    pub size: u64,
    /// Lifespan on the allocation clock: bytes allocated VM-wide between
    /// the object's birth and its death (the paper's §II-A metric).
    pub lifespan: u64,
    /// Space the object occupied when it died.
    pub space: Space,
}

/// Cumulative heap statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HeapStats {
    /// Objects ever allocated.
    pub objects_allocated: u64,
    /// Bytes ever allocated (equals the final allocation clock).
    pub bytes_allocated: u64,
    /// Objects that died (had [`Heap::kill`] called).
    pub objects_died: u64,
    /// TLAB refills performed.
    pub tlab_refills: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Tlab {
    remaining: u64,
}

#[derive(Debug, Clone, Copy)]
struct Region {
    capacity: u64,
    used: u64,
}

/// The simulated generational heap.
///
/// # Examples
///
/// ```
/// use scalesim_heap::{AllocResult, Heap, HeapConfig, NurseryLayout};
/// use scalesim_sched::ThreadId;
///
/// let mut heap = Heap::new(HeapConfig::new(3 << 20, 1.0 / 3.0, NurseryLayout::Shared));
/// let t = ThreadId::new(0);
/// let AllocResult::Ok(obj) = heap.alloc(t, 128) else { panic!("1 MiB nursery fits 128 B") };
/// assert_eq!(heap.clock(), 128);
/// let death = heap.kill(obj);
/// assert_eq!(death.lifespan, 0); // nothing was allocated in between
/// ```
#[derive(Debug)]
pub struct Heap {
    config: HeapConfig,
    clock: u64,
    regions: Vec<Region>,
    mature_used: u64,
    objects: ObjectTable,
    tlabs: Vec<Tlab>,
    stats: HeapStats,
}

impl Heap {
    /// Creates a heap laid out per `config`, with zeroed occupancy.
    #[must_use]
    pub fn new(config: HeapConfig) -> Self {
        let regions = (0..config.layout().region_count())
            .map(|_| Region {
                capacity: config.region_bytes(),
                used: 0,
            })
            .collect();
        Heap {
            config,
            clock: 0,
            regions,
            mature_used: 0,
            objects: ObjectTable::new(),
            tlabs: Vec::new(),
            stats: HeapStats::default(),
        }
    }

    /// The heap's configuration.
    #[must_use]
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// The allocation clock: total bytes ever allocated.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// The nursery region thread `tid` allocates into: region 0 under the
    /// shared layout, the thread's own compartment under heaplets.
    #[must_use]
    pub fn region_of(&self, tid: ThreadId) -> usize {
        tid.index() % self.regions.len()
    }

    /// Attempts to allocate `size` bytes for thread `tid` in its nursery
    /// region.
    ///
    /// On success the allocation clock advances by `size` and the object
    /// is born with the pre-advance clock as its birth stamp. On
    /// [`AllocResult::NurseryFull`] nothing changes; the caller must
    /// collect the region and retry.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds the region capacity (such an
    /// object could never be allocated even after collection).
    pub fn alloc(&mut self, tid: ThreadId, size: u64) -> AllocResult {
        assert!(size > 0, "zero-sized allocation");
        let region_idx = self.region_of(tid);
        let region = &mut self.regions[region_idx];
        assert!(
            size <= region.capacity,
            "object of {size} B cannot fit a {} B nursery region",
            region.capacity
        );
        if region.used + size > region.capacity {
            return AllocResult::NurseryFull { region: region_idx };
        }
        region.used += size;

        // TLAB modelling: refills are counted (a mutator-cost signal);
        // occupancy above is exact per object.
        if self.tlabs.len() <= tid.index() {
            self.tlabs.resize(tid.index() + 1, Tlab::default());
        }
        let tlab = &mut self.tlabs[tid.index()];
        if tlab.remaining < size {
            tlab.remaining = self.config.tlab_bytes();
            self.stats.tlab_refills += 1;
        }
        tlab.remaining = tlab.remaining.saturating_sub(size);

        // Birth is stamped *after* the object's own bytes: the paper's
        // lifespan metric counts memory allocated to *other* objects
        // between creation and death.
        self.clock += size;
        let id = self.objects.insert(ObjectRecord {
            size,
            birth: self.clock,
            age: 0,
            space: Space::Nursery { region: region_idx },
        });
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += size;
        AllocResult::Ok(id)
    }

    /// Records the death of a live object and returns its vitals.
    ///
    /// Dead space is *not* reclaimed here — occupancy shrinks only when a
    /// collection runs, exactly as in a real generational heap.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is stale or already dead.
    pub fn kill(&mut self, obj: ObjectId) -> DeathRecord {
        let rec = self.objects.remove(obj);
        self.stats.objects_died += 1;
        DeathRecord {
            size: rec.size,
            lifespan: self.clock - rec.birth,
            space: rec.space,
        }
    }

    /// Whether `obj` is still live.
    #[must_use]
    pub fn is_live(&self, obj: ObjectId) -> bool {
        self.objects.contains(obj)
    }

    /// Borrows a live object's record.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    #[must_use]
    pub fn object(&self, obj: ObjectId) -> &ObjectRecord {
        self.objects.get(obj)
    }

    /// Number of live objects.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.objects.len()
    }

    /// Occupancy of a nursery region in bytes (includes dead-but-not-yet-
    /// collected space).
    #[must_use]
    pub fn region_used(&self, region: usize) -> u64 {
        self.regions[region].used
    }

    /// Capacity of one nursery region.
    #[must_use]
    pub fn region_capacity(&self, region: usize) -> u64 {
        self.regions[region].capacity
    }

    /// Number of nursery regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Mature-space occupancy in bytes (live + uncollected dead).
    #[must_use]
    pub fn mature_used(&self) -> u64 {
        self.mature_used
    }

    /// Mature-space capacity in bytes: whatever the nursery regions do
    /// not occupy. Shrinking the nursery (adaptive sizing) grows the
    /// mature space and vice versa, within the fixed total heap.
    #[must_use]
    pub fn mature_capacity(&self) -> u64 {
        let nursery: u64 = self.regions.iter().map(|r| r.capacity).sum();
        self.config.total_bytes().saturating_sub(nursery)
    }

    /// Resizes a nursery region (adaptive sizing, HotSpot's
    /// `AdaptiveSizePolicy`). The new capacity is clamped so that the
    /// region can still hold its current occupancy plus one maximal
    /// object, and so the mature space keeps covering its live bytes.
    ///
    /// Returns the capacity actually applied.
    pub fn resize_region(&mut self, region: usize, new_capacity: u64) -> u64 {
        let others: u64 = self
            .regions
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != region)
            .map(|(_, r)| r.capacity)
            .sum();
        // The mature space must keep room for what already lives there.
        let max_for_mature = self
            .config
            .total_bytes()
            .saturating_sub(others)
            .saturating_sub(self.mature_used);
        let floor = self.regions[region]
            .used
            .max(self.config.total_bytes() / 64)
            .max(1);
        let applied = new_capacity.clamp(floor, max_for_mature.max(floor));
        self.regions[region].capacity = applied;
        applied
    }

    /// Checks internal accounting invariants, panicking with a
    /// description on violation. Intended for tests and debug assertions:
    ///
    /// * live bytes per region never exceed the region's occupancy
    ///   (dead space may linger, never the reverse);
    /// * live mature bytes never exceed mature occupancy;
    /// * occupancies never exceed capacities;
    /// * the allocation clock equals total bytes allocated.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn verify_consistency(&self) {
        for region in 0..self.regions.len() {
            let live: u64 = self
                .objects
                .iter()
                .filter(|(_, r)| r.space == Space::Nursery { region })
                .map(|(_, r)| r.size)
                .sum();
            assert!(
                live <= self.regions[region].used,
                "region {region}: live {live} B exceeds occupancy {} B",
                self.regions[region].used
            );
            assert!(
                self.regions[region].used <= self.regions[region].capacity,
                "region {region}: occupancy exceeds capacity"
            );
        }
        let live_mature: u64 = self
            .objects
            .iter()
            .filter(|(_, r)| r.space == Space::Mature)
            .map(|(_, r)| r.size)
            .sum();
        assert!(
            live_mature <= self.mature_used,
            "mature: live {live_mature} B exceeds occupancy {} B",
            self.mature_used
        );
        assert!(
            self.mature_used <= self.mature_capacity(),
            "mature occupancy exceeds capacity"
        );
        assert_eq!(
            self.clock, self.stats.bytes_allocated,
            "allocation clock diverged from stats"
        );
    }

    /// Non-panicking variant of [`Heap::verify_consistency`] for the
    /// runtime's always-on invariant monitors, extended with object
    /// conservation: every object ever allocated is either still live or
    /// recorded dead.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_conservation(&self) -> Result<(), String> {
        let live = self.live_objects() as u64;
        let died = self.stats.objects_died;
        if self.stats.objects_allocated != live + died {
            return Err(format!(
                "object conservation broken: {} allocated != {live} live + {died} died",
                self.stats.objects_allocated
            ));
        }
        for region in 0..self.regions.len() {
            if self.regions[region].used > self.regions[region].capacity {
                return Err(format!(
                    "region {region}: occupancy {} B exceeds capacity {} B",
                    self.regions[region].used, self.regions[region].capacity
                ));
            }
        }
        let live_mature: u64 = self
            .objects
            .iter()
            .filter(|(_, r)| r.space == Space::Mature)
            .map(|(_, r)| r.size)
            .sum();
        if live_mature > self.mature_used {
            return Err(format!(
                "mature: live {live_mature} B exceeds occupancy {} B",
                self.mature_used
            ));
        }
        if self.mature_used > self.mature_capacity() {
            return Err(format!(
                "mature occupancy {} B exceeds capacity {} B",
                self.mature_used,
                self.mature_capacity()
            ));
        }
        if self.clock != self.stats.bytes_allocated {
            return Err(format!(
                "allocation clock {} diverged from {} bytes allocated",
                self.clock, self.stats.bytes_allocated
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Collector interface (used by `scalesim-gc`)
    // ------------------------------------------------------------------

    /// Live objects currently in nursery `region` (the collector's root
    /// survivor set, since the runtime kills objects eagerly on last use).
    #[must_use]
    pub fn nursery_live(&self, region: usize) -> Vec<ObjectId> {
        self.objects.nursery_live(region)
    }

    /// Live mature objects.
    #[must_use]
    pub fn mature_live(&self) -> Vec<ObjectId> {
        self.objects.mature_live()
    }

    /// Ages a nursery survivor in place (it stays in its region).
    ///
    /// # Panics
    ///
    /// Panics if the object is not in the nursery.
    pub fn age_survivor(&mut self, obj: ObjectId) {
        let rec = self.objects.get_mut(obj);
        assert!(
            matches!(rec.space, Space::Nursery { .. }),
            "age_survivor on non-nursery object"
        );
        rec.age = rec.age.saturating_add(1);
    }

    /// Promotes a nursery object into the mature space.
    ///
    /// # Panics
    ///
    /// Panics if the object is not in the nursery, or if promotion would
    /// overflow the mature space (the collector must run a full GC first
    /// and retry; a second overflow is a genuine OutOfMemoryError and the
    /// caller's bug).
    pub fn promote(&mut self, obj: ObjectId) {
        let mature_capacity = self.mature_capacity();
        let rec = self.objects.get_mut(obj);
        assert!(
            matches!(rec.space, Space::Nursery { .. }),
            "promote on non-nursery object"
        );
        assert!(
            self.mature_used + rec.size <= mature_capacity,
            "OutOfMemoryError: mature space overflow"
        );
        rec.space = Space::Mature;
        self.mature_used += rec.size;
    }

    /// Finishes a minor collection of `region`: occupancy becomes the sum
    /// of the survivors left in the region.
    pub fn reset_region_to_survivors(&mut self, region: usize) {
        let survivors: u64 = self
            .objects
            .iter()
            .filter(|(_, r)| r.space == Space::Nursery { region })
            .map(|(_, r)| r.size)
            .sum();
        self.regions[region].used = survivors;
    }

    /// Finishes a full collection: mature occupancy becomes the sum of
    /// live mature objects (compaction squeezes out all dead space).
    pub fn compact_mature(&mut self) {
        self.mature_used = self
            .objects
            .iter()
            .filter(|(_, r)| r.space == Space::Mature)
            .map(|(_, r)| r.size)
            .sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NurseryLayout;

    fn tid(n: usize) -> ThreadId {
        ThreadId::new(n)
    }

    fn small_heap() -> Heap {
        // 3 KiB heap: 1 KiB nursery, 2 KiB mature
        Heap::new(HeapConfig::new(3 << 10, 1.0 / 3.0, NurseryLayout::Shared))
    }

    fn ok(r: AllocResult) -> ObjectId {
        match r {
            AllocResult::Ok(id) => id,
            AllocResult::NurseryFull { region } => panic!("unexpected full region {region}"),
        }
    }

    #[test]
    fn clock_advances_by_allocation_size() {
        let mut h = small_heap();
        ok(h.alloc(tid(0), 100));
        ok(h.alloc(tid(1), 50));
        assert_eq!(h.clock(), 150);
        assert_eq!(h.stats().bytes_allocated, 150);
        assert_eq!(h.stats().objects_allocated, 2);
    }

    #[test]
    fn conservation_holds_through_alloc_kill_and_promote() {
        let mut h = small_heap();
        assert_eq!(h.check_conservation(), Ok(()));
        let a = ok(h.alloc(tid(0), 200));
        let b = ok(h.alloc(tid(0), 300));
        assert_eq!(h.check_conservation(), Ok(()));
        h.kill(b);
        assert_eq!(h.check_conservation(), Ok(()));
        h.age_survivor(a);
        h.promote(a);
        h.reset_region_to_survivors(0);
        assert_eq!(h.check_conservation(), Ok(()));
    }

    #[test]
    fn conservation_detects_lost_objects() {
        let mut h = small_heap();
        ok(h.alloc(tid(0), 100));
        // Simulate accounting drift: a death recorded without an object
        // actually dying, as a corrupted collector would produce.
        h.stats.objects_died += 1;
        let err = h.check_conservation().unwrap_err();
        assert!(err.contains("conservation"), "{err}");
    }

    #[test]
    fn lifespan_is_bytes_allocated_between_birth_and_death() {
        let mut h = small_heap();
        let a = ok(h.alloc(tid(0), 100));
        ok(h.alloc(tid(1), 300)); // other thread allocates
        let death = h.kill(a);
        assert_eq!(death.lifespan, 300);
        assert_eq!(death.size, 100);
        assert_eq!(h.stats().objects_died, 1);
    }

    #[test]
    fn nursery_full_when_region_exhausted() {
        let mut h = small_heap(); // 1 KiB region
        ok(h.alloc(tid(0), 600));
        match h.alloc(tid(0), 600) {
            AllocResult::NurseryFull { region } => assert_eq!(region, 0),
            AllocResult::Ok(_) => panic!("should not fit"),
        }
        // occupancy unchanged by the failed attempt
        assert_eq!(h.region_used(0), 600);
    }

    #[test]
    fn dead_space_is_not_reclaimed_until_collection() {
        let mut h = small_heap();
        let a = ok(h.alloc(tid(0), 600));
        h.kill(a);
        assert_eq!(h.region_used(0), 600, "dead space still occupies eden");
        h.reset_region_to_survivors(0);
        assert_eq!(h.region_used(0), 0);
    }

    #[test]
    fn survivors_keep_region_occupancy_after_reset() {
        let mut h = small_heap();
        let a = ok(h.alloc(tid(0), 200));
        let b = ok(h.alloc(tid(0), 300));
        h.kill(b);
        h.reset_region_to_survivors(0);
        assert_eq!(h.region_used(0), 200);
        assert!(h.is_live(a));
    }

    #[test]
    fn promote_moves_bytes_to_mature() {
        let mut h = small_heap();
        let a = ok(h.alloc(tid(0), 200));
        h.age_survivor(a);
        assert_eq!(h.object(a).age, 1);
        h.promote(a);
        assert_eq!(h.mature_used(), 200);
        assert_eq!(h.object(a).space, Space::Mature);
        h.reset_region_to_survivors(0);
        assert_eq!(h.region_used(0), 0);
    }

    #[test]
    fn compact_mature_drops_dead_bytes() {
        let mut h = small_heap();
        let a = ok(h.alloc(tid(0), 200));
        let b = ok(h.alloc(tid(0), 100));
        h.promote(a);
        h.promote(b);
        h.kill(a);
        assert_eq!(h.mature_used(), 300, "dead mature space lingers");
        h.compact_mature();
        assert_eq!(h.mature_used(), 100);
    }

    #[test]
    #[should_panic(expected = "OutOfMemoryError")]
    fn promotion_overflow_panics() {
        // mature = 2 KiB; promote 3 objects of 1 KiB ≫ capacity
        let mut h = Heap::new(
            HeapConfig::new(6 << 10, 2.0 / 3.0, NurseryLayout::Shared), // 4 KiB nursery, 2 KiB mature
        );
        for _ in 0..3 {
            let o = ok(h.alloc(tid(0), 1 << 10));
            h.promote(o);
        }
    }

    #[test]
    fn heaplets_route_threads_to_their_regions() {
        let mut h = Heap::new(HeapConfig::new(
            8 << 10,
            0.5,
            NurseryLayout::Heaplets { count: 4 },
        ));
        assert_eq!(h.region_count(), 4);
        assert_eq!(h.region_of(tid(1)), 1);
        assert_eq!(h.region_of(tid(5)), 1, "threads wrap around regions");
        ok(h.alloc(tid(1), 100));
        assert_eq!(h.region_used(1), 100);
        assert_eq!(h.region_used(0), 0);
    }

    #[test]
    fn tlab_refills_are_counted() {
        let mut h =
            Heap::new(HeapConfig::new(1 << 20, 0.5, NurseryLayout::Shared).with_tlab_bytes(256));
        for _ in 0..4 {
            ok(h.alloc(tid(0), 100));
        }
        // 100+100 fits one 256B TLAB; allocations 1, 3 trigger refills
        assert_eq!(h.stats().tlab_refills, 2);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_alloc_panics() {
        let mut h = small_heap();
        let _ = h.alloc(tid(0), 0);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversized_alloc_panics() {
        let mut h = small_heap();
        let _ = h.alloc(tid(0), 64 << 10);
    }

    #[test]
    fn verify_consistency_passes_through_a_lifecycle() {
        let mut h = small_heap();
        let a = ok(h.alloc(tid(0), 200));
        let b = ok(h.alloc(tid(0), 100));
        h.verify_consistency();
        h.kill(b);
        h.verify_consistency();
        h.promote(a);
        h.reset_region_to_survivors(0);
        h.verify_consistency();
        h.compact_mature();
        h.verify_consistency();
    }

    #[test]
    fn resize_region_trades_with_mature_space() {
        let mut h = small_heap(); // 1 KiB nursery, 2 KiB mature
        assert_eq!(h.mature_capacity(), 2 << 10);
        let applied = h.resize_region(0, 1536);
        assert_eq!(applied, 1536);
        assert_eq!(h.region_capacity(0), 1536);
        assert_eq!(h.mature_capacity(), (3 << 10) - 1536);
    }

    #[test]
    fn resize_region_floors_at_current_occupancy() {
        let mut h = Heap::new(HeapConfig::new(1 << 20, 0.5, NurseryLayout::Shared));
        ok(h.alloc(tid(0), 200 << 10));
        let applied = h.resize_region(0, 1);
        assert_eq!(applied, 200 << 10, "cannot shrink below live occupancy");
    }

    #[test]
    fn resize_region_respects_mature_occupancy() {
        let mut h = small_heap(); // 3 KiB total
        let a = ok(h.alloc(tid(0), 1024));
        h.promote(a);
        h.reset_region_to_survivors(0);
        // growing the nursery to the full heap would strand the 1 KiB of
        // mature data; the resize is clamped to leave room for it
        let applied = h.resize_region(0, 10 << 10);
        assert!(applied <= (3 << 10) - 1024);
        assert!(h.mature_capacity() >= h.mature_used());
    }

    #[test]
    fn nursery_live_lists_only_that_region() {
        let mut h = Heap::new(HeapConfig::new(
            8 << 10,
            0.5,
            NurseryLayout::Heaplets { count: 2 },
        ));
        let a = ok(h.alloc(tid(0), 64));
        let b = ok(h.alloc(tid(1), 64));
        assert_eq!(h.nursery_live(0), vec![a]);
        assert_eq!(h.nursery_live(1), vec![b]);
        assert!(h.mature_live().is_empty());
    }
}
