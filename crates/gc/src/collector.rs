//! The stop-the-world generational collector.
//!
//! [`Collector::collect_minor`] reproduces HotSpot Parallel Scavenge's
//! policy shape: live nursery objects are evacuated — kept in the region
//! while they fit the survivor space and are younger than the tenuring
//! threshold, promoted to the mature space otherwise. Promotion pressure
//! and mature occupancy can escalate into a full mark-compact collection
//! within the same pause, which is how the paper's "more full GC
//! invocations as the mature region is filled up more quickly" (§III-B)
//! materializes in the model.

use scalesim_heap::Heap;
use scalesim_simkit::{SimDuration, SimTime};
use scalesim_trace::{EventKind, Timeline};

use crate::config::GcCostModel;
use crate::log::{GcEvent, GcKind, GcLog};

/// Outcome of a thread-local heaplet collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalGcOutcome {
    /// Pause absorbed by the owning thread alone (other threads keep
    /// running).
    pub local_pause: SimDuration,
    /// Stop-the-world pause from an escalated full collection; zero when
    /// no escalation happened.
    pub stw_pause: SimDuration,
}

/// The simulated parallel collector: policy + cost model + log.
///
/// # Examples
///
/// ```
/// use scalesim_gc::{Collector, GcCostModel};
/// use scalesim_heap::{AllocResult, Heap, HeapConfig, NurseryLayout};
/// use scalesim_sched::ThreadId;
/// use scalesim_simkit::SimTime;
///
/// let mut heap = Heap::new(HeapConfig::new(3 << 20, 1.0 / 3.0, NurseryLayout::Shared));
/// let mut gc = Collector::new(GcCostModel::hotspot_like(4, 1.0));
///
/// // Fill the nursery with objects that die immediately...
/// while let AllocResult::Ok(obj) = heap.alloc(ThreadId::new(0), 4096) {
///     heap.kill(obj);
/// }
/// let pause = gc.collect_minor(&mut heap, 0, 4, SimTime::ZERO);
/// assert!(pause.as_nanos() > 0);
/// assert_eq!(heap.region_used(0), 0, "everything was dead");
/// ```
#[derive(Debug)]
pub struct Collector {
    model: GcCostModel,
    log: GcLog,
    occupancy_escalation: bool,
    /// Timeline recorder for GC phase spans (disabled by default).
    timeline: Timeline,
}

impl Collector {
    /// Creates a collector with the given cost model.
    #[must_use]
    pub fn new(model: GcCostModel) -> Self {
        Collector {
            model,
            log: GcLog::new(),
            occupancy_escalation: true,
            timeline: Timeline::disabled(),
        }
    }

    /// Installs a timeline recorder; every collection then records a phase
    /// span alongside its log event.
    pub fn set_timeline(&mut self, timeline: Timeline) {
        self.timeline = timeline;
    }

    /// Removes the recorder (leaving a disabled one) and returns it.
    pub fn take_timeline(&mut self) -> Timeline {
        std::mem::take(&mut self.timeline)
    }

    /// Disables the occupancy-triggered full-collection escalation inside
    /// minor collections. Used by the mostly-concurrent old-generation
    /// mode, where the runtime starts concurrent cycles instead;
    /// promotion-failure escalation (the "concurrent mode failure"
    /// fallback) always remains active.
    pub fn set_occupancy_escalation(&mut self, on: bool) {
        self.occupancy_escalation = on;
    }

    /// The cost model in use.
    #[must_use]
    pub fn model(&self) -> &GcCostModel {
        &self.model
    }

    /// The collection log so far.
    #[must_use]
    pub fn log(&self) -> &GcLog {
        &self.log
    }

    /// Consumes the collector, returning its log.
    #[must_use]
    pub fn into_log(self) -> GcLog {
        self.log
    }

    /// Runs a minor (copying) collection of one nursery region, stopping
    /// `mutator_threads` threads. Returns the total pause, which includes
    /// any full collection escalated into this pause.
    pub fn collect_minor(
        &mut self,
        heap: &mut Heap,
        region: usize,
        mutator_threads: usize,
        at: SimTime,
    ) -> SimDuration {
        let pre_used = heap.region_used(region);
        let survivor_cap =
            (heap.region_capacity(region) as f64 * heap.config().survivor_fraction()) as u64;
        let tenure = heap.config().tenure_threshold();

        let mut escalation = SimDuration::ZERO;
        let mut kept_bytes = 0u64;
        let mut promoted_bytes = 0u64;
        for obj in heap.nursery_live(region) {
            heap.age_survivor(obj);
            let rec = *heap.object(obj);
            let tenured = rec.age >= tenure || kept_bytes + rec.size > survivor_cap;
            if tenured {
                if heap.mature_used() + rec.size > heap.mature_capacity() {
                    // Promotion failure: escalate to a full collection
                    // within the same pause, then retry the promotion.
                    escalation += self.collect_full(heap, mutator_threads, at);
                }
                heap.promote(obj);
                promoted_bytes += rec.size;
            } else {
                kept_bytes += rec.size;
            }
        }
        heap.reset_region_to_survivors(region);

        let survived = kept_bytes + promoted_bytes;
        let pause =
            SimDuration::from_nanos(self.model.minor_pause_ns(survived, mutator_threads) as u64);
        self.log.push(GcEvent {
            kind: GcKind::Minor,
            at,
            pause,
            region,
            collected_bytes: pre_used - survived,
            survived_bytes: survived,
            promoted_bytes,
        });
        self.timeline.span(
            EventKind::GcMinor,
            region as u32,
            at,
            at.saturating_add(pause),
            pre_used - survived,
        );

        // Occupancy-triggered full collection piggybacks on the pause.
        let mut total = pause + escalation;
        if self.occupancy_escalation
            && heap.mature_used() as f64
                > self.model.full_gc_trigger * heap.mature_capacity() as f64
        {
            total += self.collect_full(heap, mutator_threads, at);
        }
        total
    }

    /// Whether mature occupancy calls for an old-generation collection.
    #[must_use]
    pub fn wants_old_gen_collection(&self, heap: &Heap) -> bool {
        heap.mature_used() as f64 > self.model.full_gc_trigger * heap.mature_capacity() as f64
    }

    /// Whether mature occupancy calls for *starting a concurrent cycle*
    /// — uses the earlier [`GcCostModel::concurrent_trigger`] threshold so
    /// the cycle finishes before promotions exhaust the headroom.
    #[must_use]
    pub fn wants_concurrent_cycle(&self, heap: &Heap) -> bool {
        heap.mature_used() as f64 > self.model.concurrent_trigger * heap.mature_capacity() as f64
    }

    /// Begins a mostly-concurrent old-generation cycle: logs the
    /// initial-mark STW pause (one [`GcKind::ConcurrentOld`] event, like
    /// a CMS-initial-mark line) and returns it together with the CPU work
    /// the background thread must perform. Call
    /// [`finish_concurrent_cycle`](Self::finish_concurrent_cycle) when
    /// that work completes. Each cycle therefore contributes *two*
    /// `ConcurrentOld` events to the log.
    #[must_use]
    pub fn begin_concurrent_cycle(
        &mut self,
        heap: &Heap,
        mutator_threads: usize,
        at: SimTime,
    ) -> (SimDuration, SimDuration) {
        let live: u64 = heap
            .mature_live()
            .iter()
            .map(|&o| heap.object(o).size)
            .sum();
        let initial =
            SimDuration::from_nanos(self.model.concurrent_initial_mark_ns(mutator_threads) as u64);
        let work = SimDuration::from_nanos(self.model.concurrent_background_ns(live) as u64);
        self.log.push(GcEvent {
            kind: GcKind::ConcurrentOld,
            at,
            pause: initial,
            region: 0,
            collected_bytes: 0,
            survived_bytes: live,
            promoted_bytes: 0,
        });
        self.timeline.span(
            EventKind::GcConcMark,
            0,
            at,
            at.saturating_add(initial),
            live,
        );
        self.timeline.span(
            EventKind::GcConcWork,
            0,
            at.saturating_add(initial),
            at.saturating_add(initial).saturating_add(work),
            live,
        );
        (initial, work)
    }

    /// Finishes a concurrent cycle: sweeps the mature space and logs the
    /// remark STW pause (the cycle's second [`GcKind::ConcurrentOld`]
    /// event, like a CMS-remark line); returns the remark pause to apply.
    pub fn finish_concurrent_cycle(
        &mut self,
        heap: &mut Heap,
        mutator_threads: usize,
        at: SimTime,
    ) -> SimDuration {
        let pre = heap.mature_used();
        let live: u64 = heap
            .mature_live()
            .iter()
            .map(|&o| heap.object(o).size)
            .sum();
        heap.compact_mature();
        let remark =
            SimDuration::from_nanos(self.model.concurrent_remark_ns(live, mutator_threads) as u64);
        self.log.push(GcEvent {
            kind: GcKind::ConcurrentOld,
            at,
            pause: remark,
            region: 0,
            collected_bytes: pre - live,
            survived_bytes: live,
            promoted_bytes: 0,
        });
        self.timeline.span(
            EventKind::GcConcRemark,
            0,
            at,
            at.saturating_add(remark),
            pre - live,
        );
        remark
    }

    /// Runs a *thread-local* collection of one heaplet (compartmentalized
    /// heap mode, paper §IV suggestion 2). The survivor policy is the same
    /// as [`collect_minor`](Self::collect_minor), but only the owning
    /// thread pauses: no safepoint rendezvous, single-threaded copying.
    /// A promotion failure or mature-occupancy trigger still escalates to
    /// a global stop-the-world full collection, reported separately.
    pub fn collect_minor_local(
        &mut self,
        heap: &mut Heap,
        region: usize,
        mutator_threads: usize,
        at: SimTime,
    ) -> LocalGcOutcome {
        let pre_used = heap.region_used(region);
        let survivor_cap =
            (heap.region_capacity(region) as f64 * heap.config().survivor_fraction()) as u64;
        let tenure = heap.config().tenure_threshold();

        let mut stw_pause = SimDuration::ZERO;
        let mut kept_bytes = 0u64;
        let mut promoted_bytes = 0u64;
        for obj in heap.nursery_live(region) {
            heap.age_survivor(obj);
            let rec = *heap.object(obj);
            let tenured = rec.age >= tenure || kept_bytes + rec.size > survivor_cap;
            if tenured {
                if heap.mature_used() + rec.size > heap.mature_capacity() {
                    stw_pause += self.collect_full(heap, mutator_threads, at);
                }
                heap.promote(obj);
                promoted_bytes += rec.size;
            } else {
                kept_bytes += rec.size;
            }
        }
        heap.reset_region_to_survivors(region);

        let survived = kept_bytes + promoted_bytes;
        let local_pause = SimDuration::from_nanos(self.model.local_minor_pause_ns(survived) as u64);
        self.log.push(GcEvent {
            kind: GcKind::LocalMinor,
            at,
            pause: local_pause,
            region,
            collected_bytes: pre_used - survived,
            survived_bytes: survived,
            promoted_bytes,
        });
        self.timeline.span(
            EventKind::GcLocalMinor,
            region as u32,
            at,
            at.saturating_add(local_pause),
            pre_used - survived,
        );

        if heap.mature_used() as f64 > self.model.full_gc_trigger * heap.mature_capacity() as f64 {
            stw_pause += self.collect_full(heap, mutator_threads, at);
        }
        LocalGcOutcome {
            local_pause,
            stw_pause,
        }
    }

    /// Runs a full mark-compact collection of the mature space. Returns
    /// the pause.
    pub fn collect_full(
        &mut self,
        heap: &mut Heap,
        mutator_threads: usize,
        at: SimTime,
    ) -> SimDuration {
        let pre = heap.mature_used();
        let live_bytes: u64 = heap
            .mature_live()
            .iter()
            .map(|&o| heap.object(o).size)
            .sum();
        heap.compact_mature();
        debug_assert_eq!(heap.mature_used(), live_bytes);

        let pause =
            SimDuration::from_nanos(self.model.full_pause_ns(live_bytes, mutator_threads) as u64);
        self.log.push(GcEvent {
            kind: GcKind::Full,
            at,
            pause,
            region: 0,
            collected_bytes: pre - live_bytes,
            survived_bytes: live_bytes,
            promoted_bytes: 0,
        });
        self.timeline.span(
            EventKind::GcFull,
            0,
            at,
            at.saturating_add(pause),
            pre - live_bytes,
        );
        pause
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_heap::{AllocResult, HeapConfig, NurseryLayout, Space};
    use scalesim_sched::ThreadId;

    fn tid(n: usize) -> ThreadId {
        ThreadId::new(n)
    }

    fn ok(r: AllocResult) -> scalesim_heap::ObjectId {
        match r {
            AllocResult::Ok(id) => id,
            AllocResult::NurseryFull { .. } => panic!("nursery full"),
        }
    }

    /// 30 KiB nursery, 60 KiB mature, survivors 10% (3 KiB), tenure at 2.
    fn heap() -> Heap {
        Heap::new(HeapConfig::new(90 << 10, 1.0 / 3.0, NurseryLayout::Shared))
    }

    fn gc() -> Collector {
        Collector::new(GcCostModel::hotspot_like(4, 1.0))
    }

    #[test]
    fn dead_objects_are_collected_live_survive() {
        let (mut h, mut c) = (heap(), gc());
        let dead = ok(h.alloc(tid(0), 1024));
        let live = ok(h.alloc(tid(0), 512));
        h.kill(dead);
        c.collect_minor(&mut h, 0, 1, SimTime::ZERO);
        assert!(h.is_live(live));
        assert_eq!(h.region_used(0), 512);
        let e = c.log().events()[0];
        assert_eq!(e.collected_bytes, 1024);
        assert_eq!(e.survived_bytes, 512);
        assert_eq!(e.promoted_bytes, 0);
    }

    #[test]
    fn survivors_age_and_tenure_after_threshold() {
        let (mut h, mut c) = (heap(), gc());
        let obj = ok(h.alloc(tid(0), 512));
        c.collect_minor(&mut h, 0, 1, SimTime::ZERO);
        assert_eq!(h.object(obj).age, 1);
        assert!(matches!(h.object(obj).space, Space::Nursery { .. }));
        c.collect_minor(&mut h, 0, 1, SimTime::ZERO);
        assert_eq!(h.object(obj).age, 2);
        assert_eq!(h.object(obj).space, Space::Mature, "tenured at age 2");
        assert_eq!(h.mature_used(), 512);
        assert_eq!(c.log().promoted_bytes(), 512);
    }

    #[test]
    fn survivor_overflow_promotes_directly() {
        let (mut h, mut c) = (heap(), gc());
        // survivor cap = 3 KiB; 5 KiB of live data overflows it
        let objs: Vec<_> = (0..5).map(|_| ok(h.alloc(tid(0), 1024))).collect();
        c.collect_minor(&mut h, 0, 1, SimTime::ZERO);
        let promoted = objs
            .iter()
            .filter(|&&o| h.object(o).space == Space::Mature)
            .count();
        assert_eq!(promoted, 2, "the overflow beyond 3 KiB promotes");
        assert_eq!(h.region_used(0), 3 * 1024);
    }

    #[test]
    fn full_gc_reclaims_dead_mature_space() {
        let (mut h, mut c) = (heap(), gc());
        let a = ok(h.alloc(tid(0), 2048));
        let b = ok(h.alloc(tid(0), 1024));
        h.promote(a);
        h.promote(b);
        h.kill(a);
        let pause = c.collect_full(&mut h, 1, SimTime::ZERO);
        assert!(pause.as_nanos() > 0);
        assert_eq!(h.mature_used(), 1024);
        let e = c.log().events()[0];
        assert_eq!(e.kind, GcKind::Full);
        assert_eq!(e.collected_bytes, 2048);
    }

    #[test]
    fn occupancy_trigger_escalates_to_full() {
        // tiny mature space: 60 KiB; trigger at 90% = 54 KiB
        let (mut h, mut c) = (heap(), gc());
        // Promote 55 KiB of dead-on-arrival data to the mature space.
        for _ in 0..55 {
            let o = ok(h.alloc(tid(0), 1024));
            h.promote(o);
            h.kill(o);
            h.reset_region_to_survivors(0); // eden bytes moved out
        }
        assert!(h.mature_used() > 54 << 10);
        // a minor GC (even with an empty nursery) notices and runs a full
        c.collect_minor(&mut h, 0, 1, SimTime::ZERO);
        assert_eq!(c.log().count(GcKind::Full), 1);
        assert_eq!(h.mature_used(), 0);
    }

    #[test]
    fn promotion_failure_escalates_within_pause() {
        let (mut h, mut c) = (heap(), gc());
        // Fill mature with dead objects to 59 KiB so the next promotion
        // cannot fit without a full collection.
        for _ in 0..59 {
            let o = ok(h.alloc(tid(0), 1024));
            h.promote(o);
            h.kill(o);
            h.reset_region_to_survivors(0); // eden bytes moved out
        }
        // 4 KiB of live nursery data; survivor cap 3 KiB forces promotion.
        let objs: Vec<_> = (0..4).map(|_| ok(h.alloc(tid(0), 1024))).collect();
        let pause = c.collect_minor(&mut h, 0, 1, SimTime::ZERO);
        assert!(pause.as_nanos() > 0);
        assert_eq!(c.log().count(GcKind::Full), 1, "escalated");
        assert!(objs.iter().all(|&o| h.is_live(o)));
    }

    #[test]
    fn pause_scales_with_survivors() {
        let (mut h1, mut c1) = (heap(), gc());
        let (mut h2, mut c2) = (heap(), gc());
        ok(h1.alloc(tid(0), 1024));
        let p_small = c1.collect_minor(&mut h1, 0, 1, SimTime::ZERO);
        for _ in 0..3 {
            ok(h2.alloc(tid(0), 1024));
        }
        let p_big = c2.collect_minor(&mut h2, 0, 1, SimTime::ZERO);
        assert!(p_big > p_small);
    }

    #[test]
    fn concurrent_cycle_sweeps_with_small_stw_pauses() {
        let (mut h, mut c) = (heap(), gc());
        // 10 KiB mature, 4 KiB of it dead
        for i in 0..10 {
            let o = ok(h.alloc(tid(0), 1024));
            h.promote(o);
            if i < 4 {
                h.kill(o);
            }
            h.reset_region_to_survivors(0);
        }
        let (initial, work) = c.begin_concurrent_cycle(&h, 8, SimTime::ZERO);
        assert!(work.as_nanos() > 0);
        let remark = c.finish_concurrent_cycle(&mut h, 8, SimTime::ZERO);
        assert_eq!(h.mature_used(), 6 * 1024);
        assert_eq!(c.log().count(GcKind::ConcurrentOld), 2, "two STW phases");
        let e = c.log().events()[1];
        assert_eq!(e.kind, GcKind::ConcurrentOld);
        assert_eq!(e.collected_bytes, 4 * 1024);
        // each individual STW pause stays below one full STW collection
        // of the same data (with large live sets the gap is enormous;
        // with tiny ones only the per-pause bound holds)
        let full_equiv = c.model().full_pause_ns(6 * 1024, 8) as u64;
        assert!(initial.as_nanos() < full_equiv);
        assert!(remark.as_nanos() < full_equiv);
        // and the copy-proportional share shrinks 20x (0.05 factor)
        let big_live = 64 << 20;
        let remark_copy =
            c.model().concurrent_remark_ns(big_live, 0) - c.model().concurrent_remark_ns(0, 0);
        let full_copy = c.model().full_pause_ns(big_live, 0) - c.model().full_pause_ns(0, 0);
        assert!(remark_copy * 10.0 < full_copy);
    }

    #[test]
    fn occupancy_escalation_can_be_disabled() {
        let (mut h, mut c) = (heap(), gc());
        c.set_occupancy_escalation(false);
        for _ in 0..55 {
            let o = ok(h.alloc(tid(0), 1024));
            h.promote(o);
            h.kill(o);
            h.reset_region_to_survivors(0);
        }
        assert!(c.wants_old_gen_collection(&h));
        c.collect_minor(&mut h, 0, 1, SimTime::ZERO);
        assert_eq!(c.log().count(GcKind::Full), 0, "no STW full escalation");
        assert!(c.wants_old_gen_collection(&h), "still pending");
    }

    #[test]
    fn timeline_records_gc_phase_spans() {
        let (mut h, mut c) = (heap(), gc());
        c.set_timeline(Timeline::with_capacity(32));
        let dead = ok(h.alloc(tid(0), 1024));
        h.kill(dead);
        c.collect_minor(&mut h, 0, 1, SimTime::ZERO);
        let o = ok(h.alloc(tid(0), 2048));
        h.promote(o);
        h.kill(o);
        c.collect_full(&mut h, 1, SimTime::from_nanos(500));

        let tl = c.take_timeline();
        let events: Vec<_> = tl.events().collect();
        let minor = events
            .iter()
            .find(|e| e.kind == EventKind::GcMinor)
            .expect("minor span");
        assert_eq!(minor.at, SimTime::ZERO);
        assert_eq!(minor.arg, 1024, "collected bytes attributed");
        assert!(!minor.dur.is_zero());
        let full = events
            .iter()
            .find(|e| e.kind == EventKind::GcFull)
            .expect("full span");
        assert_eq!(full.at, SimTime::from_nanos(500));
        assert_eq!(full.arg, 2048);
        // The recorder left behind is disabled.
        assert_eq!(c.take_timeline().len(), 0);
    }

    #[test]
    fn into_log_hands_over_everything() {
        let (mut h, mut c) = (heap(), gc());
        ok(h.alloc(tid(0), 64));
        c.collect_minor(&mut h, 0, 1, SimTime::ZERO);
        let log = c.into_log();
        assert_eq!(log.collections(), 1);
    }
}
