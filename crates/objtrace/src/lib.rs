//! # scalesim-objtrace
//!
//! Elephant-Tracks-style object lifetime tracing.
//!
//! The paper adopts Elephant Tracks (Ricci et al., ISMM'13) to produce "an
//! in-order trace of events pertaining to each object" and measures each
//! object's **lifespan** as the amount of heap memory allocated to other
//! objects between its creation and its death (§II-A). [`ObjectTracer`] is
//! the simulated equivalent: the runtime reports every allocation and
//! death (with the allocation-clock lifespan computed by the heap), and
//! the tracer maintains the lifespan distribution that Figures 1c/1d plot
//! as CDFs.
//!
//! Retention is configurable: [`Retention::HistogramOnly`] keeps a
//! log-bucketed distribution (constant memory, the default for big
//! sweeps); [`Retention::Full`] additionally keeps exact lifespans and the
//! in-order event list, matching what Elephant Tracks itself emits.
//!
//! ```
//! use scalesim_objtrace::{ObjectTracer, Retention};
//!
//! let mut tracer = ObjectTracer::new(Retention::Full);
//! let obj = tracer.on_alloc(0, 64, 64);
//! tracer.on_death(obj, 512, 576);
//! assert_eq!(tracer.deaths(), 1);
//! assert_eq!(tracer.cdf().quantile(1.0), Some(512));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod format;

pub use format::{format_trace, parse_trace, ParseTraceError};

use std::fmt;

use scalesim_metrics::{Cdf, LogHistogram};

/// A monotonically increasing per-tracer object sequence number (the
/// trace-file identity of an object, distinct from heap handles).
pub type ObjSeq = u64;

/// One record in the in-order object trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// An object was allocated.
    Alloc {
        /// Trace identity of the object.
        obj: ObjSeq,
        /// Allocating thread index.
        thread: usize,
        /// Object size in bytes.
        size: u64,
        /// Allocation-clock reading just after the allocation.
        clock: u64,
    },
    /// An object died (was last used).
    Death {
        /// Trace identity of the object.
        obj: ObjSeq,
        /// Bytes allocated to other objects between birth and death.
        lifespan: u64,
        /// Allocation-clock reading at death.
        clock: u64,
    },
}

/// How much the tracer retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Retention {
    /// Log-bucketed lifespan histogram only (constant memory).
    #[default]
    HistogramOnly,
    /// Histogram + exact lifespans + the in-order event trace.
    Full,
}

/// The object-lifetime profiler.
#[derive(Debug, Clone, Hash, Default)]
pub struct ObjectTracer {
    retention: Retention,
    hist: LogHistogram,
    exact: Vec<u64>,
    events: Vec<TraceEvent>,
    next_seq: ObjSeq,
    /// Allocating thread per live trace id (only under full retention).
    owners: Vec<usize>,
    per_thread: Vec<LogHistogram>,
    allocations: u64,
    allocated_bytes: u64,
    deaths: u64,
    censored: u64,
}

impl ObjectTracer {
    /// Creates a tracer with the given retention mode.
    #[must_use]
    pub fn new(retention: Retention) -> Self {
        ObjectTracer {
            retention,
            ..ObjectTracer::default()
        }
    }

    /// Records an allocation; returns the object's trace identity.
    pub fn on_alloc(&mut self, thread: usize, size: u64, clock: u64) -> ObjSeq {
        let obj = self.next_seq;
        self.next_seq += 1;
        self.allocations += 1;
        self.allocated_bytes += size;
        if self.retention == Retention::Full {
            self.events.push(TraceEvent::Alloc {
                obj,
                thread,
                size,
                clock,
            });
            debug_assert_eq!(self.owners.len() as u64, obj);
            self.owners.push(thread);
        }
        obj
    }

    /// Records a death with its allocation-clock lifespan.
    pub fn on_death(&mut self, obj: ObjSeq, lifespan: u64, clock: u64) {
        self.deaths += 1;
        self.hist.record(lifespan);
        if self.retention == Retention::Full {
            self.exact.push(lifespan);
            self.events.push(TraceEvent::Death {
                obj,
                lifespan,
                clock,
            });
            let thread = self.owners[obj as usize];
            if self.per_thread.len() <= thread {
                self.per_thread.resize(thread + 1, LogHistogram::new());
            }
            self.per_thread[thread].record(lifespan);
        }
    }

    /// Records an object still alive at program exit. Its lifespan is
    /// right-censored at the final clock; it is included in the
    /// distribution (as Elephant Tracks does, treating VM shutdown as the
    /// death time) and counted separately.
    pub fn on_censored(&mut self, obj: ObjSeq, lifespan_so_far: u64, clock: u64) {
        self.censored += 1;
        self.on_death(obj, lifespan_so_far, clock);
        self.deaths -= 1; // counted as censored, not as a true death
    }

    /// Objects allocated.
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Bytes allocated.
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Objects that died before program exit.
    #[must_use]
    pub fn deaths(&self) -> u64 {
        self.deaths
    }

    /// Objects still alive at program exit.
    #[must_use]
    pub fn censored(&self) -> u64 {
        self.censored
    }

    /// The lifespan distribution (log-bucketed).
    #[must_use]
    pub fn histogram(&self) -> &LogHistogram {
        &self.hist
    }

    /// Lifespan CDF: exact under [`Retention::Full`], bucket-resolution
    /// otherwise.
    #[must_use]
    pub fn cdf(&self) -> Cdf {
        match self.retention {
            Retention::Full => Cdf::from_samples(self.exact.clone()),
            Retention::HistogramOnly => Cdf::from_histogram(&self.hist),
        }
    }

    /// Fraction of recorded lifespans strictly below `bytes` — e.g. the
    /// paper's "over 80 % of objects with lifespans of less than 1 KB".
    #[must_use]
    pub fn fraction_below(&self, bytes: u64) -> f64 {
        self.hist.fraction_below(bytes)
    }

    /// Per-allocating-thread lifespan distributions, when the full trace
    /// is retained (`None` otherwise). Index = thread; threads that never
    /// allocated have empty histograms.
    #[must_use]
    pub fn per_thread_histograms(&self) -> Option<&[LogHistogram]> {
        (self.retention == Retention::Full).then_some(self.per_thread.as_slice())
    }

    /// The in-order event trace, when retained.
    #[must_use]
    pub fn events(&self) -> Option<&[TraceEvent]> {
        (self.retention == Retention::Full).then_some(self.events.as_slice())
    }

    /// Captures the tracer's complete internal state for lossless
    /// persistence; [`ObjectTracer::from_snapshot`] rebuilds a tracer
    /// that is `Debug`-identical to the original.
    #[must_use]
    pub fn snapshot(&self) -> TracerSnapshot {
        TracerSnapshot {
            retention: self.retention,
            hist: self.hist.clone(),
            exact: self.exact.clone(),
            events: self.events.clone(),
            next_seq: self.next_seq,
            owners: self.owners.clone(),
            per_thread: self.per_thread.clone(),
            allocations: self.allocations,
            allocated_bytes: self.allocated_bytes,
            deaths: self.deaths,
            censored: self.censored,
        }
    }

    /// Rebuilds a tracer from a [`TracerSnapshot`]. The snapshot is
    /// trusted as-is; this is a persistence hook, not a constructor for
    /// new traces.
    #[must_use]
    pub fn from_snapshot(s: TracerSnapshot) -> Self {
        ObjectTracer {
            retention: s.retention,
            hist: s.hist,
            exact: s.exact,
            events: s.events,
            next_seq: s.next_seq,
            owners: s.owners,
            per_thread: s.per_thread,
            allocations: s.allocations,
            allocated_bytes: s.allocated_bytes,
            deaths: s.deaths,
            censored: s.censored,
        }
    }
}

/// The complete raw state of an [`ObjectTracer`], exposed for lossless
/// persistence (checkpoint/resume). Produced by
/// [`ObjectTracer::snapshot`], consumed by [`ObjectTracer::from_snapshot`].
#[derive(Debug, Clone)]
pub struct TracerSnapshot {
    /// Retention mode of the tracer.
    pub retention: Retention,
    /// The pooled lifespan histogram.
    pub hist: LogHistogram,
    /// Exact lifespans (full retention only).
    pub exact: Vec<u64>,
    /// The in-order event trace (full retention only).
    pub events: Vec<TraceEvent>,
    /// The next object sequence number to assign.
    pub next_seq: ObjSeq,
    /// Allocating thread per trace id (full retention only).
    pub owners: Vec<usize>,
    /// Per-allocating-thread lifespan histograms (full retention only).
    pub per_thread: Vec<LogHistogram>,
    /// Objects allocated.
    pub allocations: u64,
    /// Bytes allocated.
    pub allocated_bytes: u64,
    /// True deaths recorded.
    pub deaths: u64,
    /// Right-censored objects recorded.
    pub censored: u64,
}

impl fmt::Display for ObjectTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace: {} allocs ({} B), {} deaths, {} censored",
            self.allocations, self.allocated_bytes, self.deaths, self.censored
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_death_round_trip() {
        let mut t = ObjectTracer::new(Retention::Full);
        let a = t.on_alloc(0, 100, 100);
        let b = t.on_alloc(1, 50, 150);
        assert_ne!(a, b);
        t.on_death(a, 50, 150);
        assert_eq!(t.allocations(), 2);
        assert_eq!(t.allocated_bytes(), 150);
        assert_eq!(t.deaths(), 1);
        let events = t.events().unwrap();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[2], TraceEvent::Death { obj, lifespan: 50, .. } if obj == a));
    }

    #[test]
    fn histogram_only_drops_events_but_keeps_distribution() {
        let mut t = ObjectTracer::new(Retention::HistogramOnly);
        let a = t.on_alloc(0, 10, 10);
        t.on_death(a, 2048, 2058);
        assert!(t.events().is_none());
        assert_eq!(t.histogram().count(), 1);
        assert!(t.fraction_below(4096) > 0.99);
    }

    #[test]
    fn censored_objects_count_separately_but_enter_distribution() {
        let mut t = ObjectTracer::new(Retention::Full);
        let a = t.on_alloc(0, 10, 10);
        t.on_censored(a, 999, 1009);
        assert_eq!(t.deaths(), 0);
        assert_eq!(t.censored(), 1);
        assert_eq!(t.histogram().count(), 1);
        assert_eq!(t.cdf().quantile(1.0), Some(999));
    }

    #[test]
    fn exact_cdf_under_full_retention() {
        let mut t = ObjectTracer::new(Retention::Full);
        for (i, l) in [100u64, 200, 300, 400].iter().enumerate() {
            let o = t.on_alloc(0, 8, 8 * (i as u64 + 1));
            t.on_death(o, *l, 0);
        }
        let cdf = t.cdf();
        assert_eq!(cdf.fraction_at_most(200), 0.5);
        assert_eq!(cdf.quantile(1.0), Some(400));
    }

    #[test]
    fn snapshot_round_trip_is_debug_identical() {
        let mut t = ObjectTracer::new(Retention::Full);
        let a = t.on_alloc(0, 100, 100);
        let b = t.on_alloc(2, 50, 150);
        t.on_death(a, 50, 150);
        t.on_censored(b, 7, 157);
        let back = ObjectTracer::from_snapshot(t.snapshot());
        assert_eq!(format!("{t:?}"), format!("{back:?}"));
        // And a histogram-only tracer, whose optional state stays empty.
        let mut h = ObjectTracer::new(Retention::HistogramOnly);
        let o = h.on_alloc(0, 8, 8);
        h.on_death(o, 2048, 2056);
        let hb = ObjectTracer::from_snapshot(h.snapshot());
        assert_eq!(format!("{h:?}"), format!("{hb:?}"));
    }

    #[test]
    fn per_thread_histograms_attribute_by_allocator() {
        let mut t = ObjectTracer::new(Retention::Full);
        let a = t.on_alloc(0, 8, 8);
        let b = t.on_alloc(3, 8, 16);
        t.on_death(a, 100, 116);
        t.on_death(b, 9000, 9016);
        let per = t.per_thread_histograms().unwrap();
        assert_eq!(per.len(), 4);
        assert_eq!(per[0].count(), 1);
        assert_eq!(per[0].max(), Some(100));
        assert_eq!(per[3].max(), Some(9000));
        assert!(per[1].is_empty());

        let h = ObjectTracer::new(Retention::HistogramOnly);
        assert!(h.per_thread_histograms().is_none());
    }

    #[test]
    fn display_summarizes() {
        let t = ObjectTracer::new(Retention::HistogramOnly);
        assert!(t.to_string().contains("0 allocs"));
    }
}
