//! Run reports: everything a paper figure needs, from one run.

use std::fmt;

use scalesim_gc::{Collector, GcKind, GcLog};
use scalesim_heap::HeapStats;
use scalesim_metrics::{LogHistogram, Summary};
use scalesim_objtrace::ObjectTracer;
use scalesim_sched::StateTimes;
use scalesim_simkit::{AbortReason, SimDuration, SimTime};
use scalesim_sync::{LockReport, LockTable};
use scalesim_trace::{to_chrome_json, write_atomic, CounterId, Counters, Timeline};

use crate::config::JvmConfig;

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum RunOutcome {
    /// The run executed to completion.
    #[default]
    Ok,
    /// A run budget expired; the report carries partial metrics up to the
    /// truncation point.
    Truncated(AbortReason),
    /// The run crashed or kept failing; the sweep harness quarantined it
    /// and the report carries no metrics.
    Quarantined(String),
}

impl RunOutcome {
    /// True for a clean, complete run.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, RunOutcome::Ok)
    }

    /// Short marker for table cells: empty when ok, `trunc`/`quar`
    /// otherwise.
    #[must_use]
    pub fn marker(&self) -> &'static str {
        match self {
            RunOutcome::Ok => "",
            RunOutcome::Truncated(_) => "trunc",
            RunOutcome::Quarantined(_) => "quar",
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Ok => write!(f, "ok"),
            RunOutcome::Truncated(reason) => write!(f, "truncated: {reason}"),
            RunOutcome::Quarantined(why) => write!(f, "quarantined: {why}"),
        }
    }
}

/// Per-mutator-thread results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThreadReport {
    /// Work items the thread completed.
    pub items_done: u64,
    /// Per-state time accounting.
    pub times: StateTimes,
    /// Times the thread was placed on a core.
    pub dispatches: u64,
    /// Times the thread was preempted at quantum expiry.
    pub preemptions: u64,
}

/// Request-level results from a server-workload run.
///
/// Attempts partition into completions, sheds and timeouts; whatever is
/// still unsettled at the horizon is `in_flight`, so
/// `arrivals == goodput + orphan_completions + sheds + timeouts + in_flight`
/// holds exactly ([`ServerStats::conserves`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ServerStats {
    /// Policy label from the spec ("naive", "robust", …).
    pub policy: String,
    /// Request attempts issued (first attempts and retries).
    pub arrivals: u64,
    /// Attempts completed within their client's timeout.
    pub goodput: u64,
    /// Attempts the server finished after the client had already timed
    /// out — wasted (orphan) work, the retry storm's fuel.
    pub orphan_completions: u64,
    /// Attempts shed at the door or at dequeue.
    pub sheds: u64,
    /// Attempts whose client-side timeout fired first.
    pub timeouts: u64,
    /// Retries issued by clients.
    pub retries: u64,
    /// Attempts still unsettled at the horizon.
    pub in_flight: u64,
    /// True when degraded-mode priority shedding engaged at least once.
    pub degraded: bool,
    /// Attempt-to-reply latency of in-deadline completions, nanoseconds.
    pub latency: LogHistogram,
    /// Accept-queue depth sampled at each arrival.
    pub queue_depth: LogHistogram,
    /// Goodput restricted to attempts arriving in the measurement tail
    /// `[measure_from, horizon)` — the metastability verdict window.
    pub tail_goodput: u64,
    /// First attempts arriving in the measurement tail (denominator for
    /// the tail goodput ratio).
    pub tail_arrivals: u64,
}

impl ServerStats {
    /// Latency quantile in nanoseconds (`None` when nothing completed).
    #[must_use]
    pub fn latency_p(&self, q: f64) -> Option<u64> {
        self.latency.quantile(q)
    }

    /// Checks the attempt-conservation invariant.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.arrivals
            == self.goodput + self.orphan_completions + self.sheds + self.timeouts + self.in_flight
    }

    /// Tail goodput as a fraction of tail first-attempts, in `[0, 1]`.
    #[must_use]
    pub fn tail_goodput_ratio(&self) -> f64 {
        if self.tail_arrivals == 0 {
            0.0
        } else {
            self.tail_goodput as f64 / self.tail_arrivals as f64
        }
    }
}

/// Everything measured during one simulated run.
///
/// * Figure 1a/1b read [`RunReport::locks`],
/// * Figure 1c/1d read [`RunReport::trace`],
/// * Figure 2 reads [`RunReport::mutator_wall`] / [`RunReport::gc_time`],
/// * the workload-distribution analysis reads [`RunReport::per_thread`].
#[derive(Debug, Clone, Hash)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Configured mutator threads.
    pub threads: usize,
    /// Enabled cores.
    pub cores: usize,
    /// End-to-end execution time.
    pub wall_time: SimDuration,
    /// Sum of stop-the-world pauses — the paper's "GC time".
    pub gc_time: SimDuration,
    /// Aggregate on-CPU time over all mutator threads.
    pub mutator_cpu: SimDuration,
    /// The collection log.
    pub gc: GcLog,
    /// The DTrace-analog lock report.
    pub locks: LockReport,
    /// The Elephant-Tracks-analog object trace.
    pub trace: ObjectTracer,
    /// Heap counters.
    pub heap: HeapStats,
    /// Per-mutator-thread breakdown (index = thread).
    pub per_thread: Vec<ThreadReport>,
    /// Total simulation events processed (diagnostics).
    pub events_processed: u64,
    /// The counters registry at end of run (always populated; O(1) fixed
    /// slots, deterministic).
    pub counters: Counters,
    /// The merged deterministic timeline (empty unless the config enabled
    /// tracing).
    pub timeline: Timeline,
    /// Host-side wall-clock nanoseconds the simulation took, as measured
    /// by the runner (0 when not measured). Purely diagnostic: tables and
    /// the analytics and audit fingerprints never read it, and memoized
    /// sweeps report the timing of the one simulation that actually ran.
    /// It *is* part of the sweep's memo content fingerprint, which guards
    /// a stored copy of this exact report rather than the simulation.
    pub host_ns: u64,
    /// How the run ended: complete, budget-truncated, or quarantined by
    /// the sweep harness.
    pub outcome: RunOutcome,
    /// Request-level results when the run executed a server workload.
    pub server: Option<ServerStats>,
}

impl RunReport {
    /// Builds the metric-less placeholder report the sweep harness emits
    /// for a quarantined `(app, config, seed)` combination.
    #[must_use]
    pub fn quarantined(app: &str, threads: usize, cores: usize, why: String) -> RunReport {
        RunReport {
            app: app.to_owned(),
            threads,
            cores,
            wall_time: SimDuration::ZERO,
            gc_time: SimDuration::ZERO,
            mutator_cpu: SimDuration::ZERO,
            gc: GcLog::new(),
            locks: LockReport::default(),
            trace: ObjectTracer::new(scalesim_objtrace::Retention::HistogramOnly),
            heap: HeapStats::default(),
            per_thread: Vec::new(),
            events_processed: 0,
            counters: Counters::new(),
            timeline: Timeline::disabled(),
            host_ns: 0,
            outcome: RunOutcome::Quarantined(why),
            server: None,
        }
    }

    /// The report tail both engines share: accounts the partial waits of
    /// threads still queued on monitors after an early stop, merges the
    /// timelines, fills the gauge counters and writes the trace file. The
    /// engine sets `app`, `mutator_cpu`, `heap`, `per_thread`, and `trace`
    /// or `server`.
    pub(crate) fn close(
        config: &JvmConfig,
        (wall, outcome): (SimTime, RunOutcome),
        mut locks: LockTable,
        mut collector: Collector,
        [sched, engine]: [Timeline; 2],
        events_processed: u64,
        counters: Counters,
    ) -> RunReport {
        if !outcome.is_ok() {
            locks.finalize(wall);
        }
        // The collector's recorder must be taken before `into_log`
        // consumes it.
        let timeline = Timeline::merge(vec![
            sched,
            locks.take_timeline(),
            collector.take_timeline(),
            engine,
        ]);
        let mut report = RunReport {
            app: String::new(),
            threads: config.threads,
            cores: config.cores(),
            wall_time: wall.saturating_since(SimTime::ZERO),
            gc_time: collector.log().total_pause(),
            mutator_cpu: SimDuration::ZERO,
            gc: collector.into_log(),
            locks: locks.report(),
            trace: ObjectTracer::new(config.retention),
            heap: HeapStats::default(),
            per_thread: Vec::new(),
            events_processed,
            counters,
            timeline,
            host_ns: 0,
            outcome,
            server: None,
        };
        let (gc, counters) = (&report.gc, &mut report.counters);
        for (id, kind) in [
            (CounterId::MinorGcs, GcKind::Minor),
            (CounterId::LocalMinorGcs, GcKind::LocalMinor),
            (CounterId::FullGcs, GcKind::Full),
            (CounterId::ConcGcPhases, GcKind::ConcurrentOld),
        ] {
            counters.set(id, gc.count(kind) as u64);
        }
        counters.set(CounterId::EventsProcessed, report.events_processed);
        counters.set(CounterId::TimelineDropped, report.timeline.dropped());
        if let Some(path) = &config.trace.path {
            if report.timeline.is_enabled() {
                if let Err(e) = write_atomic(path.as_ref(), to_chrome_json(&report.timeline)) {
                    eprintln!("scalesim: failed to write trace to {path}: {e}");
                }
            }
        }
        report
    }

    /// Wall time minus GC pauses — the paper's "mutator time" component
    /// of total execution.
    #[must_use]
    pub fn mutator_wall(&self) -> SimDuration {
        self.wall_time.saturating_sub(self.gc_time)
    }

    /// GC share of total execution, in `[0, 1]`.
    #[must_use]
    pub fn gc_share(&self) -> f64 {
        if self.wall_time.is_zero() {
            0.0
        } else {
            self.gc_time.as_secs_f64() / self.wall_time.as_secs_f64()
        }
    }

    /// Total items completed across threads.
    #[must_use]
    pub fn total_items(&self) -> u64 {
        self.per_thread.iter().map(|t| t.items_done).sum()
    }

    /// Per-thread item shares (fractions of total, one per thread).
    #[must_use]
    pub fn work_shares(&self) -> Vec<f64> {
        let total = self.total_items().max(1) as f64;
        self.per_thread
            .iter()
            .map(|t| t.items_done as f64 / total)
            .collect()
    }

    /// Workload-imbalance summary over per-thread item counts — CV near 0
    /// means "nearly uniform distribution of workload among threads"
    /// (§III); large CV means a few threads do most of the work.
    #[must_use]
    pub fn work_distribution(&self) -> Summary {
        let counts: Vec<f64> = self
            .per_thread
            .iter()
            .map(|t| t.items_done as f64)
            .collect();
        Summary::from_samples(&counts)
    }

    /// How many threads carry 90 % of the work (smallest such set).
    #[must_use]
    pub fn threads_for_90pct_work(&self) -> usize {
        let mut counts: Vec<u64> = self.per_thread.iter().map(|t| t.items_done).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let mut acc = 0u64;
        for (i, c) in counts.iter().enumerate() {
            acc += c;
            if acc as f64 >= 0.9 * total as f64 {
                return i + 1;
            }
        }
        counts.len()
    }

    /// Aggregate suspension time (alive but not executing) over mutators.
    #[must_use]
    pub fn total_suspension(&self) -> SimDuration {
        self.per_thread.iter().map(|t| t.times.suspended()).sum()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} with {} threads on {} cores:",
            self.app, self.threads, self.cores
        )?;
        if !self.outcome.is_ok() {
            writeln!(f, "  outcome: {}", self.outcome)?;
        }
        writeln!(
            f,
            "  wall {}  (mutator {}, gc {} = {:.1}%)",
            self.wall_time,
            self.mutator_wall(),
            self.gc_time,
            self.gc_share() * 100.0
        )?;
        writeln!(f, "  {}", self.gc)?;
        writeln!(
            f,
            "  locks: {} acquisitions, {} contentions",
            self.locks.total.acquisitions, self.locks.total.contentions
        )?;
        write!(f, "  {}", self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_objtrace::Retention;

    fn report_with_items(items: &[u64]) -> RunReport {
        RunReport {
            app: "test".into(),
            threads: items.len(),
            cores: items.len(),
            wall_time: SimDuration::from_millis(100),
            gc_time: SimDuration::from_millis(20),
            mutator_cpu: SimDuration::from_millis(300),
            gc: GcLog::new(),
            locks: LockReport::default(),
            trace: ObjectTracer::new(Retention::HistogramOnly),
            heap: HeapStats::default(),
            per_thread: items
                .iter()
                .map(|&n| ThreadReport {
                    items_done: n,
                    times: StateTimes::default(),
                    dispatches: 0,
                    preemptions: 0,
                })
                .collect(),
            events_processed: 0,
            counters: Counters::new(),
            timeline: Timeline::disabled(),
            host_ns: 0,
            outcome: RunOutcome::Ok,
            server: None,
        }
    }

    #[test]
    fn mutator_wall_and_gc_share() {
        let r = report_with_items(&[10, 10]);
        assert_eq!(r.mutator_wall(), SimDuration::from_millis(80));
        assert!((r.gc_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn work_shares_sum_to_one() {
        let r = report_with_items(&[30, 10, 40, 20]);
        let shares = r.work_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(shares[2], 0.4);
        assert_eq!(r.total_items(), 100);
    }

    #[test]
    fn imbalance_distinguishes_uniform_from_skewed() {
        let uniform = report_with_items(&[25, 25, 25, 25]);
        let skewed = report_with_items(&[97, 1, 1, 1]);
        assert!(uniform.work_distribution().coefficient_of_variation() < 0.01);
        assert!(skewed.work_distribution().coefficient_of_variation() > 1.0);
    }

    #[test]
    fn threads_for_90pct_work() {
        let uniform = report_with_items(&[25, 25, 25, 25]);
        assert_eq!(uniform.threads_for_90pct_work(), 4);
        let skewed = report_with_items(&[90, 4, 3, 2, 1, 0, 0, 0]);
        assert_eq!(skewed.threads_for_90pct_work(), 1);
        let empty = report_with_items(&[0, 0]);
        assert_eq!(empty.threads_for_90pct_work(), 0);
    }

    #[test]
    fn display_is_informative() {
        let r = report_with_items(&[1]);
        let s = r.to_string();
        assert!(s.contains("test with 1 threads"), "{s}");
        assert!(s.contains("gc"), "{s}");
        assert!(!s.contains("outcome"), "clean runs stay terse: {s}");
    }

    #[test]
    fn quarantined_report_is_marked_and_metricless() {
        let r = RunReport::quarantined("xalan", 8, 8, "worker panicked".to_owned());
        assert!(!r.outcome.is_ok());
        assert_eq!(r.outcome.marker(), "quar");
        assert_eq!(r.total_items(), 0);
        let s = r.to_string();
        assert!(s.contains("quarantined: worker panicked"), "{s}");
    }

    #[test]
    fn outcome_markers() {
        use scalesim_simkit::AbortReason;
        assert_eq!(RunOutcome::Ok.marker(), "");
        assert_eq!(
            RunOutcome::Truncated(AbortReason::MaxEvents(7)).marker(),
            "trunc"
        );
        assert!(RunOutcome::Truncated(AbortReason::MaxEvents(7))
            .to_string()
            .contains("event budget"));
    }
}
