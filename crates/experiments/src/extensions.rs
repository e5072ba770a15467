//! Extension experiments beyond the paper's figures.
//!
//! The paper's characterization invites follow-up questions that its
//! testbed could not isolate but the simulator can:
//!
//! * `ext-ergo` — would HotSpot's adaptive nursery sizing (on by default
//!   for the throughput collector, but pinned for the paper's fixed-heap
//!   methodology) rein in the growing pauses of Figure 2?
//! * `ext-numa` — how much of the GC-time growth is NUMA exposure?
//!   Compact vs. scatter core placement isolates the remote-copy factor.
//! * `ext-sharding` — Figure 1b shows contention growing with threads;
//!   sharding the hottest application lock quantifies how much of it is
//!   a single-monitor artifact.
//! * `ext-gcworkers` — how much do more parallel GC workers help? The
//!   `w / (1 + α(w-1))` synchronization model predicts saturation.
//! * `ext-oversub` — the paper keeps threads = cores; oversubscribing a
//!   fixed 48-core machine exposes preemption-driven lifespan inflation.
//! * `ext-heapsize` — trace-driven replay (the Elephant-Tracks workflow)
//!   sweeps heap sizes over one recorded object population, testing the
//!   paper's "3× minimum heap" methodology.
//! * `ext-concurrent` — would a CMS-like mostly-concurrent old-generation
//!   collector change the paper's conclusion that GC limits scalability?
//!
//! Each sweep study is a run-spec generator plus a table renderer that
//! reads every run's label (variant, placement, shard count, …) off its
//! spec; the artifact registry pairs them. `ext-heapsize` replays a
//! recorded trace outside the sweep, so it keeps its own driver.

use scalesim_core::{
    replay_gc, InvariantViolation, Jvm, JvmConfig, MonitorKind, OldGenPolicy, RunReport, SimError,
};
use scalesim_gc::{GcCostModel, GcKind};
use scalesim_heap::{HeapConfig, NurseryLayout};
use scalesim_machine::Placement;
use scalesim_metrics::{fmt2, fmt_pct, Table};
use scalesim_objtrace::Retention;
use scalesim_simkit::SimDuration;
use scalesim_workloads::AppModel;

use crate::params::ExpParams;
use crate::sweep::{app_model, outcome_cell, per_thread_specs, RunSpec};

fn max_minor_pause(report: &RunReport) -> SimDuration {
    report
        .gc
        .events()
        .iter()
        .filter(|e| matches!(e.kind, GcKind::Minor | GcKind::LocalMinor))
        .map(|e| e.pause)
        .fold(SimDuration::ZERO, SimDuration::max)
}

// ---------------------------------------------------------------------
// ext-ergo: adaptive nursery sizing
// ---------------------------------------------------------------------

/// The adaptive variants' pause goals, as multiples of each
/// configuration's pause floor.
const ERGO_GOALS: [(&str, f64); 2] = [("tight", 1.1), ("relaxed", 4.0)];

/// The floor a configuration's minor pauses cannot go below: fixed
/// overhead plus time-to-safepoint.
fn pause_floor(cfg: &JvmConfig) -> SimDuration {
    let numa = cfg.machine.mean_numa_factor(cfg.cores());
    let cost = GcCostModel::hotspot_like(cfg.gc_workers(), numa);
    SimDuration::from_nanos(cost.pause_floor_ns(cfg.threads + cfg.helper_threads) as u64)
}

/// `ext-ergo`'s runs: per thread count, a fixed nursery, then adaptive
/// sizing under each goal of [`ERGO_GOALS`]. A *tight* goal of 1.1× the
/// floor leaves almost no copy budget, a *relaxed* goal of 4× the floor
/// lets the nursery grow for throughput.
pub(crate) fn ergo_specs(app: &str, params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    let model = app_model(app)?;
    let mut specs = Vec::new();
    for &threads in &params.thread_counts {
        let mut cfg = JvmConfig::builder();
        cfg.threads(threads).seed(params.seed);
        let fixed = cfg.build()?;
        let floor = pause_floor(&fixed);
        specs.push(RunSpec {
            app: model.scaled(params.scale),
            config: fixed,
        });
        for (_, factor) in ERGO_GOALS {
            specs.push(RunSpec {
                app: model.scaled(params.scale),
                config: cfg.pause_goal(floor.mul_f64(factor)).build()?,
            });
        }
    }
    Ok(specs)
}

/// A run's `ext-ergo` variant: `fixed`, or the goal its pause goal is.
fn ergo_variant(cfg: &JvmConfig) -> &'static str {
    let Some(goal) = cfg.pause_goal else {
        return "fixed";
    };
    let floor = pause_floor(cfg);
    let (label, _) = ERGO_GOALS
        .iter()
        .find(|(_, factor)| floor.mul_f64(*factor) == goal)
        .expect("ext-ergo runs take their pause goals from ERGO_GOALS");
    label
}

/// `ext-ergo`'s table.
pub(crate) fn ergo_table(specs: &[RunSpec], reports: &[RunReport]) -> Table {
    let mut t = Table::new(vec![
        "threads",
        "variant",
        "wall",
        "gc",
        "max minor pause",
        "minors",
        "outcome",
    ]);
    for (s, r) in specs.iter().zip(reports) {
        t.row(vec![
            r.threads.to_string(),
            ergo_variant(&s.config).to_owned(),
            r.wall_time.to_string(),
            r.gc_time.to_string(),
            max_minor_pause(r).to_string(),
            r.gc.count(GcKind::Minor).to_string(),
            outcome_cell(&r.outcome),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// ext-numa: placement sensitivity
// ---------------------------------------------------------------------

/// `ext-numa`'s runs: per thread count, compact then scatter placement.
/// The effect is largest at thread counts below one socket's worth of
/// cores, where compact placement stays NUMA-local.
pub(crate) fn numa_specs(app: &str, params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    per_thread_specs(
        app,
        params,
        &[Placement::Compact, Placement::Scatter],
        |cfg, placement| {
            cfg.placement(placement);
        },
    )
}

/// Mean NUMA factor of the cores a configuration enables.
fn numa_factor(cfg: &JvmConfig) -> f64 {
    let cores = cfg.placement.enabled(&cfg.machine, cfg.cores());
    cfg.machine.mean_numa_factor_of(&cores)
}

/// `ext-numa`'s table.
pub(crate) fn numa_table(specs: &[RunSpec], reports: &[RunReport]) -> Table {
    let mut t = Table::new(vec![
        "threads",
        "placement",
        "numa factor",
        "wall",
        "gc",
        "outcome",
    ]);
    for (s, r) in specs.iter().zip(reports) {
        let placement = match s.config.placement {
            Placement::Compact => "compact",
            Placement::Scatter => "scatter",
        };
        t.row(vec![
            r.threads.to_string(),
            placement.to_owned(),
            fmt2(numa_factor(&s.config)),
            r.wall_time.to_string(),
            r.gc_time.to_string(),
            outcome_cell(&r.outcome),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// ext-sharding: splitting the hottest lock
// ---------------------------------------------------------------------

/// `ext-sharding`'s runs: `app`'s lock class `class_idx` sharded 1/2/4/8
/// ways at the sweep's largest thread count.
///
/// # Panics
///
/// Panics if `class_idx` is out of range.
pub(crate) fn sharding_specs(
    app: &str,
    class_idx: usize,
    params: &ExpParams,
) -> Result<Vec<RunSpec>, SimError> {
    let model = app_model(app)?;
    Ok([1, 2, 4, 8]
        .into_iter()
        .map(|k| {
            RunSpec::new(
                model.with_lock_instances(class_idx, k).scaled(params.scale),
                params.max_threads(),
                params.seed,
            )
        })
        .collect())
}

/// `ext-sharding`'s table for lock class `class_idx`.
pub(crate) fn sharding_table(class_idx: usize, specs: &[RunSpec], reports: &[RunReport]) -> Table {
    let mut t = Table::new(vec![
        "app",
        "lock",
        "threads",
        "shards",
        "contentions",
        "rate",
        "wall",
        "outcome",
    ]);
    for (s, r) in specs.iter().zip(reports) {
        let class = &s.app.spec().lock_classes[class_idx];
        // A quarantined stub has no lock report at all; render zeros
        // under its `quar` marker rather than panicking.
        let stats = r
            .locks
            .by_class
            .get(&class.name)
            .copied()
            .unwrap_or_default();
        t.row(vec![
            s.app.name().to_owned(),
            class.name.clone(),
            s.config.threads.to_string(),
            class.instances.to_string(),
            stats.contentions.to_string(),
            fmt_pct(stats.contention_rate()),
            r.wall_time.to_string(),
            outcome_cell(&r.outcome),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// ext-gcworkers: parallel GC worker scaling
// ---------------------------------------------------------------------

/// `ext-gcworkers`' runs: the parallel GC worker count at 1, 2, 4, …
/// and finally the sweep's largest thread count, at that thread count.
pub(crate) fn gc_workers_specs(app: &str, params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    let threads = params.max_threads();
    let mut worker_counts: Vec<usize> = std::iter::successors(Some(1), |w| Some(w * 2))
        .take_while(|&w| w < threads)
        .collect();
    worker_counts.push(threads);
    let params = params.clone().with_threads(vec![threads]);
    per_thread_specs(app, &params, &worker_counts, |cfg, workers| {
        cfg.gc_workers(workers);
    })
}

/// `ext-gcworkers`' table.
pub(crate) fn gc_workers_table(specs: &[RunSpec], reports: &[RunReport]) -> Table {
    let mut t = Table::new(vec![
        "threads",
        "gc workers",
        "gc",
        "max minor pause",
        "wall",
        "outcome",
    ]);
    for (s, r) in specs.iter().zip(reports) {
        t.row(vec![
            s.config.threads.to_string(),
            s.config.gc_workers().to_string(),
            r.gc_time.to_string(),
            max_minor_pause(r).to_string(),
            r.wall_time.to_string(),
            outcome_cell(&r.outcome),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// ext-oversub: threads beyond cores
// ---------------------------------------------------------------------

/// `ext-oversub`'s runs: 48 cores enabled, threads at 1×/2×/4× the core
/// count. The paper never oversubscribes (threads = cores); this shows
/// that its lifespan-inflation mechanism strengthens when threads
/// time-share cores and quantum preemption suspends them mid-item.
pub(crate) fn oversub_specs(app: &str, params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    const CORES: usize = 48;
    let params = params
        .clone()
        .with_threads(vec![CORES, 2 * CORES, 4 * CORES]);
    per_thread_specs(app, &params, &[CORES], |cfg, cores| {
        cfg.cores(cores);
    })
}

/// `ext-oversub`'s table.
pub(crate) fn oversub_table(specs: &[RunSpec], reports: &[RunReport]) -> Table {
    let mut t = Table::new(vec![
        "cores",
        "threads",
        "preemptions",
        "<1KiB",
        "gc",
        "wall",
        "outcome",
    ]);
    for (s, r) in specs.iter().zip(reports) {
        let preemptions: u64 = r.per_thread.iter().map(|t| t.preemptions).sum();
        t.row(vec![
            s.config.cores().to_string(),
            s.config.threads.to_string(),
            preemptions.to_string(),
            fmt_pct(r.trace.fraction_below(1 << 10)),
            r.gc_time.to_string(),
            r.wall_time.to_string(),
            outcome_cell(&r.outcome),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// ext-heapsize: trace-driven heap-size sweep
// ---------------------------------------------------------------------

/// One row of the heap-size study.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapSizeRow {
    /// Heap size as a multiple of the app's minimum requirement.
    pub factor: f64,
    /// Heap size in bytes.
    pub heap_bytes: u64,
    /// Minor collections during replay.
    pub minors: usize,
    /// Full collections during replay.
    pub fulls: usize,
    /// Total GC pause time.
    pub gc: SimDuration,
    /// Mean nursery survival rate.
    pub survival: f64,
}

/// The heap-size study: one recorded trace replayed at several heap
/// sizes (the Elephant-Tracks trace-driven GC-simulation workflow).
#[derive(Debug, Clone, PartialEq)]
pub struct HeapSizeStudy {
    /// App the trace was recorded from.
    pub app: String,
    /// Threads the trace was recorded under.
    pub threads: usize,
    /// Objects in the trace.
    pub objects: u64,
    /// One row per heap-size factor.
    pub rows: Vec<HeapSizeRow>,
}

impl HeapSizeStudy {
    /// The row for a given factor.
    #[must_use]
    pub fn row(&self, factor: f64) -> Option<&HeapSizeRow> {
        self.rows.iter().find(|r| (r.factor - factor).abs() < 1e-9)
    }

    /// Renders the table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "app",
            "threads",
            "heap (x min)",
            "minors",
            "fulls",
            "gc",
            "survival",
        ]);
        for r in &self.rows {
            t.row(vec![
                self.app.clone(),
                self.threads.to_string(),
                format!("{:.1}x", r.factor),
                r.minors.to_string(),
                r.fulls.to_string(),
                r.gc.to_string(),
                fmt_pct(r.survival),
            ]);
        }
        t
    }
}

/// Runs `ext-heapsize` on `app`: records one full object trace at the
/// sweep's largest thread count, then replays it at 1.5×–6× the app's
/// minimum heap.
///
/// Note: full-trace retention is memory-proportional to the object
/// count; prefer `--scale` ≤ 0.5 for paper-sized workloads.
///
/// # Errors
///
/// Returns [`SimError::UnknownApp`] for an unknown `app` and propagates
/// configuration errors or an engine failure in the recording run.
pub fn run_heap_size(app: &str, params: &ExpParams) -> Result<HeapSizeStudy, SimError> {
    let model = app_model(app)?;
    let threads = params.max_threads();
    let scaled = model.scaled(params.scale);

    let mut cfg = JvmConfig::builder();
    cfg.threads(threads)
        .seed(params.seed)
        .retention(Retention::Full);
    let report = Jvm::new(cfg.build()?).run(&scaled)?;
    let events = report.trace.events().ok_or_else(|| {
        SimError::Invariant(InvariantViolation {
            kind: MonitorKind::HeapConservation,
            detail: "recording run with Retention::Full kept no object events".to_owned(),
        })
    })?;

    let min_heap = scaled.spec().min_heap_bytes;
    let gc_model = GcCostModel::hotspot_like(
        threads,
        scalesim_machine::MachineTopology::amd_6168().mean_numa_factor(threads.min(48)),
    );
    let rows = [1.5f64, 2.0, 3.0, 4.0, 6.0]
        .into_iter()
        .map(|factor| {
            let heap_bytes = (min_heap as f64 * factor) as u64;
            let heap_cfg = HeapConfig::new(heap_bytes, 1.0 / 3.0, NurseryLayout::Shared);
            let out = replay_gc(events, heap_cfg, gc_model, threads);
            HeapSizeRow {
                factor,
                heap_bytes,
                minors: out.gc.count(GcKind::Minor),
                fulls: out.gc.count(GcKind::Full),
                gc: out.gc.total_pause(),
                survival: out.gc.minor_survival_rate().unwrap_or(0.0),
            }
        })
        .collect();
    Ok(HeapSizeStudy {
        app: app.to_owned(),
        threads,
        objects: report.trace.allocations(),
        rows,
    })
}

#[cfg(test)]
mod heapsize_tests {
    use super::*;

    #[test]
    fn gc_time_falls_with_heap_size_with_diminishing_returns() {
        let params = ExpParams::quick().with_scale(0.05).with_threads(vec![16]);
        let study = run_heap_size("xalan", &params).unwrap();
        assert_eq!(study.rows.len(), 5);
        assert!(study.objects > 0);

        let gc: Vec<f64> = study.rows.iter().map(|r| r.gc.as_secs_f64()).collect();
        assert!(
            gc.windows(2).all(|w| w[1] <= w[0] * 1.05),
            "GC time should fall (or hold) as the heap grows: {gc:?}"
        );
        // tight heaps pay heavily relative to generous ones
        assert!(
            gc[0] > gc[4] * 2.0,
            "1.5x min heap should cost >2x the GC time of 6x: {gc:?}"
        );
    }

    #[test]
    fn minor_count_scales_inversely_with_nursery() {
        let params = ExpParams::quick().with_scale(0.02).with_threads(vec![8]);
        let study = run_heap_size("lusearch", &params).unwrap();
        let small = study.row(1.5).expect("1.5x");
        let large = study.row(6.0).expect("6x");
        assert!(
            small.minors > large.minors * 2,
            "{} vs {}",
            small.minors,
            large.minors
        );
    }
}

// ---------------------------------------------------------------------
// ext-concurrent: mostly-concurrent old generation
// ---------------------------------------------------------------------

/// `ext-concurrent`'s runs: per thread count, the paper's STW throughput
/// collector, then a CMS-like mostly-concurrent old generation.
pub(crate) fn concurrent_specs(app: &str, params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    per_thread_specs(
        app,
        params,
        &[OldGenPolicy::StwFull, OldGenPolicy::MostlyConcurrent],
        |cfg, policy| {
            cfg.old_gen(policy);
        },
    )
}

/// A run's old-generation record under `policy`: the policy's label,
/// the worst single old-generation pause (a full GC, or one concurrent
/// phase), old-gen collections (full GCs, or completed concurrent
/// cycles), and STW full GCs under the concurrent policy — "concurrent
/// mode failures".
fn old_gen_stats(policy: OldGenPolicy, r: &RunReport) -> (&'static str, SimDuration, usize, usize) {
    let max_of = |kind: GcKind| {
        r.gc.events()
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.pause)
            .max()
            .unwrap_or(SimDuration::ZERO)
    };
    let fulls = r.gc.count(GcKind::Full);
    match policy {
        OldGenPolicy::MostlyConcurrent => (
            "concurrent",
            max_of(GcKind::ConcurrentOld).max(max_of(GcKind::Full)),
            r.gc.count(GcKind::ConcurrentOld) / 2, // two phases per cycle
            fulls,
        ),
        OldGenPolicy::StwFull => ("stw-full", max_of(GcKind::Full), fulls, 0),
    }
}

/// `ext-concurrent`'s table.
pub(crate) fn concurrent_table(specs: &[RunSpec], reports: &[RunReport]) -> Table {
    let mut t = Table::new(vec![
        "threads",
        "old-gen policy",
        "wall",
        "gc stw",
        "worst old pause",
        "old collections",
        "cmf",
        "outcome",
    ]);
    for (s, r) in specs.iter().zip(reports) {
        let (policy, worst_old, old_collections, failures) = old_gen_stats(s.config.old_gen, r);
        t.row(vec![
            r.threads.to_string(),
            policy.to_owned(),
            r.wall_time.to_string(),
            r.gc_time.to_string(),
            worst_old.to_string(),
            old_collections.to_string(),
            failures.to_string(),
            outcome_cell(&r.outcome),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_all;

    /// Runs `specs` through the sweep, pairing each spec with its report.
    fn runs(specs: Result<Vec<RunSpec>, SimError>) -> Vec<(RunSpec, RunReport)> {
        let specs = specs.unwrap();
        let reports = run_all(&specs);
        specs.into_iter().zip(reports).collect()
    }

    /// The report of the run whose spec satisfies `pick`.
    fn find(runs: &[(RunSpec, RunReport)], pick: impl Fn(&RunSpec) -> bool) -> &RunReport {
        &runs.iter().find(|(s, _)| pick(s)).expect("run present").1
    }

    #[test]
    fn ergonomics_produces_three_variants_per_thread_count() {
        let params = ExpParams::quick().with_scale(0.02).with_threads(vec![16]);
        let runs = runs(ergo_specs("xalan", &params));
        let variants: Vec<&str> = runs.iter().map(|(s, _)| ergo_variant(&s.config)).collect();
        assert_eq!(variants, ["fixed", "tight", "relaxed"]);
        assert!(runs.iter().all(|(s, _)| s.config.threads == 16));
        let (specs, reports): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
        assert_eq!(ergo_table(&specs, &reports).num_rows(), 3);
    }

    #[test]
    fn adaptive_sizing_never_storms() {
        // The historical failure mode: an unachievable goal shrinking the
        // nursery into a collection storm. With floor-aware control, GC
        // time under any goal stays within a small factor of fixed.
        let params = ExpParams::quick().with_scale(0.1).with_threads(vec![32]);
        let runs = runs(ergo_specs("xalan", &params));
        let fixed = find(&runs, |s| ergo_variant(&s.config) == "fixed");
        for variant in ["tight", "relaxed"] {
            let v = find(&runs, |s| ergo_variant(&s.config) == variant);
            assert!(
                v.gc_time.as_secs_f64() < fixed.gc_time.as_secs_f64() * 3.0,
                "{variant}: gc {} vs fixed {}",
                v.gc_time,
                fixed.gc_time
            );
        }
    }

    #[test]
    fn relaxed_goal_trades_pause_for_fewer_collections() {
        let params = ExpParams::quick().with_scale(0.1).with_threads(vec![8]);
        let runs = runs(ergo_specs("xalan", &params));
        let minors = |variant: &str| {
            find(&runs, |s| ergo_variant(&s.config) == variant)
                .gc
                .count(GcKind::Minor)
        };
        assert!(
            minors("relaxed") <= minors("fixed"),
            "growing the nursery must not collect more often: {} vs {}",
            minors("relaxed"),
            minors("fixed")
        );
    }

    #[test]
    fn numa_scatter_is_more_exposed_and_slower_gc() {
        let params = ExpParams::quick().with_scale(0.05).with_threads(vec![8]);
        let runs = runs(numa_specs("xalan", &params));
        let [(compact_spec, compact), (scatter_spec, scatter)] = &runs[..] else {
            panic!("expected compact and scatter runs");
        };
        assert_eq!(compact_spec.config.placement, Placement::Compact);
        assert_eq!(numa_factor(&compact_spec.config), 1.0);
        assert!(numa_factor(&scatter_spec.config) > 1.3);
        assert!(
            scatter.gc_time > compact.gc_time,
            "{} vs {}",
            scatter.gc_time,
            compact.gc_time
        );
    }

    #[test]
    fn sharding_reduces_contention_on_the_hot_class() {
        let params = ExpParams::quick().with_scale(0.05).with_threads(vec![32]);
        // xalan lock class 1 = dtm-cache
        let runs = runs(sharding_specs("xalan", 1, &params));
        assert_eq!(runs.len(), 4);
        let contentions = |i: usize| {
            let (spec, report) = &runs[i];
            let class = &spec.app.spec().lock_classes[1];
            assert_eq!(class.name, "dtm-cache");
            report.locks.by_class[&class.name].contentions
        };
        assert!(
            contentions(3) * 2 < contentions(0),
            "8 shards: {} vs 1 shard: {}",
            contentions(3),
            contentions(0)
        );
    }

    #[test]
    fn gc_workers_help_but_saturate() {
        let params = ExpParams::quick().with_scale(0.1).with_threads(vec![32]);
        let runs = runs(gc_workers_specs("xalan", &params));
        assert!(runs.iter().all(|(s, _)| s.config.threads == 32));
        assert!(runs.len() >= 5);
        let gc: Vec<f64> = runs.iter().map(|(_, r)| r.gc_time.as_secs_f64()).collect();
        let n = gc.len();
        assert!(gc[n - 1] < gc[0], "more workers must reduce GC time");
        // diminishing returns: the last doubling helps less than the first
        let first_gain = gc[0] / gc[1];
        let last_gain = gc[n - 2] / gc[n - 1];
        assert!(
            first_gain > last_gain,
            "first doubling {first_gain:.3}x, last {last_gain:.3}x"
        );
    }

    #[test]
    fn oversubscription_hurts_gc_disproportionately() {
        let params = ExpParams::quick().with_scale(0.1);
        let runs = runs(oversub_specs("xalan", &params));
        assert_eq!(runs.len(), 3);
        let matched = &runs[0].1;
        let four_x = &runs[2].1;
        // Threads time-sharing 48 cores gain no mutator capacity but keep
        // more carried objects alive, so GC time grows much faster than
        // wall time.
        let gc_growth = four_x.gc_time.as_secs_f64() / matched.gc_time.as_secs_f64();
        let wall_growth = four_x.wall_time.as_secs_f64() / matched.wall_time.as_secs_f64();
        assert!(gc_growth > 1.5, "gc growth {gc_growth:.2}");
        assert!(
            gc_growth > wall_growth,
            "gc x{gc_growth:.2} should outpace wall x{wall_growth:.2}"
        );
        // ... and lifespans never get shorter under time-sharing.
        let below_1k = |r: &RunReport| r.trace.fraction_below(1 << 10);
        assert!(below_1k(four_x) <= below_1k(matched) + 0.02);
    }

    #[test]
    fn concurrent_policy_bounds_the_worst_old_gen_pause() {
        // Needs enough promotion pressure for old-gen collections: full
        // scale at 48 threads (see Figure 2's full-GC column).
        let params = ExpParams::paper().with_threads(vec![48]);
        let runs = runs(concurrent_specs("xalan", &params));
        assert_eq!(runs.len(), 2);
        let (_, stw_worst, stw_old, _) = old_gen_stats(OldGenPolicy::StwFull, &runs[0].1);
        let (_, conc_worst, conc_old, _) =
            old_gen_stats(OldGenPolicy::MostlyConcurrent, &runs[1].1);
        assert!(stw_old > 0, "baseline needs full GCs");
        assert!(conc_old > 0, "cycles must run");
        assert!(conc_worst < stw_worst, "{conc_worst} vs {stw_worst}");
    }
}
