//! Ablations for the paper's two future-work proposals (§IV).
//!
//! 1. **Biased scheduling** — "worker threads are scheduled at the
//!    different phases of the execution to reduce competitions for heap
//!    and locks": cohort scheduling restricts which threads run
//!    concurrently, lowering the aggregate allocation rate each in-flight
//!    object is exposed to.
//! 2. **Compartmentalized heap** — "isolate objects from lifetime
//!    interference": per-thread nursery heaplets make an object's
//!    survival depend only on its own thread's allocation, not the
//!    VM-wide clock.
//!
//! Both are expected to reduce nursery survival and GC time at high
//! thread counts, potentially at some wall-time cost (biased scheduling
//! deliberately idles cores).

use scalesim_core::{JvmConfig, RunOutcome, RunReport, SimError};
use scalesim_metrics::{fmt2, fmt_pct, Table};
use scalesim_sched::SchedPolicy;
use scalesim_simkit::SimDuration;

use crate::params::ExpParams;
use crate::sweep::{outcome_cell, per_thread_specs, run_all, RunSpec};

/// One measured configuration in an ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Application name.
    pub app: String,
    /// Thread count.
    pub threads: usize,
    /// Variant label (`baseline`, `biased-2`, `heaplets`, …).
    pub variant: String,
    /// End-to-end wall time.
    pub wall: SimDuration,
    /// Total GC pause time (for heaplets this sums *thread-local* pauses
    /// that overlap in wall time, so it can exceed its wall contribution).
    pub gc: SimDuration,
    /// Longest single pause.
    pub max_pause: SimDuration,
    /// Fraction of objects with lifespans below 1 KiB.
    pub frac_below_1k: f64,
    /// Mean nursery survival rate across minor collections.
    pub survival: f64,
    /// Bytes promoted to the mature generation.
    pub promoted: u64,
    /// How the run behind this row ended.
    pub outcome: RunOutcome,
}

impl AblationRow {
    fn from_report(variant: String, r: &RunReport) -> Self {
        AblationRow {
            app: r.app.clone(),
            threads: r.threads,
            variant,
            wall: r.wall_time,
            gc: r.gc_time,
            max_pause: r.gc.max_pause(),
            frac_below_1k: r.trace.fraction_below(1 << 10),
            survival: r.gc.minor_survival_rate().unwrap_or(0.0),
            promoted: r.gc.promoted_bytes(),
            outcome: r.outcome.clone(),
        }
    }
}

/// An ablation study: baseline vs. variants over a thread sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// All measured rows.
    pub rows: Vec<AblationRow>,
}

impl Ablation {
    /// The row for `(variant, threads)`.
    #[must_use]
    pub fn row(&self, variant: &str, threads: usize) -> Option<&AblationRow> {
        self.rows
            .iter()
            .find(|r| r.variant == variant && r.threads == threads)
    }

    /// `gc_variant / gc_baseline` at a thread count (`< 1.0` means the
    /// variant reduced GC time).
    #[must_use]
    pub fn gc_ratio(&self, variant: &str, threads: usize) -> Option<f64> {
        let v = self.row(variant, threads)?.gc.as_secs_f64();
        let b = self.row("baseline", threads)?.gc.as_secs_f64();
        (b > 0.0).then(|| v / b)
    }

    /// Renders the table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "app",
            "threads",
            "variant",
            "wall",
            "gc",
            "max pause",
            "<1KiB",
            "survival",
            "promoted",
            "outcome",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.clone(),
                r.threads.to_string(),
                r.variant.clone(),
                r.wall.to_string(),
                r.gc.to_string(),
                r.max_pause.to_string(),
                fmt_pct(r.frac_below_1k),
                fmt2(r.survival * 100.0) + "%",
                r.promoted.to_string(),
                outcome_cell(&r.outcome),
            ]);
        }
        t
    }
}

/// The variant an ablation run measures, read off its configuration.
pub(crate) fn variant_of(config: &JvmConfig) -> String {
    match config.policy {
        SchedPolicy::Biased { cohorts } => format!("biased-{cohorts}"),
        SchedPolicy::Fair if config.heaplets => "heaplets".to_owned(),
        SchedPolicy::Fair => "baseline".to_owned(),
    }
}

/// The study drawn from an ablation's specs and their reports.
pub(crate) fn ablation_study(specs: &[RunSpec], reports: &[RunReport]) -> Ablation {
    Ablation {
        rows: specs
            .iter()
            .zip(reports)
            .map(|(s, r)| AblationRow::from_report(variant_of(&s.config), r))
            .collect(),
    }
}

/// `abl-sched`'s runs: per thread count, fair scheduling, then biased
/// cohort scheduling with 2 and 4 cohorts.
pub(crate) fn biased_sched_specs(app: &str, params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    let policies = [
        SchedPolicy::Fair,
        SchedPolicy::Biased { cohorts: 2 },
        SchedPolicy::Biased { cohorts: 4 },
    ];
    per_thread_specs(app, params, &policies, |cfg, policy| {
        cfg.policy(policy);
    })
}

/// `abl-heap`'s runs: per thread count, a shared nursery, then
/// per-thread heaplets.
pub(crate) fn heaplet_specs(app: &str, params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    per_thread_specs(app, params, &[false, true], |cfg, heaplets| {
        cfg.heaplets(heaplets);
    })
}

/// Ablation `abl-sched`: fair scheduling vs. biased cohort scheduling
/// (2 and 4 cohorts) on `app`.
///
/// # Errors
///
/// Returns [`SimError::UnknownApp`] for an unknown `app` and propagates
/// configuration errors.
pub fn run_biased_sched(app: &str, params: &ExpParams) -> Result<Ablation, SimError> {
    let specs = biased_sched_specs(app, params)?;
    Ok(ablation_study(&specs, &run_all(&specs)))
}

/// Ablation `abl-heap`: shared nursery vs. per-thread heaplets on `app`.
///
/// # Errors
///
/// Returns [`SimError::UnknownApp`] for an unknown `app` and propagates
/// configuration errors.
pub fn run_heaplets(app: &str, params: &ExpParams) -> Result<Ablation, SimError> {
    let specs = heaplet_specs(app, params)?;
    Ok(ablation_study(&specs, &run_all(&specs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpParams {
        ExpParams::quick().with_scale(0.01).with_threads(vec![8])
    }

    #[test]
    fn biased_study_produces_three_variants() {
        let a = run_biased_sched("xalan", &tiny()).unwrap();
        assert_eq!(a.rows.len(), 3);
        assert!(a.row("baseline", 8).is_some());
        assert!(a.row("biased-2", 8).is_some());
        assert!(a.row("biased-4", 8).is_some());
        assert!(a.row("nope", 8).is_none());
    }

    #[test]
    fn heaplets_study_produces_two_variants() {
        let a = run_heaplets("xalan", &tiny()).unwrap();
        assert_eq!(a.rows.len(), 2);
        let t = a.table();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn gc_ratio_compares_to_baseline() {
        let a = run_heaplets("xalan", &tiny()).unwrap();
        if let Some(ratio) = a.gc_ratio("heaplets", 8) {
            assert!(ratio > 0.0);
        }
    }
}
