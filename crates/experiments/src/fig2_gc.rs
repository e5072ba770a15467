//! Figure 2: distribution of mutator and GC times for the three scalable
//! applications as threads scale.
//!
//! Paper expectations (§III-C): "GC overhead keeps increasing as we
//! increase the number of threads" while, ignoring GC, "the mutator time
//! would continue to be reduced as we scaled up the numbers of threads
//! and cores all the way to 48".

use scalesim_core::{RunOutcome, RunReport, SimError};
use scalesim_gc::GcKind;
use scalesim_metrics::{fmt_pct, Series, Table};
use scalesim_simkit::SimDuration;
use scalesim_workloads::scalable_apps;

use crate::params::ExpParams;
use crate::sweep::{grid_specs, outcome_cell, run_all};

/// One bar of Figure 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig2Row {
    /// Application name.
    pub app: String,
    /// Thread (= core) count.
    pub threads: usize,
    /// Wall time minus GC pauses.
    pub mutator: SimDuration,
    /// Total stop-the-world pause time.
    pub gc: SimDuration,
    /// Minor collections.
    pub minor: usize,
    /// Full collections.
    pub full: usize,
    /// How the run behind this row ended.
    pub outcome: RunOutcome,
}

impl Fig2Row {
    /// GC's share of total execution.
    #[must_use]
    pub fn gc_share(&self) -> f64 {
        let total = (self.mutator + self.gc).as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.gc.as_secs_f64() / total
        }
    }
}

/// The full Figure 2 dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig2 {
    /// One row per (scalable app × thread count).
    pub rows: Vec<Fig2Row>,
}

impl Fig2 {
    /// Rows for one app, in thread order.
    #[must_use]
    pub fn rows_of(&self, app: &str) -> Vec<&Fig2Row> {
        self.rows.iter().filter(|r| r.app == app).collect()
    }

    /// GC time vs. threads for one app.
    #[must_use]
    pub fn gc_series(&self, app: &str) -> Series {
        let mut s = Series::new(format!("{app}-gc"));
        for r in self.rows_of(app) {
            s.push(r.threads as f64, r.gc.as_secs_f64());
        }
        s
    }

    /// Mutator time vs. threads for one app.
    #[must_use]
    pub fn mutator_series(&self, app: &str) -> Series {
        let mut s = Series::new(format!("{app}-mutator"));
        for r in self.rows_of(app) {
            s.push(r.threads as f64, r.mutator.as_secs_f64());
        }
        s
    }

    /// GC share vs. threads for one app.
    #[must_use]
    pub fn gc_share_series(&self, app: &str) -> Series {
        let mut s = Series::new(format!("{app}-gc-share"));
        for r in self.rows_of(app) {
            s.push(r.threads as f64, r.gc_share());
        }
        s
    }

    /// The application names present, in first-seen order.
    #[must_use]
    pub fn apps(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for r in &self.rows {
            if !names.contains(&r.app) {
                names.push(r.app.clone());
            }
        }
        names
    }

    /// Renders the figure as a table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "app", "threads", "mutator", "gc", "gc share", "minor", "full", "outcome",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.clone(),
                r.threads.to_string(),
                r.mutator.to_string(),
                r.gc.to_string(),
                fmt_pct(r.gc_share()),
                r.minor.to_string(),
                r.full.to_string(),
                outcome_cell(&r.outcome),
            ]);
        }
        t
    }
}

/// Runs the Figure 2 sweep: the three scalable apps at every thread
/// count.
///
/// # Errors
///
/// Currently infallible (the sweep quarantines failing runs), but shares
/// the drivers' common `Result` signature.
pub fn run_fig2(params: &ExpParams) -> Result<Fig2, SimError> {
    Ok(fig2_study(&run_all(&grid_specs(&scalable_apps(), params))))
}

/// The figure drawn from its grid's reports.
pub(crate) fn fig2_study(reports: &[RunReport]) -> Fig2 {
    let rows = reports
        .iter()
        .map(|r| Fig2Row {
            app: r.app.clone(),
            threads: r.threads,
            mutator: r.mutator_wall(),
            gc: r.gc_time,
            minor: r.gc.count(GcKind::Minor),
            full: r.gc.count(GcKind::Full),
            outcome: r.outcome.clone(),
        })
        .collect();
    Fig2 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpParams {
        ExpParams::quick()
            .with_scale(0.01)
            .with_threads(vec![4, 16])
    }

    #[test]
    fn covers_three_scalable_apps() {
        let f = run_fig2(&tiny()).unwrap();
        assert_eq!(f.apps(), vec!["sunflow", "lusearch", "xalan"]);
        assert_eq!(f.rows.len(), 6);
        assert_eq!(f.rows_of("xalan").len(), 2);
    }

    #[test]
    fn series_extraction() {
        let f = run_fig2(&tiny()).unwrap();
        let gc = f.gc_series("xalan");
        assert_eq!(gc.len(), 2);
        let m = f.mutator_series("xalan");
        assert!(m.first_y().unwrap() > 0.0);
        let share = f.gc_share_series("xalan");
        assert!(share
            .points()
            .iter()
            .all(|&(_, y)| (0.0..=1.0).contains(&y)));
    }

    #[test]
    fn table_shape() {
        let f = run_fig2(&tiny()).unwrap();
        assert_eq!(f.table().num_rows(), 6);
    }

    #[test]
    fn gc_share_handles_zero() {
        let r = Fig2Row {
            app: "x".into(),
            threads: 1,
            mutator: SimDuration::ZERO,
            gc: SimDuration::ZERO,
            minor: 0,
            full: 0,
            outcome: RunOutcome::Ok,
        };
        assert_eq!(r.gc_share(), 0.0);
    }
}
