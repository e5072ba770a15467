//! Workload distribution across threads (§III, opening paragraph).
//!
//! "The non-scalable applications employ only a small number of threads
//! to perform the work. For example, jython mainly uses three to four
//! threads to do most of the work even when we set the number [of]
//! mutator threads to be larger than 16. On the other hand, xalan,
//! lusearch, and sunflow show nearly a uniform distribution of workload
//! among threads."

use scalesim_core::{RunOutcome, RunReport, SimError};
use scalesim_metrics::{fmt2, Table};
use scalesim_workloads::{all_apps, AppModel, ScalabilityClass};

use crate::params::ExpParams;
use crate::sweep::{grid_specs, outcome_cell, run_all, RunSpec};

/// Work-distribution measurements for one (app, thread count) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkdistRow {
    /// Application name.
    pub app: String,
    /// Paper classification.
    pub expected: ScalabilityClass,
    /// Configured threads.
    pub threads: usize,
    /// Coefficient of variation of per-thread item counts (0 = perfectly
    /// uniform).
    pub cv: f64,
    /// Smallest number of threads covering 90 % of completed items.
    pub threads_for_90pct: usize,
    /// Largest single thread share of the work.
    pub max_share: f64,
    /// How the run behind this row ended.
    pub outcome: RunOutcome,
}

/// The full workload-distribution study.
#[derive(Debug, Clone, PartialEq)]
pub struct Workdist {
    /// One row per (app × thread count).
    pub rows: Vec<WorkdistRow>,
}

impl Workdist {
    /// Rows for one app.
    #[must_use]
    pub fn rows_of(&self, app: &str) -> Vec<&WorkdistRow> {
        self.rows.iter().filter(|r| r.app == app).collect()
    }

    /// Renders the table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "app",
            "class",
            "threads",
            "cv",
            "threads for 90% work",
            "max share",
            "outcome",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.clone(),
                r.expected.label().to_owned(),
                r.threads.to_string(),
                fmt2(r.cv),
                r.threads_for_90pct.to_string(),
                fmt2(r.max_share),
                outcome_cell(&r.outcome),
            ]);
        }
        t
    }
}

/// Runs the workload-distribution sweep over all apps.
///
/// # Errors
///
/// Currently infallible (the sweep quarantines failing runs), but shares
/// the drivers' common `Result` signature.
pub fn run_workdist(params: &ExpParams) -> Result<Workdist, SimError> {
    let specs = grid_specs(&all_apps(), params);
    Ok(workdist_study(&specs, &run_all(&specs)))
}

/// The study drawn from a grid's specs and their reports.
pub(crate) fn workdist_study(specs: &[RunSpec], reports: &[RunReport]) -> Workdist {
    let rows = specs
        .iter()
        .zip(reports)
        .map(|(spec, r)| {
            let shares = r.work_shares();
            // A quarantined stub carries no per-thread data; summarizing it
            // would panic, so its row reports zeroed distribution stats.
            let cv = if r.per_thread.is_empty() {
                0.0
            } else {
                r.work_distribution().coefficient_of_variation()
            };
            WorkdistRow {
                app: r.app.clone(),
                expected: spec.app.class(),
                threads: r.threads,
                cv,
                threads_for_90pct: r.threads_for_90pct_work(),
                max_share: shares.iter().copied().fold(0.0, f64::max),
                outcome: r.outcome.clone(),
            }
        })
        .collect();
    Workdist { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jython_concentrates_and_xalan_spreads() {
        let params = ExpParams::quick().with_scale(0.01).with_threads(vec![16]);
        let w = run_workdist(&params).unwrap();
        assert_eq!(w.rows.len(), 6);

        let jython = &w.rows_of("jython")[0];
        assert!(jython.threads_for_90pct <= 4, "{jython:?}");
        assert!(jython.cv > 0.5, "{jython:?}");

        let xalan = &w.rows_of("xalan")[0];
        assert!(xalan.threads_for_90pct >= 12, "{xalan:?}");
        assert!(xalan.cv < 0.3, "{xalan:?}");

        let t = w.table();
        assert_eq!(t.num_rows(), 6);
    }
}
