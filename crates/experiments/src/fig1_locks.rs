//! Figures 1a and 1b: lock acquisitions and contention instances vs.
//! thread count, for all six applications.
//!
//! Paper expectation (§III-A): "scalable applications show increasing
//! lock usage and contention as the number of threads grows. On the other
//! hand, lock usage and contention in non-scalable applications remain
//! unaffected by the number of threads."

use scalesim_core::{RunOutcome, RunReport, SimError};
use scalesim_metrics::{Series, Table};
use scalesim_workloads::{all_apps, AppModel, ScalabilityClass};

use crate::params::ExpParams;
use crate::sweep::{grid_specs, groups, mark_cell, run_all, RunSpec};

/// Results for Figures 1a (acquisitions) and 1b (contentions): one series
/// per application, x = thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Locks {
    /// Total lock acquisitions per app (Figure 1a).
    pub acquisitions: Vec<Series>,
    /// Total contention instances per app (Figure 1b).
    pub contentions: Vec<Series>,
    /// Parallel to the series: each app's paper classification.
    pub classes: Vec<(String, ScalabilityClass)>,
    /// Per app, per thread point: how the underlying run ended.
    pub outcomes: Vec<Vec<RunOutcome>>,
}

impl Fig1Locks {
    /// The acquisition series for one app.
    #[must_use]
    pub fn acquisitions_of(&self, app: &str) -> Option<&Series> {
        self.acquisitions.iter().find(|s| s.label() == app)
    }

    /// The contention series for one app.
    #[must_use]
    pub fn contentions_of(&self, app: &str) -> Option<&Series> {
        self.contentions.iter().find(|s| s.label() == app)
    }

    /// Renders both figures as one table (apps × thread counts).
    #[must_use]
    pub fn table(&self) -> Table {
        let mut headers = vec!["app".to_owned(), "class".to_owned(), "metric".to_owned()];
        if let Some(first) = self.acquisitions.first() {
            for (x, _) in first.points() {
                headers.push(format!("T={x:.0}"));
            }
        }
        let mut t = Table::new(headers);
        for (series, metric) in self
            .acquisitions
            .iter()
            .map(|s| (s, "acquisitions"))
            .chain(self.contentions.iter().map(|s| (s, "contentions")))
        {
            let class = self
                .classes
                .iter()
                .find(|(name, _)| name == series.label())
                .map_or("?", |(_, c)| c.label());
            let app_idx = self
                .classes
                .iter()
                .position(|(name, _)| name == series.label());
            let mut row = vec![
                series.label().to_owned(),
                class.to_owned(),
                metric.to_owned(),
            ];
            for (i, (_, y)) in series.points().iter().enumerate() {
                let cell = app_idx
                    .and_then(|a| self.outcomes.get(a))
                    .and_then(|per_app| per_app.get(i))
                    .map_or_else(
                        || format!("{y:.0}"),
                        |outcome| mark_cell(format!("{y:.0}"), outcome),
                    );
                row.push(cell);
            }
            t.row(row);
        }
        t
    }
}

/// Runs the Figure 1a/1b sweep: every app at every thread count.
///
/// # Errors
///
/// Currently infallible (the sweep quarantines failing runs), but shares
/// the drivers' common `Result` signature.
pub fn run_fig1_locks(params: &ExpParams) -> Result<Fig1Locks, SimError> {
    let specs = grid_specs(&all_apps(), params);
    Ok(fig1_locks_study(&specs, &run_all(&specs)))
}

/// The figures drawn from an app-major grid's specs and their reports.
pub(crate) fn fig1_locks_study(specs: &[RunSpec], reports: &[RunReport]) -> Fig1Locks {
    let mut acquisitions = Vec::new();
    let mut contentions = Vec::new();
    let mut classes = Vec::new();
    let mut outcomes = Vec::new();
    for (specs, reports) in groups(specs, reports, |a, b| a.app.name() == b.app.name()) {
        let app = &specs[0].app;
        let mut acq = Series::new(app.name());
        let mut con = Series::new(app.name());
        for (s, r) in specs.iter().zip(reports) {
            acq.push(s.config.threads as f64, r.locks.total.acquisitions as f64);
            con.push(s.config.threads as f64, r.locks.total.contentions as f64);
        }
        acquisitions.push(acq);
        contentions.push(con);
        classes.push((app.name().to_owned(), app.class()));
        outcomes.push(reports.iter().map(|r| r.outcome.clone()).collect());
    }
    Fig1Locks {
        acquisitions,
        contentions,
        classes,
        outcomes,
    }
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
    fn sweep_covers_all_apps_and_threads() {
        let f = run_fig1_locks(&tiny()).unwrap();
        assert_eq!(f.acquisitions.len(), 6);
        assert_eq!(f.contentions.len(), 6);
        assert!(f.acquisitions.iter().all(|s| s.len() == 2));
        assert!(f.acquisitions_of("xalan").is_some());
        assert!(f.acquisitions_of("nope").is_none());
    }

    #[test]
    fn table_has_a_row_per_app_per_metric() {
        let f = run_fig1_locks(&tiny()).unwrap();
        let t = f.table();
        assert_eq!(t.num_rows(), 12);
        assert_eq!(t.headers().len(), 3 + 2);
    }
}
