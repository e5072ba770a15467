//! Figures 1c and 1d: object-lifespan CDFs at low vs. high thread
//! counts.
//!
//! Paper expectations (§III-B): xalan (Figure 1d) has over 80 % of
//! objects with lifespans below 1 KB at 4 threads but only ~50 % at 48;
//! eclipse (Figure 1c) "shows almost no change in object lifespans as we
//! changed the numbers of threads from 4 to 48".

use scalesim_core::{RunOutcome, RunReport, SimError};
use scalesim_metrics::{fmt_bytes, fmt_pct, Table};
use scalesim_workloads::AppModel;

use crate::params::ExpParams;
use crate::sweep::{app_model, mark_cell, run_all, RunSpec};

/// Default CDF sampling thresholds (bytes of allocation), log-spaced the
/// way the paper's x-axes are.
pub const DEFAULT_THRESHOLDS: [u64; 9] = [
    64,
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    16 << 20,
];

/// One lifespan-CDF figure: an app measured at several thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct LifespanCurves {
    /// Application name.
    pub app: String,
    /// Sampling thresholds (bytes).
    pub thresholds: Vec<u64>,
    /// Per thread count: `(threads, fraction of objects with lifespan <
    /// threshold)` for each threshold.
    pub curves: Vec<(usize, Vec<f64>)>,
    /// Outcome of the run behind each curve, parallel to `curves`.
    pub outcomes: Vec<RunOutcome>,
}

impl LifespanCurves {
    /// Fraction of objects with lifespans below 1 KiB at the given thread
    /// count — the paper's headline statistic.
    #[must_use]
    pub fn frac_below_1k(&self, threads: usize) -> Option<f64> {
        let idx = self.thresholds.iter().position(|&t| t == 1 << 10)?;
        self.curves
            .iter()
            .find(|(t, _)| *t == threads)
            .map(|(_, fracs)| fracs[idx])
    }

    /// Maximum vertical CDF shift between the lowest and highest thread
    /// counts — near 0 for eclipse, large for xalan.
    #[must_use]
    pub fn max_shift(&self) -> f64 {
        let (Some((_, lo)), Some((_, hi))) = (self.curves.first(), self.curves.last()) else {
            return 0.0;
        };
        lo.iter()
            .zip(hi.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Renders the figure as a table: one row per thread count, one
    /// column per threshold.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut headers = vec!["app".to_owned(), "threads".to_owned()];
        headers.extend(
            self.thresholds
                .iter()
                .map(|&t| format!("<{}", fmt_bytes(t))),
        );
        let mut table = Table::new(headers);
        for (i, (threads, fracs)) in self.curves.iter().enumerate() {
            let threads_cell = match self.outcomes.get(i) {
                Some(outcome) => mark_cell(threads.to_string(), outcome),
                None => threads.to_string(),
            };
            let mut row = vec![self.app.clone(), threads_cell];
            row.extend(fracs.iter().map(|&f| fmt_pct(f)));
            table.row(row);
        }
        table
    }
}

/// The one-app × thread-count spec list the lifespan sweeps execute.
///
/// # Errors
///
/// Returns [`SimError::UnknownApp`] if `app` is not one of the six
/// benchmarks.
pub(crate) fn lifespan_specs(app: &str, params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    let model = app_model(app)?;
    Ok(params
        .thread_counts
        .iter()
        .map(|&t| RunSpec::new(model.scaled(params.scale), t, params.seed))
        .collect())
}

/// Runs a lifespan-CDF figure for one app over `thread_counts`.
///
/// # Errors
///
/// Returns [`SimError::UnknownApp`] if `app` is not one of the six
/// benchmarks.
pub fn run_lifespan_curves(app: &str, params: &ExpParams) -> Result<LifespanCurves, SimError> {
    let specs = lifespan_specs(app, params)?;
    Ok(lifespan_study(&specs, &run_all(&specs)))
}

/// The curves drawn from one app's specs and their reports.
pub(crate) fn lifespan_study(specs: &[RunSpec], reports: &[RunReport]) -> LifespanCurves {
    let thresholds = DEFAULT_THRESHOLDS.to_vec();
    let curves = specs
        .iter()
        .zip(reports)
        .map(|(s, r)| {
            let fracs = thresholds
                .iter()
                .map(|&t| r.trace.fraction_below(t))
                .collect();
            (s.config.threads, fracs)
        })
        .collect();
    LifespanCurves {
        app: specs[0].app.name().to_owned(),
        thresholds,
        curves,
        outcomes: reports.iter().map(|r| r.outcome.clone()).collect(),
    }
}

/// Figure 1c: eclipse's lifespan CDF — expected to barely move with
/// thread count.
///
/// # Errors
///
/// Propagates any [`SimError`] from the sweep.
pub fn run_fig1c(params: &ExpParams) -> Result<LifespanCurves, SimError> {
    run_lifespan_curves("eclipse", params)
}

/// Figure 1d: xalan's lifespan CDF — expected to shift right markedly at
/// high thread counts.
///
/// # Errors
///
/// Propagates any [`SimError`] from the sweep.
pub fn run_fig1d(params: &ExpParams) -> Result<LifespanCurves, SimError> {
    run_lifespan_curves("xalan", params)
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
    fn curves_cover_thread_counts_and_thresholds() {
        let c = run_fig1d(&tiny()).unwrap();
        assert_eq!(c.app, "xalan");
        assert_eq!(c.curves.len(), 2);
        assert_eq!(c.curves[0].1.len(), DEFAULT_THRESHOLDS.len());
        assert!(c.frac_below_1k(4).is_some());
        assert!(c.frac_below_1k(99).is_none());
    }

    #[test]
    fn cdf_rows_are_monotone_in_threshold() {
        let c = run_fig1d(&tiny()).unwrap();
        for (_, fracs) in &c.curves {
            assert!(fracs.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{fracs:?}");
        }
    }

    #[test]
    fn table_shape() {
        let c = run_fig1c(&tiny()).unwrap();
        let t = c.table();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.headers().len(), 2 + DEFAULT_THRESHOLDS.len());
    }

    #[test]
    fn unknown_app_is_a_structured_error() {
        let err = run_lifespan_curves("nope", &tiny()).unwrap_err();
        assert!(
            matches!(&err, SimError::UnknownApp(name) if name == "nope"),
            "{err}"
        );
    }
}
