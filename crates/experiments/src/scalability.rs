//! The §II-C scalability classification: execution time vs. thread
//! count for all six applications.
//!
//! "The result suggests that we can characterize the first three
//! applications [sunflow, lusearch, xalan] as scalable and the remainder
//! [h2, eclipse, jython] as non-scalable. In a scalable application, its
//! execution time would reduce with more threads and more cores."

use scalesim_core::{RunOutcome, RunReport, SimError};
use scalesim_metrics::{fmt2, Series, Table};
use scalesim_simkit::SimDuration;
use scalesim_workloads::{all_apps, AppModel, ScalabilityClass};

use crate::params::ExpParams;
use crate::sweep::{grid_specs, groups, mark_cell, run_all, RunSpec};

/// Speedup (vs. the smallest thread count) above which an application is
/// classified scalable at the largest thread count. With a 4→48 sweep a
/// perfectly scalable app reaches 12×; serialized apps stay near 1×.
pub const SCALABLE_SPEEDUP_THRESHOLD: f64 = 3.0;

/// Execution times of one application across the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityRow {
    /// Application name.
    pub app: String,
    /// The paper's a-priori classification.
    pub expected: ScalabilityClass,
    /// `(threads, wall time)` per sweep point.
    pub walls: Vec<(usize, SimDuration)>,
    /// Outcome of each sweep point, parallel to `walls` (empty means all
    /// points completed normally).
    pub outcomes: Vec<RunOutcome>,
}

impl ScalabilityRow {
    /// Speedup of the last sweep point relative to the first.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.speedup_at(self.walls.len().saturating_sub(1))
    }

    /// Speedup of sweep point `i` relative to the baseline (leftmost,
    /// smallest thread count) column — 1.0 for the baseline itself, and
    /// for quarantined cells with no wall time.
    #[must_use]
    pub fn speedup_at(&self, i: usize) -> f64 {
        let first = self.walls.first().expect("non-empty sweep").1;
        let at = self.walls.get(i).expect("sweep point in range").1;
        if at.is_zero() {
            1.0
        } else {
            first.as_secs_f64() / at.as_secs_f64()
        }
    }

    /// Classification measured from the sweep.
    #[must_use]
    pub fn measured(&self) -> ScalabilityClass {
        if self.speedup() >= SCALABLE_SPEEDUP_THRESHOLD {
            ScalabilityClass::Scalable
        } else {
            ScalabilityClass::NonScalable
        }
    }

    /// Whether the measured class matches the paper's.
    #[must_use]
    pub fn matches_paper(&self) -> bool {
        self.measured() == self.expected
    }

    /// Wall time vs. threads as a series.
    #[must_use]
    pub fn series(&self) -> Series {
        let mut s = Series::new(&self.app);
        for &(t, w) in &self.walls {
            s.push(t as f64, w.as_secs_f64());
        }
        s
    }
}

/// The full classification table.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalability {
    /// One row per application.
    pub rows: Vec<ScalabilityRow>,
}

impl Scalability {
    /// The row for one app.
    #[must_use]
    pub fn row_of(&self, app: &str) -> Option<&ScalabilityRow> {
        self.rows.iter().find(|r| r.app == app)
    }

    /// Whether every application's measured class matches the paper.
    #[must_use]
    pub fn all_match_paper(&self) -> bool {
        self.rows.iter().all(ScalabilityRow::matches_paper)
    }

    /// Renders the table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut headers = vec!["app".to_owned(), "expected".to_owned()];
        if let Some(first) = self.rows.first() {
            for &(t, _) in &first.walls {
                headers.push(format!("T={t}"));
            }
        }
        headers.push("speedup".to_owned());
        headers.push("measured".to_owned());
        let mut table = Table::new(headers);
        for r in &self.rows {
            let mut row = vec![r.app.clone(), r.expected.label().to_owned()];
            for (i, &(_, w)) in r.walls.iter().enumerate() {
                // Wall time plus speedup vs. the baseline column, so a
                // non-scalable app is legible straight off the table.
                let base = format!("{} ({}x)", w, fmt2(r.speedup_at(i)));
                let cell = match r.outcomes.get(i) {
                    Some(outcome) => mark_cell(base, outcome),
                    None => base,
                };
                row.push(cell);
            }
            row.push(format!("{}x", fmt2(r.speedup())));
            row.push(r.measured().label().to_owned());
            table.row(row);
        }
        table
    }
}

/// Runs the scalability sweep over all six apps.
///
/// # Errors
///
/// Currently infallible (the sweep quarantines failing runs), but shares
/// the drivers' common `Result` signature.
pub fn run_scalability(params: &ExpParams) -> Result<Scalability, SimError> {
    let specs = grid_specs(&all_apps(), params);
    Ok(scalability_study(&specs, &run_all(&specs)))
}

/// The table drawn from an app-major grid's specs and their reports.
pub(crate) fn scalability_study(specs: &[RunSpec], reports: &[RunReport]) -> Scalability {
    let rows = groups(specs, reports, |a, b| a.app.name() == b.app.name())
        .map(|(specs, reports)| ScalabilityRow {
            app: specs[0].app.name().to_owned(),
            expected: specs[0].app.class(),
            walls: specs
                .iter()
                .zip(reports)
                .map(|(s, r)| (s.config.threads, r.wall_time))
                .collect(),
            outcomes: reports.iter().map(|r| r.outcome.clone()).collect(),
        })
        .collect();
    Scalability { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_classification() {
        let row = ScalabilityRow {
            app: "x".into(),
            expected: ScalabilityClass::Scalable,
            walls: vec![
                (4, SimDuration::from_millis(120)),
                (48, SimDuration::from_millis(10)),
            ],
            outcomes: vec![],
        };
        assert!((row.speedup() - 12.0).abs() < 1e-9);
        assert!((row.speedup_at(0) - 1.0).abs() < 1e-9);
        assert!((row.speedup_at(1) - 12.0).abs() < 1e-9);
        assert_eq!(row.measured(), ScalabilityClass::Scalable);
        assert!(row.matches_paper());
    }

    #[test]
    fn table_cells_carry_per_cell_speedups() {
        let row = ScalabilityRow {
            app: "x".into(),
            expected: ScalabilityClass::Scalable,
            walls: vec![
                (4, SimDuration::from_millis(120)),
                (48, SimDuration::from_millis(10)),
            ],
            outcomes: vec![RunOutcome::Ok, RunOutcome::Ok],
        };
        let t = Scalability { rows: vec![row] }.table();
        let cells = &t.rows()[0];
        assert!(cells[2].ends_with("(1.00x)"), "{cells:?}");
        assert!(cells[3].ends_with("(12.00x)"), "{cells:?}");
    }

    #[test]
    fn flat_app_is_non_scalable() {
        let row = ScalabilityRow {
            app: "h".into(),
            expected: ScalabilityClass::NonScalable,
            walls: vec![
                (4, SimDuration::from_millis(100)),
                (48, SimDuration::from_millis(80)),
            ],
            outcomes: vec![],
        };
        assert_eq!(row.measured(), ScalabilityClass::NonScalable);
        assert!(row.matches_paper());
    }

    #[test]
    fn sweep_produces_six_rows() {
        let params = ExpParams::quick()
            .with_scale(0.005)
            .with_threads(vec![2, 8]);
        let s = run_scalability(&params).unwrap();
        assert_eq!(s.rows.len(), 6);
        assert!(s.row_of("jython").is_some());
        let t = s.table();
        assert_eq!(t.num_rows(), 6);
    }
}
