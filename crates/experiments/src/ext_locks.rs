//! `ext-locks`: lock algorithm × thread count across all six workloads.
//!
//! The paper attributes the non-scalable group's collapse to monitor
//! contention under the HotSpot FIFO handoff. This study makes the lock
//! itself a sweep axis: the same grid runs under the default FIFO
//! monitor, an MCS-style queue lock (bounded spin before parking), and a
//! Malthusian concurrency-restricting lock in the style of Dice &
//! Kogan's `LockCohorts`/Malthusian work — surplus waiters are parked in
//! a passive set so only a small active set churns the monitor. The
//! queue-fair algorithms (FIFO, MCS) keep every waiter on the handoff
//! critical path and collapse once wake-up latency dominates the
//! critical section; the Malthusian lock removes the surplus from the
//! path and holds saturated throughput roughly flat.

use scalesim_core::{JvmConfig, LockAlg, RunOutcome, RunReport, SimError};
use scalesim_metrics::Table;
use scalesim_simkit::SimDuration;
use scalesim_workloads::{all_apps, AppModel};

use crate::params::ExpParams;
use crate::sweep::{outcome_cell, run_all, RunSpec};

/// The app × algorithm × thread-count spec list the study executes.
///
/// # Errors
///
/// Propagates configuration errors.
pub(crate) fn lock_specs(params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    let apps = all_apps();
    let mut specs =
        Vec::with_capacity(apps.len() * LockAlg::ALL.len() * params.thread_counts.len());
    for app in &apps {
        for alg in LockAlg::ALL {
            for &threads in &params.thread_counts {
                let mut cfg = JvmConfig::builder();
                cfg.threads(threads).seed(params.seed).lock_alg(alg);
                specs.push(RunSpec {
                    app: app.scaled(params.scale),
                    config: cfg.build()?,
                });
            }
        }
    }
    Ok(specs)
}

/// One row of the lock-algorithm study.
#[derive(Debug, Clone, PartialEq)]
pub struct LockAlgRow {
    /// Application name.
    pub app: String,
    /// Lock algorithm the run used.
    pub alg: LockAlg,
    /// Configured mutator threads.
    pub threads: usize,
    /// End-to-end wall time.
    pub wall: SimDuration,
    /// Contended monitor acquisitions across all monitors.
    pub contentions: u64,
    /// Work items retired per simulated second.
    pub throughput: f64,
    /// How the run behind this row ended.
    pub outcome: RunOutcome,
}

/// The lock-algorithm × thread-count study over all six workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct LockAlgStudy {
    /// One row per (app, algorithm, thread count), app-major then
    /// algorithm-major.
    pub rows: Vec<LockAlgRow>,
}

impl LockAlgStudy {
    /// The row for `(app, alg, threads)`.
    #[must_use]
    pub fn row(&self, app: &str, alg: LockAlg, threads: usize) -> Option<&LockAlgRow> {
        self.rows
            .iter()
            .find(|r| r.app == app && r.alg == alg && r.threads == threads)
    }

    /// Throughput of `(app, alg)` at the largest thread count present.
    #[must_use]
    pub fn saturated_throughput(&self, app: &str, alg: LockAlg) -> Option<f64> {
        self.rows
            .iter()
            .filter(|r| r.app == app && r.alg == alg)
            .max_by_key(|r| r.threads)
            .map(|r| r.throughput)
    }

    /// Renders the table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "app",
            "alg",
            "threads",
            "wall",
            "contentions",
            "items/s",
            "outcome",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.clone(),
                r.alg.as_str().to_owned(),
                r.threads.to_string(),
                r.wall.to_string(),
                r.contentions.to_string(),
                format!("{:.0}", r.throughput),
                outcome_cell(&r.outcome),
            ]);
        }
        t
    }
}

/// Runs `ext-locks`: every app at every thread count under each lock
/// algorithm.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn run_lock_algorithms(params: &ExpParams) -> Result<LockAlgStudy, SimError> {
    let specs = lock_specs(params)?;
    Ok(lock_study(&specs, &run_all(&specs)))
}

/// The study drawn from `ext-locks`' specs and their reports.
pub(crate) fn lock_study(specs: &[RunSpec], reports: &[RunReport]) -> LockAlgStudy {
    LockAlgStudy {
        rows: specs
            .iter()
            .zip(reports)
            .map(|(s, r)| LockAlgRow {
                app: s.app.name().to_owned(),
                alg: s.config.lock_alg,
                threads: s.config.threads,
                wall: r.wall_time,
                contentions: r.locks.total.contentions,
                throughput: if r.wall_time.is_zero() {
                    0.0
                } else {
                    r.total_items() as f64 / r.wall_time.as_secs_f64()
                },
                outcome: r.outcome.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig1_locks::run_fig1_locks;

    fn tiny() -> ExpParams {
        ExpParams::quick()
            .with_scale(0.01)
            .with_threads(vec![4, 16])
    }

    #[test]
    fn study_covers_every_app_algorithm_and_thread_count() {
        let params = tiny();
        let s = run_lock_algorithms(&params).unwrap();
        assert_eq!(s.rows.len(), 6 * LockAlg::ALL.len() * 2);
        for alg in LockAlg::ALL {
            assert!(s.row("xalan", alg, 16).is_some());
        }
        assert_eq!(s.table().num_rows(), s.rows.len());
    }

    #[test]
    fn specs_key_on_the_algorithm() {
        let params = tiny();
        let specs = lock_specs(&params).unwrap();
        let per_alg = params.thread_counts.len();
        // Same app/threads/seed under two algorithms must not share a
        // memo key, or the cache would serve FIFO results to MCS runs.
        assert_ne!(specs[0].memo_key(), specs[per_alg].memo_key());
    }

    /// Satellite 4: the refactored FIFO path must reproduce the
    /// pre-refactor Figure 1a/1b tables byte for byte.
    #[test]
    fn fifo_tables_match_the_prerefactor_golden() {
        let params = ExpParams::quick()
            .with_scale(0.02)
            .with_threads(vec![4, 16, 48]);
        let f = run_fig1_locks(&params).unwrap();
        let golden = include_str!("../goldens/fig1_locks_prerefactor.csv");
        assert_eq!(
            f.table().to_csv(),
            golden,
            "FIFO output drifted from the pre-refactor golden"
        );
    }

    /// The MCS and Malthusian paths are pinned byte for byte too, not
    /// only by the ratio checks below.
    #[test]
    fn every_algorithm_matches_the_ext_locks_golden() {
        let params = ExpParams::quick()
            .with_scale(0.02)
            .with_threads(vec![4, 16, 48]);
        let s = run_lock_algorithms(&params).unwrap();
        let golden = include_str!("../goldens/ext_locks.csv");
        assert_eq!(
            s.table().to_csv(),
            golden,
            "ext-locks output drifted from its golden"
        );
    }

    /// The headline acceptance criterion: the queue-fair algorithms show
    /// the scalability-collapse knee on a contended workload (throughput
    /// peaks below the largest thread count, then falls), the Malthusian
    /// lock retains more of its peak past the knee than the queue-fair
    /// locks, and its saturated throughput is at least 2x MCS's at the
    /// pinned seed.
    #[test]
    fn malthusian_removes_the_collapse_knee() {
        let params = ExpParams::quick()
            .with_scale(0.02)
            .with_threads(vec![8, 48, 96]);
        let s = run_lock_algorithms(&params).unwrap();
        let peak = |alg: LockAlg| {
            s.rows
                .iter()
                .filter(|r| r.app == "xalan" && r.alg == alg)
                .map(|r| r.throughput)
                .fold(0.0_f64, f64::max)
        };
        let retained = |alg: LockAlg| s.saturated_throughput("xalan", alg).unwrap() / peak(alg);
        for alg in [LockAlg::Fifo, LockAlg::Mcs] {
            let saturated = s.saturated_throughput("xalan", alg).unwrap();
            assert!(
                saturated < 0.95 * peak(alg),
                "{alg}: expected collapse past the knee, got peak {:.0} -> {saturated:.0} items/s",
                peak(alg)
            );
        }
        assert!(
            retained(LockAlg::Malthusian) > retained(LockAlg::Mcs),
            "Malthusian should hold its peak better than MCS past the knee"
        );
        let mcs = s.saturated_throughput("xalan", LockAlg::Mcs).unwrap();
        let malthusian = s
            .saturated_throughput("xalan", LockAlg::Malthusian)
            .unwrap();
        assert!(
            malthusian >= 2.0 * mcs,
            "Malthusian {malthusian:.0} items/s vs MCS {mcs:.0} items/s at saturation"
        );
    }
}
