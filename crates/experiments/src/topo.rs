//! `ext-topo`: the same thread-count sweep across machine topologies.
//!
//! The paper's conclusions come from one box — the four-socket AMD
//! Opteron 6168. This study replays the sweep on three machines (the
//! paper testbed, a two-socket Xeon-like box, and a SPARC-T3-like
//! single-socket 64-thread machine in the style of van Tol's T3
//! characterization) so the topology itself becomes a sweep axis: on
//! the single-socket machine every memory access is local, so any
//! scaling loss there is attributable to the application and runtime
//! rather than NUMA. This is also the campaign runner's first
//! genuinely new surface — topology × thread count multiplies the unit
//! count without changing any existing figure.

use scalesim_core::{JvmConfig, RunOutcome, RunReport, SimError};
use scalesim_machine::MachineTopology;
use scalesim_metrics::{fmt2, Table};
use scalesim_simkit::SimDuration;
use scalesim_workloads::AppModel;

use crate::params::ExpParams;
use crate::sweep::{app_model, groups, outcome_cell, run_all, RunSpec};

/// The machines the study sweeps, in table order.
fn machines() -> Vec<MachineTopology> {
    vec![
        MachineTopology::amd_6168(),
        MachineTopology::xeon_2s_32c(),
        MachineTopology::sparc_t3_like(),
    ]
}

/// The machine × thread-count spec list the study executes.
///
/// # Errors
///
/// Returns [`SimError::UnknownApp`] for an unknown `app` and propagates
/// configuration errors.
pub(crate) fn topo_specs(app: &str, params: &ExpParams) -> Result<Vec<RunSpec>, SimError> {
    let model = app_model(app)?;
    let mut specs = Vec::new();
    for machine in machines() {
        for &threads in &params.thread_counts {
            let mut cfg = JvmConfig::builder();
            cfg.threads(threads)
                .seed(params.seed)
                .machine(machine.clone());
            specs.push(RunSpec {
                app: model.scaled(params.scale),
                config: cfg.build()?,
            });
        }
    }
    Ok(specs)
}

/// One row of the topology study.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoRow {
    /// Machine name.
    pub machine: String,
    /// Configured mutator threads.
    pub threads: usize,
    /// Cores actually enabled (threads capped at the machine size, so a
    /// 48-thread sweep point oversubscribes the 32-core Xeon).
    pub cores: usize,
    /// End-to-end wall time.
    pub wall: SimDuration,
    /// Total stop-the-world GC time.
    pub gc: SimDuration,
    /// Speedup vs. the smallest thread count on the same machine.
    pub speedup: f64,
    /// How the run behind this row ended.
    pub outcome: RunOutcome,
}

/// The topology × thread-count study.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyStudy {
    /// Application swept.
    pub app: String,
    /// One row per (machine, thread count), machine-major.
    pub rows: Vec<TopoRow>,
}

impl TopologyStudy {
    /// The row for `(machine, threads)`.
    #[must_use]
    pub fn row(&self, machine: &str, threads: usize) -> Option<&TopoRow> {
        self.rows
            .iter()
            .find(|r| r.machine == machine && r.threads == threads)
    }

    /// Renders the table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "machine", "threads", "cores", "wall", "gc", "speedup", "outcome",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.machine.clone(),
                r.threads.to_string(),
                r.cores.to_string(),
                r.wall.to_string(),
                r.gc.to_string(),
                format!("{}x", fmt2(r.speedup)),
                outcome_cell(&r.outcome),
            ]);
        }
        t
    }
}

/// Runs `ext-topo`: `app` at every thread count on each machine preset.
///
/// # Errors
///
/// Returns [`SimError::UnknownApp`] for an unknown `app` and propagates
/// configuration errors.
pub fn run_topology(app: &str, params: &ExpParams) -> Result<TopologyStudy, SimError> {
    let specs = topo_specs(app, params)?;
    Ok(topo_study(&specs, &run_all(&specs)))
}

/// The study drawn from `ext-topo`'s specs and their reports.
pub(crate) fn topo_study(specs: &[RunSpec], reports: &[RunReport]) -> TopologyStudy {
    let mut rows = Vec::with_capacity(reports.len());
    let same_machine =
        |a: &RunSpec, b: &RunSpec| a.config.machine.name() == b.config.machine.name();
    for (specs, reports) in groups(specs, reports, same_machine) {
        let base = reports[0].wall_time;
        for (s, r) in specs.iter().zip(reports) {
            rows.push(TopoRow {
                machine: s.config.machine.name().to_owned(),
                threads: s.config.threads,
                cores: s.config.cores(),
                wall: r.wall_time,
                gc: r.gc_time,
                speedup: if r.wall_time.is_zero() {
                    1.0
                } else {
                    base.as_secs_f64() / r.wall_time.as_secs_f64()
                },
                outcome: r.outcome.clone(),
            });
        }
    }
    TopologyStudy {
        app: specs[0].app.name().to_owned(),
        rows,
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
    fn study_covers_every_machine_and_thread_count() {
        let params = tiny();
        let s = run_topology("xalan", &params).unwrap();
        assert_eq!(s.rows.len(), 3 * params.thread_counts.len());
        assert!(s.row("4x AMD Opteron 6168", 4).is_some());
        assert!(s.row("1x SPARC-T3-like 64-thread", 16).is_some());
        let t = s.table();
        assert_eq!(t.num_rows(), s.rows.len());
    }

    #[test]
    fn specs_key_on_the_machine() {
        let params = tiny();
        let specs = topo_specs("xalan", &params).unwrap();
        assert_eq!(specs.len(), 3 * params.thread_counts.len());
        // Same app/threads/seed on two machines must not share a memo key.
        let per_machine = params.thread_counts.len();
        assert_ne!(specs[0].memo_key(), specs[per_machine].memo_key());
    }

    #[test]
    fn oversubscription_caps_cores_at_the_machine() {
        let params = ExpParams::quick()
            .with_scale(0.01)
            .with_threads(vec![4, 48]);
        let s = run_topology("xalan", &params).unwrap();
        let xeon = s.row("2x Xeon-like 16-core", 48).expect("xeon row");
        assert_eq!(xeon.cores, 32, "48 threads oversubscribe the 32-core box");
        let sparc = s.row("1x SPARC-T3-like 64-thread", 48).expect("sparc row");
        assert_eq!(sparc.cores, 48, "the 64-thread box fits the full sweep");
    }

    #[test]
    fn unknown_app_is_rejected() {
        assert!(matches!(
            run_topology("nope", &tiny()),
            Err(SimError::UnknownApp(_))
        ));
    }

    #[test]
    fn scalable_app_speeds_up_on_the_flat_machine() {
        let params = ExpParams::quick()
            .with_scale(0.02)
            .with_threads(vec![4, 32]);
        let s = run_topology("sunflow", &params).unwrap();
        let r = s.row("1x SPARC-T3-like 64-thread", 32).expect("sparc row");
        assert!(r.speedup > 2.0, "sunflow at 32 threads: {}x", r.speedup);
    }
}
