//! The artifact registry: one definition per artifact.
//!
//! [`ARTIFACTS`] lists every artifact once, in `all` order: its id, the
//! CSV name and banner of its table, the run specs it sweeps and the
//! renderer that draws its table from those specs and their reports.
//! The CLI, the campaign runner and the figure benchmark all read it.
//! [`artifact_tables`] is the one path from an id to rendered tables, and
//! a campaign's units are the same generator's specs, so a merged
//! campaign renders with exactly the code a single-process run uses —
//! the byte-identity guarantee of `campaign` rests on this sharing.

use scalesim_core::{RunReport, SimError};
use scalesim_metrics::Table;
use scalesim_workloads::{all_apps, scalable_apps};

use crate::ablation::{ablation_study, biased_sched_specs, heaplet_specs};
use crate::ext_locks::{lock_specs, lock_study};
use crate::extensions::{
    concurrent_specs, concurrent_table, ergo_specs, ergo_table, gc_workers_specs, gc_workers_table,
    numa_specs, numa_table, oversub_specs, oversub_table, run_heap_size, sharding_specs,
    sharding_table,
};
use crate::fig1_lifespan::{lifespan_specs, lifespan_study};
use crate::fig1_locks::fig1_locks_study;
use crate::fig2_gc::fig2_study;
use crate::params::ExpParams;
use crate::scalability::scalability_study;
use crate::server::{server_specs, server_study};
use crate::sweep::{grid_specs, run_all, RunSpec};
use crate::topo::{topo_specs, topo_study};
use crate::workdist::workdist_study;

/// Builds an artifact's run specs from the sweep parameters.
pub type SpecsFn = fn(&ExpParams) -> Result<Vec<RunSpec>, SimError>;

/// Draws an artifact's table from its specs and their reports, reading
/// each run's label (variant, placement, shard count, …) off its spec.
pub type RenderFn = fn(&[RunSpec], &[RunReport]) -> Table;

/// How an artifact produces its table.
#[derive(Debug, Clone, Copy)]
pub enum Runs {
    /// One sweep: the specs (which are also its campaign units) go
    /// through [`run_all`] once and the renderer draws the table.
    Sweep(SpecsFn, RenderFn),
    /// Runs outside the sweep, so the artifact cannot run as a campaign.
    Direct(fn(&ExpParams) -> Result<Table, SimError>),
}

/// One artifact's definition.
#[derive(Debug)]
pub struct Artifact {
    /// The id the CLI and `campaign` take.
    pub id: &'static str,
    /// A second id naming the same artifact (`fig1b` for `fig1a`).
    pub alias: Option<&'static str>,
    /// CSV base name (`<csv>.csv` under `--out`).
    pub csv: &'static str,
    /// Human-readable banner printed above the table.
    pub title: &'static str,
    /// What it runs and how its table is drawn.
    pub runs: Runs,
}

impl Artifact {
    fn table(&self, p: &ExpParams) -> Result<Table, SimError> {
        match self.runs {
            Runs::Sweep(specs, render) => {
                let specs = specs(p)?;
                Ok(render(&specs, &run_all(&specs)))
            }
            Runs::Direct(run) => run(p),
        }
    }
}

/// Every artifact, in the order `all` runs them.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        id: "workdist",
        alias: None,
        csv: "workdist",
        title: "Workload distribution across threads (paper SIII)",
        runs: Runs::Sweep(
            |p| Ok(grid_specs(&all_apps(), p)),
            |s, r| workdist_study(s, r).table(),
        ),
    },
    Artifact {
        id: "scaletable",
        alias: None,
        csv: "scaletable",
        title: "Scalability classification (paper SII-C)",
        runs: Runs::Sweep(
            |p| Ok(grid_specs(&all_apps(), p)),
            |s, r| scalability_study(s, r).table(),
        ),
    },
    Artifact {
        id: "fig1a",
        alias: Some("fig1b"),
        csv: "fig1_locks",
        title: "Fig 1a/1b: lock acquisitions & contentions vs threads",
        runs: Runs::Sweep(
            |p| Ok(grid_specs(&all_apps(), p)),
            |s, r| fig1_locks_study(s, r).table(),
        ),
    },
    Artifact {
        id: "fig1c",
        alias: None,
        csv: "fig1c",
        title: "Fig 1c: eclipse object-lifespan CDF",
        runs: Runs::Sweep(
            |p| lifespan_specs("eclipse", p),
            |s, r| lifespan_study(s, r).table(),
        ),
    },
    Artifact {
        id: "fig1d",
        alias: None,
        csv: "fig1d",
        title: "Fig 1d: xalan object-lifespan CDF",
        runs: Runs::Sweep(
            |p| lifespan_specs("xalan", p),
            |s, r| lifespan_study(s, r).table(),
        ),
    },
    Artifact {
        id: "fig2",
        alias: None,
        csv: "fig2",
        title: "Fig 2: mutator vs GC time decomposition (scalable apps)",
        runs: Runs::Sweep(
            |p| Ok(grid_specs(&scalable_apps(), p)),
            |_, r| fig2_study(r).table(),
        ),
    },
    Artifact {
        id: "abl-sched",
        alias: None,
        csv: "abl_sched",
        title: "Ablation: biased (cohort) scheduling on xalan (paper SIV.1)",
        runs: Runs::Sweep(
            |p| biased_sched_specs("xalan", p),
            |s, r| ablation_study(s, r).table(),
        ),
    },
    Artifact {
        id: "abl-heap",
        alias: None,
        csv: "abl_heap",
        title: "Ablation: compartmentalized heaplets on xalan (paper SIV.2)",
        runs: Runs::Sweep(
            |p| heaplet_specs("xalan", p),
            |s, r| ablation_study(s, r).table(),
        ),
    },
    Artifact {
        id: "ext-ergo",
        alias: None,
        csv: "ext_ergo",
        title: "Extension: adaptive nursery sizing on xalan (HotSpot ergonomics)",
        runs: Runs::Sweep(|p| ergo_specs("xalan", p), ergo_table),
    },
    Artifact {
        id: "ext-numa",
        alias: None,
        csv: "ext_numa",
        title: "Extension: NUMA placement sensitivity on xalan",
        runs: Runs::Sweep(|p| numa_specs("xalan", p), numa_table),
    },
    Artifact {
        id: "ext-sharding",
        alias: None,
        csv: "ext_sharding",
        title: "Extension: sharding xalan's dtm-cache lock",
        runs: Runs::Sweep(
            |p| sharding_specs("xalan", 1, p),
            |s, r| sharding_table(1, s, r),
        ),
    },
    Artifact {
        id: "ext-gcworkers",
        alias: None,
        csv: "ext_gcworkers",
        title: "Extension: parallel GC worker scaling on xalan",
        runs: Runs::Sweep(|p| gc_workers_specs("xalan", p), gc_workers_table),
    },
    Artifact {
        id: "ext-oversub",
        alias: None,
        csv: "ext_oversub",
        title: "Extension: oversubscription (threads beyond 48 cores) on xalan",
        runs: Runs::Sweep(|p| oversub_specs("xalan", p), oversub_table),
    },
    Artifact {
        id: "ext-heapsize",
        alias: None,
        csv: "ext_heapsize",
        title: "Extension: trace-replay heap-size sweep on xalan (3x-min-heap rule)",
        // The recording run bypasses the sweep and the replays are not
        // runs at all, so there are no specs to campaign over.
        runs: Runs::Direct(|p| run_heap_size("xalan", p).map(|s| s.table())),
    },
    Artifact {
        id: "ext-concurrent",
        alias: None,
        csv: "ext_concurrent",
        title: "Extension: mostly-concurrent old generation on xalan",
        runs: Runs::Sweep(|p| concurrent_specs("xalan", p), concurrent_table),
    },
    Artifact {
        id: "ext-topo",
        alias: None,
        csv: "ext_topo",
        title: "Extension: machine-topology sweep on xalan (AMD / Xeon / SPARC-T3)",
        runs: Runs::Sweep(|p| topo_specs("xalan", p), |s, r| topo_study(s, r).table()),
    },
    Artifact {
        id: "ext-server",
        alias: None,
        csv: "ext_server",
        title: "Extension: server request workloads with overload control (metastable failure)",
        runs: Runs::Sweep(server_specs, |s, r| server_study(s, r).table()),
    },
    Artifact {
        id: "ext-locks",
        alias: None,
        csv: "ext_locks",
        title: "Extension: lock algorithms (fifo / mcs / malthusian) across all apps",
        runs: Runs::Sweep(lock_specs, |s, r| lock_study(s, r).table()),
    },
];

/// The artifact an id (or alias) names.
#[must_use]
pub fn artifact(id: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.id == id || a.alias == Some(id))
}

/// One rendered table of an artifact: the CSV base name, the banner
/// title, and the table itself.
#[derive(Debug, Clone)]
pub struct ArtifactTable {
    /// CSV base name (`<name>.csv` under `--out`).
    pub name: String,
    /// Human-readable banner printed above the table.
    pub title: String,
    /// The rendered table.
    pub table: Table,
}

/// Runs one artifact and renders its tables. Returns `None` for an
/// unknown artifact id (`all` is a CLI-level loop, not an artifact).
///
/// # Errors
///
/// The inner result propagates any [`SimError`] from the driver.
pub fn artifact_tables(
    artifact_id: &str,
    p: &ExpParams,
) -> Option<Result<Vec<ArtifactTable>, SimError>> {
    let a = artifact(artifact_id)?;
    Some(a.table(p).map(|table| {
        vec![ArtifactTable {
            name: a.csv.to_owned(),
            title: a.title.to_owned(),
            table,
        }]
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::variant_of;
    use crate::campaign::campaign_units;

    fn tiny() -> ExpParams {
        ExpParams::quick()
            .with_scale(0.01)
            .with_threads(vec![4, 16])
    }

    #[test]
    fn unknown_and_meta_ids_are_none() {
        let p = tiny();
        assert!(artifact_tables("nope", &p).is_none());
        assert!(artifact_tables("all", &p).is_none());
        assert!(artifact_tables("repro", &p).is_none());
        assert!(artifact_tables("campaign", &p).is_none());
    }

    #[test]
    fn ids_and_aliases_are_unique() {
        let mut ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
        ids.extend(ARTIFACTS.iter().filter_map(|a| a.alias));
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "an id or alias names two artifacts");
        assert_eq!(artifact("fig1b").map(|a| a.id), Some("fig1a"));
    }

    #[test]
    fn fig1a_and_fig1b_render_the_same_table() {
        let p = tiny();
        let a = artifact_tables("fig1a", &p).unwrap().unwrap();
        let b = artifact_tables("fig1b", &p).unwrap().unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].name, "fig1_locks");
        assert_eq!(a[0].table.to_csv(), b[0].table.to_csv());
    }

    /// The batch artifacts the batch-engine golden pins.
    const BATCH_ARTIFACTS: [&str; 7] = [
        "workdist",
        "scaletable",
        "fig1c",
        "fig1d",
        "fig2",
        "abl-sched",
        "abl-heap",
    ];

    /// The batch engine's event count and simulated wall time for every
    /// unique run behind [`BATCH_ARTIFACTS`], one row per run naming the
    /// artifacts that share it, then each artifact's rendered tables.
    fn batch_engine_csv(p: &ExpParams) -> String {
        // (memo key, variant, artifacts, spec), in first-occurrence order.
        let mut unique: Vec<(u64, String, Vec<&str>, RunSpec)> = Vec::new();
        for artifact in BATCH_ARTIFACTS {
            for spec in campaign_units(artifact, p).unwrap().unwrap() {
                let key = spec.memo_key();
                match unique.iter_mut().find(|u| u.0 == key) {
                    Some(u) if u.2.contains(&artifact) => {}
                    Some(u) => u.2.push(artifact),
                    None => unique.push((key, variant_of(&spec.config), vec![artifact], spec)),
                }
            }
        }
        let specs: Vec<RunSpec> = unique.iter().map(|u| u.3.clone()).collect();
        let reports = run_all(&specs);
        let mut csv = String::from("app,threads,variant,events,wall_ns,artifacts\n");
        for ((_, variant, artifacts, _), r) in unique.iter().zip(&reports) {
            csv += &format!(
                "{},{},{},{},{},{}\n",
                r.app,
                r.threads,
                variant,
                r.events_processed,
                r.wall_time.as_nanos(),
                artifacts.join(" ")
            );
        }
        for artifact in BATCH_ARTIFACTS {
            for t in artifact_tables(artifact, p).unwrap().unwrap() {
                csv += &format!("\n# {}\n{}", t.name, t.table.to_csv());
            }
        }
        csv
    }

    /// Pins the batch engine itself, not only the tables rendered from
    /// it: a change to event order or work-item generation moves the
    /// event count or the simulated wall of some run.
    #[test]
    fn batch_engine_matches_its_golden() {
        let p = ExpParams::quick()
            .with_scale(0.02)
            .with_threads(vec![4, 16, 48]);
        let golden = include_str!("../goldens/batch_engine.csv");
        assert_eq!(
            batch_engine_csv(&p),
            golden,
            "batch engine drifted from its golden"
        );
    }

    /// The extension artifacts no other golden pins.
    const EXT_ARTIFACTS: [&str; 8] = [
        "ext-ergo",
        "ext-numa",
        "ext-sharding",
        "ext-gcworkers",
        "ext-oversub",
        "ext-heapsize",
        "ext-concurrent",
        "ext-topo",
    ];

    /// Pins the rendered tables of [`EXT_ARTIFACTS`], so a change to how
    /// an artifact is generated or rendered cannot move a row unnoticed.
    #[test]
    fn ext_artifacts_match_their_golden() {
        let p = ExpParams::quick()
            .with_scale(0.02)
            .with_threads(vec![4, 16, 48]);
        let mut csv = String::new();
        for artifact in EXT_ARTIFACTS {
            for t in artifact_tables(artifact, &p).unwrap().unwrap() {
                csv += &format!("# {}\n{}\n", t.name, t.table.to_csv());
            }
        }
        let golden = include_str!("../goldens/artifacts_ext.csv");
        assert_eq!(csv, golden, "extension artifacts drifted from their golden");
    }

    #[test]
    fn topo_artifact_renders() {
        let t = artifact_tables("ext-topo", &tiny()).unwrap().unwrap();
        assert_eq!(t[0].name, "ext_topo");
        assert_eq!(t[0].table.num_rows(), 3 * 2);
    }
}
