//! Artifact dispatch: one place mapping artifact ids to rendered tables.
//!
//! Both the CLI driver and the campaign merge pass go through
//! [`artifact_tables`], so a merged campaign renders its final tables
//! with exactly the code a single-process run uses — the byte-identity
//! guarantee of `campaign` rests on this sharing.

use scalesim_core::SimError;
use scalesim_metrics::Table;

use crate::ablation::{run_biased_sched, run_heaplets};
use crate::ext_locks::run_lock_algorithms;
use crate::extensions::{
    run_concurrent_old_gen, run_ergonomics, run_gc_workers, run_heap_size, run_lock_sharding,
    run_numa_placement, run_oversubscription,
};
use crate::fig1_lifespan::{run_fig1c, run_fig1d};
use crate::fig1_locks::run_fig1_locks;
use crate::fig2_gc::run_fig2;
use crate::params::ExpParams;
use crate::scalability::run_scalability;
use crate::server::run_server_study;
use crate::topo::run_topology;
use crate::workdist::run_workdist;

/// Every artifact id `all` expands to, in execution order. `fig1b` is
/// omitted because it renders the same table as `fig1a`.
pub const ALL_ARTIFACTS: &[&str] = &[
    "workdist",
    "scaletable",
    "fig1a",
    "fig1c",
    "fig1d",
    "fig2",
    "abl-sched",
    "abl-heap",
    "ext-ergo",
    "ext-numa",
    "ext-sharding",
    "ext-gcworkers",
    "ext-oversub",
    "ext-heapsize",
    "ext-concurrent",
    "ext-topo",
    "ext-server",
    "ext-locks",
];

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

fn one(
    name: &str,
    title: &str,
    table: Result<Table, SimError>,
) -> Result<Vec<ArtifactTable>, SimError> {
    Ok(vec![ArtifactTable {
        name: name.to_owned(),
        title: title.to_owned(),
        table: table?,
    }])
}

/// Runs one artifact and renders its tables. Returns `None` for an
/// unknown artifact id (`all` is a CLI-level loop, not an artifact).
///
/// # Errors
///
/// The inner result propagates any [`SimError`] from the driver.
#[allow(clippy::too_many_lines)]
pub fn artifact_tables(
    artifact: &str,
    p: &ExpParams,
) -> Option<Result<Vec<ArtifactTable>, SimError>> {
    let tables = match artifact {
        "workdist" => one(
            "workdist",
            "Workload distribution across threads (paper SIII)",
            run_workdist(p).map(|s| s.table()),
        ),
        "scaletable" => one(
            "scaletable",
            "Scalability classification (paper SII-C)",
            run_scalability(p).map(|s| s.table()),
        ),
        "fig1a" | "fig1b" => one(
            "fig1_locks",
            "Fig 1a/1b: lock acquisitions & contentions vs threads",
            run_fig1_locks(p).map(|s| s.table()),
        ),
        "fig1c" => one(
            "fig1c",
            "Fig 1c: eclipse object-lifespan CDF",
            run_fig1c(p).map(|s| s.table()),
        ),
        "fig1d" => one(
            "fig1d",
            "Fig 1d: xalan object-lifespan CDF",
            run_fig1d(p).map(|s| s.table()),
        ),
        "fig2" => one(
            "fig2",
            "Fig 2: mutator vs GC time decomposition (scalable apps)",
            run_fig2(p).map(|s| s.table()),
        ),
        "abl-sched" => one(
            "abl_sched",
            "Ablation: biased (cohort) scheduling on xalan (paper SIV.1)",
            run_biased_sched("xalan", p).map(|s| s.table()),
        ),
        "abl-heap" => one(
            "abl_heap",
            "Ablation: compartmentalized heaplets on xalan (paper SIV.2)",
            run_heaplets("xalan", p).map(|s| s.table()),
        ),
        "ext-ergo" => one(
            "ext_ergo",
            "Extension: adaptive nursery sizing on xalan (HotSpot ergonomics)",
            run_ergonomics("xalan", p).map(|s| s.table()),
        ),
        "ext-numa" => one(
            "ext_numa",
            "Extension: NUMA placement sensitivity on xalan",
            run_numa_placement("xalan", p).map(|s| s.table()),
        ),
        "ext-sharding" => one(
            "ext_sharding",
            "Extension: sharding xalan's dtm-cache lock",
            run_lock_sharding("xalan", 1, p).map(|s| s.table()),
        ),
        "ext-gcworkers" => one(
            "ext_gcworkers",
            "Extension: parallel GC worker scaling on xalan",
            run_gc_workers("xalan", p).map(|s| s.table()),
        ),
        "ext-oversub" => one(
            "ext_oversub",
            "Extension: oversubscription (threads beyond 48 cores) on xalan",
            run_oversubscription("xalan", p).map(|s| s.table()),
        ),
        "ext-heapsize" => one(
            "ext_heapsize",
            "Extension: trace-replay heap-size sweep on xalan (3x-min-heap rule)",
            run_heap_size("xalan", p).map(|s| s.table()),
        ),
        "ext-concurrent" => one(
            "ext_concurrent",
            "Extension: mostly-concurrent old generation on xalan",
            run_concurrent_old_gen("xalan", p).map(|s| s.table()),
        ),
        "ext-topo" => one(
            "ext_topo",
            "Extension: machine-topology sweep on xalan (AMD / Xeon / SPARC-T3)",
            run_topology("xalan", p).map(|s| s.table()),
        ),
        "ext-server" => one(
            "ext_server",
            "Extension: server request workloads with overload control (metastable failure)",
            run_server_study(p).map(|s| s.table()),
        ),
        "ext-locks" => one(
            "ext_locks",
            "Extension: lock algorithms (fifo / mcs / malthusian) across all apps",
            run_lock_algorithms(p).map(|s| s.table()),
        ),
        _ => return None,
    };
    Some(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::{biased_sched_variants, heaplet_variants, variant_specs};
    use crate::campaign::campaign_units;
    use crate::sweep::{run_all, RunSpec};

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
    fn every_listed_artifact_dispatches() {
        let p = tiny();
        for id in ALL_ARTIFACTS {
            assert!(artifact_tables(id, &p).is_some(), "{id} not dispatched");
        }
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
        let mut labelled: Vec<(&str, &str, RunSpec)> = Vec::new();
        for &artifact in &BATCH_ARTIFACTS[..5] {
            let specs = campaign_units(artifact, p).unwrap().unwrap();
            labelled.extend(specs.into_iter().map(|s| (artifact, "baseline", s)));
        }
        for (artifact, variants) in [
            ("abl-sched", biased_sched_variants(p.seed).unwrap()),
            ("abl-heap", heaplet_variants(p.seed).unwrap()),
        ] {
            let specs = variant_specs("xalan", p, &variants).unwrap();
            labelled.extend(specs.into_iter().map(|(v, s)| (artifact, v, s)));
        }

        // (memo key, variant, artifacts, spec), in first-occurrence order.
        let mut unique: Vec<(u64, &str, Vec<&str>, RunSpec)> = Vec::new();
        for (artifact, variant, spec) in labelled {
            let key = spec.memo_key();
            match unique.iter_mut().find(|u| u.0 == key) {
                Some(u) if u.2.contains(&artifact) => {}
                Some(u) => u.2.push(artifact),
                None => unique.push((key, variant, vec![artifact], spec)),
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

    #[test]
    fn topo_artifact_renders() {
        let t = artifact_tables("ext-topo", &tiny()).unwrap().unwrap();
        assert_eq!(t[0].name, "ext_topo");
        assert_eq!(t[0].table.num_rows(), 3 * 2);
    }
}
