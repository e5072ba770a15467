//! The benchmark's three workloads, each a pipeline of public library
//! calls with its own output checks.
//!
//! A workload runs in two steps. [`plan`] is the set-up: it pins the
//! environment, builds the sweep parameters and every run spec the
//! workload submits (through the library's own spec builders,
//! `campaign_units`), and creates the store directory. [`run`] then
//! executes the pipeline from a cold memo cache, times it, and checks
//! its outputs. With span recording on, `run` also takes the per-layer
//! measurements around the pipeline.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use scalesim_core::{report_from_json, report_to_json, JsonValue, RunReport, SimError};
use scalesim_experiments::campaign::campaign_units;
use scalesim_experiments::{
    checkpoint, clear_run_cache, run_all, run_analytics, run_biased_sched, run_fig1_locks,
    run_fig1c, run_fig1d, run_fig2, run_heaplets, run_scalability, run_server_study, run_workdist,
    take_run_manifests, take_sweep_failures, ExpParams, RunManifest, RunSpec, SweepFailureKind,
};
use scalesim_metrics::Table;
use scalesim_trace::TraceConfig;

use crate::spans::Spans;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The eight paper drivers plus the analytics pass, at paper size.
    PaperFigures,
    /// The `ext-server` study on the server request engine.
    ServerStorm,
    /// The traced `ext-locks` grid, checkpointed, resumed and audited.
    LocksTracedResume,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFigures,
        Workload::ServerStorm,
        Workload::LocksTracedResume,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper-figures",
            Workload::ServerStorm => "server-storm",
            Workload::LocksTracedResume => "locks-traced-resume",
        }
    }

    /// Why the workload is in the benchmark, in one line (the same text
    /// as in `BENCHMARK.json`).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperFigures => {
                "the eight paper drivers plus analytics at paper size: the batch engine and its \
                 layers do the work, memo hits are frequent and cheap"
            }
            Workload::ServerStorm => {
                "the ext-server study at 8 threads: the only workload on the server request \
                 engine, whose retry-storm run is the sweep's critical path"
            }
            Workload::LocksTracedResume => {
                "the traced ext-locks grid, checkpointed, resumed and audited: dyn lock \
                 algorithms, recorder, snapshot codec, costly memo hits"
            }
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The artifacts whose run specs the workload submits.
    fn artifacts(self) -> &'static [&'static str] {
        match self {
            Workload::PaperFigures => {
                &["workdist", "scaletable", "fig1a", "fig1c", "fig1d", "fig2"]
            }
            Workload::ServerStorm => &["ext-server"],
            Workload::LocksTracedResume => &["ext-locks"],
        }
    }

    /// Sweep parameters: paper size, or a tiny size for self-tests.
    fn params(self, size: Size, seed: u64) -> ExpParams {
        let (scale, threads) = match (self, size) {
            (Workload::PaperFigures, Size::Full) => (1.0, vec![4, 8, 16, 32, 48]),
            // Only 8 threads: at 4 the naive retry storm collapses at some
            // seeds and not at others, which makes the event count
            // bimodal across seeds. At 16 one run takes ~25 s. The server
            // horizon is fixed, so the tiny size cannot shrink it either.
            (Workload::ServerStorm, Size::Full) => (1.0, vec![8]),
            (Workload::ServerStorm, Size::Tiny) => (0.01, vec![8]),
            (Workload::LocksTracedResume, Size::Full) => (0.25, vec![4, 16, 48]),
            // The smallest size at which the §II-C split still holds.
            (Workload::PaperFigures, Size::Tiny) => (0.05, vec![4, 16, 48]),
            (Workload::LocksTracedResume, Size::Tiny) => (0.01, vec![4, 16]),
        };
        ExpParams {
            scale,
            seed,
            thread_counts: threads,
        }
    }
}

/// Workload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A tiny size that exercises every step in seconds (self-tests).
    Tiny,
}

/// Removes every `SCALESIM_*` variable from the environment and sets the
/// sweep worker count, so that no stray variable can change a workload.
/// The library reads these on every config build and sweep.
pub fn pin_env(workers: usize) {
    let stray: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_str().is_some_and(|k| k.starts_with("SCALESIM_")))
        .collect();
    for k in stray {
        std::env::remove_var(k);
    }
    std::env::set_var("SCALESIM_WORKERS", workers.to_string());
}

/// Sweep workers: the host's parallelism, which never exceeds `nproc`.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Everything set up before the first simulated event.
#[derive(Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Sweep parameters.
    pub params: ExpParams,
    /// The run specs the workload submits, duplicates included.
    pub specs: Vec<RunSpec>,
    /// The checkpoint store directory (locks-traced-resume only).
    pub store: Option<PathBuf>,
}

/// Sets a workload up: pins the environment, builds parameters and run
/// specs, and creates the store directory under `work_dir`.
///
/// # Errors
///
/// A spec builder's configuration error, or a failure to create the
/// store directory.
pub fn plan(
    workload: Workload,
    size: Size,
    seed: u64,
    work_dir: &Path,
    rep: u32,
) -> Result<Plan, String> {
    pin_env(workers());
    let params = workload.params(size, seed);
    let mut specs = Vec::new();
    for artifact in workload.artifacts() {
        let units = campaign_units(artifact, &params)
            .ok_or_else(|| format!("{artifact} has no run specs"))?
            .map_err(|e| format!("{artifact}: {e}"))?;
        specs.extend(units);
    }
    let store = if workload == Workload::LocksTracedResume {
        for spec in &mut specs {
            spec.config.trace = TraceConfig::on();
        }
        let dir = work_dir.join(format!("store-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Some(dir)
    } else {
        None
    };
    Ok(Plan {
        workload,
        params,
        specs,
        store,
    })
}

impl Plan {
    /// Drops the memo cache, drains the harness logs and deletes the
    /// store, leaving the process as cold as before [`plan`].
    pub fn teardown(self) {
        checkpoint::disable_store();
        clear_run_cache();
        let _ = take_run_manifests();
        let _ = take_sweep_failures();
        if let Some(dir) = self.store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Output checks: each is one attempted operation.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failed: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what());
        }
    }
}

/// Host times of the layers a workload uses on its own, from the
/// span-traced run. Absent when the workload bypasses the layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OwnLayers {
    /// Checkpoint appends: checkpointed grid minus the recorder-on grid.
    pub checkpoint_persist_s: Option<f64>,
    /// `checkpoint::resume_from`.
    pub checkpoint_resume_s: Option<f64>,
    /// Recorder-on grid minus recorder-off grid.
    pub trace_record_s: Option<f64>,
    /// Auditing every resumed report.
    pub audit_s: Option<f64>,
    /// `run_analytics`.
    pub analytics_s: Option<f64>,
}

/// Layer measurements only the span-traced run takes.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// The workload's unique reports.
    pub reports: Vec<RunReport>,
    /// Warm re-request of the workload's specs: seconds and lookups.
    pub hit_s: f64,
    /// Lookups in the warm re-request.
    pub hit_lookups: u64,
    /// `report_to_json` over the unique reports.
    pub encode_s: f64,
    /// `report_from_json` over the unique reports.
    pub decode_s: f64,
    /// Encoded bytes of the unique reports.
    pub snapshot_bytes: u64,
    /// Records the checkpoint store held at resume.
    pub checkpoint_records: u64,
    /// Bytes the checkpoint store held at resume.
    pub checkpoint_bytes: u64,
    /// Audit findings over the resumed reports.
    pub audit_findings: u64,
    /// Workload-specific layer times.
    pub own: OwnLayers,
}

/// What one pipeline repetition produced.
#[derive(Debug, Default)]
pub struct RepOut {
    /// Host seconds for the whole pipeline, from a cold memo cache.
    pub wall_s: f64,
    /// Manifests of the runs the pipeline simulated.
    pub simulated: Vec<RunManifest>,
    /// Memo lookups the pipeline made.
    pub lookups: u64,
    /// Lookups whose run did not end `ok`, plus memo evictions.
    pub run_failures: u64,
    /// Output checks.
    pub checks: Checks,
    /// Every rendered table, concatenated, for the digest.
    pub tables: String,
    /// Span-traced extras (span recording on only).
    pub traced: Option<Traced>,
}

impl RepOut {
    /// Simulated events, each unique run counted once.
    #[must_use]
    pub fn unique_events(&self) -> u64 {
        self.simulated.iter().map(|m| m.events).sum()
    }

    /// Operations attempted: memo lookups plus output checks.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.lookups + self.checks.attempted
    }

    /// Operations failed: failed runs, evictions and failed checks.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.run_failures + self.checks.failed.len() as u64
    }

    /// Stable 64-bit FNV-1a digest of every rendered table.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.tables.as_bytes())
    }
}

/// 64-bit FNV-1a, fixed here so digests compare across builds.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one pipeline repetition of `plan`'s workload. Span recording in
/// `spans` also switches on the per-layer measurements.
#[must_use]
pub fn run(plan: &Plan, spans: &mut Spans) -> RepOut {
    let traced = spans.enabled();
    let mut out = match plan.workload {
        Workload::PaperFigures => paper_figures(plan, spans),
        Workload::ServerStorm => server_storm(plan, spans),
        Workload::LocksTracedResume => locks_traced_resume(plan, spans),
    };
    let evictions = take_sweep_failures()
        .iter()
        .filter(|f| f.kind == SweepFailureKind::MemoCorruption)
        .count();
    out.run_failures += evictions as u64;
    if traced {
        let mut t = out.traced.take().unwrap_or_default();
        if t.reports.is_empty() {
            // Batch reports come back warm from the memo; the re-request
            // doubles as the memo-hit measurement.
            let (reports, secs) = spans.timed("sweep.rerequest", |_| run_all(&plan.specs));
            let _ = take_run_manifests();
            t.hit_s = secs;
            t.hit_lookups = plan.specs.len() as u64;
            t.reports = unique(&plan.specs, reports);
        }
        let (encoded, secs) = spans.timed("snapshot.encode", |_| {
            t.reports
                .iter()
                .map(|r| report_to_json(r).to_string())
                .collect::<Vec<_>>()
        });
        t.encode_s = secs;
        t.snapshot_bytes = encoded.iter().map(|s| s.len() as u64).sum();
        let (decoded, secs) = spans.timed("snapshot.decode", |_| {
            encoded
                .iter()
                .map(|s| {
                    JsonValue::parse(s)
                        .map_err(|e| e.to_string())
                        .and_then(|v| report_from_json(&v).map_err(|e| e.to_string()))
                })
                .collect::<Vec<_>>()
        });
        t.decode_s = secs;
        for (text, back) in encoded.iter().zip(&decoded) {
            let same = back
                .as_ref()
                .is_ok_and(|r| report_to_json(r).to_string() == *text);
            out.checks.check(same, || {
                "a report does not survive a snapshot round trip".to_owned()
            });
        }
        out.traced = Some(t);
    }
    out
}

/// Keeps the first report of every distinct spec.
fn unique(specs: &[RunSpec], reports: Vec<RunReport>) -> Vec<RunReport> {
    let mut seen = HashSet::new();
    specs
        .iter()
        .zip(reports)
        .filter(|(s, _)| seen.insert(s.memo_key()))
        .map(|(_, r)| r)
        .collect()
}

/// Drains the harness manifests, counting lookups and failed runs and
/// keeping the simulated (memo-miss) ones.
fn account(out: &mut RepOut, manifests: Vec<RunManifest>, simulating: bool) {
    out.lookups += manifests.len() as u64;
    out.run_failures += manifests.iter().filter(|m| m.outcome != "ok").count() as u64;
    if simulating {
        out.simulated
            .extend(manifests.into_iter().filter(|m| m.memo == "miss"));
    }
}

fn render(out: &mut RepOut, name: &str, table: Result<Table, SimError>) {
    match table {
        Ok(t) => {
            out.tables.push_str(name);
            out.tables.push('\n');
            out.tables.push_str(&t.to_csv());
        }
        Err(e) => out.checks.check(false, || format!("{name}: {e}")),
    }
}

/// The paper's §II-C split.
const SCALABLE: [&str; 3] = ["sunflow", "lusearch", "xalan"];
const NON_SCALABLE: [&str; 3] = ["h2", "eclipse", "jython"];

fn paper_figures(plan: &Plan, spans: &mut Spans) -> RepOut {
    let p = &plan.params;
    let mut out = RepOut::default();
    let start = Instant::now();
    let (tables, analytics) = spans.span("pipeline", |s| {
        let tables = vec![
            (
                "workdist",
                s.span("driver.workdist", |_| run_workdist(p).map(|x| x.table())),
            ),
            (
                "scaletable",
                s.span("driver.scaletable", |_| {
                    run_scalability(p).map(|x| x.table())
                }),
            ),
            (
                "fig1_locks",
                s.span("driver.fig1ab", |_| run_fig1_locks(p).map(|x| x.table())),
            ),
            (
                "fig1c",
                s.span("driver.fig1c", |_| run_fig1c(p).map(|x| x.table())),
            ),
            (
                "fig1d",
                s.span("driver.fig1d", |_| run_fig1d(p).map(|x| x.table())),
            ),
            (
                "fig2",
                s.span("driver.fig2", |_| run_fig2(p).map(|x| x.table())),
            ),
            (
                "abl_sched",
                s.span("driver.abl-sched", |_| {
                    run_biased_sched("xalan", p).map(|x| x.table())
                }),
            ),
            (
                "abl_heap",
                s.span("driver.abl-heap", |_| {
                    run_heaplets("xalan", p).map(|x| x.table())
                }),
            ),
        ];
        (tables, s.timed("analytics", |_| run_analytics(p)))
    });
    let (analytics, analytics_s) = analytics;
    out.wall_s = start.elapsed().as_secs_f64();
    account(&mut out, take_run_manifests(), true);
    for (name, table) in tables {
        render(&mut out, name, table);
    }
    match analytics {
        Ok(report) => {
            out.tables.push_str("analytics\n");
            out.tables.push_str(&report.to_json_string());
            out.checks.check(report.workloads.len() == 6, || {
                format!(
                    "analytics covers {} workloads, not 6",
                    report.workloads.len()
                )
            });
            for w in &report.workloads {
                let scalable = w.class.map(|c| c.label()) == Some("scalable");
                let expected = if SCALABLE.contains(&w.app.as_str()) {
                    Some(true)
                } else if NON_SCALABLE.contains(&w.app.as_str()) {
                    Some(false)
                } else {
                    None
                };
                out.checks.check(expected == Some(scalable), || {
                    format!(
                        "analytics puts {} in class {:?}, against the paper's split",
                        w.app,
                        w.class.map(|c| c.label())
                    )
                });
            }
        }
        Err(e) => out.checks.check(false, || format!("analytics: {e}")),
    }
    if spans.enabled() {
        out.traced = Some(Traced {
            own: OwnLayers {
                analytics_s: Some(analytics_s),
                ..OwnLayers::default()
            },
            ..Traced::default()
        });
    }
    out
}

/// Tail goodput of the naive policy must fall at least 40% below the
/// no-fault baseline, and the robust policy must stay within 5% of it
/// (the relation `tests/server.rs` pins).
const NAIVE_COLLAPSE: f64 = 0.6;
const ROBUST_RECOVERY: f64 = 0.05;

fn server_storm(plan: &Plan, spans: &mut Spans) -> RepOut {
    let p = &plan.params;
    let mut out = RepOut::default();
    let start = Instant::now();
    let study = spans.span("pipeline", |s| {
        s.span("driver.ext-server", |_| run_server_study(p))
    });
    out.wall_s = start.elapsed().as_secs_f64();
    account(&mut out, take_run_manifests(), true);
    let study = match study {
        Ok(study) => study,
        Err(e) => {
            out.checks.check(false, || format!("ext-server: {e}"));
            return out;
        }
    };
    render(&mut out, "ext_server", Ok(study.table()));

    // Conservation needs the full reports; they come back warm.
    let (reports, hit_s) = spans.timed("sweep.rerequest", |_| run_all(&plan.specs));
    let _ = take_run_manifests();
    for r in &reports {
        out.checks.check(
            r.server
                .as_ref()
                .is_some_and(scalesim_core::ServerStats::conserves),
            || format!("{}@{}: server attempts do not conserve", r.app, r.threads),
        );
    }
    let top = p.max_threads();
    for &threads in &p.thread_counts {
        let tail = |policy: &str| study.tail_ratio(policy, threads).unwrap_or(f64::NAN);
        let (base, naive, robust) = (tail("no-fault"), tail("naive"), tail("robust"));
        // The offered load scales with the pool, so only the top of the
        // sweep is sure to overrun the client timeout during the stall;
        // smaller pools may ride the fault out.
        if threads == top {
            out.checks.check(naive <= NAIVE_COLLAPSE * base, || {
                format!("naive@{threads}: tail goodput {naive:.3} did not collapse below {base:.3}")
            });
        }
        out.checks
            .check((robust - base).abs() <= ROBUST_RECOVERY * base, || {
                format!("robust@{threads}: tail goodput {robust:.3} did not recover to {base:.3}")
            });
    }
    if spans.enabled() {
        out.traced = Some(Traced {
            reports: unique(&plan.specs, reports),
            hit_s,
            hit_lookups: plan.specs.len() as u64,
            ..Traced::default()
        });
    }
    out
}

/// The locks grid rendered from its reports.
fn locks_table(specs: &[RunSpec], reports: &[RunReport]) -> Table {
    let mut t = Table::new(vec![
        "app",
        "alg",
        "threads",
        "wall_ns",
        "contentions",
        "items",
        "timeline",
        "outcome",
    ]);
    for (spec, r) in specs.iter().zip(reports) {
        t.row(vec![
            r.app.clone(),
            spec.config.lock_alg.as_str().to_owned(),
            r.threads.to_string(),
            r.wall_time.as_nanos().to_string(),
            r.locks.total.contentions.to_string(),
            r.total_items().to_string(),
            r.timeline.len().to_string(),
            r.outcome.to_string(),
        ]);
    }
    t
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn locks_traced_resume(plan: &Plan, spans: &mut Spans) -> RepOut {
    let mut out = RepOut::default();
    let Some(store) = plan.store.as_deref() else {
        out.checks.check(false, || {
            "locks-traced-resume planned without a store".to_owned()
        });
        return out;
    };
    let specs = &plan.specs;
    let start = Instant::now();
    let mut step_s = [0.0; 4];
    let (live, live_manifests, resume, store_bytes, resumed, findings) =
        spans.span("pipeline", |s| {
            // 1. The traced grid with the checkpoint store active.
            let (live, grid_s) = s.timed("locks.grid", |_| {
                checkpoint::set_store(store).map(|()| run_all(specs))
            });
            let live_manifests = take_run_manifests();
            checkpoint::disable_store();
            let store_bytes = dir_bytes(store);
            // 2. A cold cache, resumed from the store, and the grid again.
            clear_run_cache();
            let (resume, resume_s) =
                s.timed("checkpoint.resume", |_| checkpoint::resume_from(store));
            let (resumed, hit_s) = s.timed("sweep.resumed", |_| run_all(specs));
            checkpoint::disable_store();
            // 3. Audit every resumed report.
            let (findings, audit_s) = s.timed("audit", |_| {
                resumed
                    .iter()
                    .map(|r| {
                        let audit = scalesim_audit::audit(&r.timeline, &r.counters, false);
                        (audit.findings.len(), r.timeline.dropped())
                    })
                    .collect::<Vec<_>>()
            });
            step_s = [grid_s, resume_s, hit_s, audit_s];
            (live, live_manifests, resume, store_bytes, resumed, findings)
        });
    out.wall_s = start.elapsed().as_secs_f64();
    let [grid_s, resume_s, hit_s, audit_s] = step_s;
    account(&mut out, live_manifests, true);
    account(&mut out, take_run_manifests(), false);

    let live = match live {
        Ok(live) => live,
        Err(e) => {
            out.checks.check(false, || format!("checkpoint store: {e}"));
            return out;
        }
    };
    let live_table = locks_table(specs, &live);
    let resumed_table = locks_table(specs, &resumed);
    out.checks
        .check(live_table.to_csv() == resumed_table.to_csv(), || {
            "resumed locks table differs from the live table".to_owned()
        });
    render(&mut out, "ext_locks_traced", Ok(live_table));
    let unique_runs = specs
        .iter()
        .map(RunSpec::memo_key)
        .collect::<HashSet<_>>()
        .len();
    match &resume {
        Ok(stats) => out
            .checks
            .check(stats.loaded == unique_runs && stats.skipped == 0, || {
                format!("resume loaded {stats:?}, expected {unique_runs} records")
            }),
        Err(e) => out.checks.check(false, || format!("resume: {e}")),
    }
    for (l, r) in live.iter().zip(&resumed) {
        // Same host_ns too: the report was replayed, not re-simulated.
        out.checks.check(
            report_to_json(l).to_string() == report_to_json(r).to_string(),
            || {
                format!(
                    "{}@{}: resumed report differs from the live one",
                    r.app, r.threads
                )
            },
        );
    }
    for ((count, dropped), r) in findings.iter().zip(&resumed) {
        out.checks.check(*count == 0 && *dropped == 0, || {
            format!(
                "{}@{}: audit found {count} findings, {dropped} dropped timeline events",
                r.app, r.threads
            )
        });
    }

    if spans.enabled() {
        // Recorder cost and checkpoint cost, by difference: the same grid
        // with the recorder off, then on without the store.
        let untraced: Vec<RunSpec> = specs
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.config.trace = TraceConfig::off();
                s
            })
            .collect();
        clear_run_cache();
        let off_s = spans
            .timed("locks.grid.recorder-off", |_| run_all(&untraced))
            .1;
        clear_run_cache();
        let on_s = spans.timed("locks.grid.recorder-on", |_| run_all(specs)).1;
        let _ = take_run_manifests();
        out.traced = Some(Traced {
            reports: unique(specs, live),
            hit_s,
            hit_lookups: specs.len() as u64,
            checkpoint_records: resume.as_ref().map_or(0, |s| s.loaded as u64),
            checkpoint_bytes: store_bytes,
            audit_findings: findings.iter().map(|(c, _)| *c as u64).sum(),
            own: OwnLayers {
                checkpoint_persist_s: Some(grid_s - on_s),
                checkpoint_resume_s: Some(resume_s),
                trace_record_s: Some(on_s - off_s),
                audit_s: Some(audit_s),
                analytics_s: None,
            },
            ..Traced::default()
        });
    }
    out
}
