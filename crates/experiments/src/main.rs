//! Command-line driver regenerating every table and figure of the paper.
//!
//! ```sh
//! scalesim-experiments all                 # paper-sized, every artifact
//! scalesim-experiments fig1d --scale 0.1   # one artifact, smaller run
//! scalesim-experiments fig2 --out results  # also write CSV files
//! ```

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use scalesim_core::{JsonValue, Jvm, JvmConfig, LockAlg, ReproSpec, SimError, TraceConfig};
use scalesim_experiments::campaign::{self, CampaignError, CampaignSpec};
use scalesim_experiments::{
    artifact_tables, audit_spec, checkpoint, run_analytics, run_isolated, shrink_failure,
    take_run_manifests, take_sweep_failures, write_analytics, write_audit_repro, write_repro,
    ExpParams, RunSpec, SweepFailure, SweepFailureKind, ARTIFACTS,
};
use scalesim_metrics::Table;
use scalesim_trace::write_atomic;
use scalesim_workloads::{h2, lusearch, xalan};

const USAGE: &str = "\
usage: scalesim-experiments <artifact> [--scale F] [--seed N] [--threads a,b,c] [--out DIR]
                            [--trace FILE] [--checkpoint DIR] [--resume] [--audit] [--analyze]
       scalesim-experiments campaign <artifact> --dir DIR [--workers N] [options]
       scalesim-experiments analyze [--dir CKPT] [options]
       scalesim-experiments repro FILE
       scalesim-experiments audit [--seed N] [--out DIR]

artifacts:
  workdist    per-thread workload distribution (paper §III)
  scaletable  scalable / non-scalable classification (paper §II-C)
  fig1a       lock acquisitions vs threads (with fig1b)
  fig1b       lock contentions vs threads (with fig1a)
  fig1c       eclipse object-lifespan CDF
  fig1d       xalan object-lifespan CDF
  fig2        mutator vs GC time decomposition
  abl-sched   ablation: biased (cohort) scheduling
  abl-heap    ablation: compartmentalized heaplets
  ext-ergo    extension: adaptive nursery sizing (pause goals)
  ext-numa    extension: compact vs scatter NUMA placement
  ext-sharding extension: sharding xalan's hot dtm-cache lock
  ext-gcworkers extension: parallel GC worker scaling
  ext-oversub  extension: oversubscription (threads beyond cores)
  ext-heapsize extension: trace-replay heap-size sweep (3x-min-heap rule)
  ext-concurrent extension: mostly-concurrent old-gen collector
  ext-topo    extension: machine-topology sweep (AMD / Xeon / SPARC-T3)
  ext-locks   extension: lock algorithms (fifo / mcs / malthusian) x
              thread count across all six workloads; the queue-fair
              algorithms collapse past the knee, the Malthusian
              (concurrency-restricting) lock holds its saturated
              throughput
  ext-server  extension: server request workloads with overload control
              (no-fault / naive / robust policies under a transient GC
              stall; reproduces retry-storm metastable failure and its
              elimination by backoff + admission control). Knobs:
              SCALESIM_SERVER_RATE, SCALESIM_SERVER_TIMEOUT_US,
              SCALESIM_SERVER_QUEUE, SCALESIM_SERVER_ADMIT (0 = none),
              SCALESIM_SERVER_DEGRADE (0 = none). A run whose server
              enters degraded mode exits 2 like a quarantined run
  all         everything above
  campaign <artifact>  drain one artifact's sweep cooperatively across
              N worker processes sharing --dir: units are claimed with
              lease files, results stream into per-worker crc-framed
              segments, and once the workers exit this process runs
              whatever a dead worker left unfinished and merges. The
              result is byte-identical to a single-process run no
              matter how many workers ran or crashed (SIGKILL
              included). Campaignable artifacts:
              every artifact except ext-heapsize. Takes every option a
              single run takes except --checkpoint and --resume (the
              campaign directory is its own store)
  repro FILE  re-execute a shrunk failure spec (repro-*.json or
              audit-*.json) exactly; exits 0 when the failure
              reproduces, 1 when it does not
  audit       run the concurrency auditor over pinned traced runs
              (h2 @16, xalan @8, scale 0.02); chaos comes from
              SCALESIM_CHAOS. Exits 0 when the audit is clean, 1 on
              unexpected findings, 2 when every finding is explained
              by an injected fault; writes audit-<key>.json repros
              for findings into --out (or the current directory)
  analyze     fit the figure sweep's throughput curves to the
              Universal Scalability Law (per-workload sigma/kappa,
              peak concurrency, predicted collapse point, automatic
              scalable / contention-limited / coherency-collapsed
              classification), attribute thread-time (mutator / GC /
              lock wait), and report p50/p95/p99 monitor hold and
              lock-wait latencies; writes a deterministic,
              fingerprinted analytics.json into --out (or the current
              directory). With --dir CKPT the sweep is replayed from
              that checkpoint store, so the artifact is re-derived
              without re-simulation and byte-identical to the live run

options:
  --scale F      workload scale factor (default 1.0 = paper-sized)
  --seed N       master seed (default 42)
  --threads LIST comma-separated thread counts (default 4,8,16,32,48)
  --lock-alg A   monitor lock algorithm for every run: fifo (default),
                 mcs, or malthusian (SCALESIM_LOCK_ALG reaches the same
                 switch from wrappers; campaign workers inherit it)
  --out DIR      also write each table as CSV into DIR, plus a
                 manifest.jsonl joining every sweep run with its
                 harness provenance (memo/retry/quarantine status)
  --trace FILE   additionally run a traced 4-thread lusearch and export
                 its timeline as Chrome trace-event JSON to FILE (open
                 at https://ui.perfetto.dev or chrome://tracing);
                 SCALESIM_TRACE=<path> traces every run instead
  --checkpoint DIR  persist every completed run to a crc-checked store
                 in DIR as the sweep goes
  --resume       replay the checkpoint store before sweeping: verified
                 runs are served without re-simulation, torn or corrupt
                 records re-run
  --audit        after the artifact, re-execute every quarantined sweep
                 point with salvage + tracing and run the concurrency
                 auditor over the recovered timeline; audit-<key>.json
                 repros land next to the shrinker's repro files
  --analyze      after the artifact, run the analytics pass over the
                 figure sweep (memoized runs are reused) and write
                 analytics.json next to the CSVs; manifest.jsonl rows
                 gain analytics/analytics_fp cross-links
  --dir DIR      (campaign) the shared campaign directory;
                 (analyze) a checkpoint store to re-derive from
  --workers N    (campaign) worker processes to spawn (default 2;
                 0 = drain in-process)

exit codes: 0 clean; 1 runtime failure; 2 finished but some run was
quarantined, truncated, memo-corrupted, or served degraded; 3 usage/
config error
";

struct Cli {
    artifact: String,
    file: Option<PathBuf>,
    target: Option<String>,
    dir: Option<PathBuf>,
    workers: Option<usize>,
    params: ExpParams,
    lock_alg: Option<LockAlg>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    audit: bool,
    analyze: bool,
}

/// CLI failure split by exit code: bad input (3, with usage) vs a
/// failure at runtime (1).
enum CliError {
    Config(String),
    Runtime(String),
}

impl From<CampaignError> for CliError {
    fn from(e: CampaignError) -> Self {
        match e {
            CampaignError::Config(msg) => CliError::Config(msg),
            CampaignError::Runtime(msg) => CliError::Runtime(msg),
        }
    }
}

/// Reports `e` and maps it onto its exit code.
fn fail(e: CliError) -> ExitCode {
    match e {
        CliError::Config(msg) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            ExitCode::from(3)
        }
        CliError::Runtime(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Maps engine errors onto the CLI's exit-code classes: rejected
/// configurations, unknown apps, and malformed snapshots are the
/// caller's input (3); invariant violations are runtime failures (1).
fn classify(e: &SimError) -> CliError {
    match e {
        SimError::Config(_) | SimError::UnknownApp(_) | SimError::Snapshot(_) => {
            CliError::Config(e.to_string())
        }
        SimError::Invariant(_) => CliError::Runtime(e.to_string()),
    }
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut artifact: Option<String> = None;
    let mut file = None;
    let mut target: Option<String> = None;
    let mut dir = None;
    let mut workers = None;
    let mut params = ExpParams::paper();
    let mut lock_alg = None;
    let mut out = None;
    let mut trace = None;
    let mut checkpoint = None;
    let mut resume = false;
    let mut audit = false;
    let mut analyze = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                let scale: f64 = v.parse().map_err(|_| format!("bad scale {v}"))?;
                if scale <= 0.0 {
                    return Err("scale must be positive".to_owned());
                }
                params = params.with_scale(scale);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                params.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let threads: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
                let threads = threads.map_err(|_| format!("bad thread list {v}"))?;
                if threads.is_empty() || !threads.windows(2).all(|w| w[0] < w[1]) {
                    return Err("thread list must be strictly increasing".to_owned());
                }
                params = params.with_threads(threads);
            }
            "--lock-alg" => {
                let v = it.next().ok_or("--lock-alg needs a value")?;
                lock_alg = Some(LockAlg::parse(v).ok_or_else(|| {
                    format!("unknown lock algorithm {v} (fifo | mcs | malthusian)")
                })?);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                out = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a value")?;
                trace = Some(PathBuf::from(v));
            }
            "--checkpoint" => {
                let v = it.next().ok_or("--checkpoint needs a directory")?;
                checkpoint = Some(PathBuf::from(v));
            }
            "--resume" => resume = true,
            "--audit" => audit = true,
            "--analyze" => analyze = true,
            "--dir" => {
                let v = it.next().ok_or("--dir needs a directory")?;
                dir = Some(PathBuf::from(v));
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a count")?;
                workers = Some(v.parse().map_err(|_| format!("bad worker count {v}"))?);
            }
            "--help" | "-h" => return Err(String::new()),
            other if artifact.is_none() && !other.starts_with('-') => {
                artifact = Some(other.to_owned());
            }
            other
                if artifact.as_deref() == Some("repro")
                    && file.is_none()
                    && !other.starts_with('-') =>
            {
                file = Some(PathBuf::from(other));
            }
            other
                if artifact.as_deref() == Some("campaign")
                    && target.is_none()
                    && !other.starts_with('-') =>
            {
                target = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let artifact = artifact.ok_or("no artifact given")?;
    if artifact == "repro" && file.is_none() {
        return Err("repro needs a repro-*.json file argument".to_owned());
    }
    if artifact == "campaign" {
        if target.is_none() {
            return Err("campaign needs a target artifact (e.g. campaign scaletable)".to_owned());
        }
        if dir.is_none() {
            return Err("campaign needs --dir DIR (the shared campaign directory)".to_owned());
        }
        if checkpoint.is_some() || resume {
            return Err(
                "campaign takes no --checkpoint or --resume: its --dir is its own store".to_owned(),
            );
        }
    }
    Ok(Cli {
        artifact,
        file,
        target,
        dir,
        workers,
        params,
        lock_alg,
        out,
        trace,
        checkpoint,
        resume,
        audit,
        analyze,
    })
}

/// Runs a traced 4-thread lusearch at the CLI's scale/seed and exports
/// its timeline as Chrome trace-event JSON — the quick way to eyeball a
/// run at <https://ui.perfetto.dev>.
fn export_trace(cli: &Cli, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let config = JvmConfig::builder()
        .threads(4)
        .seed(cli.params.seed)
        .trace(TraceConfig::off().with_path(path.display().to_string()))
        .build()
        .map_err(|e| e.to_string())?;
    let report = Jvm::new(config)
        .run(&lusearch().scaled(cli.params.scale))
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} timeline events; open at https://ui.perfetto.dev)",
        path.display(),
        report.timeline.len()
    );
    Ok(())
}

/// Writes run manifests as `manifest.jsonl` in `dir` (atomically, so a
/// crash mid-write never leaves a truncated file behind). When the run
/// also emitted an analytics artifact, every row gains `analytics` /
/// `analytics_fp` keys cross-linking it to `analytics.json` (manifest
/// validators ignore unknown keys, so old consumers keep working).
fn write_manifests(
    dir: &Path,
    manifests: &[scalesim_experiments::RunManifest],
    analytics_fp: Option<u64>,
) -> Result<(), String> {
    let path = dir.join("manifest.jsonl");
    let mut body = String::new();
    for m in manifests {
        let mut line = m.to_json_line();
        if let Some(fp) = analytics_fp {
            debug_assert!(line.ends_with('}'));
            line.pop();
            line.push_str(&format!(
                ",\"analytics\":\"analytics.json\",\"analytics_fp\":\"{fp:016x}\"}}"
            ));
        }
        body.push_str(&line);
        body.push('\n');
    }
    write_atomic(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {} ({} runs)", path.display(), manifests.len());
    Ok(())
}

/// Runs the analytics pass (USL fit + time attribution + percentiles)
/// over the figure sweep — served from the memo cache whenever the
/// sweep already ran in this process or was replayed from a checkpoint
/// or campaign — prints the rendered report, and writes
/// `analytics.json` into `dir`. Returns the artifact fingerprint for
/// manifest cross-linking.
fn emit_analytics(params: &ExpParams, dir: &Path) -> Result<u64, CliError> {
    let analytics = run_analytics(params).map_err(|e| classify(&e))?;
    print!("{}", analytics.render());
    let path = write_analytics(dir, &analytics)
        .map_err(|e| CliError::Runtime(format!("write analytics.json: {e}")))?;
    let fp = analytics.fingerprint();
    println!("wrote {} (fingerprint {fp:016x})\n", path.display());
    Ok(fp)
}

fn emit(out: &Option<PathBuf>, name: &str, title: &str, table: &Table) -> Result<(), CliError> {
    println!("== {title} ==");
    println!("{table}");
    if let Some(dir) = out {
        let path = dir.join(format!("{name}.csv"));
        write_atomic(&path, table.to_csv())
            .map_err(|e| CliError::Runtime(format!("write {}: {e}", path.display())))?;
        println!("wrote {}", path.display());
    }
    println!();
    Ok(())
}

fn run_artifact(cli: &Cli, artifact: &str) -> Result<(), CliError> {
    if artifact == "all" {
        for a in ARTIFACTS {
            run_artifact(cli, a.id)?;
        }
        return Ok(());
    }
    let tables = artifact_tables(artifact, &cli.params)
        .ok_or_else(|| CliError::Config(format!("unknown artifact {artifact}")))?
        .map_err(|e| classify(&e))?;
    for t in &tables {
        emit(&cli.out, &t.name, &t.title, &t.table)?;
    }
    Ok(())
}

/// A campaign worker process (`SCALESIM_CAMPAIGN_ROLE=worker`, spawned
/// by [`run_campaign`] or launched by hand on another terminal or host
/// sharing the directory): drains and exits.
fn drain_as_worker(dir: &Path, spec: &CampaignSpec) -> Result<(), CliError> {
    let stats = campaign::worker_drain(dir, spec)?;
    println!(
        "campaign worker pid {}: ran {} skipped {} volatile {} quarantined {}",
        std::process::id(),
        stats.ran,
        stats.skipped,
        stats.volatile,
        stats.quarantined
    );
    Ok(())
}

/// Worker processes a campaign spawns when `--workers` is not given.
const DEFAULT_WORKERS: usize = 2;

/// The `campaign` parent up to its merge: initializes the directory,
/// spawns `workers` children of itself, waits for them — tolerating
/// any of them dying — and then finishes the campaign in-process
/// ([`campaign::run_local`]): the dead workers' leases are cleared,
/// anything left over runs here, and the segments merge into the memo
/// cache. The caller then finishes like a single run of the target
/// artifact.
fn run_campaign(dir: &Path, spec: &CampaignSpec, workers: usize) -> Result<(), CliError> {
    campaign::init(dir, spec)?;
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Runtime(format!("locate own binary: {e}")))?;
    let threads_arg: String = spec
        .params
        .thread_counts
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut children = Vec::new();
    for i in 1..=workers {
        let spawned = std::process::Command::new(&exe)
            .arg("campaign")
            .arg(&spec.artifact)
            .arg("--dir")
            .arg(dir)
            .arg("--scale")
            .arg(format!("{:?}", spec.params.scale))
            .arg("--seed")
            .arg(spec.params.seed.to_string())
            .arg("--threads")
            .arg(&threads_arg)
            .env("SCALESIM_CAMPAIGN_ROLE", "worker")
            .stdout(std::process::Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => children.push((i, child)),
            Err(e) => eprintln!("warning: spawn campaign worker {i}: {e} (continuing without it)"),
        }
    }
    if !children.is_empty() {
        println!(
            "campaign: {} worker process(es) draining {} into {}",
            children.len(),
            spec.artifact,
            dir.display()
        );
    }
    for (i, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!(
                "warning: campaign worker {i} exited with {status}; \
                 its unfinished units run here"
            ),
            Err(e) => eprintln!("warning: wait for campaign worker {i}: {e}"),
        }
    }
    let (stats, merged) = campaign::run_local(dir, spec)?;
    println!(
        "campaign: {} unit(s): {} restored from segments, {} left to the sweep; \
         finisher ran {}, {} torn/corrupt line(s) skipped",
        merged.units, merged.restored, merged.reran, stats.ran, merged.skipped_lines
    );
    Ok(())
}

/// Activates the checkpoint store (`--checkpoint`, `--resume`). For the
/// analyze subcommand `--dir CKPT` is resume sugar: replay the store,
/// then derive the artifact from the replayed runs.
fn open_checkpoint(cli: &Cli) -> Result<(), CliError> {
    let analyze_from_dir = cli.artifact == "analyze" && cli.dir.is_some();
    let ckpt_dir = cli
        .checkpoint
        .clone()
        .or_else(|| cli.dir.clone().filter(|_| analyze_from_dir));
    let resume = cli.resume || analyze_from_dir;
    let Some(dir) = &ckpt_dir else {
        return if resume {
            Err(CliError::Config(
                "--resume needs --checkpoint DIR".to_owned(),
            ))
        } else {
            Ok(())
        };
    };
    let activated = if resume {
        checkpoint::resume_from(dir).map(|stats| {
            let older = if stats.older > 0 {
                format!(", {} from an older snapshot version", stats.older)
            } else {
                String::new()
            };
            println!(
                "resumed {} run(s) from {} ({} segment(s), {} record(s) skipped{older})",
                stats.loaded,
                dir.display(),
                stats.segments,
                stats.skipped
            );
        })
    } else {
        checkpoint::set_store(dir)
    };
    activated.map_err(|e| CliError::Config(format!("checkpoint store {}: {e}", dir.display())))
}

/// Re-executes a shrunk failure spec from a `repro-*.json` file.
/// Exit 0 when the failure reproduces, 1 when the run completes, 3 when
/// the file does not parse or reconstruct.
fn run_repro(path: &Path) -> ExitCode {
    let config_fail = |msg: String| -> ExitCode {
        eprintln!("error: {msg}");
        ExitCode::from(3)
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return config_fail(format!("read {}: {e}", path.display())),
    };
    let parsed = match JsonValue::parse(text.trim()) {
        Ok(v) => v,
        Err(e) => return config_fail(format!("parse {}: {e}", path.display())),
    };
    let repro = match ReproSpec::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => return config_fail(format!("{}: {e}", path.display())),
    };
    let (app, config) = match repro.reconstruct() {
        Ok(pair) => pair,
        Err(e) => return config_fail(format!("{}: {e}", path.display())),
    };
    let spec = RunSpec { app, config };
    if !repro.exact {
        eprintln!("warning: spec was not key-exact when captured; behavior may differ");
    }
    if spec.memo_key() != repro.spec_key {
        eprintln!(
            "warning: reconstructed key {:016x} differs from recorded {:016x}",
            spec.memo_key(),
            repro.spec_key
        );
    }
    println!(
        "repro: app={} threads={} seed={} (key {:016x})",
        repro.app, repro.threads, repro.seed, repro.spec_key
    );
    match run_isolated(&spec) {
        Err(why) => {
            println!("reproduced: {why}");
            ExitCode::SUCCESS
        }
        Ok(report) => {
            println!(
                "run completed without failing (outcome: {})",
                report.outcome
            );
            ExitCode::FAILURE
        }
    }
}

/// The distinct quarantined specs of a failure digest, first occurrence
/// first: what the shrinker and the auditor re-execute.
fn quarantined(failures: &[SweepFailure]) -> impl Iterator<Item = (&SweepFailure, &RunSpec)> {
    let mut seen = HashSet::new();
    failures
        .iter()
        .filter(|f| f.kind == SweepFailureKind::Quarantined)
        .filter_map(|f| Some((f, f.run_spec.as_ref()?)))
        .filter(move |(_, spec)| seen.insert(spec.memo_key()))
}

/// Shrinks every quarantined failure in the digest to a minimal failing
/// spec and writes one `repro-<key>.json` per distinct point into
/// `dir`.
fn shrink_quarantined(failures: &[SweepFailure], dir: &Path) {
    for (f, spec) in quarantined(failures) {
        match shrink_failure(spec) {
            Some(outcome) => match write_repro(&outcome, dir) {
                Ok(path) => println!(
                    "shrunk {} -> threads={} ({} attempts): {}",
                    f.spec,
                    outcome.shrunk.threads,
                    outcome.attempts,
                    path.display()
                ),
                Err(e) => eprintln!("error: write repro for {}: {e}", f.spec),
            },
            None => eprintln!(
                "shrink: {} did not reproduce in isolation; no repro file",
                f.spec
            ),
        }
    }
}

/// Runs the concurrency auditor over the pinned traced runs (the same
/// fixtures the chaos tests pin: h2 @16 threads and xalan @8 threads at
/// scale 0.02). Chaos comes from `SCALESIM_CHAOS`, so a clean environment
/// exercises the golden path and a chaotic one the detection path.
///
/// Exit 0 when both audits are clean, 1 on any unexpected finding (or a
/// run failure), 2 when every finding is explained by an injected fault.
fn run_audit(cli: &Cli) -> ExitCode {
    let dir = cli.out.clone().unwrap_or_else(|| PathBuf::from("."));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let specs = [
        ("h2", RunSpec::new(h2().scaled(0.02), 16, cli.params.seed)),
        (
            "xalan",
            RunSpec::new(xalan().scaled(0.02), 8, cli.params.seed),
        ),
    ];
    let mut unexpected = 0usize;
    let mut expected = 0usize;
    for (name, spec) in &specs {
        let threads = spec.config.threads;
        let (report, audit_report) = match audit_spec(spec) {
            Ok(pair) => pair,
            Err(why) => {
                eprintln!("error: audit run {name} x{threads}: {why}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "== audit {name} x{threads} seed={} (outcome: {}) ==",
            cli.params.seed, report.outcome
        );
        println!("{audit_report}");
        unexpected += audit_report.unexpected().len();
        expected += audit_report.expected_count();
        if !audit_report.is_clean() {
            match write_audit_repro(spec, &audit_report, &dir) {
                Ok(Some(path)) => println!("wrote {}", path.display()),
                Ok(None) => {}
                Err(e) => eprintln!("error: write audit repro for {name}: {e}"),
            }
        }
        println!();
    }
    if unexpected > 0 {
        eprintln!("audit: {unexpected} unexpected finding(s)");
        ExitCode::FAILURE
    } else if expected > 0 {
        println!("audit: all {expected} finding(s) explained by injected faults");
        ExitCode::from(2)
    } else {
        println!("audit: clean");
        ExitCode::SUCCESS
    }
}

/// Re-audits every quarantined sweep point with salvage + tracing (the
/// `--audit` path), writing `audit-<key>.json`
/// artifacts next to the shrinker's repro files.
fn audit_quarantined(failures: &[SweepFailure], dir: &Path) {
    for (f, spec) in quarantined(failures) {
        match audit_spec(spec) {
            Ok((report, audit_report)) => {
                println!(
                    "audit {} (outcome: {}): {audit_report}",
                    f.spec, report.outcome
                );
                if !audit_report.is_clean() {
                    match write_audit_repro(spec, &audit_report, dir) {
                        Ok(Some(path)) => println!("wrote {}", path.display()),
                        Ok(None) => {}
                        Err(e) => eprintln!("error: write audit repro for {}: {e}", f.spec),
                    }
                }
            }
            Err(why) => eprintln!("audit: {} failed even with salvage: {why}", f.spec),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => return fail(CliError::Config(msg)),
    };
    if let Some(alg) = cli.lock_alg {
        // Every JvmConfig builder reads SCALESIM_LOCK_ALG, and spawned
        // campaign workers inherit the environment, so one switch
        // covers every run this process (transitively) starts.
        std::env::set_var("SCALESIM_LOCK_ALG", alg.as_str());
    }
    if cli.artifact == "repro" {
        let file = cli
            .file
            .as_deref()
            .expect("parse_args requires a repro file");
        return run_repro(file);
    }
    if cli.artifact == "audit" {
        return run_audit(&cli);
    }
    // A campaign drains and merges its directory into the memo cache,
    // then finishes exactly like a single run of its target artifact.
    let artifact = if cli.artifact == "campaign" {
        let dir = cli
            .dir
            .as_deref()
            .expect("parse_args requires campaign --dir");
        let target = cli
            .target
            .as_deref()
            .expect("parse_args requires a campaign target");
        let spec = CampaignSpec {
            artifact: target.to_owned(),
            params: cli.params.clone(),
        };
        if std::env::var_os("SCALESIM_CAMPAIGN_ROLE").is_some_and(|v| v == "worker") {
            return drain_as_worker(dir, &spec).map_or_else(fail, |()| ExitCode::SUCCESS);
        }
        let workers = cli.workers.unwrap_or(DEFAULT_WORKERS);
        if let Err(e) = run_campaign(dir, &spec, workers) {
            return fail(e);
        }
        target
    } else {
        if let Err(e) = open_checkpoint(&cli) {
            return fail(e);
        }
        cli.artifact.as_str()
    };

    let mut result = if artifact == "analyze" {
        Ok(())
    } else {
        run_artifact(&cli, artifact)
    };
    let analyze_on = artifact == "analyze" || cli.analyze;
    let mut analytics_fp = None;
    if result.is_ok() && analyze_on {
        let dir = cli.out.clone().unwrap_or_else(|| PathBuf::from("."));
        match emit_analytics(&cli.params, &dir) {
            Ok(fp) => analytics_fp = Some(fp),
            Err(e) => result = Err(e),
        }
    }
    if result.is_ok() {
        if let Some(path) = &cli.trace {
            result = export_trace(&cli, path).map_err(CliError::Runtime);
        }
    }

    // Always drain the digest and the manifests — even a failing CLI
    // invocation reports what its sweeps saw. Quarantined or corrupted
    // runs do not abort the artifact (their rows are marked in the
    // tables), but they degrade the exit code to 2.
    let failures = take_sweep_failures();
    if !failures.is_empty() {
        eprintln!("sweep failure digest ({} entries):", failures.len());
        for f in &failures {
            eprintln!("  [{}] {}: {}", f.kind, f.spec, f.detail);
        }
    }
    let repro_dir = cli.out.clone().unwrap_or_else(|| PathBuf::from("."));
    shrink_quarantined(&failures, &repro_dir);
    if cli.audit {
        audit_quarantined(&failures, &repro_dir);
    }
    let mut manifests = take_run_manifests();
    if cli.artifact == "campaign" {
        // Host wall time is the one manifest field that says which
        // process ran a unit, so a campaign zeroes it.
        for m in &mut manifests {
            m.host_ns = 0;
        }
    }
    if result.is_ok() {
        if let Some(dir) = &cli.out {
            result = write_manifests(dir, &manifests, analytics_fp).map_err(CliError::Runtime);
        }
    }
    let degraded =
        !failures.is_empty() || manifests.iter().any(|m| m.outcome != "ok" || m.degraded);
    match result {
        Ok(()) if degraded => ExitCode::from(2),
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    /// The help text lists every registry id (aliases included) at the
    /// start of its own line, so it cannot drift from the registry.
    #[test]
    fn usage_names_every_registry_id() {
        for a in ARTIFACTS {
            for id in std::iter::once(a.id).chain(a.alias) {
                assert!(
                    USAGE
                        .lines()
                        .any(|l| l.split_whitespace().next() == Some(id)),
                    "USAGE does not list {id}"
                );
            }
        }
    }

    #[test]
    fn parses_artifact_and_options() {
        let cli = parse_args(&s(&[
            "fig2",
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--threads",
            "2,4",
        ]))
        .unwrap();
        assert_eq!(cli.artifact, "fig2");
        assert_eq!(cli.params.scale, 0.5);
        assert_eq!(cli.params.seed, 7);
        assert_eq!(cli.params.thread_counts, vec![2, 4]);
        assert!(cli.out.is_none());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["fig2", "--scale", "-1"])).is_err());
        assert!(parse_args(&s(&["fig2", "--threads", "4,2"])).is_err());
        assert!(parse_args(&s(&["fig2", "--bogus"])).is_err());
    }

    #[test]
    fn lock_alg_flag_parses_and_rejects_unknowns() {
        let cli = parse_args(&s(&["ext-locks", "--lock-alg", "malthusian"])).unwrap();
        assert_eq!(cli.artifact, "ext-locks");
        assert_eq!(cli.lock_alg, Some(LockAlg::Malthusian));
        let cli = parse_args(&s(&["fig1a"])).unwrap();
        assert!(cli.lock_alg.is_none());
        assert!(parse_args(&s(&["fig1a", "--lock-alg", "ticket"])).is_err());
        assert!(parse_args(&s(&["fig1a", "--lock-alg", "fifo-dyn"])).is_err());
        assert!(parse_args(&s(&["fig1a", "--lock-alg"])).is_err());
    }

    #[test]
    fn out_dir_parses() {
        let cli = parse_args(&s(&["fig1d", "--out", "/tmp/x"])).unwrap();
        assert_eq!(cli.out.unwrap(), PathBuf::from("/tmp/x"));
        assert!(cli.trace.is_none());
    }

    #[test]
    fn trace_flag_parses() {
        let cli = parse_args(&s(&["fig1d", "--trace", "/tmp/t.json"])).unwrap();
        assert_eq!(cli.trace.unwrap(), PathBuf::from("/tmp/t.json"));
        assert!(parse_args(&s(&["fig1d", "--trace"])).is_err());
    }

    #[test]
    fn checkpoint_and_resume_flags_parse() {
        let cli = parse_args(&s(&["fig1d", "--checkpoint", "/tmp/ck", "--resume"])).unwrap();
        assert_eq!(cli.checkpoint.unwrap(), PathBuf::from("/tmp/ck"));
        assert!(cli.resume);
        let cli = parse_args(&s(&["fig1d"])).unwrap();
        assert!(cli.checkpoint.is_none());
        assert!(!cli.resume);
        assert!(parse_args(&s(&["fig1d", "--checkpoint"])).is_err());
    }

    #[test]
    fn audit_flag_and_subcommand_parse() {
        let cli = parse_args(&s(&["fig1d", "--audit"])).unwrap();
        assert!(cli.audit);
        let cli = parse_args(&s(&["fig1d"])).unwrap();
        assert!(!cli.audit);
        let cli = parse_args(&s(&["audit", "--seed", "9", "--out", "/tmp/a"])).unwrap();
        assert_eq!(cli.artifact, "audit");
        assert_eq!(cli.params.seed, 9);
        assert_eq!(cli.out.unwrap(), PathBuf::from("/tmp/a"));
    }

    #[test]
    fn analyze_flag_and_subcommand_parse() {
        let cli = parse_args(&s(&["fig2", "--analyze"])).unwrap();
        assert!(cli.analyze);
        let cli = parse_args(&s(&["fig2"])).unwrap();
        assert!(!cli.analyze);
        let cli = parse_args(&s(&["analyze", "--dir", "/tmp/ck", "--threads", "4,8"])).unwrap();
        assert_eq!(cli.artifact, "analyze");
        assert_eq!(cli.dir.unwrap(), PathBuf::from("/tmp/ck"));
        assert_eq!(cli.params.thread_counts, vec![4, 8]);
        // --dir is optional for analyze (live sweep when absent).
        let cli = parse_args(&s(&["analyze"])).unwrap();
        assert!(cli.dir.is_none());
    }

    #[test]
    fn campaign_takes_a_target_and_dir() {
        let cli = parse_args(&s(&[
            "campaign",
            "scaletable",
            "--dir",
            "/tmp/camp",
            "--workers",
            "3",
            "--threads",
            "2,4",
        ]))
        .unwrap();
        assert_eq!(cli.artifact, "campaign");
        assert_eq!(cli.target.as_deref(), Some("scaletable"));
        assert_eq!(cli.dir.unwrap(), PathBuf::from("/tmp/camp"));
        assert_eq!(cli.workers, Some(3));
        assert_eq!(cli.params.thread_counts, vec![2, 4]);
        // Target and --dir are both mandatory; the worker count is not.
        assert!(parse_args(&s(&["campaign", "--dir", "/tmp/camp"])).is_err());
        assert!(parse_args(&s(&["campaign", "scaletable"])).is_err());
        assert!(parse_args(&s(&["campaign", "scaletable", "--workers", "x"])).is_err());
        let cli = parse_args(&s(&["campaign", "fig2", "--dir", "d"])).unwrap();
        assert!(cli.workers.is_none());
        // The campaign directory is its own store.
        assert!(parse_args(&s(&["campaign", "fig2", "--dir", "d", "--checkpoint", "c"])).is_err());
        assert!(parse_args(&s(&["campaign", "fig2", "--dir", "d", "--resume"])).is_err());
    }

    #[test]
    fn repro_takes_a_file_argument() {
        let cli = parse_args(&s(&["repro", "repro-abc.json"])).unwrap();
        assert_eq!(cli.artifact, "repro");
        assert_eq!(cli.file.unwrap(), PathBuf::from("repro-abc.json"));
        // The file is mandatory, and only `repro` accepts a second
        // positional.
        assert!(parse_args(&s(&["repro"])).is_err());
        assert!(parse_args(&s(&["fig1d", "extra.json"])).is_err());
    }
}
