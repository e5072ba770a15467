//! Orchestration: argument parsing, the timed repetition loop, metric
//! assembly and the result line.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use scalesim_trace::CounterId;

use crate::micro::{run_all_drives, MicroSizes};
use crate::spans::Spans;
use crate::workloads::{plan, run, workers, OwnLayers, RepOut, Size, Traced, Workload};

/// Set-up passes timed before each repetition; `setup_s` is the median
/// over all of them.
const SETUPS_PER_REP: u32 = 5;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is made from.
    pub seed: u64,
    /// Measurement time; repetitions start until it has passed.
    pub seconds: u64,
    /// Span-traced run: print per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Workload size (the command line always runs [`Size::Full`]).
    pub size: Size,
    /// Scratch directory for stores and the span file.
    pub work_dir: PathBuf,
}

/// Usage text.
pub const USAGE: &str = "usage: scalesim-perfbench --workload <paper-figures|server-storm|\
locks-traced-resume> [--seed N] [--seconds N] [--trace 0|1]";

impl Args {
    /// Parses `--workload NAME --seed N --seconds N --trace 0|1`. Stores
    /// and the span file go under `.perfbench-work` in the working
    /// directory.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or malformed value, or no workload.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut out = Args {
            workload: Workload::PaperFigures,
            seed: 42,
            seconds: 10,
            trace: false,
            size: Size::Full,
            work_dir: PathBuf::from(".perfbench-work"),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => out.seed = number()?,
                "--seconds" => out.seconds = number()?.max(1),
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        out.workload = workload.ok_or("--workload is required")?;
        Ok(out)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (memo lookups plus output checks).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of `xs` (mean of the middle two for an even count).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's resident-set high-water mark, in MB.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Runs the benchmark described by `args`.
///
/// # Errors
///
/// Set-up failures (a spec builder error or an unwritable work
/// directory). Failed output checks are not errors: they make the
/// outcome incorrect.
pub fn run_benchmark(args: &Args) -> Result<Outcome, String> {
    let work_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    let result = run_in(args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    result
}

fn run_in(args: &Args, work_dir: &std::path::Path) -> Result<Outcome, String> {
    let w = args.workload;
    let mut lines = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={} workers={}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            workers()
        ),
        format!("why: {}", w.why()),
    ];
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut spans = Spans::new(true);
    let mut plain: Vec<RepOut> = Vec::new();
    let mut traced: Vec<RepOut> = Vec::new();
    let mut setups = Vec::new();
    let mut rep = 0u32;
    let mut last_rep = Duration::ZERO;
    // A repetition starts only if it should end within the budget; the
    // first one of each kind always runs.
    while plain.is_empty()
        || (args.trace && traced.is_empty())
        || start.elapsed() + last_rep <= budget
    {
        // A traced run alternates untraced and span-traced repetitions,
        // so its overhead compares like with like.
        let with_spans = args.trace && rep % 2 == 1;
        // Set-up passes before every repetition, so the reported median
        // samples the host across the whole run, not one moment of it.
        for i in 0..SETUPS_PER_REP {
            let setup_start = Instant::now();
            let p = plan(w, args.size, args.seed, work_dir, rep * SETUPS_PER_REP + i)?;
            setups.push(setup_start.elapsed().as_secs_f64());
            p.teardown();
        }
        let rep_start = Instant::now();
        let p = plan(w, args.size, args.seed, work_dir, rep * SETUPS_PER_REP)?;
        let out = if with_spans {
            run(&p, &mut spans)
        } else {
            run(&p, &mut Spans::new(false))
        };
        p.teardown();
        last_rep = rep_start.elapsed();
        lines.push(format!(
            "rep {rep}{}: wall {:.3} s, {} unique runs, {} events, {:.3} M events/s, \
             {} lookups, {} failed",
            if with_spans { " (spans)" } else { "" },
            out.wall_s,
            out.simulated.len(),
            out.unique_events(),
            out.unique_events() as f64 / out.wall_s / 1e6,
            out.attempted(),
            out.failed(),
        ));
        if with_spans {
            traced.push(out);
        } else {
            plain.push(out);
        }
        rep += 1;
    }

    let mut sorted = setups.clone();
    sorted.sort_by(f64::total_cmp);
    lines.push(format!(
        "setup samples: {} passes, min {:.1} us, median {:.1} us, max {:.1} us",
        sorted.len(),
        sorted[0] * 1e6,
        median(&sorted) * 1e6,
        sorted[sorted.len() - 1] * 1e6
    ));
    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(RepOut::attempted).sum();
    let failed: u64 = all.clone().map(RepOut::failed).sum();
    let digests: Vec<u64> = all.clone().map(RepOut::digest).collect();
    let mut problems: Vec<String> = all.flat_map(|o| o.checks.failed.clone()).collect();
    problems.sort();
    problems.dedup();
    if digests.windows(2).any(|d| d[0] != d[1]) {
        problems.push("rendered tables differ between repetitions".to_owned());
    }
    lines.push(format!("digest {} {:016x}", w.name(), digests[0]));
    lines.push(format!(
        "fail_ratio {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    ));
    for p in &problems {
        lines.push(format!("check FAILED: {p}"));
    }

    let metrics = if args.trace {
        layer_metrics(&plain, &traced, &mut spans, &mut lines)
    } else {
        // Host noise only ever slows a repetition of this deterministic
        // work down, so the fastest repetition is the least disturbed.
        let fastest = plain
            .iter()
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("at least one untraced repetition");
        vec![
            metric("wall_s", fastest.wall_s, "s"),
            metric(
                "events_per_s",
                fastest.unique_events() as f64 / fastest.wall_s,
                "1/s",
            ),
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        ]
    };
    if args.trace {
        std::fs::create_dir_all(&args.work_dir)
            .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
        let path = args
            .work_dir
            .join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        std::fs::write(&path, spans.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        lines.push(format!("spans written to {}", path.display()));
    }
    for m in &metrics {
        lines.push(format!("metric {} {} {}", m.name, m.value, m.unit));
    }
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        lines,
    })
}

/// Per-layer metrics from the span-traced repetitions: counts from the
/// last one's reports, host times as medians over all of them, and the
/// standalone layer drives sized from those reports.
fn layer_metrics(
    plain: &[RepOut],
    traced: &[RepOut],
    spans: &mut Spans,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let last = traced
        .last()
        .expect("a traced run makes a span-traced repetition");
    let t = last
        .traced
        .as_ref()
        .expect("span-traced repetitions carry layer data");
    let reports = &t.reports;
    let sum = |id: CounterId| reports.iter().map(|r| r.counters.get(id)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let med = |f: &dyn Fn(&RepOut) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let layers: Vec<&Traced> = traced.iter().filter_map(|o| o.traced.as_ref()).collect();
    let med_layers =
        |f: &dyn Fn(&Traced) -> f64| median(&layers.iter().map(|l| f(l)).collect::<Vec<_>>());
    let busy_s = |o: &RepOut| o.simulated.iter().map(|m| m.host_ns).sum::<u64>() as f64 / 1e9;
    let ns_per_event = |o: &RepOut| busy_s(o) * 1e9 / o.unique_events().max(1) as f64;
    let workers = workers() as f64;

    let mut out = vec![
        metric("simkit.events", sum(CounterId::EventsProcessed), "count"),
        metric("sched.dispatches", sum(CounterId::Dispatches), "count"),
        metric("sched.preemptions", sum(CounterId::Preemptions), "count"),
        metric("sync.acquires", sum(CounterId::LockAcquires), "count"),
        metric("sync.contentions", sum(CounterId::LockContentions), "count"),
        metric(
            "sync.contention_ratio",
            ratio(
                sum(CounterId::LockContentions),
                sum(CounterId::LockAcquires),
            ),
            "ratio",
        ),
        metric("heap.allocations", sum(CounterId::Allocations), "count"),
        metric("heap.alloc_bytes", sum(CounterId::AllocBytes), "B"),
        metric(
            "gc.minor",
            sum(CounterId::MinorGcs) + sum(CounterId::LocalMinorGcs),
            "count",
        ),
        metric("gc.full", sum(CounterId::FullGcs), "count"),
        metric("gc.stw_pauses", sum(CounterId::StwPauses), "count"),
        metric("objtrace.deaths", sum(CounterId::ObjectDeaths), "count"),
        metric(
            "trace.timeline_events",
            reports.iter().map(|r| r.timeline.len() as f64).sum(),
            "count",
        ),
        metric(
            "trace.dropped",
            reports.iter().map(|r| r.timeline.dropped() as f64).sum(),
            "count",
        ),
        metric("server.arrivals", sum(CounterId::ReqArrivals), "count"),
        metric("server.goodput", sum(CounterId::ReqGoodput), "count"),
        metric("server.retries", sum(CounterId::ReqRetries), "count"),
        metric("server.timeouts", sum(CounterId::ReqTimeouts), "count"),
        metric("server.sheds", sum(CounterId::ReqSheds), "count"),
        metric(
            "server.goodput_ratio",
            ratio(sum(CounterId::ReqGoodput), sum(CounterId::ReqArrivals)),
            "ratio",
        ),
        metric("sweep.lookups", last.lookups as f64, "count"),
        metric(
            "sweep.memo_hits",
            (last.lookups - last.simulated.len() as u64) as f64,
            "count",
        ),
        metric("checkpoint.records", t.checkpoint_records as f64, "count"),
        metric("checkpoint.bytes", t.checkpoint_bytes as f64, "B"),
        metric("snapshot.bytes", t.snapshot_bytes as f64, "B"),
        metric("audit.findings", t.audit_findings as f64, "count"),
        metric("core.ns_per_event", med(&ns_per_event), "ns"),
        metric("sweep.busy_s", med(&busy_s), "s"),
        metric(
            "sweep.slowest_run_s",
            med(&|o| o.simulated.iter().map(|m| m.host_ns).max().unwrap_or(0) as f64 / 1e9),
            "s",
        ),
        metric(
            "sweep.idle_share",
            med(&|o| 1.0 - busy_s(o) / (o.wall_s * workers)),
            "ratio",
        ),
        metric(
            "sweep.hit_us",
            med_layers(&|l| l.hit_s * 1e6 / l.hit_lookups.max(1) as f64),
            "us",
        ),
        metric("snapshot.encode_s", med_layers(&|l| l.encode_s), "s"),
        metric("snapshot.decode_s", med_layers(&|l| l.decode_s), "s"),
    ];

    let sizes = MicroSizes::from_reports(reports);
    lines.push(format!("layer drive sizes: {sizes:?}"));
    for drive in spans.span("micro", |_| run_all_drives(&sizes)) {
        out.push(metric(drive.name, drive.ns, "ns"));
    }

    let plain_wall = median(&plain.iter().map(|o| o.wall_s).collect::<Vec<_>>());
    let traced_wall = med(&|o| o.wall_s);
    out.push(metric(
        "span.overhead_pct",
        (traced_wall / plain_wall - 1.0) * 100.0,
        "%",
    ));
    lines.push(format!(
        "span tracing overhead: {:+.2}% ({traced_wall:.3} s traced vs {plain_wall:.3} s untraced, medians)",
        (traced_wall / plain_wall - 1.0) * 100.0
    ));

    // Layers only some workloads use: reported here, not in the result
    // line, since the other workloads have no value for them.
    let engine = if reports.iter().any(|r| r.server.is_some()) {
        "core.server.ns_per_event"
    } else {
        "core.batch.ns_per_event"
    };
    lines.push(format!("layer {engine} {} ns", med(&ns_per_event)));
    let own = |f: &dyn Fn(&OwnLayers) -> Option<f64>| {
        let xs: Vec<f64> = layers.iter().filter_map(|l| f(&l.own)).collect();
        (!xs.is_empty()).then(|| median(&xs))
    };
    for (name, v) in [
        ("checkpoint.persist_s", own(&|l| l.checkpoint_persist_s)),
        ("checkpoint.resume_s", own(&|l| l.checkpoint_resume_s)),
        ("trace.record_s", own(&|l| l.trace_record_s)),
        ("audit.s", own(&|l| l.audit_s)),
        ("analytics.s", own(&|l| l.analytics_s)),
    ] {
        if let Some(v) = v {
            lines.push(format!("layer {name} {v} s"));
        }
    }

    lines.push("self time by span (all span-traced repetitions):".to_owned());
    let mut totals: Vec<_> = spans.totals().into_iter().collect();
    totals.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in totals {
        lines.push(format!(
            "  {name:<28} n={:<4} total {:>9.3} s  self {:>9.3} s",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        ));
    }
    out
}
