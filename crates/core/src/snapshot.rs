//! Lossless persistence for run reports and minimal repro specs.
//!
//! The checkpoint store persists each completed
//! `(app, config, seed) → RunReport` and verifies it on load by
//! recomputing the report's structural fingerprint. That only works if
//! serialization is *exactly* lossless: every internal sentinel
//! (`u64::MAX` histogram minima, raw ring-buffer order in timelines) must
//! survive the round trip so the rebuilt report is `Debug`-identical to
//! the original.
//!
//! One streaming codec does this. [`write_report`] appends a report to a
//! [`JsonWriter`] and [`read_report`] reads it back from a [`JsonCursor`],
//! one value at a time and with no [`JsonValue`] tree in between. The
//! reader is strict: it accepts only the writer's canonical text, keys in
//! the writer's order. [`report_to_json`] and [`report_from_str`] wrap
//! the pair for a whole document, and [`report_from_json`] adapts it for
//! callers that hold a parsed tree.
//!
//! Every report document opens with its schema version,
//! [`SNAPSHOT_VERSION`]. A timeline is stored as the bytes a closed
//! timeline already holds (`trace/src/packed.rs`), base64 in a `packed`
//! string. Version 3 packs an event into about 5.5 bytes, with one
//! header byte for its kind, how its `at` is coded and a zero `arg`;
//! version 2 packed the same fields as plain varints (about 7 bytes),
//! and version 1 wrote one JSON array per event (about 31 bytes). The
//! reader takes the current version only; an older one is
//! [`SnapshotError::OlderVersion`], so a checkpoint store written by an
//! earlier build says why it no longer resumes.
//!
//! [`ReproSpec`] is the companion for failure shrinking: a self-contained
//! description of one failing run (app, workload size, config knobs,
//! chaos plan, budget) that `scalesim repro <file>` can re-execute
//! without the sweep that produced it. Its documents are small, so it
//! stays on the [`JsonValue`] tree.

use std::fmt;

use scalesim_gc::{GcEvent, GcKind, GcLog};
use scalesim_heap::HeapStats;
use scalesim_metrics::LogHistogram;
use scalesim_objtrace::{ObjectTracer, Retention, TraceEvent, TracerSnapshot};
use scalesim_sched::StateTimes;
use scalesim_simkit::{AbortReason, ChaosConfig, RunBudget, SimDuration, SimTime};
use scalesim_sync::{LockAlg, LockReport, MonitorStats};
use scalesim_trace::{CounterId, Counters, Timeline, TraceConfig};
use scalesim_workloads::{
    app_by_name, AppModel, ArrivalProcess, Backoff, ClientPolicy, LockProfile, RequestClass,
    ServerPolicy, ServerSpec, SyntheticApp,
};

use crate::config::JvmConfig;
use crate::error::SimError;
use crate::json::{JsonCursor, JsonValue, JsonWriter};
use crate::report::{RunOutcome, RunReport, ServerStats, ThreadReport};

/// The run-report schema [`write_report`] writes and [`read_report`]
/// reads: the `v` that opens every report document. Version 3 stores a
/// timeline as its packed bytes with header-coded kinds, `at`s and zero
/// `arg`s; version 2 stored it as packed plain varints, and version 1 as
/// one JSON array per event.
pub const SNAPSHOT_VERSION: u64 = 3;

/// A snapshot (de)serialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A report document in an earlier schema than
    /// [`SNAPSHOT_VERSION`], written by an earlier build. It was valid
    /// when written; this build reads only the current schema.
    OlderVersion(u64),
    /// Anything else: a missing key, a wrong shape, an unknown enum tag,
    /// a malformed timeline section, or an unknown future version.
    Malformed(String),
}

impl SnapshotError {
    /// The failure without the `snapshot:` prefix `Display` adds.
    pub(crate) fn detail(&self) -> String {
        match self {
            SnapshotError::OlderVersion(v) => {
                format!("older snapshot version {v} (this build reads version {SNAPSHOT_VERSION})")
            }
            SnapshotError::Malformed(message) => message.clone(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot: {}", self.detail())
    }
}

impl std::error::Error for SnapshotError {}

fn err(message: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(message.into())
}

impl From<String> for SnapshotError {
    fn from(message: String) -> Self {
        SnapshotError::Malformed(message)
    }
}

// ---------------------------------------------------------------------
// The RunReport codec
//
// Each `write_*` emits one value through a `JsonWriter`; its `read_*`
// twin reads the same value back in the same order from a `JsonCursor`.
// Struct literals below are filled field by field in the order written,
// which is the writer's key order.
// ---------------------------------------------------------------------

type Read<T> = Result<T, SnapshotError>;

fn bad(p: &JsonCursor<'_>, message: &str) -> SnapshotError {
    SnapshotError::Malformed(p.error(message))
}

fn put_u64(w: &mut JsonWriter, key: &str, n: u64) {
    w.key(key);
    w.u64(n);
}

fn take_u64(p: &mut JsonCursor<'_>, key: &str) -> Read<u64> {
    p.key(key)?;
    Ok(p.u64()?)
}

fn read_usize(p: &mut JsonCursor<'_>, what: &str) -> Read<usize> {
    let n = p.u64()?;
    usize::try_from(n).map_err(|_| bad(p, &format!("{what} exceeds usize")))
}

fn read_dur(p: &mut JsonCursor<'_>) -> Read<SimDuration> {
    Ok(SimDuration::from_nanos(p.u64()?))
}

fn write_hist(w: &mut JsonWriter, h: &LogHistogram) {
    w.begin_obj();
    w.key("buckets");
    w.begin_arr();
    for (i, &c) in h.bucket_counts().iter().enumerate() {
        if c > 0 {
            w.begin_arr();
            w.u64(i as u64);
            w.u64(c);
            w.end_arr();
        }
    }
    w.end_arr();
    put_u64(w, "count", h.count());
    // u128 exceeds the JSON integer range we guarantee; decimal text.
    w.key("sum");
    w.str(&h.sum().to_string());
    put_u64(w, "min", h.raw_min());
    put_u64(w, "max", h.raw_max());
    w.end_obj();
}

fn read_hist(p: &mut JsonCursor<'_>) -> Read<LogHistogram> {
    p.begin_obj()?;
    p.key("buckets")?;
    p.begin_arr()?;
    let mut buckets = [0u64; 64];
    while !p.at_arr_end() {
        p.begin_arr()?;
        let idx = usize::try_from(p.u64()?)
            .ok()
            .filter(|&i| i < 64)
            .ok_or_else(|| bad(p, "histogram bucket index out of range"))?;
        buckets[idx] = p.u64()?;
        p.end_arr()?;
    }
    p.end_arr()?;
    let count = take_u64(p, "count")?;
    p.key("sum")?;
    let sum: u128 = p
        .str()?
        .parse()
        .map_err(|_| bad(p, "histogram sum is not a u128"))?;
    let min = take_u64(p, "min")?;
    let max = take_u64(p, "max")?;
    p.end_obj()?;
    Ok(LogHistogram::from_raw_parts(buckets, count, sum, min, max))
}

fn write_server_stats(w: &mut JsonWriter, stats: &ServerStats) {
    w.begin_obj();
    w.key("policy");
    w.str(&stats.policy);
    put_u64(w, "arrivals", stats.arrivals);
    put_u64(w, "goodput", stats.goodput);
    put_u64(w, "orphans", stats.orphan_completions);
    put_u64(w, "sheds", stats.sheds);
    put_u64(w, "timeouts", stats.timeouts);
    put_u64(w, "retries", stats.retries);
    put_u64(w, "in_flight", stats.in_flight);
    w.key("degraded");
    w.bool(stats.degraded);
    w.key("latency");
    write_hist(w, &stats.latency);
    w.key("queue_depth");
    write_hist(w, &stats.queue_depth);
    put_u64(w, "tail_goodput", stats.tail_goodput);
    put_u64(w, "tail_arrivals", stats.tail_arrivals);
    w.end_obj();
}

fn read_server_stats(p: &mut JsonCursor<'_>) -> Read<ServerStats> {
    p.begin_obj()?;
    let stats = ServerStats {
        policy: {
            p.key("policy")?;
            p.str()?.into_owned()
        },
        arrivals: take_u64(p, "arrivals")?,
        goodput: take_u64(p, "goodput")?,
        orphan_completions: take_u64(p, "orphans")?,
        sheds: take_u64(p, "sheds")?,
        timeouts: take_u64(p, "timeouts")?,
        retries: take_u64(p, "retries")?,
        in_flight: take_u64(p, "in_flight")?,
        degraded: {
            p.key("degraded")?;
            p.bool()?
        },
        latency: {
            p.key("latency")?;
            read_hist(p)?
        },
        queue_depth: {
            p.key("queue_depth")?;
            read_hist(p)?
        },
        tail_goodput: take_u64(p, "tail_goodput")?,
        tail_arrivals: take_u64(p, "tail_arrivals")?,
    };
    p.end_obj()?;
    Ok(stats)
}

fn gc_kind_name(kind: GcKind) -> &'static str {
    match kind {
        GcKind::Minor => "minor",
        GcKind::LocalMinor => "local",
        GcKind::Full => "full",
        GcKind::ConcurrentOld => "conc",
    }
}

fn gc_kind_from_name(name: &str) -> Option<GcKind> {
    match name {
        "minor" => Some(GcKind::Minor),
        "local" => Some(GcKind::LocalMinor),
        "full" => Some(GcKind::Full),
        "conc" => Some(GcKind::ConcurrentOld),
        _ => None,
    }
}

fn write_gc_log(w: &mut JsonWriter, log: &GcLog) {
    w.begin_arr();
    for e in log.events() {
        w.begin_arr();
        w.str(gc_kind_name(e.kind));
        w.u64(e.at.as_nanos());
        w.u64(e.pause.as_nanos());
        w.u64(e.region as u64);
        w.u64(e.collected_bytes);
        w.u64(e.survived_bytes);
        w.u64(e.promoted_bytes);
        w.end_arr();
    }
    w.end_arr();
}

fn read_gc_log(p: &mut JsonCursor<'_>) -> Read<GcLog> {
    let mut log = GcLog::new();
    p.begin_arr()?;
    while !p.at_arr_end() {
        p.begin_arr()?;
        let name = p.str()?;
        let kind =
            gc_kind_from_name(&name).ok_or_else(|| bad(p, &format!("unknown gc kind `{name}`")))?;
        log.push(GcEvent {
            kind,
            at: SimTime::from_nanos(p.u64()?),
            pause: read_dur(p)?,
            region: read_usize(p, "gc region")?,
            collected_bytes: p.u64()?,
            survived_bytes: p.u64()?,
            promoted_bytes: p.u64()?,
        });
        p.end_arr()?;
    }
    p.end_arr()?;
    Ok(log)
}

fn write_stats(w: &mut JsonWriter, m: &MonitorStats) {
    w.begin_arr();
    w.u64(m.acquisitions);
    w.u64(m.contentions);
    w.u64(m.total_wait.as_nanos());
    w.u64(m.max_wait.as_nanos());
    w.u64(m.total_hold.as_nanos());
    w.u64(m.queued);
    w.end_arr();
}

fn read_stats(p: &mut JsonCursor<'_>) -> Read<MonitorStats> {
    p.begin_arr()?;
    let stats = MonitorStats {
        acquisitions: p.u64()?,
        contentions: p.u64()?,
        total_wait: read_dur(p)?,
        max_wait: read_dur(p)?,
        total_hold: read_dur(p)?,
        queued: p.u64()?,
    };
    p.end_arr()?;
    Ok(stats)
}

fn write_locks(w: &mut JsonWriter, locks: &LockReport) {
    w.begin_obj();
    w.key("total");
    write_stats(w, &locks.total);
    w.key("by_class");
    w.begin_arr();
    for (name, stats) in &locks.by_class {
        w.begin_arr();
        w.str(name);
        write_stats(w, stats);
        w.end_arr();
    }
    w.end_arr();
    w.key("hold_hist");
    write_hist(w, &locks.hold_hist);
    w.key("wait_hist");
    write_hist(w, &locks.wait_hist);
    w.end_obj();
}

fn read_locks(p: &mut JsonCursor<'_>) -> Read<LockReport> {
    p.begin_obj()?;
    p.key("total")?;
    let total = read_stats(p)?;
    p.key("by_class")?;
    p.begin_arr()?;
    let mut by_class = std::collections::BTreeMap::new();
    while !p.at_arr_end() {
        p.begin_arr()?;
        let name = p.str()?.into_owned();
        by_class.insert(name, read_stats(p)?);
        p.end_arr()?;
    }
    p.end_arr()?;
    let locks = LockReport {
        by_class,
        total,
        hold_hist: {
            p.key("hold_hist")?;
            read_hist(p)?
        },
        wait_hist: {
            p.key("wait_hist")?;
            read_hist(p)?
        },
    };
    p.end_obj()?;
    Ok(locks)
}

fn retention_name(retention: Retention) -> &'static str {
    match retention {
        Retention::HistogramOnly => "hist",
        Retention::Full => "full",
    }
}

fn retention_from_name(name: &str) -> Result<Retention, String> {
    match name {
        "hist" => Ok(Retention::HistogramOnly),
        "full" => Ok(Retention::Full),
        other => Err(format!("unknown retention `{other}`")),
    }
}

fn write_trace_event(w: &mut JsonWriter, e: &TraceEvent) {
    w.begin_arr();
    match *e {
        TraceEvent::Alloc {
            obj,
            thread,
            size,
            clock,
        } => {
            w.str("A");
            w.u64(obj);
            w.u64(thread as u64);
            w.u64(size);
            w.u64(clock);
        }
        TraceEvent::Death {
            obj,
            lifespan,
            clock,
        } => {
            w.str("D");
            w.u64(obj);
            w.u64(lifespan);
            w.u64(clock);
        }
    }
    w.end_arr();
}

fn read_trace_event(p: &mut JsonCursor<'_>) -> Read<TraceEvent> {
    p.begin_arr()?;
    let event = match &*p.str()? {
        "A" => TraceEvent::Alloc {
            obj: p.u64()?,
            thread: read_usize(p, "trace thread")?,
            size: p.u64()?,
            clock: p.u64()?,
        },
        "D" => TraceEvent::Death {
            obj: p.u64()?,
            lifespan: p.u64()?,
            clock: p.u64()?,
        },
        _ => return Err(bad(p, "malformed trace event")),
    };
    p.end_arr()?;
    Ok(event)
}

fn write_tracer(w: &mut JsonWriter, tracer: &ObjectTracer) {
    let snap = tracer.snapshot();
    w.begin_obj();
    w.key("retention");
    w.str(retention_name(snap.retention));
    w.key("hist");
    write_hist(w, &snap.hist);
    w.key("exact");
    w.begin_arr();
    for &v in &snap.exact {
        w.u64(v);
    }
    w.end_arr();
    w.key("events");
    w.begin_arr();
    for e in &snap.events {
        write_trace_event(w, e);
    }
    w.end_arr();
    put_u64(w, "next_seq", snap.next_seq);
    w.key("owners");
    w.begin_arr();
    for &t in &snap.owners {
        w.u64(t as u64);
    }
    w.end_arr();
    w.key("per_thread");
    w.begin_arr();
    for h in &snap.per_thread {
        write_hist(w, h);
    }
    w.end_arr();
    put_u64(w, "allocations", snap.allocations);
    put_u64(w, "allocated_bytes", snap.allocated_bytes);
    put_u64(w, "deaths", snap.deaths);
    put_u64(w, "censored", snap.censored);
    w.end_obj();
}

/// Reads an array whose elements `item` reads.
fn read_list<T>(
    p: &mut JsonCursor<'_>,
    mut item: impl FnMut(&mut JsonCursor<'_>) -> Read<T>,
) -> Read<Vec<T>> {
    let mut items = Vec::new();
    p.begin_arr()?;
    while !p.at_arr_end() {
        items.push(item(p)?);
    }
    p.end_arr()?;
    Ok(items)
}

fn read_tracer(p: &mut JsonCursor<'_>) -> Read<ObjectTracer> {
    p.begin_obj()?;
    let snap = TracerSnapshot {
        retention: {
            p.key("retention")?;
            let name = p.str()?;
            retention_from_name(&name).map_err(|e| bad(p, &e))?
        },
        hist: {
            p.key("hist")?;
            read_hist(p)?
        },
        exact: {
            p.key("exact")?;
            read_list(p, |p| Ok(p.u64()?))?
        },
        events: {
            p.key("events")?;
            read_list(p, read_trace_event)?
        },
        next_seq: take_u64(p, "next_seq")?,
        owners: {
            p.key("owners")?;
            read_list(p, |p| read_usize(p, "owner"))?
        },
        per_thread: {
            p.key("per_thread")?;
            read_list(p, read_hist)?
        },
        allocations: take_u64(p, "allocations")?,
        allocated_bytes: take_u64(p, "allocated_bytes")?,
        deaths: take_u64(p, "deaths")?,
        censored: take_u64(p, "censored")?,
    };
    p.end_obj()?;
    Ok(ObjectTracer::from_snapshot(snap))
}

fn write_thread_report(w: &mut JsonWriter, t: &ThreadReport) {
    w.begin_arr();
    w.u64(t.items_done);
    for d in [
        t.times.running,
        t.times.runnable_wait,
        t.times.blocked_monitor,
        t.times.blocked_starved,
        t.times.blocked_sleep,
        t.times.gc_paused,
    ] {
        w.u64(d.as_nanos());
    }
    w.u64(t.dispatches);
    w.u64(t.preemptions);
    w.end_arr();
}

fn read_thread_report(p: &mut JsonCursor<'_>) -> Read<ThreadReport> {
    p.begin_arr()?;
    let report = ThreadReport {
        items_done: p.u64()?,
        times: StateTimes {
            running: read_dur(p)?,
            runnable_wait: read_dur(p)?,
            blocked_monitor: read_dur(p)?,
            blocked_starved: read_dur(p)?,
            blocked_sleep: read_dur(p)?,
            gc_paused: read_dur(p)?,
        },
        dispatches: p.u64()?,
        preemptions: p.u64()?,
    };
    p.end_arr()?;
    Ok(report)
}

fn write_timeline(w: &mut JsonWriter, timeline: &Timeline) {
    // Ring order + head, so the rebuilt recorder's internal state
    // (and therefore its Debug rendering) matches the original exactly.
    // The events are the closed timeline's own packed buffer, as is.
    let (enabled, capacity, head, dropped, packed) = timeline.packed_parts();
    w.begin_obj();
    w.key("enabled");
    w.bool(enabled);
    put_u64(w, "capacity", capacity as u64);
    put_u64(w, "head", head as u64);
    put_u64(w, "dropped", dropped);
    w.key("packed");
    w.base64(&packed);
    w.end_obj();
}

fn read_timeline(p: &mut JsonCursor<'_>) -> Read<Timeline> {
    p.begin_obj()?;
    p.key("enabled")?;
    let enabled = p.bool()?;
    p.key("capacity")?;
    let capacity = read_usize(p, "capacity")?;
    p.key("head")?;
    let head = read_usize(p, "head")?;
    let dropped = take_u64(p, "dropped")?;
    p.key("packed")?;
    let packed = p.base64()?;
    let timeline = Timeline::from_packed_parts(enabled, capacity, head, dropped, packed)
        .map_err(|e| bad(p, &format!("timeline: {e}")))?;
    p.end_obj()?;
    Ok(timeline)
}

fn write_counters(w: &mut JsonWriter, counters: &Counters) {
    w.begin_arr();
    for &id in &CounterId::ALL {
        w.u64(counters.get(id));
    }
    w.end_arr();
}

fn read_counters(p: &mut JsonCursor<'_>) -> Read<Counters> {
    p.begin_arr()?;
    let mut counters = Counters::new();
    for &id in &CounterId::ALL {
        counters.set(id, p.u64()?);
    }
    p.end_arr()?;
    Ok(counters)
}

fn write_outcome(w: &mut JsonWriter, outcome: &RunOutcome) {
    match outcome {
        RunOutcome::Ok => w.str("ok"),
        RunOutcome::Truncated(reason) => {
            w.begin_obj();
            w.key("trunc");
            w.begin_arr();
            match reason {
                AbortReason::MaxEvents(n) => {
                    w.str("events");
                    w.u64(*n);
                }
                AbortReason::MaxSimTime(d) => {
                    w.str("sim_ns");
                    w.u64(d.as_nanos());
                }
                AbortReason::MaxHostMs(ms) => {
                    w.str("host_ms");
                    w.u64(*ms);
                }
                AbortReason::Watchdog => w.str("watchdog"),
            }
            w.end_arr();
            w.end_obj();
        }
        RunOutcome::Quarantined(why) => {
            w.begin_obj();
            w.key("quar");
            w.str(why);
            w.end_obj();
        }
    }
}

fn read_outcome(p: &mut JsonCursor<'_>) -> Read<RunOutcome> {
    if p.peek() == Some(b'"') {
        return match &*p.str()? {
            "ok" => Ok(RunOutcome::Ok),
            _ => Err(bad(p, "malformed outcome")),
        };
    }
    p.begin_obj()?;
    let outcome = if p.try_key("quar") {
        RunOutcome::Quarantined(p.str()?.into_owned())
    } else if p.try_key("trunc") {
        p.begin_arr()?;
        let reason = match &*p.str()? {
            "events" => AbortReason::MaxEvents(p.u64()?),
            "sim_ns" => AbortReason::MaxSimTime(read_dur(p)?),
            "host_ms" => AbortReason::MaxHostMs(p.u64()?),
            "watchdog" => AbortReason::Watchdog,
            _ => return Err(bad(p, "unknown truncation reason")),
        };
        p.end_arr()?;
        RunOutcome::Truncated(reason)
    } else {
        return Err(bad(p, "malformed outcome"));
    };
    p.end_obj()?;
    Ok(outcome)
}

/// Writes a [`RunReport`] losslessly. [`read_report`] inverts this
/// exactly: the rebuilt report is `Debug`-identical to the original, so
/// its fingerprint verifies a checkpointed record.
pub fn write_report(w: &mut JsonWriter, report: &RunReport) {
    w.begin_obj();
    put_u64(w, "v", SNAPSHOT_VERSION);
    w.key("app");
    w.str(&report.app);
    put_u64(w, "threads", report.threads as u64);
    put_u64(w, "cores", report.cores as u64);
    put_u64(w, "wall_ns", report.wall_time.as_nanos());
    put_u64(w, "gc_ns", report.gc_time.as_nanos());
    put_u64(w, "mutator_cpu_ns", report.mutator_cpu.as_nanos());
    w.key("gc");
    write_gc_log(w, &report.gc);
    w.key("locks");
    write_locks(w, &report.locks);
    w.key("tracer");
    write_tracer(w, &report.trace);
    w.key("heap");
    w.begin_arr();
    w.u64(report.heap.objects_allocated);
    w.u64(report.heap.bytes_allocated);
    w.u64(report.heap.objects_died);
    w.u64(report.heap.tlab_refills);
    w.end_arr();
    w.key("per_thread");
    w.begin_arr();
    for t in &report.per_thread {
        write_thread_report(w, t);
    }
    w.end_arr();
    put_u64(w, "events_processed", report.events_processed);
    w.key("counters");
    write_counters(w, &report.counters);
    w.key("timeline");
    write_timeline(w, &report.timeline);
    put_u64(w, "host_ns", report.host_ns);
    w.key("outcome");
    write_outcome(w, &report.outcome);
    if let Some(stats) = &report.server {
        w.key("server");
        write_server_stats(w, stats);
    }
    w.end_obj();
}

/// Reads one [`write_report`] document at the cursor: every key in the
/// writer's order, `server` optional at the end.
///
/// # Errors
///
/// [`SnapshotError::OlderVersion`] for a document in an earlier
/// schema; otherwise a [`SnapshotError::Malformed`] naming the byte
/// offset of the first deviation: a future schema version, a missing,
/// extra or reordered key, a tuple of the wrong arity, an unknown tag,
/// an out-of-range number, or a timeline section that is not canonical
/// base64 of a well-formed packed buffer.
pub fn read_report(p: &mut JsonCursor<'_>) -> Result<RunReport, SnapshotError> {
    p.begin_obj()?;
    let version = take_u64(p, "v")?;
    if version < SNAPSHOT_VERSION {
        return Err(SnapshotError::OlderVersion(version));
    }
    if version != SNAPSHOT_VERSION {
        return Err(bad(p, &format!("unsupported snapshot version {version}")));
    }
    let report = RunReport {
        app: {
            p.key("app")?;
            p.str()?.into_owned()
        },
        threads: {
            p.key("threads")?;
            read_usize(p, "threads")?
        },
        cores: {
            p.key("cores")?;
            read_usize(p, "cores")?
        },
        wall_time: SimDuration::from_nanos(take_u64(p, "wall_ns")?),
        gc_time: SimDuration::from_nanos(take_u64(p, "gc_ns")?),
        mutator_cpu: SimDuration::from_nanos(take_u64(p, "mutator_cpu_ns")?),
        gc: {
            p.key("gc")?;
            read_gc_log(p)?
        },
        locks: {
            p.key("locks")?;
            read_locks(p)?
        },
        trace: {
            p.key("tracer")?;
            read_tracer(p)?
        },
        heap: {
            p.key("heap")?;
            p.begin_arr()?;
            let heap = HeapStats {
                objects_allocated: p.u64()?,
                bytes_allocated: p.u64()?,
                objects_died: p.u64()?,
                tlab_refills: p.u64()?,
            };
            p.end_arr()?;
            heap
        },
        per_thread: {
            p.key("per_thread")?;
            read_list(p, read_thread_report)?
        },
        events_processed: take_u64(p, "events_processed")?,
        counters: {
            p.key("counters")?;
            read_counters(p)?
        },
        timeline: {
            p.key("timeline")?;
            read_timeline(p)?
        },
        host_ns: take_u64(p, "host_ns")?,
        outcome: {
            p.key("outcome")?;
            read_outcome(p)?
        },
        server: if p.try_key("server") {
            Some(read_server_stats(p)?)
        } else {
            None
        },
    };
    p.end_obj()?;
    Ok(report)
}

/// Serializes a [`RunReport`] losslessly, as [`write_report`] does.
#[must_use]
pub fn report_to_json(report: &RunReport) -> String {
    let mut w = JsonWriter::default();
    write_report(&mut w, report);
    w.finish()
}

/// Rebuilds a [`RunReport`] from [`report_to_json`] output.
///
/// # Errors
///
/// As [`read_report`], plus trailing data after the document.
pub fn report_from_str(text: &str) -> Result<RunReport, SnapshotError> {
    let mut p = JsonCursor::new(text);
    let report = read_report(&mut p)?;
    p.finish()?;
    Ok(report)
}

/// Rebuilds a [`RunReport`] from a parsed tree, for callers that hold
/// one: the tree is rendered and read by [`report_from_str`].
///
/// # Errors
///
/// As [`report_from_str`].
pub fn report_from_json(v: &JsonValue) -> Result<RunReport, SnapshotError> {
    report_from_str(&v.to_string())
}

// ---------------------------------------------------------------------
// Tree helpers for ReproSpec
// ---------------------------------------------------------------------

fn u(n: u64) -> JsonValue {
    JsonValue::U64(n)
}

fn s(text: &str) -> JsonValue {
    JsonValue::Str(text.to_owned())
}

fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn get<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, SnapshotError> {
    v.get(key)
        .ok_or_else(|| err(format!("missing key `{key}`")))
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, SnapshotError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| err(format!("`{key}` is not an integer")))
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, SnapshotError> {
    usize::try_from(get_u64(v, key)?).map_err(|_| err(format!("`{key}` exceeds usize")))
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, SnapshotError> {
    get(v, key)?
        .as_bool()
        .ok_or_else(|| err(format!("`{key}` is not a boolean")))
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, SnapshotError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| err(format!("`{key}` is not a string")))
}

fn get_arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], SnapshotError> {
    get(v, key)?
        .as_arr()
        .ok_or_else(|| err(format!("`{key}` is not an array")))
}

// ---------------------------------------------------------------------
// ReproSpec
// ---------------------------------------------------------------------

/// A self-contained description of one run — enough to re-execute a
/// failing spec outside the sweep that found it.
///
/// Produced by the failure shrinker (`repro-<key>.json` files), consumed
/// by the `scalesim repro` subcommand. The config is captured as the
/// knobs the sweep drivers actually vary; everything else reconstructs
/// from builder defaults. [`ReproSpec::exact`] records whether the
/// reconstructed spec's memo key matched the original at emit time.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproSpec {
    /// Application name (must resolve via the workload registry).
    pub app: String,
    /// Workload size (the scaled `total_items` of the failing spec).
    pub total_items: u64,
    /// Configured mutator threads.
    pub threads: usize,
    /// Explicit core-count override, if the spec had one.
    pub cores_override: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Explicit heap sizing, if the spec had one.
    pub heap_bytes_override: Option<u64>,
    /// Invariant monitors on/off.
    pub monitors: bool,
    /// Object-trace retention mode.
    pub retention: Retention,
    /// Chaos fault plan.
    pub chaos: ChaosConfig,
    /// Run budget (including any watchdog deadline).
    pub budget: RunBudget,
    /// Server-workload spec, when the failing run was a request-serving
    /// run rather than a batch benchmark (the app is then only a memo
    /// carrier).
    pub server: Option<ServerSpec>,
    /// Monitor handoff algorithm of the failing run.
    pub lock_alg: LockAlg,
    /// Memo key of the spec this file reproduces.
    pub spec_key: u64,
    /// Whether reconstruction was verified key-exact at emit time.
    pub exact: bool,
}

fn chaos_to_json(chaos: &ChaosConfig) -> JsonValue {
    obj(vec![
        ("drop_wakeup", u(chaos.drop_wakeup_period)),
        ("spurious", u(chaos.spurious_wakeup_period)),
        ("gc_stall", u(chaos.gc_stall_period)),
        // f64 Display is shortest-round-trip, so the text parses back
        // to the identical bits.
        ("gc_stall_factor", s(&chaos.gc_stall_factor.to_string())),
        ("memo", u(chaos.memo_corrupt_period)),
        ("request_drop", u(chaos.request_drop_period)),
        ("panic_at", u(chaos.panic_at_event)),
    ])
}

fn chaos_from_json(v: &JsonValue) -> Result<ChaosConfig, SnapshotError> {
    Ok(ChaosConfig {
        drop_wakeup_period: get_u64(v, "drop_wakeup")?,
        spurious_wakeup_period: get_u64(v, "spurious")?,
        gc_stall_period: get_u64(v, "gc_stall")?,
        gc_stall_factor: get_str(v, "gc_stall_factor")?
            .parse()
            .map_err(|_| err("gc_stall_factor is not a float"))?,
        memo_corrupt_period: get_u64(v, "memo")?,
        request_drop_period: get_u64(v, "request_drop")?,
        panic_at_event: get_u64(v, "panic_at")?,
    })
}

fn server_spec_to_json(spec: &ServerSpec) -> JsonValue {
    let arrival = match &spec.arrival {
        ArrivalProcess::OpenPoisson { rate_per_sec } => obj(vec![
            ("kind", s("open")),
            ("rate_per_sec", u(*rate_per_sec)),
        ]),
        ArrivalProcess::ClosedLoop { clients, think_ns } => obj(vec![
            ("kind", s("closed")),
            ("clients", u(*clients as u64)),
            ("think_lo", u(think_ns.0)),
            ("think_hi", u(think_ns.1)),
        ]),
    };
    let classes: Vec<JsonValue> = spec
        .classes
        .iter()
        .map(|c| {
            let mut pairs = vec![
                ("name", s(&c.name)),
                ("weight", u(u64::from(c.weight))),
                ("priority", u(u64::from(c.priority))),
                ("svc_lo", u(c.service_ns.0)),
                ("svc_hi", u(c.service_ns.1)),
                ("alloc_bytes", u(c.alloc_bytes)),
            ];
            if let Some(lock) = &c.lock {
                pairs.extend([
                    ("lock_class", s(&lock.class)),
                    ("hold_lo", u(lock.held_ns.0)),
                    ("hold_hi", u(lock.held_ns.1)),
                ]);
            }
            obj(pairs)
        })
        .collect();
    let backoff = match spec.client.backoff {
        Backoff::None => obj(vec![("kind", s("none"))]),
        Backoff::Exponential { base_ns, cap_ns } => obj(vec![
            ("kind", s("exp")),
            ("base_ns", u(base_ns)),
            ("cap_ns", u(cap_ns)),
        ]),
    };
    let client = obj(vec![
        ("timeout_ns", u(spec.client.timeout_ns)),
        ("max_retries", u(u64::from(spec.client.max_retries))),
        ("backoff", backoff),
        ("retry_budget", u(spec.client.retry_budget)),
    ]);
    let mut policy = vec![("queue_cap", u(spec.policy.queue_cap as u64))];
    if let Some(cap) = spec.policy.admission_cap {
        policy.push(("admission_cap", u(cap as u64)));
    }
    if let Some(ns) = spec.policy.deadline_shed_ns {
        policy.push(("deadline_shed_ns", u(ns)));
    }
    if let Some(mark) = spec.policy.degrade_above {
        policy.push(("degrade_above", u(mark as u64)));
    }
    let mut pairs = vec![
        ("name", s(&spec.name)),
        ("arrival", arrival),
        ("horizon_ns", u(spec.horizon_ns)),
        ("classes", JsonValue::Arr(classes)),
        ("client", client),
        ("policy", obj(policy)),
        ("measure_from_ns", u(spec.measure_from_ns)),
    ];
    if let Some((start, end)) = spec.fault_window_ns {
        pairs.push(("fault_start", u(start)));
        pairs.push(("fault_end", u(end)));
    }
    obj(pairs)
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, SnapshotError> {
    match v.get(key) {
        None => Ok(None),
        Some(entry) => entry
            .as_u64()
            .map(Some)
            .ok_or_else(|| err(format!("`{key}` is not an integer"))),
    }
}

fn server_spec_from_json(v: &JsonValue) -> Result<ServerSpec, SnapshotError> {
    let av = get(v, "arrival")?;
    let arrival = match get_str(av, "kind")? {
        "open" => ArrivalProcess::OpenPoisson {
            rate_per_sec: get_u64(av, "rate_per_sec")?,
        },
        "closed" => ArrivalProcess::ClosedLoop {
            clients: get_usize(av, "clients")?,
            think_ns: (get_u64(av, "think_lo")?, get_u64(av, "think_hi")?),
        },
        other => return Err(err(format!("unknown arrival kind `{other}`"))),
    };
    let mut classes = Vec::new();
    for cv in get_arr(v, "classes")? {
        let lock = match cv.get("lock_class") {
            None => None,
            Some(_) => Some(LockProfile {
                class: get_str(cv, "lock_class")?.to_owned(),
                held_ns: (get_u64(cv, "hold_lo")?, get_u64(cv, "hold_hi")?),
            }),
        };
        classes.push(RequestClass {
            name: get_str(cv, "name")?.to_owned(),
            weight: u32::try_from(get_u64(cv, "weight")?)
                .map_err(|_| err("class weight exceeds u32"))?,
            priority: u8::try_from(get_u64(cv, "priority")?)
                .map_err(|_| err("class priority exceeds u8"))?,
            service_ns: (get_u64(cv, "svc_lo")?, get_u64(cv, "svc_hi")?),
            lock,
            alloc_bytes: get_u64(cv, "alloc_bytes")?,
        });
    }
    let clv = get(v, "client")?;
    let bv = get(clv, "backoff")?;
    let backoff = match get_str(bv, "kind")? {
        "none" => Backoff::None,
        "exp" => Backoff::Exponential {
            base_ns: get_u64(bv, "base_ns")?,
            cap_ns: get_u64(bv, "cap_ns")?,
        },
        other => return Err(err(format!("unknown backoff kind `{other}`"))),
    };
    let client = ClientPolicy {
        timeout_ns: get_u64(clv, "timeout_ns")?,
        max_retries: u32::try_from(get_u64(clv, "max_retries")?)
            .map_err(|_| err("max_retries exceeds u32"))?,
        backoff,
        retry_budget: get_u64(clv, "retry_budget")?,
    };
    let pv = get(v, "policy")?;
    let policy = ServerPolicy {
        queue_cap: get_usize(pv, "queue_cap")?,
        admission_cap: opt_u64(pv, "admission_cap")?.map(|n| n as usize),
        deadline_shed_ns: opt_u64(pv, "deadline_shed_ns")?,
        degrade_above: opt_u64(pv, "degrade_above")?.map(|n| n as usize),
    };
    let fault_window_ns = match (opt_u64(v, "fault_start")?, opt_u64(v, "fault_end")?) {
        (Some(start), Some(end)) => Some((start, end)),
        (None, None) => None,
        _ => return Err(err("fault_start/fault_end must appear together")),
    };
    Ok(ServerSpec {
        name: get_str(v, "name")?.to_owned(),
        arrival,
        horizon_ns: get_u64(v, "horizon_ns")?,
        classes,
        client,
        policy,
        fault_window_ns,
        measure_from_ns: get_u64(v, "measure_from_ns")?,
    })
}

fn budget_to_json(budget: &RunBudget) -> JsonValue {
    let mut pairs = vec![("max_events", u(budget.max_events))];
    if let Some(limit) = budget.max_sim_time {
        pairs.push(("max_sim_ns", u(limit.as_nanos())));
    }
    if let Some(ms) = budget.max_host_ms {
        pairs.push(("max_host_ms", u(ms)));
    }
    if let Some(ms) = budget.watchdog_ms {
        pairs.push(("watchdog_ms", u(ms)));
    }
    obj(pairs)
}

fn budget_from_json(v: &JsonValue) -> Result<RunBudget, SnapshotError> {
    let opt = |key: &str| -> Result<Option<u64>, SnapshotError> {
        match v.get(key) {
            None => Ok(None),
            Some(entry) => entry
                .as_u64()
                .map(Some)
                .ok_or_else(|| err(format!("`{key}` is not an integer"))),
        }
    };
    Ok(RunBudget {
        max_events: get_u64(v, "max_events")?,
        max_sim_time: opt("max_sim_ns")?.map(SimDuration::from_nanos),
        max_host_ms: opt("max_host_ms")?,
        watchdog_ms: opt("watchdog_ms")?,
    })
}

impl ReproSpec {
    /// Captures the reproducible knobs of one `(app, config)` pair.
    /// `spec_key` is the run's memo key; `exact` is set by the caller
    /// once reconstruction has been verified against it.
    #[must_use]
    pub fn capture(app: &SyntheticApp, config: &JvmConfig, spec_key: u64) -> Self {
        ReproSpec {
            app: app.name().to_owned(),
            total_items: app.spec().total_items,
            threads: config.threads,
            cores_override: config.cores_override,
            seed: config.seed,
            heap_bytes_override: config.heap_bytes_override,
            monitors: config.monitors,
            retention: config.retention,
            chaos: config.chaos,
            budget: config.budget,
            server: config.server.clone(),
            lock_alg: config.lock_alg,
            spec_key,
            exact: false,
        }
    }

    /// Serializes the spec; [`ReproSpec::from_json`] inverts this.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("v", u(1)),
            ("app", s(&self.app)),
            ("total_items", u(self.total_items)),
            ("threads", u(self.threads as u64)),
        ];
        if let Some(cores) = self.cores_override {
            pairs.push(("cores", u(cores as u64)));
        }
        pairs.push(("seed", u(self.seed)));
        if let Some(bytes) = self.heap_bytes_override {
            pairs.push(("heap_bytes", u(bytes)));
        }
        pairs.extend([
            ("monitors", JsonValue::Bool(self.monitors)),
            ("retention", s(retention_name(self.retention))),
            ("chaos", chaos_to_json(&self.chaos)),
            ("budget", budget_to_json(&self.budget)),
        ]);
        if let Some(spec) = &self.server {
            pairs.push(("server", server_spec_to_json(spec)));
        }
        // Written only when non-default, so pre-existing repro files
        // (and their hashes) are unchanged for FIFO runs.
        if self.lock_alg != LockAlg::Fifo {
            pairs.push(("lock_alg", s(self.lock_alg.as_str())));
        }
        pairs.extend([
            ("spec_key", s(&format!("{:016x}", self.spec_key))),
            ("exact", JsonValue::Bool(self.exact)),
        ]);
        obj(pairs)
    }

    /// Rebuilds a spec from [`ReproSpec::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] naming the first missing or malformed
    /// field.
    pub fn from_json(v: &JsonValue) -> Result<Self, SnapshotError> {
        let version = get_u64(v, "v")?;
        if version != 1 {
            return Err(err(format!("unsupported repro version {version}")));
        }
        let opt_usize = |key: &str| -> Result<Option<usize>, SnapshotError> {
            match v.get(key) {
                None => Ok(None),
                Some(entry) => entry
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .map(Some)
                    .ok_or_else(|| err(format!("`{key}` is not an integer"))),
            }
        };
        let spec_key = u64::from_str_radix(get_str(v, "spec_key")?, 16)
            .map_err(|_| err("spec_key is not a hex key"))?;
        Ok(ReproSpec {
            app: get_str(v, "app")?.to_owned(),
            total_items: get_u64(v, "total_items")?,
            threads: get_usize(v, "threads")?,
            cores_override: opt_usize("cores")?,
            seed: get_u64(v, "seed")?,
            heap_bytes_override: opt_u64(v, "heap_bytes")?,
            monitors: get_bool(v, "monitors")?,
            retention: retention_from_name(get_str(v, "retention")?)?,
            chaos: chaos_from_json(get(v, "chaos")?)?,
            budget: budget_from_json(get(v, "budget")?)?,
            server: match v.get("server") {
                None => None,
                Some(spec) => Some(server_spec_from_json(spec)?),
            },
            lock_alg: match v.get("lock_alg") {
                None => LockAlg::Fifo,
                Some(name) => name
                    .as_str()
                    .and_then(LockAlg::parse)
                    .ok_or_else(|| err("lock_alg is not a known algorithm"))?,
            },
            spec_key,
            exact: get_bool(v, "exact")?,
        })
    }

    /// Rebuilds the runnable `(app, config)` pair this spec describes.
    ///
    /// The app comes from the workload registry with its `total_items`
    /// overridden; the config is built from defaults plus the captured
    /// knobs, with tracing forced off (a repro run must not depend on
    /// the invoking environment).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownApp`] when the app name no longer resolves,
    /// or [`SimError::Config`] when the captured knobs fail validation.
    pub fn reconstruct(&self) -> Result<(SyntheticApp, JvmConfig), SimError> {
        let proto = app_by_name(&self.app).ok_or_else(|| SimError::UnknownApp(self.app.clone()))?;
        let mut spec = proto.spec().clone();
        spec.total_items = self.total_items;
        let app = SyntheticApp::new(spec);
        let mut builder = JvmConfig::builder();
        builder
            .threads(self.threads)
            .seed(self.seed)
            .monitors(self.monitors)
            .retention(self.retention)
            .chaos(self.chaos)
            .budget(self.budget)
            .lock_alg(self.lock_alg)
            .trace(TraceConfig::off());
        if let Some(spec) = &self.server {
            builder.server(spec.clone());
        }
        if let Some(cores) = self.cores_override {
            builder.cores(cores);
        }
        if let Some(bytes) = self.heap_bytes_override {
            builder.heap_bytes(bytes);
        }
        Ok((app, builder.build()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Jvm;
    use scalesim_workloads::lusearch;

    fn debug_eq(a: &RunReport, b: &RunReport) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    fn small_report(retention: Retention, trace: TraceConfig) -> RunReport {
        let config = JvmConfig::builder()
            .threads(4)
            .seed(42)
            .retention(retention)
            .trace(trace)
            .build()
            .unwrap();
        Jvm::new(config).run(&lusearch().scaled(0.01)).unwrap()
    }

    #[test]
    fn hist_only_report_round_trips_debug_identically() {
        let report = small_report(Retention::HistogramOnly, TraceConfig::off());
        let text = report_to_json(&report).to_string();
        let back = report_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        debug_eq(&report, &back);
    }

    #[test]
    fn full_retention_traced_report_round_trips() {
        let report = small_report(Retention::Full, TraceConfig::on());
        assert!(report.timeline.is_enabled());
        assert!(report.trace.events().is_some_and(|e| !e.is_empty()));
        let text = report_to_json(&report);
        let back = report_from_str(&text).unwrap();
        debug_eq(&report, &back);
        assert_eq!(report_to_json(&back), text);
        // The tree adapter reads the same bytes.
        let via_tree = report_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        debug_eq(&report, &via_tree);
    }

    #[test]
    fn truncated_and_quarantined_outcomes_round_trip() {
        for outcome in [
            RunOutcome::Truncated(AbortReason::MaxEvents(7)),
            RunOutcome::Truncated(AbortReason::MaxSimTime(SimDuration::from_millis(3))),
            RunOutcome::Truncated(AbortReason::MaxHostMs(250)),
            RunOutcome::Truncated(AbortReason::Watchdog),
            RunOutcome::Quarantined("panic: \"quoted\"\nline two".to_owned()),
        ] {
            let mut report = RunReport::quarantined("xalan", 8, 8, "placeholder".to_owned());
            report.outcome = outcome;
            let text = report_to_json(&report).to_string();
            let back = report_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            debug_eq(&report, &back);
        }
    }

    /// A traced report small enough to feed to the reader once per
    /// prefix: ring capacity 4, and an object trace cut to its first few
    /// entries.
    fn tiny_traced_report() -> RunReport {
        let mut report = small_report(
            Retention::Full,
            TraceConfig {
                capacity: 4,
                ..TraceConfig::on()
            },
        );
        let mut snap = report.trace.snapshot();
        snap.events.truncate(4);
        snap.exact.truncate(4);
        snap.owners.truncate(4);
        report.trace = ObjectTracer::from_snapshot(snap);
        report
    }

    /// `text` with the first occurrence of `from` replaced by `to`.
    fn edit(text: &str, from: &str, to: &str) -> String {
        assert!(text.contains(from), "`{from}` not in the document");
        text.replacen(from, to, 1)
    }

    /// Every v3 writer emits lock stats as 6-tuples, so a 5-tuple is not
    /// canonical text and reads as malformed.
    #[test]
    fn five_tuple_lock_stats_are_malformed() {
        let good = report_to_json(&small_report(Retention::HistogramOnly, TraceConfig::off()));
        let total = good.find("\"locks\":{\"total\":[").expect("locks.total") + 18;
        let end = total + good[total..].find(']').expect("tuple end");
        let last = total + good[total..end].rfind(',').expect("tuple items");
        let five = format!("{}{}", &good[..last], &good[end..]);
        assert!(matches!(
            report_from_str(&five),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn report_from_json_rejects_malformed_documents() {
        let report = small_report(Retention::Full, TraceConfig::on());
        let good = report_to_json(&report);
        assert!(report_from_str(&good).is_ok());
        let rejects = |doc: String, why: &str| {
            assert!(report_from_str(&doc).is_err(), "accepted: {why}");
        };
        rejects(edit(&good, "{\"v\":3,", "{\"v\":9,"), "unknown version");
        // A document in an older schema is named as one, not as
        // malformed.
        for older in [1, 2] {
            assert_eq!(
                report_from_str(&edit(&good, "{\"v\":3,", &format!("{{\"v\":{older},"))).err(),
                Some(SnapshotError::OlderVersion(older))
            );
        }
        let counters = good.find(",\"counters\":[").expect("counters key");
        let counters_end = counters + good[counters..].find(']').expect("counters end");
        rejects(
            format!("{}{}", &good[..counters], &good[counters_end + 1..]),
            "missing field",
        );
        rejects(format!("{good} "), "trailing data");
        rejects(edit(&good, "{\"v\":3,", "{\"v\":3.0,"), "float version");
        // The timeline section's packed bytes, edited and re-encoded.
        let packed_at = good.find("\"packed\":\"").expect("a packed timeline") + 9;
        let packed_end = packed_at + 1 + good[packed_at + 1..].find('"').expect("packed end") + 1;
        let packed = JsonCursor::new(&good[packed_at..packed_end])
            .base64()
            .unwrap();
        let with_packed = |bytes: &[u8]| {
            let mut w = JsonWriter::default();
            w.base64(bytes);
            format!(
                "{}{}{}",
                &good[..packed_at],
                w.finish(),
                &good[packed_end..]
            )
        };
        assert_eq!(with_packed(&packed), good);
        let rejects_timeline = |bytes: &[u8], why: &str| {
            let e = report_from_str(&with_packed(bytes)).expect_err(why);
            assert!(e.to_string().contains(why), "{why}: {e}");
        };
        // The first event's header byte follows the count's varint.
        let kind = packed.iter().position(|b| b & 0x80 == 0).unwrap() + 1;
        let mut bogus = packed.clone();
        bogus[kind] = 0xff;
        rejects_timeline(&bogus, "unknown timeline kind");
        let track_len = packed[kind + 1..]
            .iter()
            .position(|b| b & 0x80 == 0)
            .unwrap()
            + 1;
        let mut wide = packed[..=kind].to_vec();
        wide.extend([0x80, 0x80, 0x80, 0x80, 0x10]); // 2^32
        wide.extend(&packed[kind + 1 + track_len..]);
        rejects_timeline(&wide, "track exceeds u32");
        rejects(edit(&good, "\"packed\":\"", "\"packed\":\"!"), "not base64");
        let threads = good.find("\"per_thread\":[[").expect("per_thread tuples") + 15;
        let first_item = threads + good[threads..].find(',').expect("tuple item");
        rejects(
            format!("{}{}", &good[..threads], &good[first_item + 1..]),
            "8-element thread tuple",
        );
        let cores = good.find(",\"cores\":").expect("cores key");
        let cores_end = cores + 1 + good[cores + 1..].find(',').expect("cores end");
        let threads_at = good.find("\"threads\":").expect("threads key");
        rejects(
            format!(
                "{}{},{}{}",
                &good[..threads_at],
                &good[cores + 1..cores_end],
                &good[threads_at..cores],
                &good[cores_end..]
            ),
            "reordered key",
        );
    }

    #[test]
    fn reader_survives_truncated_and_corrupted_bodies() {
        let report = tiny_traced_report();
        let good = report_to_json(&report);
        assert!(!report.timeline.is_empty() && !good.contains("\"events\":[],\"next_seq\""));
        debug_eq(&report, &report_from_str(&good).unwrap());
        for end in 0..good.len() {
            if let Some(prefix) = good.get(..end) {
                assert!(report_from_str(prefix).is_err(), "prefix {end} accepted");
            }
        }
        let mut state = 0x5eed_u64;
        for _ in 0..256 {
            state = scalesim_simkit::splitmix64(state);
            let at = (state % good.len() as u64) as usize;
            let byte = (state >> 32) as u8 & 0x7f;
            let mut bytes = good.clone().into_bytes();
            bytes[at] = byte;
            let text = String::from_utf8(bytes).expect("ascii substitution");
            // Either outcome is fine; a panic is not.
            if let Ok(back) = report_from_str(&text) {
                let _ = report_to_json(&back);
            }
        }
    }

    #[test]
    fn repro_spec_round_trips_and_reconstructs() {
        let chaos = ChaosConfig {
            panic_at_event: 2000,
            gc_stall_factor: 0.30000000000000004, // non-trivial f64 bits
            ..ChaosConfig::default()
        };
        let spec = ReproSpec {
            app: "xalan".to_owned(),
            total_items: 640,
            threads: 48,
            cores_override: Some(12),
            seed: 42,
            heap_bytes_override: None,
            monitors: false,
            retention: Retention::HistogramOnly,
            chaos,
            budget: RunBudget {
                max_events: 4_000_000,
                max_sim_time: None,
                max_host_ms: None,
                watchdog_ms: Some(500),
            },
            server: Some(scalesim_workloads::ServerSpec::robust(25_000, 64)),
            lock_alg: LockAlg::Malthusian,
            spec_key: 0xdead_beef_0badu64,
            exact: true,
        };
        let text = spec.to_json().to_string();
        let back = ReproSpec::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(spec, back);
        let (app, config) = back.reconstruct().unwrap();
        assert_eq!(app.name(), "xalan");
        assert_eq!(app.spec().total_items, 640);
        assert_eq!(config.threads, 48);
        assert_eq!(config.cores_override, Some(12));
        assert_eq!(config.budget.watchdog_ms, Some(500));
        assert_eq!(config.chaos.panic_at_event, 2000);
        assert_eq!(config.lock_alg, LockAlg::Malthusian);
    }

    #[test]
    fn repro_spec_fifo_emits_no_lock_alg_key() {
        // FIFO runs must serialize exactly as before the pluggable-lock
        // refactor so existing repro files and their hashes are stable.
        let spec = ReproSpec {
            app: "xalan".to_owned(),
            total_items: 1,
            threads: 1,
            cores_override: None,
            seed: 1,
            heap_bytes_override: None,
            monitors: false,
            retention: Retention::HistogramOnly,
            chaos: ChaosConfig::default(),
            budget: RunBudget::default(),
            server: None,
            lock_alg: LockAlg::Fifo,
            spec_key: 0,
            exact: false,
        };
        let text = spec.to_json().to_string();
        assert!(!text.contains("lock_alg"), "{text}");
        let back = ReproSpec::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.lock_alg, LockAlg::Fifo);
        // A float where an integer belongs is an error, not a default.
        for (from, to) in [
            ("\"threads\":1,", "\"threads\":1.0,"),
            ("\"seed\":1,", "\"seed\":1,\"heap_bytes\":1e3,"),
        ] {
            let doc = JsonValue::parse(&edit(&text, from, to)).unwrap();
            assert!(ReproSpec::from_json(&doc).is_err(), "accepted {to}");
        }
    }

    #[test]
    fn repro_reconstruct_rejects_unknown_app() {
        let spec = ReproSpec {
            app: "no-such-app".to_owned(),
            total_items: 1,
            threads: 1,
            cores_override: None,
            seed: 1,
            heap_bytes_override: None,
            monitors: false,
            retention: Retention::HistogramOnly,
            chaos: ChaosConfig::default(),
            budget: RunBudget::default(),
            server: None,
            lock_alg: LockAlg::Fifo,
            spec_key: 0,
            exact: false,
        };
        assert!(matches!(
            spec.reconstruct(),
            Err(SimError::UnknownApp(name)) if name == "no-such-app"
        ));
    }
}
