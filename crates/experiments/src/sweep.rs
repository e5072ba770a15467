//! Parallel, memoizing, crash-isolating execution of independent runs.
//!
//! A figure is a sweep over (application × thread count). Each run is an
//! independent, deterministic, single-threaded simulation, so the sweep
//! parallelizes embarrassingly across host cores with `std::thread::scope`.
//! Results come back in input order regardless of completion order.
//!
//! Two properties keep full-figure regeneration cheap:
//!
//! * **Memoization.** Runs are keyed by a hash of `(app spec, JvmConfig)`
//!   (the config includes the seed, the run budget, and the chaos plan).
//!   Since a run is a pure function of that key, drivers that re-simulate
//!   identical points — `fig1a`/`fig1b` and the scalability table sweep the
//!   same grid, ablations re-run baselines — share one [`RunReport`]
//!   through a process-wide cache. Each cached entry carries a content
//!   fingerprint that is re-verified on every lookup; a mismatched entry
//!   (bit rot, or deliberate [`FaultClass::MemoCorrupt`] injection) is
//!   evicted, logged in the failure digest, and the run re-simulated. Set
//!   `SCALESIM_NO_MEMO=1` to force re-simulation (benchmarks do).
//! * **Bounded fan-out.** Workers are capped at *physical* core count
//!   (SMT siblings share execution units, and oversubscribed fan-out is
//!   exactly the anti-pattern the paper's related work warns about), and
//!   each worker's result travels over a channel and is reordered by input
//!   index — no per-slot locks.
//!
//! The sweep is additionally **crash-isolating**: a run that panics or
//! returns [`SimError`](scalesim_core::SimError) is retried once and, if it
//! fails again, *quarantined* — the sweep continues and the failing point
//! is represented by a metric-less [`RunReport`] whose outcome is
//! [`Quarantined`](scalesim_core::RunOutcome::Quarantined). Quarantined
//! stubs are never memoized. Every quarantine and every memo eviction is
//! recorded; [`take_sweep_failures`] drains the digest.
//!
//! Two further self-healing layers ride on the same machinery:
//!
//! * **Checkpointing.** With a [`checkpoint`](crate::checkpoint) store
//!   active, every completed run is persisted as it finishes (from the
//!   worker thread, before its result is even reordered), and a resumed
//!   process replays the store into this cache so interrupted sweeps
//!   pick up where they stopped with byte-identical output.
//! * **Watchdog.** A spec whose [`RunBudget`](scalesim_simkit::RunBudget)
//!   carries `watchdog_ms` has a host deadline, which the engine checks
//!   on its budget-poll cadence and meets by truncating with
//!   [`AbortReason::Watchdog`]. [`attempt`] turns that truncation into a
//!   failure, so the run is retried once and then quarantined — a hung
//!   point cannot stall its siblings.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use scalesim_core::{JsonValue, Jvm, JvmConfig, JvmConfigBuilder, RunOutcome, RunReport, SimError};
use scalesim_simkit::{splitmix64, AbortReason, ChaosPlan, FaultClass};
use scalesim_trace::CounterId;
use scalesim_workloads::{app_by_name, AppModel, SyntheticApp};

use crate::checkpoint;
use crate::params::ExpParams;

/// One run request: an application and the VM configuration to run it
/// under.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The application (already scaled as desired).
    pub app: SyntheticApp,
    /// VM configuration.
    pub config: JvmConfig,
}

impl RunSpec {
    /// Convenience constructor for the common case: `app` at `threads`
    /// threads with cores following threads (the paper's methodology).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero (the only way the default sweep
    /// configuration can fail validation).
    #[must_use]
    pub fn new(app: SyntheticApp, threads: usize, seed: u64) -> Self {
        RunSpec {
            app,
            config: JvmConfig::builder()
                .threads(threads)
                .seed(seed)
                .build()
                .expect("sweep config rejected"),
        }
    }

    /// Executes this run (bypassing the cache), recording host wall time
    /// in [`RunReport::host_ns`].
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the engine (invariant violation,
    /// deadlock). Budget-truncated runs are `Ok` with a truncated outcome.
    pub fn run(&self) -> Result<RunReport, SimError> {
        let start = Instant::now();
        let mut report = Jvm::new(self.config.clone()).run(&self.app)?;
        report.host_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(report)
    }

    /// The memoization key: a hash of the full `(app spec, config)` pair.
    ///
    /// Both types expose every simulation-relevant field through `Debug`
    /// (the config includes the master seed, run budget, chaos plan, and
    /// monitor flag), and a run is a pure function of them, so equal keys
    /// imply bit-identical reports.
    #[must_use]
    pub fn memo_key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{:?}|{:?}", self.app, self.config).hash(&mut h);
        h.finish()
    }

    fn describe(&self) -> String {
        format!(
            "app={} threads={} seed={}",
            self.app.name(),
            self.config.threads,
            self.config.seed
        )
    }
}

/// Table-cell rendering of a run outcome (`ok`, `trunc`, or `quar`).
pub(crate) fn outcome_cell(outcome: &scalesim_core::RunOutcome) -> String {
    if outcome.is_ok() {
        "ok".to_owned()
    } else {
        outcome.marker().to_owned()
    }
}

/// Appends a ` (trunc)` / ` (quar)` marker to a metric cell when the run
/// behind it did not complete normally, so degraded rows stay visible in
/// the text output instead of masquerading as measurements.
pub(crate) fn mark_cell(base: String, outcome: &scalesim_core::RunOutcome) -> String {
    if outcome.is_ok() {
        base
    } else {
        format!("{base} ({})", outcome.marker())
    }
}

/// Why a sweep point appears in the failure digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFailureKind {
    /// The run panicked or returned an error twice; a metric-less
    /// quarantined stub stands in for it.
    Quarantined,
    /// A memoized report failed its fingerprint check at lookup and was
    /// evicted (then re-simulated).
    MemoCorruption,
}

impl fmt::Display for SweepFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SweepFailureKind::Quarantined => "quarantined",
            SweepFailureKind::MemoCorruption => "memo-corruption",
        })
    }
}

/// One entry in the sweep failure digest.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// Which `(app, threads, seed)` point failed.
    pub spec: String,
    /// Failure class.
    pub kind: SweepFailureKind,
    /// Human-readable cause (panic payload, `SimError`, or eviction note).
    pub detail: String,
    /// The failing spec itself, so the failure shrinker
    /// ([`shrink_failure`](crate::shrink_failure)) can re-execute and
    /// minimize it after the sweep.
    pub run_spec: Option<RunSpec>,
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.spec, self.detail)
    }
}

/// The process-wide failure digest, appended by [`run_all`].
fn failures() -> &'static Mutex<Vec<SweepFailure>> {
    static FAILURES: OnceLock<Mutex<Vec<SweepFailure>>> = OnceLock::new();
    FAILURES.get_or_init(|| Mutex::new(Vec::new()))
}

fn record_failure(failure: SweepFailure) {
    eprintln!("sweep: {failure}");
    // Recover from poisoning: the digest is exactly the structure that
    // must keep working after another thread panicked mid-failure-path,
    // and `Vec::push` cannot leave it torn.
    failures()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(failure);
}

/// Drains and returns every failure recorded since the last call
/// (quarantined runs and evicted memo entries, in occurrence order).
#[must_use]
pub fn take_sweep_failures() -> Vec<SweepFailure> {
    std::mem::take(&mut *failures().lock().unwrap_or_else(PoisonError::into_inner))
}

/// One machine-readable record per sweep run: what executed, how it
/// ended, and the harness provenance (memo status, retries, eviction)
/// that the human-readable tables drop. [`run_all`] appends one per
/// input spec, in input order; [`take_run_manifests`] drains them and
/// the CLI writes them as one JSONL line each (`manifest.jsonl`).
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Application name.
    pub app: String,
    /// Configured mutator threads.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// `ok`, `trunc`, or `quar`.
    pub outcome: String,
    /// Truncation reason / quarantine cause; empty for clean runs.
    pub detail: String,
    /// Host-side wall nanoseconds of the simulation that produced the
    /// report (0 for quarantined stubs).
    pub host_ns: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Simulated end-to-end time, nanoseconds.
    pub sim_wall_ns: u64,
    /// Simulated stop-the-world GC time, nanoseconds.
    pub gc_ns: u64,
    /// How the report was obtained: `hit` (memo), `miss` (simulated), or
    /// `off` (`SCALESIM_NO_MEMO=1`).
    pub memo: String,
    /// Crash-isolation retries this sweep spent on the point (0 or 1).
    pub retries: u32,
    /// A corrupt memo entry for this key was evicted during this sweep's
    /// lookup (the run was then re-simulated).
    pub memo_evicted: bool,
    /// Invariant-monitor full scans during the run.
    pub monitor_scans: u64,
    /// Retained timeline events (0 with tracing off).
    pub trace_events: u64,
    /// Timeline events dropped by ring retention.
    pub trace_dropped: u64,
    /// Server policy label ("naive", "robust", …); empty for batch runs.
    pub policy: String,
    /// Server p50 request latency, nanoseconds (0 for batch runs or a
    /// server run with no goodput).
    pub lat_p50_ns: u64,
    /// Server p99 request latency, nanoseconds.
    pub lat_p99_ns: u64,
    /// Server p99.9 request latency, nanoseconds.
    pub lat_p999_ns: u64,
    /// The server entered degraded mode (always false for batch runs).
    /// Surfaced so CI can exit 2 on a degraded service the way it does
    /// for quarantined runs.
    pub degraded: bool,
}

impl RunManifest {
    /// Renders the manifest as one JSONL line (no trailing newline).
    /// Carries every key [`MANIFEST_REQUIRED_KEYS`](crate::check::MANIFEST_REQUIRED_KEYS)
    /// demands.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        use JsonValue::{Bool, U64};
        let text = |s: &str| JsonValue::Str(s.to_owned());
        let pairs = [
            ("app", text(&self.app)),
            ("threads", U64(self.threads as u64)),
            ("seed", U64(self.seed)),
            ("outcome", text(&self.outcome)),
            ("detail", text(&self.detail)),
            ("host_ns", U64(self.host_ns)),
            ("events", U64(self.events)),
            ("sim_wall_ns", U64(self.sim_wall_ns)),
            ("gc_ns", U64(self.gc_ns)),
            ("memo", text(&self.memo)),
            ("retries", U64(u64::from(self.retries))),
            ("memo_evicted", Bool(self.memo_evicted)),
            ("monitor_scans", U64(self.monitor_scans)),
            ("trace_events", U64(self.trace_events)),
            ("trace_dropped", U64(self.trace_dropped)),
            ("policy", text(&self.policy)),
            ("lat_p50_ns", U64(self.lat_p50_ns)),
            ("lat_p99_ns", U64(self.lat_p99_ns)),
            ("lat_p999_ns", U64(self.lat_p999_ns)),
            ("degraded", Bool(self.degraded)),
        ];
        JsonValue::Obj(pairs.map(|(k, v)| (k.to_owned(), v)).into()).to_string()
    }
}

/// The process-wide manifest log, appended by [`run_all`].
fn manifests() -> &'static Mutex<Vec<RunManifest>> {
    static MANIFESTS: OnceLock<Mutex<Vec<RunManifest>>> = OnceLock::new();
    MANIFESTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Drains and returns every run manifest recorded since the last call
/// (one per sweep input, in sweep order).
#[must_use]
pub fn take_run_manifests() -> Vec<RunManifest> {
    std::mem::take(&mut *manifests().lock().unwrap_or_else(PoisonError::into_inner))
}

/// A memo entry: the cached report, the content fingerprint taken when
/// it was stored, and — while no sweep has served it yet — the retries a
/// run replayed from a checkpoint store or campaign segment cost when it
/// first executed.
#[derive(Clone)]
pub(crate) struct CacheEntry {
    pub(crate) report: Arc<RunReport>,
    pub(crate) fp: u64,
    pub(crate) restored: Option<u32>,
}

/// The process-wide run cache, keyed by [`RunSpec::memo_key`].
fn cache() -> &'static Mutex<HashMap<u64, CacheEntry>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, CacheEntry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A word-at-a-time [`Hasher`] built on [`splitmix64`]: every integer
/// the `Hash` derive feeds folds in as one 64-bit word, and byte runs
/// (strings, integer slices) fold in as little-endian 8-byte words, the
/// last one padded with its length. Unlike `DefaultHasher` its output
/// is fixed by this code alone.
#[derive(Debug, Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            word[7] = rest.len() as u8;
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = splitmix64(self.0 ^ n);
    }

    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Content fingerprint of a report: its derived `Hash` — every field
/// the `Debug` rendering shows, `host_ns` included — fed through a
/// [`WordHasher`].
pub(crate) fn fingerprint(report: &RunReport) -> u64 {
    let mut h = WordHasher::default();
    report.hash(&mut h);
    h.finish()
}

/// Inserts a persisted record into the memo cache under its key, with
/// its stored fingerprint and its retries as restored provenance — the
/// checkpoint layer's way of replaying persisted runs so a resumed sweep
/// serves them without re-simulation.
pub(crate) fn seed_cache_entry(record: checkpoint::Record) {
    let entry = CacheEntry {
        report: Arc::new(record.report),
        fp: record.fp,
        restored: Some(record.retries),
    };
    cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(record.key, entry);
}

/// The memo entry under `key`, if one is held.
#[cfg(test)]
pub(crate) fn cached_entry(key: u64) -> Option<CacheEntry> {
    cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
        .cloned()
}

/// Drops every memoized [`RunReport`] (used by benchmarks to measure cold
/// sweeps, and available to long-lived processes to bound memory).
pub fn clear_run_cache() {
    cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Number of memoized runs currently held.
#[must_use]
pub fn run_cache_size() -> usize {
    cache().lock().unwrap_or_else(PoisonError::into_inner).len()
}

/// Total simulated events across every memoized run.
///
/// Benchmarks divide this by the sweep's wall time to report engine
/// throughput: each cached report counts once no matter how many figure
/// drivers consumed it.
#[must_use]
pub fn cached_event_total() -> u64 {
    cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
        .map(|entry| entry.report.events_processed)
        .sum()
}

fn memo_disabled() -> bool {
    std::env::var_os("SCALESIM_NO_MEMO").is_some_and(|v| v == "1")
}

/// The (application × thread count) grid every full-figure sweep
/// shares.
pub(crate) fn grid_specs(apps: &[SyntheticApp], params: &ExpParams) -> Vec<RunSpec> {
    let mut specs = Vec::with_capacity(apps.len() * params.thread_counts.len());
    for app in apps {
        for &threads in &params.thread_counts {
            specs.push(RunSpec::new(app.scaled(params.scale), threads, params.seed));
        }
    }
    specs
}

/// The runs of `app` at every thread count under each of `variants`,
/// thread-major. Each configuration starts from a fresh builder holding
/// the thread count and seed, and `variant` applies one variant to it.
pub(crate) fn per_thread_specs<V: Copy>(
    app: &str,
    params: &ExpParams,
    variants: &[V],
    variant: fn(&mut JvmConfigBuilder, V),
) -> Result<Vec<RunSpec>, SimError> {
    let model = app_model(app)?;
    let mut specs = Vec::new();
    for &threads in &params.thread_counts {
        for &v in variants {
            let mut cfg = JvmConfig::builder();
            cfg.threads(threads).seed(params.seed);
            variant(&mut cfg, v);
            specs.push(RunSpec {
                app: model.scaled(params.scale),
                config: cfg.build()?,
            });
        }
    }
    Ok(specs)
}

/// The benchmark model named `app`.
pub(crate) fn app_model(app: &str) -> Result<SyntheticApp, SimError> {
    app_by_name(app).ok_or_else(|| SimError::UnknownApp(app.to_owned()))
}

/// Splits parallel `specs` and `reports` into runs of consecutive
/// entries whose specs `same` pairs up: one app of an app-major grid,
/// one machine of the topology sweep.
pub(crate) fn groups<'a>(
    specs: &'a [RunSpec],
    reports: &'a [RunReport],
    same: fn(&RunSpec, &RunSpec) -> bool,
) -> impl Iterator<Item = (&'a [RunSpec], &'a [RunReport])> {
    let mut rest = reports;
    specs.chunk_by(same).map(move |chunk| {
        let (head, tail) = rest.split_at(chunk.len());
        rest = tail;
        (chunk, head)
    })
}

/// Number of physical cores, falling back to logical parallelism where
/// the sysfs topology is unavailable. `SCALESIM_WORKERS` overrides both.
pub(crate) fn worker_budget() -> usize {
    if let Some(v) = std::env::var_os("SCALESIM_WORKERS") {
        if let Some(n) = v.to_str().and_then(|s| s.parse::<usize>().ok()) {
            return n.max(1);
        }
    }
    let logical = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    physical_cores().map_or(logical, |p| p.min(logical))
}

/// Counts distinct `(package, core)` pairs from the Linux sysfs topology.
fn physical_cores() -> Option<usize> {
    let mut cores = HashSet::new();
    let cpus = std::fs::read_dir("/sys/devices/system/cpu").ok()?;
    for entry in cpus.flatten() {
        let name = entry.file_name();
        let name = name.to_str().unwrap_or("");
        if !name.starts_with("cpu") || !name[3..].bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let topo = entry.path().join("topology");
        let pkg = std::fs::read_to_string(topo.join("physical_package_id")).ok()?;
        let core = std::fs::read_to_string(topo.join("core_id")).ok()?;
        cores.insert((pkg.trim().to_owned(), core.trim().to_owned()));
    }
    (!cores.is_empty()).then_some(cores.len())
}

/// One execution attempt, with panics converted into described errors.
/// A run that overstayed its watchdog deadline is hung, not truncated:
/// it comes back as an `Err`, so every caller's retry-then-quarantine
/// policy handles it like any other failure.
pub(crate) fn attempt(spec: &RunSpec) -> Result<RunReport, String> {
    match catch_unwind(AssertUnwindSafe(|| spec.run())) {
        Ok(Ok(report)) if report.outcome == RunOutcome::Truncated(AbortReason::Watchdog) => {
            let ms = spec.config.budget.watchdog_ms.unwrap_or_default();
            Err(format!("watchdog: run exceeded host deadline of {ms} ms"))
        }
        Ok(Ok(report)) => Ok(report),
        Ok(Err(err)) => Err(err.to_string()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Calls `run`, and once more if it fails: crash isolation, so a second
/// failure comes back as data rather than tearing the caller down.
/// Returns the outcome and the retries it cost.
pub(crate) fn retry_once(
    mut run: impl FnMut() -> Result<RunReport, String>,
) -> (Result<RunReport, String>, u32) {
    match run() {
        Ok(report) => (Ok(report), 0),
        Err(first) => match run() {
            Ok(report) => (Ok(report), 1),
            Err(second) => {
                let msg = if first == second {
                    format!("{first} (and again on retry)")
                } else {
                    format!("{first}; retry: {second}")
                };
                (Err(msg), 1)
            }
        },
    }
}

/// Whether a completed report may be persisted to the checkpoint store
/// (or a campaign worker's segment).
/// Host-time-dependent truncations are excluded: they encode transient
/// host conditions, and replaying them would make a resumed sweep
/// diverge from an uninterrupted one.
pub(crate) fn checkpointable(report: &RunReport) -> bool {
    !matches!(
        report.outcome,
        RunOutcome::Truncated(AbortReason::Watchdog | AbortReason::MaxHostMs(_))
    )
}

/// Executes all runs and returns reports in input order.
///
/// Previously-cached runs are served from the memo (after a fingerprint
/// re-check); the remainder execute on up to [physical-core-count] worker
/// threads. Duplicate specs within one call are simulated once.
///
/// A run that panics or errors is retried once and then quarantined: its
/// slot is filled by a metric-less report with a
/// [`Quarantined`](scalesim_core::RunOutcome::Quarantined) outcome, the
/// sweep continues, and the event lands in the failure digest
/// ([`take_sweep_failures`]). The sweep itself never panics on a failing
/// run.
#[must_use]
pub fn run_all(specs: &[RunSpec]) -> Vec<RunReport> {
    if specs.is_empty() {
        return Vec::new();
    }
    let use_memo = !memo_disabled();
    let keys: Vec<u64> = specs.iter().map(RunSpec::memo_key).collect();

    // Resolve what is already known — verifying each entry's fingerprint
    // and evicting corrupt ones — then deduplicate the remainder. An
    // entry replayed from a checkpoint store or campaign segment gives up
    // its restored provenance to the first sweep that serves it, so that
    // sweep's manifests report what the original, uninterrupted sweep
    // would have: `memo:"miss"` plus the retries the run actually cost
    // when it first executed.
    let mut resolved: HashMap<u64, Arc<RunReport>> = HashMap::new();
    let mut evicted: HashSet<u64> = HashSet::new();
    let mut restored: HashMap<u64, u32> = HashMap::new();
    if use_memo {
        let mut cached = cache().lock().unwrap_or_else(PoisonError::into_inner);
        for (i, &k) in keys.iter().enumerate() {
            if resolved.contains_key(&k) {
                continue;
            }
            if let Some(entry) = cached.get_mut(&k) {
                if fingerprint(&entry.report) == entry.fp {
                    resolved.insert(k, Arc::clone(&entry.report));
                    if let Some(retries) = entry.restored.take() {
                        restored.insert(k, retries);
                    }
                } else {
                    record_failure(SweepFailure {
                        spec: specs[i].describe(),
                        kind: SweepFailureKind::MemoCorruption,
                        detail: "cached report failed its fingerprint check; \
                                 evicted and re-simulated"
                            .to_owned(),
                        run_spec: Some(specs[i].clone()),
                    });
                    evicted.insert(k);
                    cached.remove(&k);
                }
            }
        }
    }
    let memo_hits: HashSet<u64> = resolved.keys().copied().collect();
    let mut pending: Vec<usize> = Vec::new(); // indices into `specs`
    let mut queued: HashSet<u64> = HashSet::new();
    for (i, &k) in keys.iter().enumerate() {
        if !resolved.contains_key(&k) && queued.insert(k) {
            pending.push(i);
        }
    }

    let mut fps: HashMap<u64, u64> = HashMap::new();
    let mut retries_by_key: HashMap<u64, u32> = HashMap::new();
    for (&k, &r) in &restored {
        if r > 0 {
            retries_by_key.insert(k, r);
        }
    }
    if !pending.is_empty() {
        let workers = worker_budget().min(pending.len());
        // The checkpoint record needs the fingerprint even when the memo
        // is off.
        let fingerprinted = use_memo || checkpoint::is_active();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<RunReport, String>, Option<u64>, u32)>();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let pending = &pending;
                let keys = &keys;
                scope.spawn(move || {
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = pending.get(n) else { break };
                        let (outcome, retries) = retry_once(|| attempt(&specs[i]));
                        // One fingerprint per run, taken here off the main
                        // thread: the checkpoint record and the memo entry
                        // below both reuse it.
                        let fp = match &outcome {
                            Ok(report) if fingerprinted => Some(fingerprint(report)),
                            _ => None,
                        };
                        // Persist the completion before handing the result
                        // over: a crash after this point costs nothing on
                        // resume. The stored fingerprint is always the true
                        // one (chaos may corrupt the in-memory memo entry
                        // below, but never the durable record).
                        if let (Ok(report), Some(fp)) = (&outcome, fp) {
                            if checkpointable(report) {
                                checkpoint::append_completed(keys[i], report, fp, retries);
                            }
                        }
                        // The receiver outlives the scope; a send cannot fail.
                        tx.send((i, outcome, fp, retries))
                            .expect("result channel closed");
                    }
                });
            }
        });
        drop(tx);

        // All workers have exited; drain the (buffered) channel.
        for (i, outcome, fp, retries) in rx {
            let k = keys[i];
            if retries > 0 {
                retries_by_key.insert(k, retries);
            }
            if let Some(fp) = fp {
                fps.insert(k, fp);
            }
            match outcome {
                Ok(report) => {
                    resolved.insert(k, Arc::new(report));
                }
                Err(why) => {
                    record_failure(SweepFailure {
                        spec: specs[i].describe(),
                        kind: SweepFailureKind::Quarantined,
                        detail: why.clone(),
                        run_spec: Some(specs[i].clone()),
                    });
                    let spec = &specs[i];
                    resolved.insert(
                        k,
                        Arc::new(RunReport::quarantined(
                            spec.app.name(),
                            spec.config.threads,
                            spec.config.cores(),
                            why.clone(),
                        )),
                    );
                }
            }
        }
    }

    if use_memo {
        // Memoize every run simulated here. Quarantined stubs are never
        // memoized (they have no fingerprint): a later sweep gets a fresh
        // chance at the point. Truncated runs are deterministic (the
        // budget is part of the key) and cache normally.
        //
        // Memo corruption is drawn once per first-occurrence key that
        // stands for a miss: a run simulated here, or an entry restored
        // from a store, which stands in for the simulation an
        // uninterrupted sweep ran at this point. So a resumed sweep or a
        // campaign corrupts the entries a single run does.
        let mut chaos = ChaosPlan::new(specs[0].config.chaos, specs[0].config.seed);
        let mut cached = cache().lock().unwrap_or_else(PoisonError::into_inner);
        let mut drawn: HashSet<u64> = HashSet::new();
        for &k in &keys {
            let fresh = fps.get(&k).copied();
            if (fresh.is_none() && !restored.contains_key(&k)) || !drawn.insert(k) {
                continue;
            }
            // Deliberate cache corruption: a fingerprint that cannot
            // match, so the next lookup must detect the entry, evict it,
            // and re-simulate.
            let corrupt = if chaos.fires(FaultClass::MemoCorrupt) {
                0x05ca_1ab1_e0dd_ba11
            } else {
                0
            };
            match fresh {
                Some(fp) => {
                    cached.entry(k).or_insert_with(|| CacheEntry {
                        report: Arc::clone(&resolved[&k]),
                        fp: fp ^ corrupt,
                        restored: None,
                    });
                }
                None => {
                    if let Some(entry) = cached.get_mut(&k) {
                        entry.fp ^= corrupt;
                    }
                }
            }
        }
    }

    // One manifest per input spec, in input order, carrying the harness
    // provenance the reports themselves cannot know.
    let new_manifests: Vec<RunManifest> = specs
        .iter()
        .zip(&keys)
        .map(|(spec, k)| {
            let r: &RunReport = resolved
                .get(k)
                .expect("every requested run resolved by cache, worker, or quarantine");
            let memo = if !use_memo {
                "off"
            } else if restored.contains_key(k) {
                // Checkpoint-restored: report what the uninterrupted
                // sweep would have said when it first ran the point.
                "miss"
            } else if memo_hits.contains(k) {
                "hit"
            } else {
                "miss"
            };
            RunManifest {
                app: spec.app.name().to_owned(),
                threads: spec.config.threads,
                seed: spec.config.seed,
                outcome: outcome_cell(&r.outcome),
                detail: if r.outcome.is_ok() {
                    String::new()
                } else {
                    r.outcome.to_string()
                },
                host_ns: r.host_ns,
                events: r.events_processed,
                sim_wall_ns: r.wall_time.as_nanos(),
                gc_ns: r.gc_time.as_nanos(),
                memo: memo.to_owned(),
                retries: retries_by_key.get(k).copied().unwrap_or(0),
                memo_evicted: evicted.contains(k),
                monitor_scans: r.counters.get(CounterId::MonitorScans),
                trace_events: r.timeline.len() as u64,
                trace_dropped: r.timeline.dropped(),
                policy: r
                    .server
                    .as_ref()
                    .map_or_else(String::new, |s| s.policy.clone()),
                lat_p50_ns: r
                    .server
                    .as_ref()
                    .and_then(|s| s.latency_p(0.50))
                    .unwrap_or(0),
                lat_p99_ns: r
                    .server
                    .as_ref()
                    .and_then(|s| s.latency_p(0.99))
                    .unwrap_or(0),
                lat_p999_ns: r
                    .server
                    .as_ref()
                    .and_then(|s| s.latency_p(0.999))
                    .unwrap_or(0),
                degraded: r.server.as_ref().is_some_and(|s| s.degraded),
            }
        })
        .collect();
    manifests()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .extend(new_manifests);

    keys.iter()
        .map(|k| {
            RunReport::clone(
                resolved
                    .get(k)
                    .expect("every requested run resolved by cache, worker, or quarantine"),
            )
        })
        .collect()
}

/// [`RunSpec::new`] with every knob the builder reads from the
/// environment fixed: no budget, no chaos, monitors on, tracing off, the
/// default lock algorithm.
#[cfg(test)]
pub(crate) fn pinned_spec(app: SyntheticApp, threads: usize, seed: u64) -> RunSpec {
    use scalesim_core::{LockAlg, TraceConfig};
    use scalesim_simkit::{ChaosConfig, RunBudget};
    let mut spec = RunSpec::new(app, threads, seed);
    spec.config.budget = RunBudget::default();
    spec.config.chaos = ChaosConfig::default();
    spec.config.monitors = true;
    spec.config.trace = TraceConfig::off();
    spec.config.lock_alg = LockAlg::default();
    spec
}

/// A traced xalan run at 2 threads, seed 9, with a timeline and full
/// object retention. Every knob the builder reads from the
/// environment is fixed, and `host_ns` is zeroed.
#[cfg(test)]
pub(crate) fn traced_fixture(scale: f64) -> RunReport {
    let mut spec = pinned_spec(scalesim_workloads::xalan().scaled(scale), 2, 9);
    spec.config.trace = scalesim_core::TraceConfig::on();
    spec.config.retention = scalesim_objtrace::Retention::Full;
    let mut report = spec.run().expect("fixture runs clean");
    report.host_ns = 0;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_workloads::{sunflow, xalan};

    #[test]
    fn word_hasher_matches_known_answers() {
        let finish = |feed: &dyn Fn(&mut WordHasher)| {
            let mut h = WordHasher::default();
            feed(&mut h);
            h.finish()
        };
        // Nothing fed: the first SplitMix64 output for seed 0.
        assert_eq!(finish(&|_| {}), 0xe220_a839_7b1d_cdaf);
        assert_eq!(
            finish(&|h| h.write_u64(0x0123_4567_89ab_cdef)),
            0x021c_88d0_a3fd_73b6
        );
        // Narrow integers widen to one word each.
        assert_eq!(finish(&|h| h.write_u8(7)), finish(&|h| h.write_u64(7)));
        // Bytes fold as little-endian words; a short tail carries its length.
        assert_eq!(
            finish(&|h| h.write(b"scalesim")),
            finish(&|h| h.write_u64(u64::from_le_bytes(*b"scalesim")))
        );
        assert_eq!(
            finish(&|h| h.write(b"scalesim-hash")),
            0xef8e_c8d5_be91_4d87
        );
        assert_ne!(finish(&|h| h.write(&[1])), finish(&|h| h.write(&[1, 0])));
        // A u128 folds as its low word, then its high word.
        assert_eq!(
            finish(&|h| h.write_u128(u128::MAX - 1)),
            0xecff_ed2f_7140_be4e
        );
    }

    #[test]
    fn traced_fixture_fingerprint_is_pinned() {
        // A change here means a stored checkpoint or campaign record no
        // longer verifies: every point it holds re-runs once.
        let report = traced_fixture(0.002);
        assert!(!report.timeline.is_empty() && report.trace.events().is_some());
        assert_eq!(fingerprint(&report), 0xe2c2_173e_39f1_53c5);
    }

    #[test]
    fn fingerprint_covers_every_report_field() {
        use scalesim_core::ServerStats;
        use scalesim_gc::GcLog;
        use scalesim_metrics::LogHistogram;
        use scalesim_objtrace::{ObjectTracer, TraceEvent};
        use scalesim_trace::Timeline;

        let base = traced_fixture(0.02);
        let fp = fingerprint(&base);
        assert_eq!(fingerprint(&base.clone()), fp);
        /// The packed events, head and dropped count.
        type Ring = (Vec<u8>, usize, u64);
        fn retimeline(r: &mut RunReport, edit: fn(&mut Ring)) {
            let (enabled, capacity, head, dropped, packed) = r.timeline.packed_parts();
            let mut ring = (packed.into_owned(), head, dropped);
            edit(&mut ring);
            let (packed, head, dropped) = ring;
            r.timeline =
                Timeline::from_packed_parts(enabled, capacity, head, dropped, packed).unwrap();
        }
        type Edit = fn(&mut RunReport);
        let edits: [(&str, Edit); 12] = [
            ("timeline event arg", |r| {
                // The last byte ends the last event's `arg` varint; one
                // more or one less keeps it the shortest encoding.
                retimeline(r, |ring| {
                    let last = ring.0.last_mut().unwrap();
                    *last = if *last < 0x7f { *last + 1 } else { *last - 1 };
                });
            }),
            ("timeline head", |r| retimeline(r, |ring| ring.1 += 1)),
            ("timeline dropped", |r| retimeline(r, |ring| ring.2 += 1)),
            ("objtrace event", |r| {
                let mut snap = r.trace.snapshot();
                match &mut snap.events[0] {
                    TraceEvent::Alloc { size, .. } => *size += 1,
                    TraceEvent::Death { lifespan, .. } => *lifespan += 1,
                }
                r.trace = ObjectTracer::from_snapshot(snap);
            }),
            ("gc event", |r| {
                let mut events = r.gc.events().to_vec();
                events[0].survived_bytes += 1;
                r.gc = GcLog::new();
                for e in events {
                    r.gc.push(e);
                }
            }),
            ("lock-class stat", |r| {
                let stats = r.locks.by_class.values_mut().next().expect("a lock class");
                stats.contentions += 1;
            }),
            ("counters slot", |r| {
                r.counters.add(CounterId::MonitorScans, 1);
            }),
            ("per_thread entry", |r| r.per_thread[1].dispatches += 1),
            ("heap", |r| r.heap.tlab_refills += 1),
            ("outcome", |r| {
                r.outcome = RunOutcome::Truncated(AbortReason::MaxEvents(1));
            }),
            ("server", |r| {
                r.server = Some(ServerStats {
                    policy: String::new(),
                    arrivals: 0,
                    goodput: 0,
                    orphan_completions: 0,
                    sheds: 0,
                    timeouts: 0,
                    retries: 0,
                    in_flight: 0,
                    degraded: false,
                    latency: LogHistogram::new(),
                    queue_depth: LogHistogram::new(),
                    tail_goodput: 0,
                    tail_arrivals: 0,
                });
            }),
            ("host_ns", |r| r.host_ns += 1),
        ];
        for (field, edit) in edits {
            let mut changed = base.clone();
            edit(&mut changed);
            assert_ne!(
                format!("{changed:?}"),
                format!("{base:?}"),
                "{field}: the edit must change the report"
            );
            assert_ne!(fingerprint(&changed), fp, "{field} escapes the fingerprint");
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        let specs = vec![
            RunSpec::new(xalan().scaled(0.002), 2, 1),
            RunSpec::new(sunflow().scaled(0.002), 4, 1),
            RunSpec::new(xalan().scaled(0.002), 8, 1),
        ];
        let reports = run_all(&specs);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].app, "xalan");
        assert_eq!(reports[0].threads, 2);
        assert_eq!(reports[1].app, "sunflow");
        assert_eq!(reports[2].threads, 8);
    }

    #[test]
    fn parallel_matches_serial() {
        let spec = RunSpec::new(xalan().scaled(0.002), 4, 7);
        let serial = spec.run().unwrap();
        let parallel = run_all(&[spec])[0].clone();
        assert_eq!(serial.wall_time, parallel.wall_time);
        assert_eq!(serial.events_processed, parallel.events_processed);
    }

    #[test]
    fn empty_sweep_is_fine() {
        assert!(run_all(&[]).is_empty());
    }

    #[test]
    fn memo_keys_separate_app_threads_and_seed() {
        let base = RunSpec::new(xalan().scaled(0.002), 4, 7);
        assert_eq!(
            base.memo_key(),
            RunSpec::new(xalan().scaled(0.002), 4, 7).memo_key()
        );
        assert_ne!(
            base.memo_key(),
            RunSpec::new(xalan().scaled(0.002), 8, 7).memo_key()
        );
        assert_ne!(
            base.memo_key(),
            RunSpec::new(xalan().scaled(0.002), 4, 8).memo_key()
        );
        assert_ne!(
            base.memo_key(),
            RunSpec::new(sunflow().scaled(0.002), 4, 7).memo_key()
        );
        assert_ne!(
            base.memo_key(),
            RunSpec::new(xalan().scaled(0.003), 4, 7).memo_key()
        );
    }

    #[test]
    fn memo_keys_separate_chaos_and_budget() {
        use scalesim_simkit::{ChaosConfig, RunBudget};
        let base = RunSpec::new(xalan().scaled(0.002), 4, 7);
        let mut chaotic = base.clone();
        chaotic.config.chaos = ChaosConfig {
            drop_wakeup_period: 64,
            ..ChaosConfig::default()
        };
        assert_ne!(base.memo_key(), chaotic.memo_key());
        let mut budgeted = base.clone();
        budgeted.config.budget = RunBudget {
            max_events: 1000,
            ..budgeted.config.budget
        };
        assert_ne!(base.memo_key(), budgeted.memo_key());
    }

    #[test]
    fn memo_keys_are_pinned() {
        // Checkpoint records and campaign segments are found by these
        // keys: a change to `DefaultHasher` or to the `Debug` rendering of
        // an app or a config would make every stored record miss.
        use scalesim_simkit::{ChaosConfig, RunBudget};
        let batch = pinned_spec(xalan().scaled(0.05), 16, 42);
        let mut chaotic = pinned_spec(sunflow().scaled(0.002), 4, 7);
        chaotic.config.chaos = ChaosConfig {
            drop_wakeup_period: 64,
            ..ChaosConfig::default()
        };
        chaotic.config.budget = RunBudget {
            max_events: 1000,
            ..RunBudget::default()
        };
        let mut server = pinned_spec(xalan().scaled(0.02), 8, 42);
        server.config.server = Some(
            scalesim_workloads::ServerSpec::robust(8_000, 128)
                .with_fault_window(2_000_000, 6_000_000),
        );
        assert_eq!(
            [batch.memo_key(), chaotic.memo_key(), server.memo_key()],
            [
                0x0d4f_2af2_ed55_8f40,
                0x5f70_0665_dcb2_d924,
                0x312a_6c79_1153_ab5f
            ]
        );
    }

    #[test]
    fn duplicate_specs_share_one_simulation() {
        let spec = RunSpec::new(sunflow().scaled(0.002), 3, 21);
        let reports = run_all(&[spec.clone(), spec.clone(), spec]);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].wall_time, reports[1].wall_time);
        assert_eq!(reports[1].events_processed, reports[2].events_processed);
        // Deduplicated runs clone the same simulation, including its
        // host-side timing.
        assert_eq!(reports[0].host_ns, reports[1].host_ns);
    }

    #[test]
    fn memoized_rerun_matches_cold_run() {
        let spec = RunSpec::new(xalan().scaled(0.002), 5, 13);
        let cold = spec.run().unwrap();
        let first = run_all(std::slice::from_ref(&spec));
        let second = run_all(std::slice::from_ref(&spec)); // served by memo
        for r in [&first[0], &second[0]] {
            assert_eq!(r.wall_time, cold.wall_time);
            assert_eq!(r.events_processed, cold.events_processed);
            assert_eq!(r.gc_time, cold.gc_time);
        }
    }

    #[test]
    fn run_records_host_wall_time() {
        let report = RunSpec::new(xalan().scaled(0.002), 2, 5).run().unwrap();
        assert!(report.host_ns > 0);
    }

    #[test]
    fn cache_introspection_works() {
        clear_run_cache();
        let before = run_cache_size();
        let _ = run_all(&[RunSpec::new(sunflow().scaled(0.002), 2, 77)]);
        assert!(run_cache_size() > before || memo_disabled());
    }

    /// Serializes the tests that drain the process-wide failure digest.
    fn digest_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .expect("digest guard poisoned")
    }

    #[test]
    fn panicking_run_is_quarantined_without_aborting_the_sweep() {
        use scalesim_core::RunOutcome;
        use scalesim_simkit::ChaosConfig;
        let _guard = digest_guard();
        let _ = take_sweep_failures(); // isolate this test's digest
        let mut doomed = RunSpec::new(xalan().scaled(0.002), 2, 31);
        doomed.config.chaos = ChaosConfig {
            panic_at_event: 500,
            ..ChaosConfig::default()
        };
        let healthy = RunSpec::new(xalan().scaled(0.002), 4, 31);
        let reports = run_all(&[doomed.clone(), healthy]);
        assert_eq!(reports.len(), 2);
        assert!(
            matches!(reports[0].outcome, RunOutcome::Quarantined(_)),
            "{:?}",
            reports[0].outcome
        );
        assert!(reports[1].outcome.is_ok());
        assert_eq!(reports[1].threads, 4);
        let digest = take_sweep_failures();
        assert!(
            digest
                .iter()
                .any(|f| f.kind == SweepFailureKind::Quarantined
                    && f.detail.contains("deliberate panic")),
            "{digest:?}"
        );
        // Quarantined points are never memoized: a rerun attempts the
        // simulation afresh (and, with the same chaos plan, quarantines
        // again rather than serving a cached stub).
        assert!(!cache()
            .lock()
            .expect("run cache poisoned")
            .contains_key(&doomed.memo_key()));
        let _ = take_sweep_failures();
    }

    #[test]
    fn manifests_record_each_spec_with_provenance() {
        let _guard = digest_guard();
        let _ = take_run_manifests();
        let seed = 920_001;
        let specs = vec![
            RunSpec::new(xalan().scaled(0.002), 2, seed),
            RunSpec::new(sunflow().scaled(0.002), 3, seed),
        ];
        let _ = run_all(&specs);
        // Other tests' sweeps may interleave; keep only this test's seed.
        let mine: Vec<RunManifest> = take_run_manifests()
            .into_iter()
            .filter(|m| m.seed == seed)
            .collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].app, "xalan");
        assert_eq!(mine[0].threads, 2);
        assert_eq!(mine[1].app, "sunflow");
        assert_eq!(mine[0].outcome, "ok");
        assert!(mine[0].events > 0);
        assert_eq!(mine[0].retries, 0);
        assert!(!mine[0].memo_evicted);
        for m in &mine {
            crate::check::validate_manifest_line(&m.to_json_line())
                .expect("manifest line validates");
        }
        // A repeat sweep is served by the memo and says so.
        let _ = run_all(&specs);
        let again: Vec<RunManifest> = take_run_manifests()
            .into_iter()
            .filter(|m| m.seed == seed)
            .collect();
        assert_eq!(again.len(), 2);
        if !memo_disabled() {
            assert!(again.iter().all(|m| m.memo == "hit"), "{again:?}");
        }
    }

    #[test]
    fn manifest_line_bytes_are_pinned() {
        let m = RunManifest {
            app: "xalan".to_owned(),
            threads: 4,
            seed: 42,
            outcome: "quar".to_owned(),
            detail: "panicked: \"boom\" at a\\b\nnext\tcol \u{1}".to_owned(),
            host_ns: 7,
            events: 8,
            sim_wall_ns: 9,
            gc_ns: 10,
            memo: "miss".to_owned(),
            retries: 1,
            memo_evicted: true,
            monitor_scans: 11,
            trace_events: 12,
            trace_dropped: 13,
            policy: "robust".to_owned(),
            lat_p50_ns: 14,
            lat_p99_ns: 15,
            lat_p999_ns: 16,
            degraded: false,
        };
        let line = m.to_json_line();
        assert_eq!(
            line,
            concat!(
                r#"{"app":"xalan","threads":4,"seed":42,"outcome":"quar","#,
                r#""detail":"panicked: \"boom\" at a\\b\nnext\tcol \u0001","host_ns":7,"#,
                r#""events":8,"sim_wall_ns":9,"gc_ns":10,"memo":"miss","retries":1,"#,
                r#""memo_evicted":true,"monitor_scans":11,"trace_events":12,"#,
                r#""trace_dropped":13,"policy":"robust","lat_p50_ns":14,"#,
                r#""lat_p99_ns":15,"lat_p999_ns":16,"degraded":false}"#
            )
        );
        crate::check::validate_manifest_line(&line).expect("pinned line validates");
    }

    #[test]
    fn quarantined_point_lands_in_the_manifest() {
        use scalesim_simkit::ChaosConfig;
        let _guard = digest_guard();
        let _ = take_run_manifests();
        let _ = take_sweep_failures();
        let seed = 920_077;
        let mut doomed = RunSpec::new(xalan().scaled(0.002), 2, seed);
        doomed.config.chaos = ChaosConfig {
            panic_at_event: 400,
            ..ChaosConfig::default()
        };
        let _ = run_all(&[doomed]);
        let mine: Vec<RunManifest> = take_run_manifests()
            .into_iter()
            .filter(|m| m.seed == seed)
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].outcome, "quar");
        assert_eq!(mine[0].retries, 1);
        assert!(mine[0].detail.contains("deliberate panic"), "{mine:?}");
        crate::check::validate_manifest_line(&mine[0].to_json_line())
            .expect("quarantined manifest line validates");
        let _ = take_sweep_failures();
    }

    #[test]
    fn corrupted_memo_entry_is_evicted_and_rerun() {
        let _guard = digest_guard();
        let _ = take_sweep_failures();
        let spec = RunSpec::new(sunflow().scaled(0.002), 2, 91);
        let clean = run_all(std::slice::from_ref(&spec));
        if memo_disabled() {
            return;
        }
        // Corrupt the stored fingerprint by hand (what MemoCorrupt does
        // from inside the harness).
        {
            let mut cached = cache().lock().expect("run cache poisoned");
            let entry = cached.get_mut(&spec.memo_key()).expect("entry memoized");
            entry.fp ^= 1;
        }
        let healed = run_all(std::slice::from_ref(&spec));
        assert_eq!(clean[0].wall_time, healed[0].wall_time);
        assert_eq!(clean[0].events_processed, healed[0].events_processed);
        let digest = take_sweep_failures();
        assert!(
            digest
                .iter()
                .any(|f| f.kind == SweepFailureKind::MemoCorruption),
            "{digest:?}"
        );
        // The healed entry verifies again.
        let again = run_all(std::slice::from_ref(&spec));
        assert_eq!(again[0].wall_time, clean[0].wall_time);
        assert!(take_sweep_failures().is_empty());
    }

    #[test]
    fn attempt_fails_a_livelocked_run_at_its_watchdog_deadline() {
        use scalesim_simkit::{ChaosConfig, RunBudget};
        const WATCHDOG_MS: u64 = 250;
        // The livelock recipe of `tests/selfheal.rs` (dropped wakeups,
        // monitors off, 48 threads on 12 cores). The event budget only
        // keeps a run that ignores the deadline from running forever.
        let spec = RunSpec {
            app: xalan().scaled(0.02),
            config: JvmConfig::builder()
                .threads(48)
                .cores(12)
                .seed(42)
                .chaos(ChaosConfig {
                    drop_wakeup_period: 32,
                    ..ChaosConfig::default()
                })
                .monitors(false)
                .budget(RunBudget {
                    max_events: 50_000_000,
                    max_sim_time: None,
                    max_host_ms: None,
                    watchdog_ms: Some(WATCHDOG_MS),
                })
                .build()
                .unwrap(),
        };
        let started = Instant::now();
        let outcome = attempt(&spec);
        let elapsed_ms = started.elapsed().as_millis();
        let why = outcome
            .map(|r| r.outcome)
            .expect_err("a hung run is a failure");
        assert!(why.contains("watchdog"), "{why}");
        assert!(
            elapsed_ms < 10 * u128::from(WATCHDOG_MS),
            "watchdog took {elapsed_ms} ms for a {WATCHDOG_MS} ms deadline"
        );
    }
}
