//! Fault-tolerant multi-process sweep campaigns.
//!
//! A *campaign* lets N independent `scalesim-experiments campaign`
//! worker processes cooperatively drain one artifact's sweep over a
//! shared directory, tolerate any subset of them being SIGKILLed at any
//! instant, and still merge into final tables and a `manifest.jsonl`
//! **byte-identical** to a single-process run (modulo the zeroed
//! `host_ns` host-wall field, the one nondeterministic manifest field).
//!
//! Layout of a campaign directory:
//!
//! * `campaign.json` — the canonical spec (artifact + params), written
//!   once and byte-compared by every later process so two different
//!   campaigns can never interleave in one directory.
//! * `leases/<key>.lease` — one lease file per in-flight work unit,
//!   claimed with an atomic `create_new` and kept fresh by a heartbeat
//!   thread; a lease whose mtime is older than
//!   `SCALESIM_LEASE_TTL_MS` is presumed orphaned by a dead worker and
//!   reclaimed (rename to a per-claimer graveyard name, so exactly one
//!   reclaimer wins even when several race).
//! * `done/<key>` — advisory completion markers (`ok` / `volatile` /
//!   `quar`) so workers skip settled units without reading segments.
//! * `seg-w<id>-p<pid>.jsonl` — each worker's private result segment,
//!   one crc32-framed record per completed run in exactly the
//!   [`checkpoint`](crate::checkpoint) store framing. A SIGKILL can
//!   tear at most the last line, which the merge scrubs.
//!
//! **Correctness never depends on the leases.** A run is a pure
//! function of its memo key, so two workers that both execute a unit
//! (a stale-lease race, a missed heartbeat) merely write identical
//! records into different segments — last-wins merging is harmless.
//! Leases only prevent *wasted* work. Likewise the `done/` markers are
//! work-skipping hints: a marker without a segment record (crash
//! between the two) just means the sweep after the merge re-simulates
//! that unit.
//!
//! The merge pass ([`merge`]) is a replay and nothing more: it reads
//! the worker segments through the reader a checkpoint resume uses
//! ([`replay_dir`](crate::checkpoint::replay_dir)) and leaves every
//! verified record in the sweep memo cache with its restored
//! provenance. The caller then runs the artifact exactly as a single
//! process would: restored units are served as cache hits whose
//! manifests report what an uninterrupted run would have said, missing
//! or quarantined units re-execute under the usual
//! retry-once-then-quarantine policy, and everything after the sweep —
//! tables, analytics, shrinking, auditing, manifests — is the
//! single-process path.
//!
//! Durability policy: the campaign directory is scratch state, so
//! nothing in it is fsynced — segments are plain appends, done markers
//! are plain writes (existence is the signal), heartbeats only touch
//! mtimes, and `campaign.json` is a plain temp+rename write.
//! SIGKILL-safety needs only the page cache, which survives process
//! death; whole-*host* crash durability is the fsynced checkpoint
//! store's job (`--checkpoint`), and a torn `campaign.json` after a
//! host crash is caught by the byte-compare on the next init. Only the
//! final artifacts go through the fsynced
//! [`write_atomic`](scalesim_trace::write_atomic).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, SystemTime};

use scalesim_core::SimError;
use scalesim_simkit::splitmix64;
use scalesim_workloads::AppModel;

use crate::artifacts::{artifact, Runs, ARTIFACTS};
use crate::checkpoint::{self, encode_record};
use crate::params::ExpParams;
use crate::sweep::{
    attempt, checkpointable, clear_run_cache, fingerprint, retry_once, take_run_manifests,
    take_sweep_failures, worker_budget, RunSpec,
};

/// What one campaign runs: an artifact id plus the shared sweep
/// parameters. Serialized canonically into `campaign.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Artifact id: any artifact that runs as one sweep.
    pub artifact: String,
    /// Sweep parameters every worker must agree on.
    pub params: ExpParams,
}

impl CampaignSpec {
    /// The canonical one-line serialization stored as `campaign.json`.
    /// `scale` is carried as its exact `{:?}` rendering (a string, so
    /// the std-only JSON layer never has to parse a float) — two specs
    /// are compatible iff their canonical forms are byte-equal.
    #[must_use]
    pub fn canonical(&self) -> String {
        let threads: Vec<String> = self
            .params
            .thread_counts
            .iter()
            .map(ToString::to_string)
            .collect();
        format!(
            "{{\"v\":1,\"artifact\":\"{}\",\"scale\":\"{:?}\",\"seed\":{},\"threads\":[{}]}}\n",
            self.artifact,
            self.params.scale,
            self.params.seed,
            threads.join(",")
        )
    }
}

/// Campaign failure split the way the CLI splits exit codes: bad input
/// (exit 3) vs a failure at runtime (exit 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// Rejected configuration: unknown/uncampaignable artifact, or a
    /// directory initialized for a different spec.
    Config(String),
    /// I/O or engine failure while draining or merging.
    Runtime(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Config(msg) | CampaignError::Runtime(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CampaignError {}

fn classify_sim(e: &SimError) -> CampaignError {
    match e {
        SimError::Config(_) | SimError::UnknownApp(_) | SimError::Snapshot(_) => {
            CampaignError::Config(e.to_string())
        }
        SimError::Invariant(_) => CampaignError::Runtime(e.to_string()),
    }
}

fn rt(ctx: &str, e: &dyn fmt::Display) -> CampaignError {
    CampaignError::Runtime(format!("{ctx}: {e}"))
}

/// What one worker's drain pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Units this worker executed and persisted to its segment.
    pub ran: usize,
    /// Units skipped because another worker's done marker existed.
    pub skipped: usize,
    /// Units that completed with a host-time-dependent truncation and
    /// were therefore not persisted (the sweep after the merge re-runs
    /// them).
    pub volatile: usize,
    /// Units that failed twice and were marked quarantined (no record;
    /// the sweep after the merge re-runs them through the ordinary
    /// quarantine path).
    pub quarantined: usize,
}

/// What the merge pass replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Distinct work units the campaign covers.
    pub units: usize,
    /// Units restored from worker segments (served without
    /// re-simulation).
    pub restored: usize,
    /// Units the artifact sweep after the merge re-simulates (never
    /// persisted, volatile, or quarantined).
    pub reran: usize,
    /// Torn, corrupt, or fingerprint-mismatched segment lines dropped.
    pub skipped_lines: usize,
}

// ---------------------------------------------------------------------
// Tunables (environment)
// ---------------------------------------------------------------------

/// Lease time-to-live: a lease whose mtime is older than this is
/// presumed orphaned and may be reclaimed. `SCALESIM_LEASE_TTL_MS`
/// overrides the 2000 ms default; holders heartbeat at TTL/4.
#[must_use]
pub fn lease_ttl() -> Duration {
    std::env::var("SCALESIM_LEASE_TTL_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map_or(Duration::from_millis(2000), Duration::from_millis)
}

/// Worker processes a parented campaign spawns when `--workers` is not
/// given: `SCALESIM_CAMPAIGN_WORKERS`, defaulting to 2.
#[must_use]
pub fn default_workers() -> usize {
    std::env::var("SCALESIM_CAMPAIGN_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2)
}

// ---------------------------------------------------------------------
// Unit enumeration
// ---------------------------------------------------------------------

/// Enumerates the work units (one [`RunSpec`] per unit, duplicates
/// included) of an artifact, in driver order: the specs its registry
/// entry generates. `None` means the artifact cannot run as a campaign
/// (an unknown id, or an artifact that runs outside the sweep).
///
/// # Errors
///
/// The inner result propagates driver configuration errors.
pub fn campaign_units(
    artifact_id: &str,
    params: &ExpParams,
) -> Option<Result<Vec<RunSpec>, SimError>> {
    match artifact(artifact_id)?.runs {
        Runs::Sweep(specs, _) => Some(specs(params)),
        Runs::Direct(_) => None,
    }
}

/// The deduplicated `(memo key, spec)` unit list, in first-occurrence
/// order.
fn units_of(spec: &CampaignSpec) -> Result<Vec<(u64, RunSpec)>, CampaignError> {
    let specs = campaign_units(&spec.artifact, &spec.params)
        .ok_or_else(|| {
            let direct: Vec<&str> = ARTIFACTS
                .iter()
                .filter(|a| matches!(a.runs, Runs::Direct(_)))
                .map(|a| a.id)
                .collect();
            CampaignError::Config(format!(
                "artifact {} cannot run as a campaign (campaignable: every artifact except {})",
                spec.artifact,
                direct.join(", ")
            ))
        })?
        .map_err(|e| classify_sim(&e))?;
    let mut seen = HashSet::new();
    Ok(specs
        .into_iter()
        .filter_map(|s| {
            let k = s.memo_key();
            seen.insert(k).then_some((k, s))
        })
        .collect())
}

// ---------------------------------------------------------------------
// Initialization: the campaign.json spec guard
// ---------------------------------------------------------------------

/// Initializes (or re-validates) a campaign directory: creates the
/// `leases/` and `done/` subdirectories and writes `campaign.json`
/// atomically. If the file already exists it is byte-compared against
/// this spec's canonical form — a mismatch is a configuration error, so
/// two different campaigns can never share a directory. Idempotent;
/// every worker calls it.
///
/// # Errors
///
/// [`CampaignError::Config`] for an uncampaignable artifact or a spec
/// mismatch; [`CampaignError::Runtime`] for I/O failures.
pub fn init(dir: &Path, spec: &CampaignSpec) -> Result<(), CampaignError> {
    units_of(spec)?;
    std::fs::create_dir_all(dir.join("leases"))
        .map_err(|e| rt(&format!("create {}", dir.join("leases").display()), &e))?;
    std::fs::create_dir_all(dir.join("done"))
        .map_err(|e| rt(&format!("create {}", dir.join("done").display()), &e))?;
    let path = dir.join("campaign.json");
    let body = spec.canonical();
    match std::fs::read_to_string(&path) {
        Ok(existing) if existing == body => Ok(()),
        Ok(_) => Err(CampaignError::Config(format!(
            "{} was initialized for a different campaign spec; \
             refusing to mix campaigns in one directory",
            path.display()
        ))),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            // Concurrent first-writers race benignly: both rename
            // identical bytes into place. Non-fsynced on purpose — a
            // host crash that tears this file is caught by the
            // byte-compare above on the next init.
            let tmp = format!(".init-{}", std::process::id());
            replace_file(&path, &tmp, &body)
                .map_err(|e| rt(&format!("write {}", path.display()), &e))
        }
        Err(e) => Err(rt(&format!("read {}", path.display()), &e)),
    }
}

// ---------------------------------------------------------------------
// Leases
// ---------------------------------------------------------------------

fn key16(key: u64) -> String {
    format!("{key:016x}")
}

fn lease_path(leases: &Path, key: u64) -> PathBuf {
    leases.join(format!("{}.lease", key16(key)))
}

/// Replaces `path` with `contents` via a non-fsynced temp+rename. The
/// temp name must be unique within the directory across writers.
fn replace_file(path: &Path, tmp_name: &str, contents: &str) -> io::Result<()> {
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Attempts to claim the lease for `key`. Returns `Ok(true)` when this
/// process now holds it. A pre-existing lease older than `ttl` is
/// reclaimed: it is renamed to a per-claimer graveyard name (exactly
/// one racing reclaimer wins the rename), removed, and re-claimed with
/// a fresh `create_new` — which a third racer may still win, in which
/// case this claim simply fails and the caller moves on.
fn try_claim(leases: &Path, key: u64, ttl: Duration) -> io::Result<bool> {
    let pid = std::process::id();
    let path = lease_path(leases, key);
    let claim = |p: &Path| -> io::Result<bool> {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(p)
        {
            Ok(mut f) => {
                let _ = f.write_all(pid.to_string().as_bytes());
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e),
        }
    };
    if claim(&path)? {
        return Ok(true);
    }
    // Held by someone. Stale only if its mtime has aged past the TTL
    // (heartbeats refresh it at TTL/4); a vanished or future-dated
    // lease is treated as fresh and retried on a later scan.
    let Ok(meta) = std::fs::metadata(&path) else {
        return Ok(false);
    };
    let age = meta.modified().ok().and_then(|t| t.elapsed().ok());
    if age.is_none_or(|a| a <= ttl) {
        return Ok(false);
    }
    let grave = leases.join(format!(".reap-{}-{pid}", key16(key)));
    if std::fs::rename(&path, &grave).is_err() {
        // Another reclaimer won, or the holder released meanwhile.
        return Ok(false);
    }
    let _ = std::fs::remove_file(&grave);
    claim(&path)
}

/// Background refresher for every lease this process holds: one thread
/// sets each held lease's mtime to now every TTL/4, so a live worker's
/// leases never age past the TTL no matter how long its runs take.
struct Heartbeat {
    inner: Arc<HeartbeatInner>,
    handle: Option<std::thread::JoinHandle<()>>,
}

struct HeartbeatInner {
    held: Mutex<HashMap<u64, PathBuf>>,
    stop: Mutex<bool>,
    cv: Condvar,
}

impl Heartbeat {
    fn start(ttl: Duration) -> Self {
        let inner = Arc::new(HeartbeatInner {
            held: Mutex::new(HashMap::new()),
            stop: Mutex::new(false),
            cv: Condvar::new(),
        });
        let period = ttl / 4;
        let thread_inner = Arc::clone(&inner);
        let handle = std::thread::spawn(move || {
            loop {
                let guard = thread_inner
                    .stop
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let (guard, _) = thread_inner
                    .cv
                    .wait_timeout(guard, period)
                    .unwrap_or_else(PoisonError::into_inner);
                if *guard {
                    break;
                }
                drop(guard);
                let paths: Vec<PathBuf> = thread_inner
                    .held
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .cloned()
                    .collect();
                for path in paths {
                    // Touch in place, never create: a lease released
                    // since `paths` was read stays released. Refresh
                    // failures are tolerable: a missed beat at worst
                    // lets another worker duplicate the unit.
                    let _ = std::fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .and_then(|f| f.set_modified(SystemTime::now()));
                }
            }
        });
        Heartbeat {
            inner,
            handle: Some(handle),
        }
    }

    fn add(&self, key: u64, path: PathBuf) {
        self.inner
            .held
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, path);
    }

    fn remove(&self, key: u64) {
        self.inner
            .held
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&key);
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        *self
            .inner
            .stop
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.inner.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------

/// Bounded exponential backoff with deterministic jitter: base
/// `10ms << round` (round capped at 8), plus up to base/2 of jitter
/// derived from `splitmix64(nonce ^ round)` (reproducible from
/// `(pid, worker, round)` for debugging), the whole thing capped at
/// the lease TTL — sleeping longer than the TTL would only delay
/// reclaiming a dead worker's leases.
fn backoff_delay(round: u32, ttl: Duration, nonce: u64) -> Duration {
    let ttl_ms = u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX).max(1);
    let base_ms = 10u64.saturating_mul(1 << round.min(8)).min(ttl_ms);
    let jitter_ms = splitmix64(nonce ^ u64::from(round)) % (base_ms / 2 + 1);
    Duration::from_millis((base_ms + jitter_ms).min(ttl_ms))
}

// ---------------------------------------------------------------------
// Worker drain
// ---------------------------------------------------------------------

/// Drops the advisory completion marker. A direct write, not
/// temp+rename: readers only test existence (the status byte is
/// informational), so a torn marker is at worst a skipped unit the
/// sweep after the merge re-simulates.
fn mark_done(done: &Path, key: u64, status: &str) -> io::Result<()> {
    std::fs::write(done.join(key16(key)), status)
}

fn record_failure(slot: &Mutex<Option<String>>, msg: String) {
    let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if guard.is_none() {
        eprintln!("campaign: {msg}");
        *guard = Some(msg);
    }
}

/// Drains the campaign as one worker process: repeatedly claims
/// unsettled units (lease per unit, batching across an internal thread
/// pool sized like [`run_all`](crate::run_all)'s), executes each under
/// the retry-once policy, streams completed reports into this worker's
/// private crc-framed segment, and marks units done. Returns when every
/// unit is settled — by this worker, by a sibling, or by reclaiming and
/// finishing a dead sibling's leases.
///
/// Safe to run concurrently with any number of sibling workers, and
/// safe to SIGKILL at any instant: the next drain or the merge repairs
/// whatever was in flight.
///
/// # Errors
///
/// [`CampaignError::Config`] for spec problems, [`CampaignError::Runtime`]
/// for I/O failures (a failing unit is *not* an error — it quarantines).
pub fn worker_drain(
    dir: &Path,
    spec: &CampaignSpec,
    worker_id: u32,
) -> Result<DrainStats, CampaignError> {
    init(dir, spec)?;
    let units = units_of(spec)?;
    if units.is_empty() {
        return Ok(DrainStats::default());
    }
    let leases = dir.join("leases");
    let done = dir.join("done");
    let ttl = lease_ttl();
    let pid = std::process::id();
    let seg_path = dir.join(format!("seg-w{worker_id}-p{pid}.jsonl"));
    let seg_file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&seg_path)
        .map_err(|e| rt(&format!("open segment {}", seg_path.display()), &e))?;
    let seg = Mutex::new(seg_file);
    let heartbeat = Heartbeat::start(ttl);
    let settled: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    // Units leased by a sibling thread of *this* process. The scan skips
    // them without touching the filesystem — only cross-process
    // coordination needs the lease files and done markers.
    let ours: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    let stats: Mutex<DrainStats> = Mutex::new(DrainStats::default());
    let error: Mutex<Option<String>> = Mutex::new(None);
    // Epoch bumped (and notified) on every unit completion, so a thread
    // backing off because its siblings hold every remaining lease wakes
    // as soon as one finishes instead of idling out the full backoff.
    let progress: (Mutex<u64>, Condvar) = (Mutex::new(0), Condvar::new());
    let pool = worker_budget().min(units.len()).max(1);
    let nonce = splitmix64(u64::from(pid) ^ (u64::from(worker_id) << 32));

    std::thread::scope(|scope| {
        for t in 0..pool {
            let units = &units;
            let leases = &leases;
            let done = &done;
            let seg = &seg;
            let heartbeat = &heartbeat;
            let settled = &settled;
            let ours = &ours;
            let stats = &stats;
            let error = &error;
            let progress = &progress;
            let jitter_seed = nonce ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            scope.spawn(move || {
                let mut round: u32 = 0;
                'drain: loop {
                    if error
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .is_some()
                    {
                        break;
                    }
                    // Epoch *before* the scan: a completion that lands
                    // while we scan must abort the backoff wait below,
                    // not be lost to it.
                    let scan_epoch = *progress.0.lock().unwrap_or_else(PoisonError::into_inner);
                    // One scan: count unsettled units and claim the
                    // first available one.
                    let mut claimed: Option<&(u64, RunSpec)> = None;
                    let mut remaining = 0usize;
                    for unit in units {
                        let key = unit.0;
                        if settled
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .contains(&key)
                        {
                            continue;
                        }
                        // A sibling thread of this process holds it: no
                        // point statting markers or contending on its
                        // lease — its completion will bump the epoch.
                        if ours
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .contains(&key)
                        {
                            remaining += 1;
                            continue;
                        }
                        if done.join(key16(key)).exists() {
                            if settled
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .insert(key)
                            {
                                stats.lock().unwrap_or_else(PoisonError::into_inner).skipped += 1;
                                // A worker killed between marking a unit
                                // done and releasing its lease leaves the
                                // lease behind; a settled unit needs none.
                                let _ = std::fs::remove_file(lease_path(leases, key));
                            }
                            continue;
                        }
                        remaining += 1;
                        if claimed.is_none() {
                            match try_claim(leases, key, ttl) {
                                Ok(true) => {
                                    ours.lock()
                                        .unwrap_or_else(PoisonError::into_inner)
                                        .insert(key);
                                    claimed = Some(unit);
                                }
                                Ok(false) => {}
                                Err(e) => {
                                    record_failure(
                                        error,
                                        format!("claim lease {}: {e}", key16(key)),
                                    );
                                    break 'drain;
                                }
                            }
                        }
                    }
                    let Some(unit) = claimed else {
                        if remaining == 0 {
                            break;
                        }
                        // Everything left is leased out to someone else:
                        // back off (bounded, jittered) and rescan — a
                        // dead sibling's leases become reclaimable once
                        // their mtime ages past the TTL. The wait is a
                        // condvar timeout, so a sibling thread in this
                        // process finishing a unit wakes us immediately.
                        round += 1;
                        let (epoch, cv) = progress;
                        let guard = epoch.lock().unwrap_or_else(PoisonError::into_inner);
                        let _ = cv
                            .wait_timeout_while(
                                guard,
                                backoff_delay(round, ttl, jitter_seed),
                                |e| *e == scan_epoch,
                            )
                            .unwrap_or_else(PoisonError::into_inner);
                        continue;
                    };
                    round = 0;
                    let (key, run_spec) = (unit.0, &unit.1);
                    let lease = lease_path(leases, key);
                    heartbeat.add(key, lease.clone());
                    let (outcome, retries) = retry_once(|| attempt(run_spec));
                    let persisted: io::Result<()> = match &outcome {
                        Ok(report) if checkpointable(report) => {
                            let fp = fingerprint(report);
                            let mut line = encode_record(key, report, fp, retries);
                            line.push('\n');
                            seg.lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .write_all(line.as_bytes())
                                .and_then(|()| mark_done(done, key, "ok"))
                        }
                        Ok(_) => mark_done(done, key, "volatile"),
                        Err(why) => {
                            eprintln!(
                                "campaign: quarantining app={} threads={} (key {}): {why}",
                                run_spec.app.name(),
                                run_spec.config.threads,
                                key16(key)
                            );
                            mark_done(done, key, "quar")
                        }
                    };
                    heartbeat.remove(key);
                    let _ = std::fs::remove_file(&lease);
                    {
                        let (epoch, cv) = progress;
                        *epoch.lock().unwrap_or_else(PoisonError::into_inner) += 1;
                        cv.notify_all();
                    }
                    match persisted {
                        Ok(()) => {
                            settled
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .insert(key);
                            let mut s = stats.lock().unwrap_or_else(PoisonError::into_inner);
                            match &outcome {
                                Ok(report) if checkpointable(report) => s.ran += 1,
                                Ok(_) => s.volatile += 1,
                                Err(_) => s.quarantined += 1,
                            }
                        }
                        Err(e) => {
                            record_failure(error, format!("persist unit {}: {e}", key16(key)));
                            break;
                        }
                    }
                }
            });
        }
    });
    drop(heartbeat);
    if let Some(msg) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(CampaignError::Runtime(msg));
    }
    // No fsync: SIGKILL-safety only needs the page cache, which survives
    // process death. Whole-host crash durability is the checkpoint
    // store's job (`--checkpoint`), not the campaign scratch dir's.
    drop(seg.into_inner().unwrap_or_else(PoisonError::into_inner));
    Ok(stats.into_inner().unwrap_or_else(PoisonError::into_inner))
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

/// Replays the campaign directory into the sweep memo cache and does
/// nothing else: every `seg-*.jsonl` worker segment goes through the
/// reader a checkpoint resume uses ([`replay_dir`](checkpoint::replay_dir),
/// segments in name order, last record per key wins — duplicates are
/// identical by purity), which scrubs torn or corrupt lines, verifies
/// each survivor's fingerprint and seeds the memo with its restored
/// provenance.
///
/// The memo cache and the manifest and failure logs are cleared going
/// in, so the merge is reproducible, and the memo stays seeded going
/// out. The artifact's own sweep then runs as in a single process:
/// restored units are served as cache hits whose manifests match an
/// uninterrupted run, while missing, volatile, or quarantined units
/// re-execute under the usual policy.
///
/// # Errors
///
/// [`CampaignError::Config`] for spec problems, [`CampaignError::Runtime`]
/// when the directory cannot be replayed.
pub fn merge(dir: &Path, spec: &CampaignSpec) -> Result<MergeOutcome, CampaignError> {
    init(dir, spec)?;
    let units = units_of(spec)?.len();
    clear_run_cache();
    let _ = take_run_manifests();
    let _ = take_sweep_failures();
    let (stats, _, _) =
        checkpoint::replay_dir(dir).map_err(|e| rt(&format!("replay {}", dir.display()), &e))?;
    Ok(MergeOutcome {
        units,
        restored: stats.loaded,
        reran: units.saturating_sub(stats.loaded),
        skipped_lines: stats.skipped,
    })
}

/// Convenience single-process campaign: drain everything as worker 0,
/// then merge. What the benchmark times against a plain sweep, and the
/// cheapest way to run a campaign without spawning processes; the
/// caller renders the artifact from the seeded memo.
///
/// # Errors
///
/// Propagates [`worker_drain`] and [`merge`] errors.
pub fn run_local(dir: &Path, spec: &CampaignSpec) -> Result<MergeOutcome, CampaignError> {
    worker_drain(dir, spec, 0)?;
    merge(dir, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_workloads::{all_apps, scalable_apps};

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scalesim-campaign-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_spec(artifact: &str) -> CampaignSpec {
        CampaignSpec {
            artifact: artifact.to_owned(),
            params: ExpParams::quick().with_scale(0.01).with_threads(vec![2, 4]),
        }
    }

    #[test]
    fn lease_claim_is_exclusive_until_ttl_expires() {
        let leases = scratch("lease");
        let ttl = Duration::from_millis(50);
        assert!(try_claim(&leases, 7, ttl).unwrap(), "first claim wins");
        assert!(!try_claim(&leases, 7, ttl).unwrap(), "held lease refuses");
        std::thread::sleep(Duration::from_millis(80));
        assert!(
            try_claim(&leases, 7, ttl).unwrap(),
            "expired lease is reclaimed"
        );
        assert!(lease_path(&leases, 7).exists());
        // A different key is independent.
        assert!(try_claim(&leases, 8, ttl).unwrap());
        let _ = std::fs::remove_dir_all(&leases);
    }

    #[test]
    fn heartbeat_keeps_a_lease_fresh() {
        let leases = scratch("hb");
        let ttl = Duration::from_millis(80);
        assert!(try_claim(&leases, 3, ttl).unwrap());
        let hb = Heartbeat::start(ttl);
        hb.add(3, lease_path(&leases, 3));
        std::thread::sleep(Duration::from_millis(200));
        // Despite 200ms > TTL elapsing, the heartbeat kept the mtime
        // fresh, so the lease is not reclaimable.
        assert!(!try_claim(&leases, 3, ttl).unwrap());
        // A lease released while still registered is not brought back.
        std::fs::remove_file(lease_path(&leases, 3)).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            !lease_path(&leases, 3).exists(),
            "heartbeat resurrected a lease"
        );
        drop(hb);
        let _ = std::fs::remove_dir_all(&leases);
    }

    #[test]
    fn init_guards_the_campaign_spec() {
        let dir = scratch("init");
        let spec = tiny_spec("scaletable");
        init(&dir, &spec).unwrap();
        init(&dir, &spec).unwrap(); // idempotent
        let other = tiny_spec("fig1d");
        match init(&dir, &other) {
            Err(CampaignError::Config(msg)) => {
                assert!(msg.contains("different campaign spec"), "{msg}");
            }
            other => panic!("expected spec-mismatch config error, got {other:?}"),
        }
        let mut reseeded = spec.clone();
        reseeded.params.seed = 1234;
        assert!(matches!(
            init(&dir, &reseeded),
            Err(CampaignError::Config(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncampaignable_artifacts_are_rejected() {
        let dir = scratch("reject");
        for artifact in ["ext-heapsize", "all", "nope"] {
            match init(&dir, &tiny_spec(artifact)) {
                Err(CampaignError::Config(msg)) => {
                    assert!(msg.contains("cannot run as a campaign"), "{msg}");
                }
                other => panic!("{artifact}: expected config error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unit_enumeration_matches_the_drivers() {
        let params = ExpParams::quick().with_scale(0.01).with_threads(vec![2, 4]);
        let grid = campaign_units("scaletable", &params).unwrap().unwrap();
        assert_eq!(grid.len(), all_apps().len() * 2);
        let fig2 = campaign_units("fig2", &params).unwrap().unwrap();
        assert_eq!(fig2.len(), scalable_apps().len() * 2);
        let lifespan = campaign_units("fig1d", &params).unwrap().unwrap();
        assert_eq!(lifespan.len(), 2);
        let topo = campaign_units("ext-topo", &params).unwrap().unwrap();
        assert_eq!(topo.len(), 3 * 2);
        let server = campaign_units("ext-server", &params).unwrap().unwrap();
        assert_eq!(server.len(), 3 * 2, "three scenarios x two thread counts");
        let sched = campaign_units("abl-sched", &params).unwrap().unwrap();
        assert_eq!(sched.len(), 3 * 2, "three variants x two thread counts");
        // The dedup preserves first-occurrence order and drops nothing
        // from an all-distinct grid.
        let units = units_of(&tiny_spec("scaletable")).unwrap();
        assert_eq!(units.len(), all_apps().len() * 2);
        let keys: HashSet<u64> = units.iter().map(|u| u.0).collect();
        assert_eq!(keys.len(), units.len());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let ttl = Duration::from_millis(500);
        for round in 0..20 {
            let d = backoff_delay(round, ttl, 42);
            assert_eq!(d, backoff_delay(round, ttl, 42), "deterministic");
            assert!(d >= Duration::from_millis(10));
            assert!(d <= ttl, "round {round}: {d:?} exceeds TTL");
        }
        // Different nonces jitter differently somewhere in the range.
        assert!((0..16).any(|r| backoff_delay(r, ttl, 1) != backoff_delay(r, ttl, 2)));
        // Early rounds are short; the cap engages later.
        assert!(backoff_delay(1, ttl, 7) < Duration::from_millis(50));
        assert_eq!(backoff_delay(12, ttl, 7), ttl);
    }

    #[test]
    fn canonical_spec_is_stable_and_exact() {
        let spec = CampaignSpec {
            artifact: "scaletable".to_owned(),
            params: ExpParams {
                scale: 0.05,
                seed: 42,
                thread_counts: vec![4, 16, 48],
            },
        };
        assert_eq!(
            spec.canonical(),
            "{\"v\":1,\"artifact\":\"scaletable\",\"scale\":\"0.05\",\"seed\":42,\
             \"threads\":[4,16,48]}\n"
        );
        // Scale is compared textually, so 0.1 vs 0.10000000001 differ.
        let nearby = CampaignSpec {
            artifact: "scaletable".to_owned(),
            params: ExpParams {
                scale: 0.05 + 1e-12,
                seed: 42,
                thread_counts: vec![4, 16, 48],
            },
        };
        assert_ne!(spec.canonical(), nearby.canonical());
    }

    #[test]
    fn done_markers_round_trip() {
        let done = scratch("done");
        mark_done(&done, 0xabcd, "ok").unwrap();
        assert_eq!(
            std::fs::read_to_string(done.join(key16(0xabcd))).unwrap(),
            "ok"
        );
        mark_done(&done, 0xabcd, "quar").unwrap();
        assert_eq!(
            std::fs::read_to_string(done.join(key16(0xabcd))).unwrap(),
            "quar"
        );
        let _ = std::fs::remove_dir_all(&done);
    }

    #[test]
    fn env_tunables_have_defaults() {
        // No env manipulation here (tests run in parallel): just the
        // defaults when unset, plus the parse helpers' shape.
        if std::env::var_os("SCALESIM_LEASE_TTL_MS").is_none() {
            assert_eq!(lease_ttl(), Duration::from_millis(2000));
        }
        if std::env::var_os("SCALESIM_CAMPAIGN_WORKERS").is_none() {
            assert_eq!(default_workers(), 2);
        }
    }
}
