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
//!   claimed with an atomic `create_new`. A lease never expires: its
//!   holder removes it once the unit is settled, and one a dead worker
//!   left behind stays until the finisher clears it.
//! * `done/<key>` — advisory completion markers (`ok` / `volatile` /
//!   `quar`) so workers skip settled units without reading segments.
//! * `seg-NNNNN.jsonl` — result segments, one crc32-framed record per
//!   completed run, written exactly as a [`checkpoint`](crate::checkpoint)
//!   store writes them: each worker process claims a segment of its own
//!   on its first record. A SIGKILL can tear at most the last line,
//!   which the merge skips.
//!
//! A worker ([`worker_drain`]) claims and runs units until nothing is
//! left for it to claim, then exits; it never waits on another
//! worker's lease. The finisher ([`run_local`]) runs after the workers
//! have exited — as the `campaign` parent once its children are gone,
//! or as a `--workers 0` run — so every lease it finds belongs to a
//! dead process: it empties `leases/`, drains what is still unsettled,
//! and merges. No clock decides when a dead worker's units run again.
//!
//! **Correctness never depends on the leases.** A run is a pure
//! function of its memo key, so two workers that both execute a unit
//! (a foreign worker still running when the finisher clears its lease)
//! merely write identical records into different segments — last-wins
//! merging is harmless. Leases only prevent *wasted* work. Likewise the
//! `done/` markers are work-skipping hints: a marker without a segment
//! record (crash between the two) just means the sweep after the merge
//! re-simulates that unit.
//!
//! The merge is a replay and nothing more: it reads the worker segments
//! through the reader a checkpoint resume uses
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
//! Durability policy: segments are synced as a checkpoint store's are,
//! every [`SEGMENT_RECORDS`](crate::checkpoint::SEGMENT_RECORDS)
//! records. The rest of the directory is scratch state and never
//! fsynced — done markers are plain writes (existence is the signal),
//! and `campaign.json` is a plain temp+rename write. SIGKILL-safety
//! needs only the page cache, which survives process death, and a torn
//! `campaign.json` after a host crash is caught by the byte-compare on
//! the next init. Only the final artifacts go through the fsynced
//! [`write_atomic`](scalesim_trace::write_atomic).

use std::collections::HashSet;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use scalesim_core::SimError;
use scalesim_workloads::AppModel;

use crate::artifacts::{artifact, Runs, ARTIFACTS};
use crate::checkpoint::{self, encode_record, Writer};
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

/// Initializes (or re-validates) a campaign directory and returns its
/// deduplicated `(memo key, spec)` units: creates the `leases/` and
/// `done/` subdirectories and writes `campaign.json` atomically. If the
/// file already exists it is byte-compared against this spec's
/// canonical form — a mismatch is a configuration error, so two
/// different campaigns can never share a directory. Idempotent; every
/// worker calls it.
///
/// # Errors
///
/// [`CampaignError::Config`] for an uncampaignable artifact or a spec
/// mismatch; [`CampaignError::Runtime`] for I/O failures.
pub fn init(dir: &Path, spec: &CampaignSpec) -> Result<Vec<(u64, RunSpec)>, CampaignError> {
    let units = units_of(spec)?;
    std::fs::create_dir_all(dir.join("leases"))
        .map_err(|e| rt(&format!("create {}", dir.join("leases").display()), &e))?;
    std::fs::create_dir_all(dir.join("done"))
        .map_err(|e| rt(&format!("create {}", dir.join("done").display()), &e))?;
    let path = dir.join("campaign.json");
    let body = spec.canonical();
    match std::fs::read_to_string(&path) {
        Ok(existing) if existing == body => Ok(units),
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
            let tmp = path.with_file_name(format!(".init-{}", std::process::id()));
            std::fs::write(&tmp, &body)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| rt(&format!("write {}", path.display()), &e))?;
            Ok(units)
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

/// Attempts to claim the lease for `key` with an atomic `create_new`.
/// Returns `Ok(true)` when this process now holds it. A lease never
/// expires: it is released by its holder once the unit is settled, or
/// cleared by the finisher ([`run_local`]) after its holder died.
fn try_claim(leases: &Path, key: u64) -> io::Result<bool> {
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(lease_path(leases, key))
    {
        Ok(mut f) => {
            let _ = f.write_all(std::process::id().to_string().as_bytes());
            Ok(true)
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
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
/// the retry-once policy, streams completed reports into this process's
/// own crc-framed segment, and marks units done. Returns once
/// nothing is left for it to claim: every unit is settled or leased to
/// someone else. It never waits on another worker's lease — a live
/// holder settles its unit, and a dead one's is left to the finisher.
///
/// Safe to run concurrently with any number of sibling workers, and
/// safe to SIGKILL at any instant: the finisher and the merge repair
/// whatever was in flight.
///
/// # Errors
///
/// [`CampaignError::Config`] for spec problems, [`CampaignError::Runtime`]
/// for I/O failures (a failing unit is *not* an error — it quarantines).
pub fn worker_drain(dir: &Path, spec: &CampaignSpec) -> Result<DrainStats, CampaignError> {
    drain(dir, &init(dir, spec)?)
}

fn drain(dir: &Path, units: &[(u64, RunSpec)]) -> Result<DrainStats, CampaignError> {
    let leases = dir.join("leases");
    let done = dir.join("done");
    let writer = Mutex::new(Writer::new(dir));
    // Units this process has settled, skipped or holds the lease of. The
    // scan passes them without touching the filesystem — only
    // cross-process coordination needs the lease files and done markers.
    let seen: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    let stats: Mutex<DrainStats> = Mutex::new(DrainStats::default());
    let error: Mutex<Option<String>> = Mutex::new(None);
    let pool = worker_budget().min(units.len());

    std::thread::scope(|scope| {
        for _ in 0..pool {
            scope.spawn(|| {
                while error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_none()
                {
                    // One scan: claim the first unit nobody has settled or
                    // leased.
                    let mut claimed = None;
                    for unit in units {
                        let key = unit.0;
                        if seen
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .contains(&key)
                        {
                            continue;
                        }
                        if done.join(key16(key)).exists() {
                            if seen
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .insert(key)
                            {
                                stats.lock().unwrap_or_else(PoisonError::into_inner).skipped += 1;
                            }
                            continue;
                        }
                        match try_claim(&leases, key) {
                            Ok(true) => {
                                seen.lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .insert(key);
                                claimed = Some(unit);
                                break;
                            }
                            Ok(false) => {}
                            Err(e) => {
                                record_failure(&error, format!("claim lease {}: {e}", key16(key)));
                                return;
                            }
                        }
                    }
                    let Some(&(key, ref run_spec)) = claimed else {
                        return;
                    };
                    let (outcome, retries) = retry_once(|| attempt(run_spec));
                    let persisted: io::Result<()> = match &outcome {
                        Ok(report) if checkpointable(report) => {
                            let fp = fingerprint(report);
                            let mut line = encode_record(key, report, fp, retries);
                            line.push('\n');
                            writer
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .append(&line)
                                .and_then(|()| mark_done(&done, key, "ok"))
                        }
                        Ok(_) => mark_done(&done, key, "volatile"),
                        Err(why) => {
                            eprintln!(
                                "campaign: quarantining app={} threads={} (key {}): {why}",
                                run_spec.app.name(),
                                run_spec.config.threads,
                                key16(key)
                            );
                            mark_done(&done, key, "quar")
                        }
                    };
                    let _ = std::fs::remove_file(lease_path(&leases, key));
                    if let Err(e) = persisted {
                        record_failure(&error, format!("persist unit {}: {e}", key16(key)));
                        return;
                    }
                    let mut s = stats.lock().unwrap_or_else(PoisonError::into_inner);
                    match &outcome {
                        Ok(report) if checkpointable(report) => s.ran += 1,
                        Ok(_) => s.volatile += 1,
                        Err(_) => s.quarantined += 1,
                    }
                }
            });
        }
    });
    if let Some(msg) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(CampaignError::Runtime(msg));
    }
    Ok(stats.into_inner().unwrap_or_else(PoisonError::into_inner))
}

// ---------------------------------------------------------------------
// Finisher: clear leases, drain, merge
// ---------------------------------------------------------------------

/// Removes every file in `dir`; one that vanishes meanwhile is fine.
fn clear_dir(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        match std::fs::remove_file(entry?.path()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    Ok(())
}

/// Finishes a campaign in this process once its workers have exited:
/// empties `leases/` (every lease left belongs to a worker that is
/// gone), drains whatever is unsettled, then merges. The merge is a
/// replay and nothing more: every `seg-*.jsonl` segment goes through
/// the reader a checkpoint resume uses
/// ([`replay_dir`](checkpoint::replay_dir), segments in name order,
/// last record per key wins — duplicates are identical by purity),
/// which skips torn or corrupt lines, verifies each survivor's
/// fingerprint and seeds the memo with its restored provenance.
///
/// The memo cache and the manifest and failure logs are cleared before
/// the replay, so the merge is reproducible, and the memo stays seeded
/// going out. The caller then runs the artifact as a single process
/// would: restored units are served as cache hits whose manifests match
/// an uninterrupted run, while missing, volatile, or quarantined units
/// re-execute under the usual policy.
///
/// A foreign worker still running when its lease is cleared can at
/// worst run a unit twice, which purity makes harmless.
///
/// # Errors
///
/// [`CampaignError::Config`] for spec problems, [`CampaignError::Runtime`]
/// when the directory cannot be cleared or drained.
pub fn run_local(
    dir: &Path,
    spec: &CampaignSpec,
) -> Result<(DrainStats, MergeOutcome), CampaignError> {
    let units = init(dir, spec)?;
    let leases = dir.join("leases");
    clear_dir(&leases).map_err(|e| rt(&format!("clear {}", leases.display()), &e))?;
    let drained = drain(dir, &units)?;
    clear_run_cache();
    let _ = take_run_manifests();
    let _ = take_sweep_failures();
    let stats = checkpoint::replay_dir(dir);
    let merged = MergeOutcome {
        units: units.len(),
        restored: stats.loaded,
        reran: units.len().saturating_sub(stats.loaded),
        skipped_lines: stats.skipped,
    };
    Ok((drained, merged))
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
    fn a_held_lease_refuses_a_second_claim() {
        let leases = scratch("lease");
        assert!(try_claim(&leases, 7).unwrap(), "first claim wins");
        assert!(!try_claim(&leases, 7).unwrap(), "held lease refuses");
        assert!(lease_path(&leases, 7).exists());
        // A different key is independent.
        assert!(try_claim(&leases, 8).unwrap());
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
}
