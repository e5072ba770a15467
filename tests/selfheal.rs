//! Self-healing sweep machinery, end to end: durable checkpoint/resume
//! (including a torn tail record), the hung-run watchdog, and the
//! automatic failure shrinker with its repro files.
//!
//! These tests share the process-wide run cache, failure digest, and
//! checkpoint store, so every test that touches them serializes on one
//! guard mutex and isolates its sweep points by seed.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use scalesim::experiments::{
    checkpoint, clear_run_cache, run_all, run_isolated, shrink_failure, take_run_manifests,
    take_sweep_failures, write_repro, RunManifest, RunSpec, SweepFailureKind,
};
use scalesim::runtime::{JsonValue, JvmConfig, ReproSpec, RunOutcome, RunReport};
use scalesim::simkit::{ChaosConfig, RunBudget};
use scalesim::workloads::{sunflow, xalan};

fn guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn memo_disabled() -> bool {
    std::env::var_os("SCALESIM_NO_MEMO").is_some_and(|v| v == "1")
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalesim-selfheal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Debug rendering with the host-wall field zeroed — the one field a
/// resumed run cannot (and should not) reproduce when compared against
/// a fresh reference run.
fn debug_sans_host(report: &RunReport) -> String {
    let mut r = report.clone();
    r.host_ns = 0;
    format!("{r:?}")
}

fn manifest_line_sans_host(m: &RunManifest) -> String {
    let mut m = m.clone();
    m.host_ns = 0;
    m.to_json_line()
}

#[test]
fn kill_and_resume_is_byte_identical_even_with_a_torn_tail() {
    if memo_disabled() {
        return;
    }
    let _guard = guard();
    let dir = temp_store("resume");
    let seed = 884_421;
    let specs = vec![
        RunSpec::new(xalan().scaled(0.004), 2, seed),
        RunSpec::new(sunflow().scaled(0.004), 3, seed),
        RunSpec::new(xalan().scaled(0.004), 4, seed),
        RunSpec::new(sunflow().scaled(0.004), 2, seed),
    ];

    // Reference: one uninterrupted sweep, no store.
    checkpoint::disable_store();
    clear_run_cache();
    let _ = take_run_manifests();
    let reference = run_all(&specs);
    let ref_manifests: Vec<RunManifest> = take_run_manifests()
        .into_iter()
        .filter(|m| m.seed == seed)
        .collect();
    assert_eq!(ref_manifests.len(), specs.len());

    // Interrupted sweep: checkpoint the first half, then "crash" —
    // drop the in-memory cache and leave a torn record at the tail of
    // the first segment.
    clear_run_cache();
    checkpoint::set_store(&dir).unwrap();
    let _ = run_all(&specs[..2]);
    let _ = take_run_manifests();
    checkpoint::disable_store();
    clear_run_cache();
    {
        use std::io::Write;
        let mut segment = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("seg-00000.jsonl"))
            .unwrap();
        // No trailing newline: exactly what a mid-write crash leaves.
        segment
            .write_all(b"deadbeef {\"v\":1,\"key\":\"00")
            .unwrap();
    }

    // Resume: the two verified records replay, the torn one is skipped,
    // and the full sweep completes with byte-identical reports and
    // manifests, modulo host wall time.
    let stats = checkpoint::resume_from(&dir).unwrap();
    assert_eq!(stats.loaded, 2, "{stats:?}");
    assert!(stats.skipped >= 1, "{stats:?}");
    let resumed = run_all(&specs);
    let resumed_manifests: Vec<RunManifest> = take_run_manifests()
        .into_iter()
        .filter(|m| m.seed == seed)
        .collect();
    assert_eq!(resumed.len(), reference.len());
    for (a, b) in reference.iter().zip(&resumed) {
        assert_eq!(debug_sans_host(a), debug_sans_host(b));
    }
    assert_eq!(resumed_manifests.len(), ref_manifests.len());
    for (a, b) in ref_manifests.iter().zip(&resumed_manifests) {
        assert_eq!(manifest_line_sans_host(a), manifest_line_sans_host(b));
    }
    // Restored points report the provenance of their original run, not
    // a cache hit — exactly what the uninterrupted reference recorded.
    assert!(resumed_manifests.iter().all(|m| m.memo == "miss"));

    // The resumed sweep appended its two runs to a segment of its own,
    // after the torn line rather than onto it: a second resume loads
    // all four and skips only the torn line.
    checkpoint::disable_store();
    clear_run_cache();
    let stats = checkpoint::resume_from(&dir).unwrap();
    assert_eq!((stats.loaded, stats.skipped), (4, 1), "{stats:?}");

    checkpoint::disable_store();
    clear_run_cache();
    let _ = take_sweep_failures();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cache_clear_after_a_resume_drops_the_restored_provenance() {
    if memo_disabled() {
        return;
    }
    let _guard = guard();
    let dir = temp_store("stale");
    let seed = 884_333;
    let spec = RunSpec::new(xalan().scaled(0.004), 2, seed);

    checkpoint::disable_store();
    clear_run_cache();
    checkpoint::set_store(&dir).unwrap();
    let _ = run_all(std::slice::from_ref(&spec));
    checkpoint::disable_store();
    clear_run_cache();
    let stats = checkpoint::resume_from(&dir).unwrap();
    checkpoint::disable_store();
    assert_eq!(stats.loaded, 1, "{stats:?}");

    // The clear drops the replayed entry and its provenance with it: the
    // next sweep simulates the point afresh, and the one after it is an
    // ordinary cache hit.
    clear_run_cache();
    let _ = take_run_manifests();
    let _ = run_all(std::slice::from_ref(&spec));
    let _ = run_all(std::slice::from_ref(&spec));
    let memo: Vec<String> = take_run_manifests()
        .into_iter()
        .filter(|m| m.seed == seed)
        .map(|m| m.memo)
        .collect();
    assert_eq!(memo, ["miss", "hit"]);

    clear_run_cache();
    let _ = take_sweep_failures();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_runs_checkpoint_and_resume_like_any_other() {
    if memo_disabled() {
        return;
    }
    let _guard = guard();
    let dir = temp_store("trunc");
    let seed = 884_777;
    let mut spec = RunSpec::new(xalan().scaled(0.004), 3, seed);
    spec.config.budget = RunBudget {
        max_events: 2_000,
        max_sim_time: None,
        max_host_ms: None,
        watchdog_ms: None,
    };

    checkpoint::disable_store();
    clear_run_cache();
    let reference = run_all(std::slice::from_ref(&spec));
    assert!(
        matches!(reference[0].outcome, RunOutcome::Truncated(_)),
        "{:?}",
        reference[0].outcome
    );

    clear_run_cache();
    checkpoint::set_store(&dir).unwrap();
    let _ = run_all(std::slice::from_ref(&spec));
    clear_run_cache();
    let stats = checkpoint::resume_from(&dir).unwrap();
    assert_eq!(stats.loaded, 1, "{stats:?}");
    let resumed = run_all(std::slice::from_ref(&spec));
    assert_eq!(debug_sans_host(&reference[0]), debug_sans_host(&resumed[0]));

    checkpoint::disable_store();
    clear_run_cache();
    let _ = take_run_manifests();
    let _ = take_sweep_failures();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_quarantines_a_livelocked_run_without_stalling_siblings() {
    let _guard = guard();
    let _ = take_sweep_failures();
    clear_run_cache();
    const WATCHDOG_MS: u64 = 250;
    // The ext-oversub livelock recipe (dropped wakeups, monitors off,
    // heavy oversubscription) with an effectively unlimited event
    // budget: only the watchdog can end this run.
    let mut doomed = RunSpec::new(xalan().scaled(0.02), 48, 42);
    doomed.config = JvmConfig::builder()
        .threads(48)
        .cores(12)
        .seed(42)
        .chaos(ChaosConfig {
            drop_wakeup_period: 32,
            ..ChaosConfig::default()
        })
        .monitors(false)
        .budget(RunBudget {
            max_events: u64::MAX,
            max_sim_time: None,
            max_host_ms: None,
            watchdog_ms: Some(WATCHDOG_MS),
        })
        .build()
        .unwrap();
    let healthy = RunSpec::new(xalan().scaled(0.004), 2, 884_901);
    let started = Instant::now();
    let reports = run_all(&[doomed.clone(), healthy]);
    let elapsed_ms = started.elapsed().as_millis();
    assert!(
        matches!(reports[0].outcome, RunOutcome::Quarantined(_)),
        "{:?}",
        reports[0].outcome
    );
    assert!(reports[1].outcome.is_ok(), "{:?}", reports[1].outcome);
    // One attempt plus one retry, each truncated within ~2x the
    // deadline (poll quantization + slack), must stay well under the
    // cost of actually running the livelock to an event budget.
    assert!(
        elapsed_ms < 10 * u128::from(WATCHDOG_MS),
        "watchdog took {elapsed_ms} ms for a {WATCHDOG_MS} ms deadline"
    );
    let digest = take_sweep_failures();
    let entry = digest
        .iter()
        .find(|f| f.kind == SweepFailureKind::Quarantined)
        .expect("watchdogged run lands in the digest");
    assert!(entry.detail.contains("watchdog"), "{entry:?}");
    assert!(entry.detail.contains("host deadline"), "{entry:?}");
    assert!(entry.run_spec.is_some());
    clear_run_cache();
}

#[test]
fn quarantined_spec_shrinks_to_a_smaller_reproducible_one() {
    let _guard = guard();
    let _ = take_sweep_failures();
    clear_run_cache();
    let seed = 884_555;
    let mut doomed = RunSpec::new(xalan().scaled(0.01), 48, seed);
    doomed.config.chaos = ChaosConfig {
        panic_at_event: 2_000,
        ..ChaosConfig::default()
    };
    let reports = run_all(std::slice::from_ref(&doomed));
    assert!(matches!(reports[0].outcome, RunOutcome::Quarantined(_)));
    let digest = take_sweep_failures();
    let failure = digest
        .iter()
        .find(|f| f.kind == SweepFailureKind::Quarantined)
        .expect("quarantine recorded");
    let spec = failure
        .run_spec
        .as_ref()
        .expect("spec travels in the digest");

    let outcome = shrink_failure(spec).expect("deterministic panic reproduces");
    assert!(
        outcome.shrunk.threads < 48,
        "shrinker failed to reduce threads: {outcome:?}"
    );
    assert_eq!(outcome.shrunk.chaos.panic_at_event, 2_000);

    // The repro file round-trips and re-executes to the same failure.
    let dir = temp_store("shrink");
    let path = write_repro(&outcome, &dir).unwrap();
    assert!(path
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("repro-") && n.ends_with(".json")));
    let text = std::fs::read_to_string(&path).unwrap();
    let loaded = ReproSpec::from_json(&JsonValue::parse(text.trim()).unwrap()).unwrap();
    assert_eq!(loaded, outcome.shrunk);
    let (app, config) = loaded.reconstruct().unwrap();
    let rebuilt = RunSpec { app, config };
    if loaded.exact {
        assert_eq!(rebuilt.memo_key(), loaded.spec_key);
    }
    let why = run_isolated(&rebuilt).expect_err("shrunk spec still fails");
    assert!(why.contains("deliberate panic"), "{why}");
    let _ = std::fs::remove_dir_all(&dir);
    clear_run_cache();
}
