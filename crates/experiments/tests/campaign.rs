//! End-to-end campaign tests. Three worker processes drain one sweep
//! over a shared directory, one is SIGKILLed mid-flight, and the merged
//! output must still be byte-identical to a single-process run; every
//! artifact of the registry that runs as one sweep merges
//! byte-identical from an in-process campaign; and after its merge a
//! campaign finishes like a single run: `--analyze`, `--trace` and
//! `--audit` write the single run's artifacts, and under memo-corruption
//! chaos a campaign and a resume degrade exactly as the single run does.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use scalesim_experiments::campaign::{self, campaign_units, CampaignSpec};
use scalesim_experiments::{
    artifact_tables, clear_run_cache, take_run_manifests, ExpParams, Runs, ARTIFACTS,
};

const BIN: &str = env!("CARGO_BIN_EXE_scalesim-experiments");
const SWEEP_ARGS: &[&str] = &["--scale", "0.02", "--seed", "7", "--threads", "2,4"];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scalesim-campaign-it-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `campaign scaletable --dir <dir> <SWEEP_ARGS> <extra...>` as a
/// foreground run, returning its exit code.
fn campaign_cmd(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.arg("campaign")
        .arg("scaletable")
        .arg("--dir")
        .arg(dir)
        .args(SWEEP_ARGS)
        .args(extra)
        .stdout(Stdio::null());
    cmd
}

/// `scaletable <SWEEP_ARGS> <extra...>` as a single-process run.
fn single_cmd(extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.arg("scaletable")
        .args(SWEEP_ARGS)
        .args(extra)
        .stdout(Stdio::null());
    cmd
}

/// Serializes the tests that finish a campaign in this process: the
/// merge clears the process-wide memo cache and manifest log.
fn in_process() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// File names in `dir` that satisfy `keep`.
fn names(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| keep(n))
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Zeroes the host-wall field, the one legitimately host-dependent
/// manifest value (merged manifests come pre-zeroed).
fn zero_host_ns(manifest: &str) -> String {
    let mut out = String::with_capacity(manifest.len());
    for line in manifest.lines() {
        let mut rest = line;
        while let Some(at) = rest.find("\"host_ns\":") {
            let (head, tail) = rest.split_at(at + "\"host_ns\":".len());
            out.push_str(head);
            out.push('0');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

#[test]
fn sigkilled_worker_still_merges_byte_identical() {
    let golden_out = scratch("golden");
    let camp_dir = scratch("dir");
    let merged_out = scratch("merged");

    // Golden: the ordinary single-process artifact.
    let status = Command::new(BIN)
        .arg("scaletable")
        .args(SWEEP_ARGS)
        .arg("--out")
        .arg(&golden_out)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "golden run failed: {status}");

    // Three raw worker processes share the campaign directory.
    let mut workers: Vec<_> = (0..3)
        .map(|_| {
            campaign_cmd(&camp_dir, &[])
                .env("SCALESIM_CAMPAIGN_ROLE", "worker")
                .stderr(Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();

    // SIGKILL the first worker mid-drain: no destructors, no flushes —
    // whatever it held (leases, a torn segment tail) must be repaired
    // by the finisher and the merge.
    std::thread::sleep(Duration::from_millis(25));
    let victim = &mut workers[0];
    match victim.try_wait().unwrap() {
        Some(_) => {} // already done — the kill scenario degenerates to a clean run
        None => victim.kill().unwrap(),
    }
    for w in &mut workers {
        let _ = w.wait().unwrap();
    }

    // Deterministic crash artifacts on top of whatever the kill left:
    // a segment from a "dead worker" holding one corrupt record and a
    // torn tail (no trailing newline, truncated mid-record). The merge
    // must scrub both without contaminating the output.
    std::fs::write(
        camp_dir.join("seg-00099.jsonl"),
        "deadbeef {\"v\":1,\"key\":\"0000000000000000\",\"garbage\":true}\n12345678 {\"v\":1,\"ke",
    )
    .unwrap();

    // Finisher: no child workers, drain leftovers in-process, merge,
    // emit. Must succeed cleanly despite the kill.
    let status = campaign_cmd(&camp_dir, &["--workers", "0", "--out"])
        .arg(&merged_out)
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "finisher failed: {status}");

    // The merged table is byte-identical to the single-process run.
    let golden_csv = read(&golden_out.join("scaletable.csv"));
    let merged_csv = read(&merged_out.join("scaletable.csv"));
    assert_eq!(golden_csv, merged_csv, "merged CSV diverged from golden");

    // So is the manifest, once the golden side's host-wall times are
    // zeroed the way the merge zeroes its own.
    let golden_manifest = zero_host_ns(&read(&golden_out.join("manifest.jsonl")));
    let merged_manifest = read(&merged_out.join("manifest.jsonl"));
    assert_eq!(
        golden_manifest, merged_manifest,
        "merged manifest diverged from golden"
    );

    // Every unit settled: done markers for all 12 units (6 apps x 2
    // thread counts) and no leases left behind.
    let done = names(&camp_dir.join("done"), |n| !n.starts_with('.')).len();
    assert_eq!(done, 12, "expected one done marker per unit");
    let leases = names(&camp_dir.join("leases"), |n| n.ends_with(".lease"));
    assert!(
        leases.is_empty(),
        "stale leases survived the merge: {leases:?}"
    );

    // Worker-count invariance: a fresh single-worker campaign produces
    // the same bytes (manifests compare directly — both sides zeroed).
    let camp_dir2 = scratch("dir2");
    let merged_out2 = scratch("merged2");
    let status = campaign_cmd(&camp_dir2, &["--workers", "1", "--out"])
        .arg(&merged_out2)
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "1-worker campaign failed: {status}");
    assert_eq!(merged_csv, read(&merged_out2.join("scaletable.csv")));
    assert_eq!(merged_manifest, read(&merged_out2.join("manifest.jsonl")));

    for dir in [golden_out, camp_dir, merged_out, camp_dir2, merged_out2] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The finisher settles what a dead worker left behind — the lease of
/// the unit it was running and a segment torn mid-record — with no
/// clock involved: it clears the lease, runs every unsettled unit and
/// merges. A worker that starts afterwards finds nothing to claim and
/// leaves no segment behind.
#[test]
fn finisher_settles_a_dead_workers_lease_and_torn_segment() {
    let _guard = in_process();
    let dir = scratch("finisher");
    let spec = CampaignSpec {
        artifact: "scaletable".to_owned(),
        params: ExpParams::quick().with_scale(0.01).with_threads(vec![2, 4]),
    };
    let units = campaign::init(&dir, &spec).unwrap();
    let n = units.len();
    let lease = dir
        .join("leases")
        .join(format!("{:016x}.lease", units[0].0));
    std::fs::write(&lease, "99999").unwrap();
    std::fs::write(dir.join("seg-00000.jsonl"), "12345678 {\"v\":1,\"ke").unwrap();

    let (drained, merged) = campaign::run_local(&dir, &spec).unwrap();
    assert_eq!(drained.ran, n, "the dead worker's unit runs too");
    assert_eq!(
        (
            merged.units,
            merged.restored,
            merged.reran,
            merged.skipped_lines
        ),
        (n, n, 0, 1),
        "every unit restored, the torn line skipped"
    );
    assert_eq!(names(&dir.join("done"), |_| true).len(), n);
    assert!(names(&dir.join("leases"), |_| true).is_empty());

    let segments = |dir: &Path| names(dir, |n| n.starts_with("seg-")).len();
    let before = segments(&dir);
    let late = campaign::worker_drain(&dir, &spec).unwrap();
    assert_eq!((late.ran, late.skipped), (0, n));
    assert_eq!(segments(&dir), before, "an idle drain opened a segment");
    let _ = std::fs::remove_dir_all(dir);
}

/// After the merge a campaign runs the single run's tail: analytics
/// re-derived from the merged memo (so every analytics-pass row is a
/// memo hit), the `--trace` export, and the manifest with both passes.
#[test]
fn campaign_analyze_and_trace_match_a_single_run() {
    let single_out = scratch("analyze-single");
    let camp_dir = scratch("analyze-dir");
    let camp_out = scratch("analyze-merged");
    let single_trace = single_out.join("trace.json");
    let camp_trace = camp_out.join("trace.json");

    let status = single_cmd(&["--analyze", "--out"])
        .arg(&single_out)
        .arg("--trace")
        .arg(&single_trace)
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "single run failed: {status}");
    let status = campaign_cmd(&camp_dir, &["--workers", "0", "--analyze", "--out"])
        .arg(&camp_out)
        .arg("--trace")
        .arg(&camp_trace)
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "campaign failed: {status}");

    assert_eq!(
        read(&single_out.join("analytics.json")),
        read(&camp_out.join("analytics.json")),
        "campaign analytics.json diverged from the single run"
    );
    let single_manifest = zero_host_ns(&read(&single_out.join("manifest.jsonl")));
    let camp_manifest = read(&camp_out.join("manifest.jsonl"));
    assert_eq!(
        single_manifest, camp_manifest,
        "campaign manifest diverged from the single run"
    );
    // 12 sweep rows, then 12 analytics-pass rows served from the memo.
    let rows: Vec<&str> = camp_manifest.lines().collect();
    assert_eq!(rows.len(), 24);
    assert!(rows[12..].iter().all(|r| r.contains("\"memo\":\"hit\"")));
    assert_eq!(
        read(&single_trace),
        read(&camp_trace),
        "campaign --trace export diverged from the single run"
    );

    for dir in [single_out, camp_dir, camp_out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `audit-*.json` file names and bytes in `dir`, sorted by name.
fn audit_repros(dir: &Path) -> Vec<(String, String)> {
    let mut repros: Vec<(String, String)> =
        names(dir, |n| n.starts_with("audit-") && n.ends_with(".json"))
            .into_iter()
            .map(|n| {
                let body = read(&dir.join(&n));
                (n, body)
            })
            .collect();
    repros.sort();
    repros
}

/// Under injected lost wakeups every unit quarantines; `--audit`
/// re-audits the quarantined points of a campaign exactly as it does a
/// single run's.
#[test]
fn campaign_audit_writes_the_single_runs_audit_repros() {
    const CHAOS: &str = "drop-wakeup=64";
    let single_out = scratch("audit-single");
    let camp_dir = scratch("audit-dir");
    let camp_out = scratch("audit-merged");

    let status = single_cmd(&["--audit", "--out"])
        .arg(&single_out)
        .env("SCALESIM_CHAOS", CHAOS)
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2), "degraded single run: {status}");
    let status = campaign_cmd(&camp_dir, &["--workers", "0", "--audit", "--out"])
        .arg(&camp_out)
        .env("SCALESIM_CHAOS", CHAOS)
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2), "degraded campaign: {status}");

    let single = audit_repros(&single_out);
    assert!(!single.is_empty(), "the chaos left nothing to audit");
    assert_eq!(single, audit_repros(&camp_out));

    for dir in [single_out, camp_dir, camp_out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Memo-corruption chaos: one run in two has its memo entry corrupted.
const MEMO_CHAOS: &str = "memo=2";

/// A single `--analyze` run under [`MEMO_CHAOS`]: its exit code and its
/// manifest with `host_ns` zeroed. The analytics pass re-reads the memo,
/// so the corrupted entries are evicted, re-simulated and flagged.
fn memo_chaos_single_run(name: &str) -> (Option<i32>, String) {
    let out = scratch(name);
    let status = single_cmd(&["--analyze", "--out"])
        .arg(&out)
        .env("SCALESIM_CHAOS", MEMO_CHAOS)
        .stderr(Stdio::null())
        .status()
        .unwrap();
    let manifest = zero_host_ns(&read(&out.join("manifest.jsonl")));
    let _ = std::fs::remove_dir_all(out);
    assert!(
        manifest.contains("\"memo_evicted\":true"),
        "the chaos evicted nothing"
    );
    (status.code(), manifest)
}

/// A campaign's restored entries stand in for the single run's misses,
/// so memo-corruption chaos corrupts the same entries in both: the same
/// degraded exit and the same evictions in the manifest.
#[test]
fn memo_corruption_chaos_degrades_a_campaign_like_a_single_run() {
    let (code, manifest) = memo_chaos_single_run("memo-chaos-single");
    let dir = scratch("memo-chaos-dir");
    let out = scratch("memo-chaos-merged");
    let status = campaign_cmd(&dir, &["--workers", "0", "--analyze", "--out"])
        .arg(&out)
        .env("SCALESIM_CHAOS", MEMO_CHAOS)
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), code, "campaign exit");
    assert_eq!(read(&out.join("manifest.jsonl")), manifest);
    for dir in [dir, out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The same for a checkpointed run resumed from its store.
#[test]
fn memo_corruption_chaos_degrades_a_resume_like_a_single_run() {
    let (code, manifest) = memo_chaos_single_run("memo-chaos-resume-single");
    let dir = scratch("memo-chaos-resume");
    let (store, first, resumed) = (dir.join("ckpt"), dir.join("a"), dir.join("b"));
    for (out, extra) in [(&first, &[][..]), (&resumed, &["--resume"][..])] {
        let status = single_cmd(&["--analyze", "--out"])
            .arg(out)
            .arg("--checkpoint")
            .arg(&store)
            .args(extra)
            .env("SCALESIM_CHAOS", MEMO_CHAOS)
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.code(), code, "{} exit", out.display());
        assert_eq!(zero_host_ns(&read(&out.join("manifest.jsonl"))), manifest);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The campaign directory is the campaign's store, so a checkpoint
/// store on top of it is a usage error.
#[test]
fn campaign_refuses_checkpoint_and_resume() {
    let dir = scratch("ckpt");
    let store = dir.join("ckpt");
    for extra in [
        &["--checkpoint", store.to_str().unwrap()][..],
        &["--resume"][..],
    ] {
        let status = campaign_cmd(&dir.join("camp"), &[&["--workers", "0"], extra].concat())
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(3), "{extra:?} must exit 3");
    }
    assert!(!store.exists(), "a refused campaign opened the store");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn campaign_rejects_mismatched_spec_directories() {
    let dir = scratch("mismatch");
    let status = campaign_cmd(&dir, &["--workers", "0"]).status().unwrap();
    assert_eq!(status.code(), Some(0));
    // Same directory, different seed: refused as a config error.
    let status = Command::new(BIN)
        .args([
            "campaign",
            "scaletable",
            "--dir",
            dir.to_str().unwrap(),
            "--scale",
            "0.02",
            "--seed",
            "8",
            "--threads",
            "2,4",
            "--workers",
            "0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(3), "spec mismatch must exit 3");
    let _ = std::fs::remove_dir_all(dir);
}

/// Every campaignable registry id, aliases included, merges from a
/// single-process campaign into the tables and (`host_ns` zeroed)
/// manifests of a fresh in-process run; the rest are refused.
#[test]
fn every_campaignable_artifact_merges_byte_identical() {
    let _guard = in_process();
    let params = ExpParams::quick().with_scale(0.01).with_threads(vec![2, 4]);
    let mut campaigned = 0;
    for a in ARTIFACTS {
        for id in std::iter::once(a.id).chain(a.alias) {
            if matches!(a.runs, Runs::Direct(_)) {
                assert!(campaign_units(id, &params).is_none(), "{id}");
                continue;
            }
            clear_run_cache();
            let _ = take_run_manifests();
            let single = artifact_tables(id, &params).unwrap().unwrap();
            let manifests: Vec<String> = take_run_manifests()
                .into_iter()
                .map(|mut m| {
                    m.host_ns = 0;
                    m.to_json_line()
                })
                .collect();

            let dir = scratch(&format!("registry-{id}"));
            let spec = CampaignSpec {
                artifact: id.to_owned(),
                params: params.clone(),
            };
            campaign::run_local(&dir, &spec).unwrap();
            let merged = artifact_tables(id, &params).unwrap().unwrap();
            assert_eq!(merged.len(), single.len(), "{id}");
            for (m, s) in merged.iter().zip(&single) {
                assert_eq!((&m.name, &m.title), (&s.name, &s.title), "{id}");
                assert_eq!(m.table.to_csv(), s.table.to_csv(), "{id}: table differs");
            }
            let merged_manifests: Vec<String> = take_run_manifests()
                .into_iter()
                .map(|mut m| {
                    m.host_ns = 0;
                    m.to_json_line()
                })
                .collect();
            assert_eq!(merged_manifests, manifests, "{id}: manifests differ");
            let _ = std::fs::remove_dir_all(&dir);
            campaigned += 1;
        }
    }
    // 17 artifacts plus the fig1b alias; only ext-heapsize is refused.
    assert_eq!(
        campaigned, 18,
        "every id but ext-heapsize runs as a campaign"
    );
}
