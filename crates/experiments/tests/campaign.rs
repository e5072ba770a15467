//! End-to-end campaign tests. Three worker processes drain one sweep
//! over a shared directory, one is SIGKILLed mid-flight, and the merged
//! output must still be byte-identical to a single-process run; and
//! every artifact of the registry that runs as one sweep merges
//! byte-identical from an in-process campaign.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use scalesim_experiments::campaign::{self, campaign_units, CampaignSpec};
use scalesim_experiments::{
    artifact_tables, clear_run_cache, take_run_manifests, ExpParams, Runs, ARTIFACTS,
};

const BIN: &str = env!("CARGO_BIN_EXE_scalesim-experiments");
const SWEEP_ARGS: &[&str] = &["--scale", "0.02", "--seed", "7", "--threads", "2,4"];
/// Short TTL so the finisher reclaims the killed worker's leases fast.
const TTL_MS: &str = "300";

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
        .env("SCALESIM_LEASE_TTL_MS", TTL_MS)
        .stdout(Stdio::null());
    cmd
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
    let mut workers: Vec<_> = (1..=3u32)
        .map(|id| {
            campaign_cmd(&camp_dir, &[])
                .env("SCALESIM_CAMPAIGN_ROLE", "worker")
                .env("SCALESIM_CAMPAIGN_WORKER_ID", id.to_string())
                .stderr(Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();

    // SIGKILL the first worker mid-drain: no destructors, no flushes —
    // whatever it held (leases, a torn segment tail) must be repaired
    // by the survivors and the merge.
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
        camp_dir.join("seg-w9-p99999.jsonl"),
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
    let done = std::fs::read_dir(camp_dir.join("done"))
        .unwrap()
        .flatten()
        .filter(|e| !e.file_name().to_string_lossy().starts_with('.'))
        .count();
    assert_eq!(done, 12, "expected one done marker per unit");
    let leases: Vec<String> = std::fs::read_dir(camp_dir.join("leases"))
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".lease"))
        .collect();
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
            let merged = campaign::run_local(&dir, &spec).unwrap();
            assert_eq!(merged.tables.len(), single.len(), "{id}");
            for (m, s) in merged.tables.iter().zip(&single) {
                assert_eq!((&m.name, &m.title), (&s.name, &s.title), "{id}");
                assert_eq!(m.table.to_csv(), s.table.to_csv(), "{id}: table differs");
            }
            let merged_manifests: Vec<String> =
                merged.manifests.iter().map(|m| m.to_json_line()).collect();
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
