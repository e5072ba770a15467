//! Tiny-size self-test of every workload: each run passes its output
//! checks with nothing failed, and prints exactly the metrics
//! `BENCHMARK.json` names, with their units.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::sync::Mutex;

use scalesim_perfbench::bench::{run_benchmark, Args};
use scalesim_perfbench::workloads::{Size, Workload};

/// The library's memo cache, checkpoint store and environment are
/// process-wide, so workloads must not run concurrently.
static GUARD: Mutex<()> = Mutex::new(());

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`), read from its one-metric-per-line
/// layout.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_owned())
    };
    let mut current = "";
    let mut out = BTreeSet::new();
    for line in text.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.contains(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section {
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.insert((name, unit));
            }
        }
    }
    out
}

fn check_workload(workload: Workload) {
    let _guard = GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let work_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let args = Args {
            workload,
            seed: 42,
            seconds: 1,
            trace,
            size: Size::Tiny,
            work_dir: work_dir.clone(),
        };
        let outcome = run_benchmark(&args).expect("benchmark runs");
        let report = outcome.lines.join("\n");
        assert!(outcome.correct, "{}: incorrect\n{report}", workload.name());
        assert_eq!(
            outcome.failed,
            0,
            "{}: fail_ratio is not 0\n{report}",
            workload.name()
        );
        assert!(outcome.attempted > 0);
        let printed: BTreeSet<(String, String)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        let expected = declared(section);
        assert!(
            !expected.is_empty(),
            "BENCHMARK.json has no {section} metrics"
        );
        assert_eq!(printed, expected, "{}: {section} metrics", workload.name());
        assert!(
            outcome.metrics.iter().all(|m| m.value.is_finite()),
            "{}: non-finite metric\n{report}",
            workload.name()
        );
        let line = outcome.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn paper_figures_at_tiny_size() {
    check_workload(Workload::PaperFigures);
}

#[test]
fn server_storm_at_tiny_size() {
    check_workload(Workload::ServerStorm);
}

#[test]
fn locks_traced_resume_at_tiny_size() {
    check_workload(Workload::LocksTracedResume);
}
