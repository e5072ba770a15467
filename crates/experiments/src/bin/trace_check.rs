//! Offline validator for the observability artifacts CI produces: a
//! Chrome trace-event export (optionally plus a run-manifest JSONL), or
//! an `analytics.json` scalability-analytics artifact.
//!
//! ```sh
//! trace_check trace.json                       # validate the export
//! trace_check trace.json manifest.jsonl 2      # plus the manifest,
//!                                              # expecting 2 lines
//! trace_check --analytics analytics.json       # validate analytics
//! ```
//!
//! The container builds fully offline — no `jq`, no Python — so this
//! binary runs the validators in `scalesim_experiments::check`, which
//! read through `scalesim_core`'s JSON reader. Exit code 0 means every
//! artifact validated; 1 means a malformed artifact or a usage error,
//! with the reason on stderr.

use std::process::ExitCode;

use scalesim_experiments::check::{
    validate_analytics, validate_chrome_trace, validate_manifest_line,
};

const USAGE: &str = "usage: trace_check <trace.json> [<manifest.jsonl> <expected-lines>]\n\
       trace_check --analytics <analytics.json>";

/// Validates an analytics artifact and prints its classification rows
/// (`app=class`), so CI logs double as a stability record.
fn run_analytics_check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let check = validate_analytics(&text).map_err(|e| format!("{path}: {e}"))?;
    if check.workloads == 0 {
        return Err(format!("{path}: artifact carries no workloads"));
    }
    let classes: Vec<String> = check
        .classes
        .iter()
        .map(|(app, class)| format!("{app}={class}"))
        .collect();
    println!(
        "{path}: ok ({} workloads; paper split reproduced: {}; fingerprint {}; {})",
        check.workloads,
        check.all_match_paper,
        check.fingerprint,
        classes.join(" ")
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--analytics") {
        return match args.len() {
            2 => run_analytics_check(&args[1]),
            _ => Err(USAGE.to_owned()),
        };
    }
    let (trace_path, manifest) = match args.len() {
        1 => (&args[0], None),
        3 => {
            let expected: usize = args[2]
                .parse()
                .map_err(|_| format!("bad expected-lines `{}`\n{USAGE}", args[2]))?;
            (&args[0], Some((&args[1], expected)))
        }
        _ => return Err(USAGE.to_owned()),
    };

    let text =
        std::fs::read_to_string(trace_path).map_err(|e| format!("read {trace_path}: {e}"))?;
    let check = validate_chrome_trace(&text).map_err(|e| format!("{trace_path}: {e}"))?;
    if check.spans == 0 {
        return Err(format!("{trace_path}: export carries no spans"));
    }
    println!(
        "{trace_path}: ok ({} events: {} spans, {} instants, {} counters, \
         {} metadata; {} distinct names)",
        check.events, check.spans, check.instants, check.counters, check.metadata, check.names
    );

    if let Some((manifest_path, expected)) = manifest {
        let body = std::fs::read_to_string(manifest_path)
            .map_err(|e| format!("read {manifest_path}: {e}"))?;
        let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
        if lines.len() != expected {
            return Err(format!(
                "{manifest_path}: expected {expected} manifest lines, found {}",
                lines.len()
            ));
        }
        for (n, line) in lines.iter().enumerate() {
            validate_manifest_line(line).map_err(|e| format!("{manifest_path}:{}: {e}", n + 1))?;
        }
        println!("{manifest_path}: ok ({} lines)", lines.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("trace_check: {msg}");
            ExitCode::FAILURE
        }
    }
}
