//! Validates a written `BENCH_sweep.json` against the budgets its fields
//! are documented with. CI runs this over the committed report so a
//! regeneration that blows a budget (or records a nonsensical negative
//! overhead) fails loudly instead of being committed unnoticed.
//!
//! Budgets:
//!
//! * every `*_overhead_pct` field must be non-negative (the measurement
//!   clamps sub-noise negatives to zero — a negative value means the
//!   report predates the interleaved-pair fix);
//! * `checkpoint_overhead_pct` <= 3%;
//! * `monitor_overhead_pct` < 10%;
//! * `trace_off_overhead_pct` <= 2% (trace-off is the production path);
//! * `audit_overhead_pct` <= 3%;
//! * `campaign_overhead_pct` <= 3% (lease files, segment appends, and
//!   the deterministic merge over running the sweep in-process);
//! * `server_overhead_pct` <= 3% (the robust overload-control machinery
//!   — admission counting, deadline bookkeeping, armed backoff — over
//!   the naive per-request path on an identical healthy load);
//! * `analytics_overhead_pct` <= 3% (the offline USL-fit + attribution
//!   pass over producing the sweep it analyzes).
//!
//! `campaign_overhead_median_pct` is recorded but not budgeted: it is
//! the *signed* median per-pair delta kept alongside the clamped
//! min-ratio bound so a real-but-sub-noise campaign cost cannot hide
//! behind a `0.00` reading. It must be present and may be negative.
//!
//! Usage: `bench_check [BENCH_sweep.json]`. Exits 0 when every budget
//! holds, 1 with one line per violation otherwise, 2 when the file is
//! missing or malformed.

use std::process::ExitCode;

/// Extracts a numeric field from the flat one-field-per-line JSON that
/// `bench_sweep` writes.
fn field(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    // (field, max allowed %). Non-negativity is checked for all of them.
    let budgets = [
        ("checkpoint_overhead_pct", 3.0),
        ("monitor_overhead_pct", 10.0),
        ("trace_overhead_pct", f64::INFINITY),
        ("trace_off_overhead_pct", 2.0),
        ("audit_overhead_pct", 3.0),
        ("campaign_overhead_pct", 3.0),
        ("server_overhead_pct", 3.0),
        ("analytics_overhead_pct", 3.0),
    ];
    let mut violations = 0;
    for (key, budget) in budgets {
        let Some(v) = field(&json, key) else {
            eprintln!("error: {path}: missing field {key}");
            return ExitCode::from(2);
        };
        if v < 0.0 {
            eprintln!("budget violation: {key} = {v:.2}% is negative");
            violations += 1;
        } else if v > budget {
            eprintln!("budget violation: {key} = {v:.2}% exceeds its {budget:.0}% budget");
            violations += 1;
        } else {
            println!("ok: {key} = {v:.2}%");
        }
    }
    // The signed median is a second opinion, not a budget: it must be
    // recorded (so the min-ratio clamp cannot silently hide a real
    // cost), but a negative value is legitimate host drift.
    match field(&json, "campaign_overhead_median_pct") {
        Some(v) => println!("ok: campaign_overhead_median_pct = {v:+.2}% (recorded, unbudgeted)"),
        None => {
            eprintln!("error: {path}: missing field campaign_overhead_median_pct");
            return ExitCode::from(2);
        }
    }
    if violations > 0 {
        eprintln!("{path}: {violations} budget violation(s)");
        ExitCode::FAILURE
    } else {
        println!("{path}: all overhead budgets hold");
        ExitCode::SUCCESS
    }
}
