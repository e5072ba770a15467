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
//! missing, is not JSON, or lacks a field.

use std::process::ExitCode;

use scalesim_core::JsonValue;

/// (field, max allowed %). Non-negativity is checked for all of them.
const BUDGETS: [(&str, f64); 8] = [
    ("checkpoint_overhead_pct", 3.0),
    ("monitor_overhead_pct", 10.0),
    ("trace_overhead_pct", f64::INFINITY),
    ("trace_off_overhead_pct", 2.0),
    ("audit_overhead_pct", 3.0),
    ("campaign_overhead_pct", 3.0),
    ("server_overhead_pct", 3.0),
    ("analytics_overhead_pct", 3.0),
];

/// Checks a bench report against [`BUDGETS`]: one `ok:` line per field
/// that holds and one violation line per field that does not, in that
/// order.
///
/// # Errors
///
/// A document that is not JSON or lacks a budgeted or recorded field.
fn check(json: &str) -> Result<(Vec<String>, Vec<String>), String> {
    let doc = JsonValue::parse(json)?;
    let field = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric field {key}"))
    };
    let (mut ok, mut violations) = (Vec::new(), Vec::new());
    for (key, budget) in BUDGETS {
        let v = field(key)?;
        if v < 0.0 {
            violations.push(format!("{key} = {v:.2}% is negative"));
        } else if v > budget {
            violations.push(format!("{key} = {v:.2}% exceeds its {budget:.0}% budget"));
        } else {
            ok.push(format!("{key} = {v:.2}%"));
        }
    }
    // The signed median is a second opinion, not a budget: it must be
    // recorded (so the min-ratio clamp cannot silently hide a real
    // cost), but a negative value is legitimate host drift.
    let median = field("campaign_overhead_median_pct")?;
    ok.push(format!(
        "campaign_overhead_median_pct = {median:+.2}% (recorded, unbudgeted)"
    ));
    Ok((ok, violations))
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let checked = std::fs::read_to_string(&path)
        .map_err(|e| format!("read {path}: {e}"))
        .and_then(|json| check(&json).map_err(|e| format!("{path}: {e}")));
    let (ok, violations) = match checked {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &ok {
        println!("ok: {line}");
    }
    for line in &violations {
        eprintln!("budget violation: {line}");
    }
    if violations.is_empty() {
        println!("{path}: all overhead budgets hold");
        ExitCode::SUCCESS
    } else {
        eprintln!("{path}: {} budget violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report in `bench_sweep`'s layout with every checked field at
    /// `1.00`, except those `edits` set.
    fn report(edits: &[(&str, &str)]) -> String {
        let keys = BUDGETS.iter().map(|&(key, _)| key);
        let fields: Vec<String> = keys
            .chain(["campaign_overhead_median_pct"])
            .map(|key| {
                let edit = edits.iter().find(|&&(k, _)| k == key);
                format!("  \"{key}\": {}", edit.map_or("1.00", |&(_, v)| v))
            })
            .collect();
        format!("{{\n  \"seed\": 42,\n{}\n}}\n", fields.join(",\n"))
    }

    #[test]
    fn the_committed_report_holds_every_budget() {
        let committed = include_str!("../../../../BENCH_sweep.json");
        let (ok, violations) = check(committed).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(ok.len(), BUDGETS.len() + 1);
    }

    #[test]
    fn a_missing_field_is_an_error() {
        assert!(check(&report(&[])).is_ok());
        for key in ["audit_overhead_pct", "campaign_overhead_median_pct"] {
            let doc = report(&[]).replace(&format!("\"{key}\""), "\"renamed\"");
            assert!(check(&doc).unwrap_err().contains(key), "{key}");
        }
        let quoted = report(&[("trace_off_overhead_pct", "\"0.33\"")]);
        assert!(check(&quoted).is_err());
    }

    #[test]
    fn a_malformed_document_is_an_error() {
        // A text scan for `"key":` finds every field in each of these.
        let unclosed = report(&[]).replace('}', "");
        assert!(check(&unclosed).is_err());
        let trailing = format!("{},", report(&[]));
        assert!(check(&trailing).is_err());
        let bad_number = report(&[("monitor_overhead_pct", "1.2.3")]);
        assert!(check(&bad_number).is_err());
    }

    #[test]
    fn negative_and_over_budget_values_are_violations() {
        let doc = report(&[
            ("audit_overhead_pct", "-0.5"),
            ("server_overhead_pct", "3.01"),
            ("trace_overhead_pct", "250.0"),
        ]);
        let (ok, violations) = check(&doc).unwrap();
        assert_eq!(
            violations,
            [
                "audit_overhead_pct = -0.50% is negative",
                "server_overhead_pct = 3.01% exceeds its 3% budget",
            ]
        );
        assert_eq!(ok.len(), BUDGETS.len() - 1);
        // The signed median may be negative.
        let doc = report(&[("campaign_overhead_median_pct", "-4.04")]);
        assert!(check(&doc).unwrap().1.is_empty());
    }
}
