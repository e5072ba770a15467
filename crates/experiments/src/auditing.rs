//! Concurrency-audit wiring for the sweep harness.
//!
//! The auditor itself ([`scalesim_audit::audit`]) is a pure function over a
//! recorded timeline; this module supplies the harness side:
//!
//! * [`audit_spec`] re-executes a spec with **salvage mode** and tracing
//!   forced on, so even a run that aborts on an invariant violation
//!   finalizes with its timeline and counters intact, then audits the
//!   record. This is how quarantined sweep points get audited — their
//!   original (untraced) execution discarded the evidence.
//! * [`write_audit_repro`] emits an atomic `audit-<key>.json` artifact for
//!   the first finding: a full [`ReproSpec`](scalesim_core::ReproSpec)
//!   captured as the shrinker captures one (so `scalesim-experiments
//!   repro FILE` re-executes the same run exactly — the parser ignores the
//!   audit keys) plus the finding's check, class, fingerprint and the
//!   bisected first-divergent-event index.

use std::path::{Path, PathBuf};

use scalesim_audit::{audit, AuditReport};
use scalesim_core::{JsonValue, RunReport, TraceConfig};
use scalesim_trace::write_atomic;

use crate::shrink::{capture_exact, run_isolated};
use crate::sweep::RunSpec;

/// Event-budget backstop for audit re-executions: generous for the pinned
/// audit workloads, tight enough that a pathological schedule cannot hang
/// the audit pass.
pub const AUDIT_EVENT_BACKSTOP: u64 = 4_000_000;

/// Re-executes `spec` with salvage + tracing and audits the recorded run.
///
/// The spec's simulated behavior is unchanged — salvage only affects how
/// an abort finalizes, and tracing is observational — so the audited
/// schedule is the same deterministic schedule the original spec produces.
///
/// # Errors
///
/// Returns the engine/panic message when the re-execution fails so hard
/// that salvage could not produce a report (e.g. a config rejection or an
/// injected panic).
pub fn audit_spec(spec: &RunSpec) -> Result<(RunReport, AuditReport), String> {
    let mut traced = spec.clone();
    traced.config.salvage = true;
    traced.config.trace = TraceConfig::on();
    if traced.config.budget.max_events > AUDIT_EVENT_BACKSTOP {
        traced.config.budget.max_events = AUDIT_EVENT_BACKSTOP;
    }
    let report = run_isolated(&traced)?;
    let aborted = !report.outcome.is_ok();
    let audit_report = audit(&report.timeline, &report.counters, aborted);
    Ok((report, audit_report))
}

/// Writes the `audit-<key>.json` repro artifact for the report's first
/// finding into `dir`, returning its path (`None` when the report is
/// clean). The key is the *original* spec's memo key, parallel to the
/// shrinker's `repro-<key>.json` naming.
///
/// # Errors
///
/// Propagates filesystem failures from the atomic write.
pub fn write_audit_repro(
    spec: &RunSpec,
    report: &AuditReport,
    dir: &Path,
) -> std::io::Result<Option<PathBuf>> {
    let Some(finding) = report.findings.first() else {
        return Ok(None);
    };
    let repro = capture_exact(spec);
    let mut json = repro.to_json();
    if let JsonValue::Obj(pairs) = &mut json {
        pairs.push((
            "audit_check".to_owned(),
            JsonValue::Str(finding.check.name().to_owned()),
        ));
        pairs.push((
            "audit_class".to_owned(),
            JsonValue::Str(finding.class.to_owned()),
        ));
        pairs.push((
            "audit_fingerprint".to_owned(),
            JsonValue::Str(format!("{:016x}", finding.fingerprint())),
        ));
        if let Some(i) = report.divergence {
            pairs.push(("audit_divergent_event".to_owned(), JsonValue::U64(i as u64)));
        }
    }
    let path = dir.join(format!("audit-{:016x}.json", repro.spec_key));
    let mut body = json.to_string();
    body.push('\n');
    write_atomic(&path, body)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_workloads::xalan;

    #[test]
    fn clean_spec_audits_clean_and_writes_no_repro() {
        let spec = RunSpec::new(xalan().scaled(0.002), 2, 5);
        let (report, audit_report) = audit_spec(&spec).expect("runs");
        assert!(report.outcome.is_ok(), "{}", report.outcome);
        assert!(audit_report.complete, "{audit_report}");
        assert!(audit_report.is_clean(), "{audit_report}");
        let dir = std::env::temp_dir();
        assert!(write_audit_repro(&spec, &audit_report, &dir)
            .unwrap()
            .is_none());
    }

    #[test]
    fn audit_rerun_does_not_mutate_the_spec_key() {
        let spec = RunSpec::new(xalan().scaled(0.002), 2, 5);
        let key = spec.memo_key();
        let _ = audit_spec(&spec).expect("runs");
        assert_eq!(spec.memo_key(), key);
    }
}
