//! Offline validators for the machine-readable artifacts this workspace
//! emits: Chrome trace-event exports ([`validate_chrome_trace`]),
//! run-manifest JSONL lines ([`validate_manifest_line`]) and
//! `analytics.json` ([`validate_analytics`]).
//!
//! The container builds fully offline, so there is no `jq`/`python`
//! guarantee in CI; the `trace_check` binary runs these instead. They
//! read through [`JsonValue::parse`], the same reader the repro and
//! analytics files use, so a count that must be an integer is read as
//! an exact `u64`.

use std::collections::BTreeSet;

use scalesim_core::JsonValue;

/// Summary of a validated Chrome trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCheck {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Complete spans (`ph:"X"`).
    pub spans: usize,
    /// Instant markers (`ph:"I"`).
    pub instants: usize,
    /// Counter samples (`ph:"C"`).
    pub counters: usize,
    /// Metadata records (`ph:"M"`).
    pub metadata: usize,
    /// Distinct span/instant names seen, for coverage assertions.
    pub names: usize,
}

/// Parses and structurally validates a Chrome trace-event export.
///
/// Every entry of `traceEvents` must be an object carrying a string `ph`
/// and integer `pid`/`tid`; non-metadata entries must also carry a
/// numeric `ts`, and spans a numeric `dur`.
///
/// # Errors
///
/// Returns a description of the first malformed entry (or a JSON syntax
/// error from [`JsonValue::parse`]).
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = JsonValue::parse(text)?;
    let items = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut check = TraceCheck {
        events: items.len(),
        ..TraceCheck::default()
    };
    let mut names = BTreeSet::new();
    for (i, item) in items.iter().enumerate() {
        let ph = item
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string `ph`"))?;
        for key in ["pid", "tid"] {
            if item.get(key).and_then(JsonValue::as_u64).is_none() {
                return Err(format!("event {i}: missing integer `{key}`"));
            }
        }
        if ph != "M" {
            if item.get("ts").and_then(JsonValue::as_f64).is_none() {
                return Err(format!("event {i}: missing numeric `ts`"));
            }
            if let Some(name) = item.get("name").and_then(JsonValue::as_str) {
                names.insert(name);
            }
        }
        match ph {
            "X" => {
                if item.get("dur").and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("event {i}: span missing numeric `dur`"));
                }
                check.spans += 1;
            }
            "I" => check.instants += 1,
            "C" => check.counters += 1,
            "M" => check.metadata += 1,
            other => return Err(format!("event {i}: unexpected ph `{other}`")),
        }
    }
    check.names = names.len();
    Ok(check)
}

/// Keys every run-manifest JSONL line must carry.
pub const MANIFEST_REQUIRED_KEYS: [&str; 6] =
    ["app", "threads", "seed", "outcome", "host_ns", "memo"];

/// Validates one run-manifest JSONL line.
///
/// # Errors
///
/// Returns a description of the first missing key or a JSON syntax error.
pub fn validate_manifest_line(line: &str) -> Result<(), String> {
    let doc = JsonValue::parse(line)?;
    if !matches!(doc, JsonValue::Obj(_)) {
        return Err("manifest line is not an object".to_owned());
    }
    for key in MANIFEST_REQUIRED_KEYS {
        if doc.get(key).is_none() {
            return Err(format!("manifest line missing `{key}`"));
        }
    }
    Ok(())
}

/// Summary of a validated `analytics.json` artifact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalyticsCheck {
    /// Workload entries in the artifact.
    pub workloads: usize,
    /// Whether the artifact says every workload matched the paper's
    /// scalable / non-scalable split.
    pub all_match_paper: bool,
    /// The embedded 16-hex-digit fingerprint.
    pub fingerprint: String,
    /// `(app, class)` per workload, in artifact order — CI smokes
    /// assert classification stability against these.
    pub classes: Vec<(String, String)>,
}

/// Parses and structurally validates an `analytics.json` artifact.
///
/// Checks the schema version, the fingerprint shape, and that every
/// workload entry carries its classification, USL parameters
/// (sigma/kappa plus the predicted collapse point), time-attribution
/// breakdown, and hold/wait percentile blocks of integers.
///
/// # Errors
///
/// Returns a description of the first structural problem (or a JSON
/// syntax error from [`JsonValue::parse`]).
pub fn validate_analytics(text: &str) -> Result<AnalyticsCheck, String> {
    let doc = JsonValue::parse(text.trim_end())?;
    if !matches!(doc, JsonValue::Obj(_)) {
        return Err("analytics artifact is not an object".to_owned());
    }
    if doc.get("v").and_then(JsonValue::as_u64) != Some(1) {
        return Err("analytics artifact missing schema version `v` = 1".to_owned());
    }
    let fingerprint = doc
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .ok_or("missing string `fingerprint`")?;
    if fingerprint.len() != 16 || !fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("malformed fingerprint `{fingerprint}`"));
    }
    let all_match_paper = doc
        .get("all_match_paper")
        .and_then(JsonValue::as_bool)
        .ok_or("missing boolean `all_match_paper`")?;
    let entries = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array `workloads`")?;
    let mut classes = Vec::new();
    for (i, w) in entries.iter().enumerate() {
        let app = w
            .get("app")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("workload {i}: missing string `app`"))?;
        let class = w
            .get("class")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("workload {i}: missing string `class`"))?;
        for key in [
            "expected",
            "points",
            "usl",
            "attribution",
            "hold_ns",
            "wait_ns",
        ] {
            if w.get(key).is_none() {
                return Err(format!("workload {i} ({app}): missing `{key}`"));
            }
        }
        if class != "unclassified" {
            for key in ["sigma", "kappa", "collapse_point"] {
                if w.get("usl").and_then(|u| u.get(key)).is_none() {
                    return Err(format!("workload {i} ({app}): usl missing `{key}`"));
                }
            }
        }
        for block in ["hold_ns", "wait_ns"] {
            for key in ["count", "p50", "p95", "p99", "p999"] {
                if w.get(block)
                    .and_then(|b| b.get(key))
                    .and_then(JsonValue::as_u64)
                    .is_none()
                {
                    return Err(format!(
                        "workload {i} ({app}): {block} missing integer `{key}`"
                    ));
                }
            }
        }
        classes.push((app.to_owned(), class.to_owned()));
    }
    Ok(AnalyticsCheck {
        workloads: entries.len(),
        all_match_paper,
        fingerprint: fingerprint.to_owned(),
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_simkit::SimTime;
    use scalesim_trace::{to_chrome_json, EventKind, Timeline};

    #[test]
    fn validates_a_real_export() {
        let mut tl = Timeline::with_capacity(8);
        tl.span(
            EventKind::GcMinor,
            0,
            SimTime::from_nanos(5),
            SimTime::from_nanos(10),
            1,
        );
        tl.instant(EventKind::ChaosGcStall, 0, SimTime::from_nanos(7), 2);
        let check = validate_chrome_trace(&to_chrome_json(&tl)).unwrap();
        assert_eq!(check.spans, 1);
        assert_eq!(check.instants, 1);
        assert!(check.metadata >= 2);
        assert_eq!(check.names, 2);
    }

    #[test]
    fn rejects_events_without_required_fields() {
        let bad = r#"{"traceEvents":[{"ph":"X","pid":1}]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("tid"), "{err}");
        let bad_ts = r#"{"traceEvents":[{"ph":"I","pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad_ts).unwrap_err().contains("ts"));
        let float_tid = r#"{"traceEvents":[{"ph":"I","pid":1,"tid":0.5,"ts":1.250}]}"#;
        assert!(validate_chrome_trace(float_tid)
            .unwrap_err()
            .contains("tid"));
        let good = r#"{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":1.250,"dur":2}]}"#;
        assert_eq!(validate_chrome_trace(good).unwrap().spans, 1);
    }

    #[test]
    fn analytics_artifacts_validate() {
        let good = r#"{"v":1,"seed":42,"threads":[4,8],"workloads":[
            {"app":"sunflow","expected":"scalable","class":"scalable",
             "points":[[4,"100.0"]],
             "usl":{"lambda":"1.0","sigma":"0.1","kappa":"0.001",
                    "peak_concurrency":"30.0","collapse_point":"900.0",
                    "rms_residual":"0.0"},
             "attribution":{"threads":8,"running_ns":1,"wall_ns":2},
             "hold_ns":{"count":1,"p50":1,"p95":3,"p99":3,"p999":3},
             "wait_ns":{"count":0,"p50":0,"p95":0,"p99":0,"p999":0},
             "matches_paper":true}],
            "all_match_paper":true,"fingerprint":"0123456789abcdef"}"#;
        let check = validate_analytics(good).unwrap();
        assert_eq!(check.workloads, 1);
        assert!(check.all_match_paper);
        assert_eq!(check.fingerprint, "0123456789abcdef");
        assert_eq!(
            check.classes,
            vec![("sunflow".to_owned(), "scalable".to_owned())]
        );

        assert!(validate_analytics("[]").is_err());
        assert!(validate_analytics(r#"{"v":2}"#)
            .unwrap_err()
            .contains("schema"));
        let float_v = good.replacen("\"v\":1,", "\"v\":1.0,", 1);
        assert!(validate_analytics(&float_v).unwrap_err().contains("schema"));
        let bad_fp = good.replace("0123456789abcdef", "zz");
        assert!(validate_analytics(&bad_fp)
            .unwrap_err()
            .contains("fingerprint"));
        let no_usl_key = good.replace("\"sigma\":\"0.1\",", "");
        assert!(validate_analytics(&no_usl_key)
            .unwrap_err()
            .contains("sigma"));
        let no_pct = good.replace("\"p95\":3,", "");
        assert!(validate_analytics(&no_pct).unwrap_err().contains("p95"));
        let float_pct = good.replace("\"p99\":3,", "\"p99\":3.5,");
        assert!(validate_analytics(&float_pct).unwrap_err().contains("p99"));
    }

    #[test]
    fn manifest_lines_validate() {
        let good =
            r#"{"app":"xalan","threads":4,"seed":42,"outcome":"ok","host_ns":5,"memo":"miss"}"#;
        assert!(validate_manifest_line(good).is_ok());
        let missing = r#"{"app":"xalan","threads":4}"#;
        assert!(validate_manifest_line(missing)
            .unwrap_err()
            .contains("seed"));
        assert!(validate_manifest_line("[]").is_err());
    }
}
