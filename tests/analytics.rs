//! Golden tests for the offline scalability analytics: the USL
//! classification must reproduce the paper's scalable / non-scalable
//! split on the six seed workloads at the pinned seed, and the emitted
//! `analytics.json` artifact must be deterministic byte for byte.

use scalesim::analytics::UslClass;
use scalesim::experiments::check::validate_analytics;
use scalesim::experiments::{run_analytics, ExpParams};

/// The pinned golden configuration: paper seed 42, the CI-sized 5%
/// scale, and the 4/16/48 sweep — the smallest grid on which the USL
/// classification reproduces the paper's split robustly (two-point
/// grids under-constrain the coherency term).
fn golden_params() -> ExpParams {
    ExpParams::quick()
}

#[test]
fn usl_classification_reproduces_the_paper_split() {
    let report = run_analytics(&golden_params()).unwrap();
    assert_eq!(report.workloads.len(), 6);
    assert!(
        report.all_match_paper(),
        "paper split not reproduced:\n{}",
        report.render()
    );

    for w in &report.workloads {
        let fit = w.fit.expect("every seed workload fits");
        let class = w.class.expect("every seed workload classifies");
        match w.app.as_str() {
            // "we can characterize the first three applications as
            // scalable": near-linear, so contention stays small.
            "sunflow" | "lusearch" | "xalan" => {
                assert_eq!(class, UslClass::Scalable, "{}", w.app);
                assert!(fit.sigma < 0.25, "{}: sigma {:.3}", w.app, fit.sigma);
            }
            // "and the remainder as non-scalable": serialized enough
            // that the fitted curve peaks inside the measured range.
            "h2" | "eclipse" | "jython" => {
                assert_eq!(class, UslClass::CoherencyCollapsed, "{}", w.app);
                assert!(fit.sigma > 0.5, "{}: sigma {:.3}", w.app, fit.sigma);
                assert!(
                    fit.peak_concurrency() <= 48.0,
                    "{}: peak n* {:.1} should fall inside the sweep",
                    w.app,
                    fit.peak_concurrency()
                );
            }
            other => panic!("unexpected app {other}"),
        }
        // Attribution and monitor percentiles come from real runs.
        assert!(w.profile.wall_ns > 0, "{}: empty profile", w.app);
        assert!(w.profile.running_ns > 0, "{}: no running time", w.app);
        assert!(w.hold.count > 0, "{}: no monitor holds", w.app);
    }
}

#[test]
fn analytics_artifact_is_deterministic_and_validates() {
    let params = golden_params();
    let first = run_analytics(&params).unwrap().to_json_string();
    // A second derivation (memo-served, same inputs) must be
    // byte-identical — the property the checkpoint/campaign re-derivation
    // paths rely on.
    let second = run_analytics(&params).unwrap().to_json_string();
    assert_eq!(first, second, "analytics artifact must be deterministic");

    let check = validate_analytics(&first).expect("artifact validates");
    assert_eq!(check.workloads, 6);
    assert!(check.all_match_paper);
    // Golden classification snapshot: any change to this split is a
    // paper-fidelity regression and must be deliberate.
    let classes: Vec<String> = check
        .classes
        .iter()
        .map(|(app, class)| format!("{app}={class}"))
        .collect();
    assert_eq!(
        classes.join(" "),
        "sunflow=scalable lusearch=scalable xalan=scalable \
         h2=coherency-collapsed eclipse=coherency-collapsed jython=coherency-collapsed"
    );
}
