//! Observability integration tests: deterministic timeline traces,
//! chaos instant markers, and the tracing-off zero-impact guarantee.
//!
//! The timeline recorder is observational only — the same `(config,
//! seed)` must produce byte-identical exports, and switching tracing off
//! must leave every measurement bit-for-bit unchanged.

use scalesim::experiments::check::validate_chrome_trace;
use scalesim::runtime::{Jvm, JvmConfig, RunReport};
use scalesim::trace::{to_chrome_json, CounterId, EventKind, Phase, Timeline, TraceConfig};
use scalesim::workloads::{lusearch, xalan, SyntheticApp};

fn traced_run(app: &SyntheticApp, threads: usize, seed: u64, trace: TraceConfig) -> RunReport {
    Jvm::new(
        JvmConfig::builder()
            .threads(threads)
            .seed(seed)
            .trace(trace)
            .build()
            .unwrap(),
    )
    .run(app)
    .unwrap()
}

/// Tentpole guarantee: the same `(config, seed)` yields equal timelines
/// and byte-identical Chrome JSON exports.
#[test]
fn identical_traced_runs_export_byte_identical_artifacts() {
    let app = lusearch().scaled(0.02);
    let a = traced_run(&app, 4, 42, TraceConfig::on());
    let b = traced_run(&app, 4, 42, TraceConfig::on());

    assert!(!a.timeline.is_empty(), "traced run recorded nothing");
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(to_chrome_json(&a.timeline), to_chrome_json(&b.timeline));
}

/// Chaos faults leave matching instant markers: every injection the
/// engine counted appears as exactly one `ph:"I"` event, deterministically.
#[test]
fn chaos_faults_leave_matching_instant_markers() {
    use scalesim::simkit::ChaosConfig;

    let app = xalan().scaled(0.05);
    let chaos = ChaosConfig {
        gc_stall_period: 1,
        gc_stall_factor: 0.05,
        ..ChaosConfig::default()
    };
    let run = || {
        Jvm::new(
            JvmConfig::builder()
                .threads(4)
                .seed(42)
                .chaos(chaos)
                .monitors(false)
                .trace(TraceConfig::on())
                .build()
                .unwrap(),
        )
        .run(&app)
        .unwrap()
    };
    let report = run();

    let stalls = report
        .timeline
        .events()
        .filter(|ev| ev.kind == EventKind::ChaosGcStall)
        .count() as u64;
    // MonitorEnqueue is the one non-chaos instant kind (the wait-pairing
    // audit's enqueue marker), so chaos markers are every other instant.
    let chaos_instants = report
        .timeline
        .events()
        .filter(|ev| ev.kind.phase() == Phase::Instant && ev.kind != EventKind::MonitorEnqueue)
        .count() as u64;
    assert!(stalls > 0, "gc_stall_period=1 must inject on every GC");
    assert_eq!(
        stalls, chaos_instants,
        "the only chaos class enabled is GcStall"
    );
    assert_eq!(
        chaos_instants,
        report.counters.get(CounterId::ChaosInjections)
    );

    // Same plan, same markers: the chaos timeline is deterministic too.
    assert_eq!(report.timeline, run().timeline);

    // And with chaos off the marker tracks stay silent.
    let calm = traced_run(&app, 4, 42, TraceConfig::on());
    assert_eq!(calm.counters.get(CounterId::ChaosInjections), 0);
    assert!(
        calm.counters.get(CounterId::MinorGcs) > 0,
        "app must collect"
    );
    assert!(calm
        .timeline
        .events()
        .all(|ev| ev.kind.phase() != Phase::Instant || ev.kind == EventKind::MonitorEnqueue));
}

/// With tracing off the report is byte-identical to the plain run, and
/// tracing *on* does not perturb the pinned golden totals either.
#[test]
fn tracing_off_is_observationally_invisible() {
    let app = xalan().scaled(0.01);
    let plain = Jvm::new(JvmConfig::builder().threads(4).seed(42).build().unwrap())
        .run(&app)
        .unwrap();
    let traced = traced_run(&app, 4, 42, TraceConfig::on());

    // Tracing only adds timeline events; blank that one field and the
    // reports must render identically, counters included.
    assert!(plain.timeline.is_empty());
    assert!(!traced.timeline.is_empty());
    let mut a = plain.clone();
    let mut b = traced.clone();
    a.timeline = Timeline::disabled();
    b.timeline = Timeline::disabled();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));

    // Golden totals from tests/proptests.rs hold with the recorder live.
    assert_eq!(traced.events_processed, 9512);
    assert_eq!(traced.wall_time.as_nanos(), 13_439_563);

    // The counters registry is always on, traced or not.
    assert!(plain.counters.get(CounterId::Allocations) > 0);
    assert_eq!(
        plain.counters.get(CounterId::EventsProcessed),
        plain.events_processed
    );
}

/// A real export carries every span family the issue names — thread
/// states, monitor hold/wait with owner attribution, GC phases,
/// safepoints — plus heap-pressure counter samples, and validates as
/// Chrome trace-event JSON.
#[test]
fn chrome_export_carries_every_span_family() {
    let app = xalan().scaled(0.05);
    let report = traced_run(&app, 4, 42, TraceConfig::on());
    let json = to_chrome_json(&report.timeline);

    let check = validate_chrome_trace(&json).expect("export validates");
    assert_eq!(
        check.events as usize,
        report.timeline.len() + check.metadata
    );
    assert!(check.spans > 0);
    assert!(check.counters > 0, "no heap-pressure samples");
    assert!(check.metadata > 0, "no process/track naming metadata");

    for family in [
        "\"name\":\"running\"",
        "\"name\":\"runnable\"",
        "\"name\":\"hold\"",
        "\"name\":\"wait\"",
        "\"name\":\"safepoint\"",
        "\"name\":\"heap-used\"",
        "\"cat\":\"gc\"",
    ] {
        assert!(json.contains(family), "export lacks {family}");
    }

    // Owner attribution: every monitor-hold span names a live thread.
    let mut holds = 0;
    for ev in report.timeline.events() {
        if ev.kind == EventKind::MonitorHold {
            holds += 1;
            assert!((ev.arg as usize) < 4, "hold owner {} out of range", ev.arg);
        }
    }
    assert!(holds > 0, "xalan at 4 threads must contend on monitors");
}

/// Ring-buffer retention: a tiny capacity drops the oldest events (the
/// cap applies to each subsystem recorder — scheduler, locks, GC,
/// runtime — so the merge holds at most four rings' worth) but the
/// survivors still export as a valid, loadable trace.
#[test]
fn tiny_ring_capacity_drops_events_but_still_exports() {
    let app = lusearch().scaled(0.02);
    let report = traced_run(&app, 4, 42, TraceConfig::on().with_capacity(64));

    assert!(report.timeline.len() <= 4 * 64);
    assert!(report.timeline.dropped() > 0, "64 slots must overflow");
    assert_eq!(
        report.counters.get(CounterId::TimelineDropped),
        report.timeline.dropped()
    );

    let json = to_chrome_json(&report.timeline);
    let check = validate_chrome_trace(&json).expect("truncated export validates");
    assert!(check.events > 0);
    assert!(json.contains(&format!(
        "\"droppedEvents\":\"{}\"",
        report.timeline.dropped()
    )));
}
