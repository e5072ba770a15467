//! Exporting the raw measurement streams: the Elephant-Tracks-style
//! object trace, the `-verbose:gc`-style collection log, and the
//! deterministic execution timeline as Chrome trace-event JSON.
//!
//! Useful for feeding external analysis tooling, or simply for eyeballing
//! what the simulated VM did.
//!
//! ```sh
//! cargo run --release --example trace_export
//! ```

use scalesim::objtrace::{format_trace, parse_trace, Retention};
use scalesim::runtime::{Jvm, JvmConfig};
use scalesim::trace::{to_chrome_json, TraceConfig};
use scalesim::workloads::lusearch;

fn main() {
    // Full retention keeps the in-order event list (memory-heavy; use a
    // small run). Timeline tracing rides along: it is observational only,
    // so the measurements below are identical with it on or off.
    let app = lusearch().scaled(0.02);
    let config = JvmConfig::builder()
        .threads(4)
        .retention(Retention::Full)
        .trace(TraceConfig::on())
        .seed(42)
        .build()
        .expect("config");
    let report = Jvm::new(config).run(&app).expect("run");

    let events = report.trace.events().expect("full retention keeps events");
    let text = format_trace(events);
    println!("object trace: {} events, first ten lines:", events.len());
    for line in text.lines().take(10) {
        println!("  {line}");
    }
    // The format round-trips losslessly.
    assert_eq!(parse_trace(&text).expect("own output parses"), events);

    println!("\nverbose GC log:");
    for line in report.gc.to_verbose_gc().lines() {
        println!("  {line}");
    }

    if let Some(pauses) = report.gc.pause_summary() {
        println!(
            "\npause stats: mean {:.3}ms, p100 {:.3}ms over {} collections",
            pauses.mean() * 1e3,
            pauses.max() * 1e3,
            pauses.len()
        );
    }

    if let Some(per_thread) = report.trace.per_thread_histograms() {
        println!("\nper-thread median lifespans (allocation bytes):");
        for (thread, hist) in per_thread.iter().enumerate() {
            if let Some(p50) = hist.quantile(0.5) {
                println!("  thread {thread}: ~{p50} B over {} objects", hist.count());
            }
        }
    }

    // The 4-thread lusearch execution timeline: per-thread state spans,
    // monitor hold/wait spans, GC phases, and heap-pressure samples, as
    // Chrome trace-event JSON. Drop the file onto https://ui.perfetto.dev
    // (or chrome://tracing) to scrub through the run.
    let json = to_chrome_json(&report.timeline);
    let path = std::env::temp_dir().join("scalesim_lusearch_trace.json");
    std::fs::write(&path, &json).expect("write timeline export");
    println!(
        "\ntimeline: {} events ({} dropped by ring retention)",
        report.timeline.len(),
        report.timeline.dropped()
    );
    println!(
        "  wrote {} — open at https://ui.perfetto.dev",
        path.display()
    );

    // The counters registry is always on, traced or not.
    println!("\ncounters:");
    for (id, value) in report.counters.iter() {
        println!("  {id:?} = {value}");
    }
}
