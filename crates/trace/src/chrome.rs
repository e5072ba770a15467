//! Chrome trace-event / Perfetto JSON export.
//!
//! The output follows the Trace Event Format ("JSON Object Format"
//! flavor) and loads directly at <https://ui.perfetto.dev> or
//! `chrome://tracing`: complete spans (`ph:"X"`), instant markers
//! (`ph:"I"`), counter samples (`ph:"C"`), and `ph:"M"` metadata naming
//! the per-subsystem process groups and tracks.
//!
//! The serializer is std-only and **byte-deterministic**: timestamps are
//! simulated nanoseconds rendered as exact microsecond decimals (never
//! `f64`-formatted), objects use fixed key order, and tracks are listed in
//! sorted order — so equal timelines export to equal bytes.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::event::{Phase, Process, TimelineEvent};
use crate::timeline::Timeline;
use scalesim_simkit::{SimDuration, SimTime};

/// Renders simulated nanoseconds as the exact microsecond decimal Chrome
/// expects in `ts`/`dur`, without any float formatting.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn ts_micros(at: SimTime) -> String {
    micros(at.as_nanos())
}

fn dur_micros(dur: SimDuration) -> String {
    micros(dur.as_nanos())
}

fn track_name(process: Process, track: u32) -> String {
    match process {
        Process::Threads => format!("thread{track}"),
        Process::Monitors => format!("monitor{track}"),
        Process::Gc => format!("gc-region{track}"),
        Process::Runtime => "chaos".to_owned(),
        Process::Server => format!("class{track}"),
    }
}

fn push_event(out: &mut String, ev: &TimelineEvent) {
    let process = ev.kind.process();
    let pid = process.pid();
    let name = ev.kind.name();
    let cat = ev.kind.category();
    let ts = ts_micros(ev.at);
    match ev.kind.phase() {
        Phase::Span => {
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
                 \"name\":\"{name}\",\"cat\":\"{cat}\",\"args\":{{\"arg\":{arg}}}}}",
                tid = ev.track,
                dur = dur_micros(ev.dur),
                arg = ev.arg,
            );
        }
        Phase::Instant => {
            let _ = write!(
                out,
                "{{\"ph\":\"I\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                 \"name\":\"{name}\",\"cat\":\"{cat}\",\"args\":{{\"arg\":{arg}}}}}",
                tid = ev.track,
                arg = ev.arg,
            );
        }
        Phase::CounterSample => {
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                 \"name\":\"{name}\",\"cat\":\"{cat}\",\"args\":{{\"value\":{value}}}}}",
                tid = ev.track,
                value = ev.arg,
            );
        }
    }
}

/// Serializes a timeline as Chrome trace-event JSON.
///
/// Load the result at <https://ui.perfetto.dev>. The export is a pure
/// function of the timeline contents: the same recorded events always
/// produce the same bytes.
#[must_use]
pub fn to_chrome_json(timeline: &Timeline) -> String {
    // Collect every (process, track) pair once, sorted, for metadata.
    let mut tracks: BTreeSet<(Process, u32)> = BTreeSet::new();
    for ev in timeline.events() {
        tracks.insert((ev.kind.process(), ev.track));
    }

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut named: BTreeSet<Process> = BTreeSet::new();
    for &(process, track) in &tracks {
        if named.insert(process) {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{pname}\"}}}}",
                pid = process.pid(),
                pname = process.name(),
            );
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{track},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{tname}\"}}}}",
            pid = process.pid(),
            tname = track_name(process, track),
        );
    }
    for ev in timeline.events() {
        if !first {
            out.push(',');
        }
        first = false;
        push_event(&mut out, &ev);
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"droppedEvents\":\"{}\"}}}}",
        timeline.dropped()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_timeline() -> Timeline {
        let mut tl = Timeline::with_capacity(16);
        tl.span(EventKind::ThreadRunning, 2, t(1_000), t(4_500), 0);
        tl.span(EventKind::MonitorHold, 0, t(2_000), t(3_000), 2);
        tl.instant(EventKind::ChaosGcStall, 0, t(2_500), 77);
        tl.sample(EventKind::HeapUsed, 0, t(3_000), 4096);
        tl
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(
            to_chrome_json(&sample_timeline()),
            to_chrome_json(&sample_timeline())
        );
    }

    #[test]
    fn export_contains_required_fields_and_exact_timestamps() {
        let json = to_chrome_json(&sample_timeline());
        for needle in [
            "\"ph\":\"X\"",
            "\"ph\":\"I\"",
            "\"ph\":\"C\"",
            "\"ph\":\"M\"",
            "\"pid\":1",
            "\"tid\":2",
            // 1000 ns = 1.000 us, 3500 ns span = 3.500 us.
            "\"ts\":1.000",
            "\"dur\":3.500",
            "\"name\":\"running\"",
            "\"name\":\"hold\"",
            "\"name\":\"chaos:gc-stall\"",
            "\"name\":\"heap-used\"",
            "\"name\":\"process_name\"",
            "\"name\":\"thread_name\"",
            "\"droppedEvents\":\"0\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn empty_timeline_exports_an_empty_event_array() {
        let json = to_chrome_json(&Timeline::disabled());
        assert!(json.starts_with("{\"traceEvents\":[]"));
    }

    #[test]
    fn micros_renders_sub_microsecond_exactly() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(13_439_563), "13439.563");
    }
}
