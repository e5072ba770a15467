//! In-memory span recorder for the benchmark's own calls into the
//! library.
//!
//! Every span has a name, a start, an end and a parent. Spans are kept in
//! memory and written once, at the end of the run. A span's *self time*
//! is its duration minus the time its child spans cover; the callers are
//! single-threaded, so children never overlap and the subtraction is
//! exact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span, in nanoseconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// The recorder. When disabled, [`Spans::span`] just calls through.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records (`enabled`) or only calls through.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Like [`Spans::span`], also returning the call's host seconds
    /// (measured whether or not recording is on).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = Instant::now();
        let out = self.span(name, f);
        (out, start.elapsed().as_secs_f64())
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Totals per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// All spans as one JSON array (`name`, `start_ns`, `end_ns`,
    /// `parent`, `self_ns`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        s.span("outer", |s| {
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = s.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("x", |_| 7), 7);
        assert!(s.spans().is_empty());
    }
}
