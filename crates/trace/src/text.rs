//! Compact line-oriented timeline format with a strict parser.
//!
//! The style mirrors `objtrace::format_trace`: one event per line, `#`
//! comments, and a parser that reports the offending line on error so a
//! timeline can round-trip through version control or hand editing.
//!
//! ```text
//! # scalesim timeline v1
//! S running 3 1000 3500 0        <- span:    kind track start-ns dur-ns arg
//! I chaos:gc-stall 0 2500 77     <- instant: kind track at-ns arg
//! C heap-used 0 3000 4096        <- sample:  kind track at-ns value
//! ```

use std::fmt;
use std::fmt::Write as _;

use crate::event::{EventKind, Phase, TimelineEvent};
use crate::timeline::Timeline;
use scalesim_simkit::{SimDuration, SimTime};

/// A parse failure, carrying the 1-based line number and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTimelineError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timeline line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTimelineError {}

/// Serializes a timeline in the compact text format.
///
/// The header records the dropped-event count as a comment; events follow
/// in the timeline's chronological emission order.
#[must_use]
pub fn format_timeline(timeline: &Timeline) -> String {
    let mut out = String::new();
    out.push_str("# scalesim timeline v1\n");
    let _ = writeln!(out, "# dropped={}", timeline.dropped());
    for ev in timeline.events() {
        let tag = match ev.kind.phase() {
            Phase::Span => 'S',
            Phase::Instant => 'I',
            Phase::CounterSample => 'C',
        };
        match ev.kind.phase() {
            Phase::Span => {
                let _ = writeln!(
                    out,
                    "{tag} {} {} {} {} {}",
                    ev.kind.name(),
                    ev.track,
                    ev.at.as_nanos(),
                    ev.dur.as_nanos(),
                    ev.arg
                );
            }
            Phase::Instant | Phase::CounterSample => {
                let _ = writeln!(
                    out,
                    "{tag} {} {} {} {}",
                    ev.kind.name(),
                    ev.track,
                    ev.at.as_nanos(),
                    ev.arg
                );
            }
        }
    }
    out
}

fn field<T: std::str::FromStr>(
    parts: &mut std::str::SplitWhitespace<'_>,
    what: &str,
    line: usize,
) -> Result<T, ParseTimelineError> {
    let raw = parts.next().ok_or_else(|| ParseTimelineError {
        line,
        message: format!("missing {what}"),
    })?;
    raw.parse().map_err(|_| ParseTimelineError {
        line,
        message: format!("bad {what} `{raw}`"),
    })
}

/// Parses the compact text format back into events.
///
/// Blank lines and `#` comments are ignored. The parser is strict: every
/// record must have exactly the arity of its tag, the kind name must be
/// known, and the tag must match the kind's phase (a span kind cannot
/// appear on an `I` line).
///
/// # Errors
///
/// Returns a [`ParseTimelineError`] naming the first offending line.
pub fn parse_timeline(text: &str) -> Result<Vec<TimelineEvent>, ParseTimelineError> {
    let mut events = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let tag = parts.next().expect("non-empty line has a first token");
        let expected_phase = match tag {
            "S" => Phase::Span,
            "I" => Phase::Instant,
            "C" => Phase::CounterSample,
            other => {
                return Err(ParseTimelineError {
                    line,
                    message: format!("unknown record tag `{other}`"),
                })
            }
        };
        let name = parts.next().ok_or_else(|| ParseTimelineError {
            line,
            message: "missing event kind".to_owned(),
        })?;
        let kind = EventKind::from_name(name).ok_or_else(|| ParseTimelineError {
            line,
            message: format!("unknown event kind `{name}`"),
        })?;
        if kind.phase() != expected_phase {
            return Err(ParseTimelineError {
                line,
                message: format!("kind `{name}` cannot appear on a `{tag}` record"),
            });
        }
        let track: u32 = field(&mut parts, "track", line)?;
        let at: u64 = field(&mut parts, "timestamp", line)?;
        let dur: u64 = if expected_phase == Phase::Span {
            field(&mut parts, "duration", line)?
        } else {
            0
        };
        let arg: u64 = field(&mut parts, "argument", line)?;
        if let Some(extra) = parts.next() {
            return Err(ParseTimelineError {
                line,
                message: format!("trailing field `{extra}`"),
            });
        }
        events.push(TimelineEvent {
            kind,
            track,
            at: SimTime::from_nanos(at),
            dur: SimDuration::from_nanos(dur),
            arg,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_timeline() -> Timeline {
        let mut tl = Timeline::with_capacity(16);
        tl.span(EventKind::ThreadRunning, 2, t(1_000), t(4_500), 0);
        tl.span(EventKind::MonitorWait, 1, t(2_000), t(3_000), 5);
        tl.instant(EventKind::ChaosDropWakeup, 0, t(2_500), 3);
        tl.sample(EventKind::HeapUsed, 0, t(3_000), 4096);
        tl
    }

    #[test]
    fn format_parse_round_trips() {
        let tl = sample_timeline();
        let text = format_timeline(&tl);
        let parsed = parse_timeline(&text).unwrap();
        let original: Vec<TimelineEvent> = tl.events().collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let parsed = parse_timeline("# header\n\n  \nI chaos:gc-stall 0 5 9\n").unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].arg, 9);
    }

    #[test]
    fn errors_name_the_line() {
        let err = parse_timeline("I chaos:gc-stall 0 5 9\nX what 0 0 0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown record tag"));
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn phase_mismatch_is_rejected() {
        let err = parse_timeline("I running 0 5 9\n").unwrap_err();
        assert!(err.message.contains("cannot appear"), "{err}");
    }

    #[test]
    fn arity_is_strict() {
        assert!(parse_timeline("S running 0 5 9\n").is_err()); // missing arg
        assert!(parse_timeline("I chaos:gc-stall 0 5 9 9\n").is_err()); // extra
        assert!(parse_timeline("C heap-used 0 notanumber 9\n").is_err());
        assert!(parse_timeline("C nope 0 5 9\n").is_err());
    }
}
