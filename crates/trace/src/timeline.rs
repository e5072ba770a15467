//! The ring-buffered span/instant recorder.
//!
//! Each subsystem (scheduler, lock table, collector, runtime) owns one
//! [`Timeline`]; recording is a bounds-checked array write, and a disabled
//! recorder reduces every call to a single branch. At the end of a run the
//! runtime merges the per-subsystem recorders into one timeline ordered by
//! `(simulated time, subsystem rank, emission order)` — a pure function of
//! the recorded events, so equal runs merge to byte-identical traces.

use crate::event::{EventKind, Phase, TimelineEvent};
use scalesim_simkit::{SimDuration, SimTime};

/// A deterministic, bounded recorder of [`TimelineEvent`]s.
///
/// Retention is *keep-latest*: once `capacity` events are held, each new
/// event overwrites the oldest and bumps the dropped count. Chronological
/// export order is preserved across wrap-around.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Timeline {
    enabled: bool,
    capacity: usize,
    events: Vec<TimelineEvent>,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::disabled()
    }
}

impl Timeline {
    /// A recorder that ignores every event (the tracing-off fast path).
    #[must_use]
    pub fn disabled() -> Self {
        Timeline {
            enabled: false,
            capacity: 0,
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// A live recorder retaining at most `capacity` events (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Timeline {
            enabled: true,
            capacity: capacity.max(1),
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Whether this recorder keeps events at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by ring retention since recording started.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, ev: TimelineEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records a complete span covering `[start, end]`.
    ///
    /// Zero-length spans are suppressed — they carry no information and a
    /// stop-the-world shift can legitimately produce them in bulk.
    pub fn span(&mut self, kind: EventKind, track: u32, start: SimTime, end: SimTime, arg: u64) {
        if !self.enabled || end <= start {
            return;
        }
        debug_assert_eq!(kind.phase(), Phase::Span, "{kind:?} is not a span kind");
        self.push(TimelineEvent {
            kind,
            track,
            at: start,
            dur: end.saturating_since(start),
            arg,
        });
    }

    /// Records an instant marker at `at`.
    pub fn instant(&mut self, kind: EventKind, track: u32, at: SimTime, arg: u64) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(
            kind.phase(),
            Phase::Instant,
            "{kind:?} is not an instant kind"
        );
        self.push(TimelineEvent {
            kind,
            track,
            at,
            dur: SimDuration::ZERO,
            arg,
        });
    }

    /// Records one point on a counter track (`arg` carries the value).
    pub fn sample(&mut self, kind: EventKind, track: u32, at: SimTime, value: u64) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(
            kind.phase(),
            Phase::CounterSample,
            "{kind:?} is not a counter kind"
        );
        self.push(TimelineEvent {
            kind,
            track,
            at,
            dur: SimDuration::ZERO,
            arg: value,
        });
    }

    /// Retained events in chronological *emission* order (ring rotation
    /// already applied).
    pub fn events(&self) -> impl Iterator<Item = &TimelineEvent> {
        let (tail, front) = self.events.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    /// The raw recorder state: `(enabled, capacity, events, head, dropped)`.
    ///
    /// `events` is the backing storage in *ring* order (not rotated);
    /// together with `head` this captures the recorder exactly, so a
    /// rebuild via [`Timeline::from_raw_parts`] is `Debug`-identical to
    /// the original. Ordinary consumers want [`Timeline::events`].
    #[must_use]
    pub fn raw_parts(&self) -> (bool, usize, &[TimelineEvent], usize, u64) {
        (
            self.enabled,
            self.capacity,
            &self.events,
            self.head,
            self.dropped,
        )
    }

    /// Rebuilds a recorder from [`Timeline::raw_parts`] output.
    ///
    /// The parts are trusted as-is; this is a persistence hook, not a
    /// public constructor for new recordings.
    #[must_use]
    pub fn from_raw_parts(
        enabled: bool,
        capacity: usize,
        events: Vec<TimelineEvent>,
        head: usize,
        dropped: u64,
    ) -> Self {
        Timeline {
            enabled,
            capacity,
            events,
            head,
            dropped,
        }
    }

    /// Merges per-subsystem recorders into one timeline.
    ///
    /// Events are ordered by `(start time, recorder rank, emission order)`
    /// — rank is the position in `parts` — which is deterministic for a
    /// deterministic simulation. The merged recorder is enabled iff any
    /// part was, holds every retained event, and accumulates the parts'
    /// dropped counts.
    #[must_use]
    pub fn merge(parts: Vec<Timeline>) -> Timeline {
        let enabled = parts.iter().any(Timeline::is_enabled);
        let dropped = parts.iter().map(Timeline::dropped).sum();
        // Concatenating the parts in rank order lays events out in
        // (rank, emission) order, so a stable sort by time alone breaks
        // every time tie by rank, then by emission.
        let mut events: Vec<TimelineEvent> =
            Vec::with_capacity(parts.iter().map(Timeline::len).sum());
        for part in &parts {
            events.extend(part.events());
        }
        events.sort_by_key(|e| e.at);
        Timeline {
            enabled,
            capacity: events.len().max(1),
            events,
            head: 0,
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tl = Timeline::disabled();
        tl.span(EventKind::GcMinor, 0, t(0), t(5), 1);
        tl.instant(EventKind::ChaosGcStall, 0, t(1), 2);
        tl.sample(EventKind::HeapUsed, 0, t(2), 3);
        assert!(tl.is_empty());
        assert!(!tl.is_enabled());
        assert_eq!(tl.dropped(), 0);
    }

    #[test]
    fn zero_length_spans_are_suppressed() {
        let mut tl = Timeline::with_capacity(8);
        tl.span(EventKind::ThreadRunning, 0, t(5), t(5), 0);
        assert!(tl.is_empty());
        tl.span(EventKind::ThreadRunning, 0, t(5), t(6), 0);
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn ring_keeps_the_latest_events_in_order() {
        let mut tl = Timeline::with_capacity(3);
        for i in 0..5u64 {
            tl.instant(EventKind::ChaosGcStall, 0, t(i), i);
        }
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.dropped(), 2);
        let args: Vec<u64> = tl.events().map(|e| e.arg).collect();
        assert_eq!(args, vec![2, 3, 4]);
    }

    #[test]
    fn merge_orders_by_time_then_rank_then_emission() {
        let mut a = Timeline::with_capacity(8);
        a.instant(EventKind::ChaosDropWakeup, 0, t(10), 1);
        a.instant(EventKind::ChaosDropWakeup, 0, t(10), 2);
        let mut b = Timeline::with_capacity(8);
        b.instant(EventKind::ChaosGcStall, 0, t(5), 3);
        b.instant(EventKind::ChaosGcStall, 0, t(10), 4);
        let merged = Timeline::merge(vec![a, b]);
        let args: Vec<u64> = merged.events().map(|e| e.arg).collect();
        // t=5 first; at t=10 rank 0 (a) precedes rank 1 (b), and within a
        // the emission order 1, 2 is preserved.
        assert_eq!(args, vec![3, 1, 2, 4]);
        assert!(merged.is_enabled());
    }

    #[test]
    fn raw_parts_round_trip_is_debug_identical() {
        let mut tl = Timeline::with_capacity(3);
        for i in 0..5u64 {
            tl.instant(EventKind::ChaosGcStall, 0, t(i), i);
        }
        // The ring has wrapped, so head != 0 and storage order differs
        // from emission order — the round trip must preserve both.
        let (enabled, capacity, events, head, dropped) = tl.raw_parts();
        assert_ne!(head, 0);
        let back = Timeline::from_raw_parts(enabled, capacity, events.to_vec(), head, dropped);
        assert_eq!(tl, back);
        assert_eq!(format!("{tl:?}"), format!("{back:?}"));
        let args: Vec<u64> = back.events().map(|e| e.arg).collect();
        assert_eq!(args, vec![2, 3, 4]);
    }

    #[test]
    fn merge_of_disabled_parts_is_disabled_and_empty() {
        let merged = Timeline::merge(vec![Timeline::disabled(), Timeline::disabled()]);
        assert!(!merged.is_enabled());
        assert!(merged.is_empty());
    }

    #[test]
    fn merge_sums_dropped_counts() {
        let mut a = Timeline::with_capacity(1);
        a.instant(EventKind::ChaosGcStall, 0, t(1), 0);
        a.instant(EventKind::ChaosGcStall, 0, t(2), 0);
        let merged = Timeline::merge(vec![a, Timeline::disabled()]);
        assert_eq!(merged.dropped(), 1);
        assert_eq!(merged.len(), 1);
    }
}
