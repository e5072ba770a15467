//! The ring-buffered span/instant recorder.
//!
//! Each subsystem (scheduler, lock table, collector, runtime) owns one
//! [`Timeline`]; recording is a bounds-checked array write, and a disabled
//! recorder reduces every call to a single branch. At the end of a run the
//! runtime merges the per-subsystem recorders into one timeline ordered by
//! `(simulated time, subsystem rank, emission order)` — a pure function of
//! the recorded events, so equal runs merge to byte-identical traces.
//!
//! A recorder writes into a `Vec` it owns outright: no atomic operation
//! per event, and no allocation at all while tracing is off. A *closed*
//! timeline — the output of [`Timeline::merge`] or
//! [`Timeline::from_raw_parts`] — moves its events into one immutable
//! `Arc`'d buffer without copying them, so every clone of it (a report
//! handed out by the sweep memo, a resumed report) shares that buffer.
//! Recording into a closed timeline first takes a private copy, so a
//! clone never sees another's events. The storage is invisible from
//! outside: `Debug`, `Hash` and equality read the events as the plain
//! slice a `Vec` would show.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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
    events: Events,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

/// The event storage in ring order: owned while recording, shared once
/// closed.
#[derive(Clone)]
enum Events {
    /// A recorder's own ring, written in place.
    Ring(Vec<TimelineEvent>),
    /// A closed timeline's buffer, shared by all its clones.
    Closed(Arc<Vec<TimelineEvent>>),
}

impl Events {
    /// Closes `events` without copying them. An empty buffer stays a
    /// ring: sharing nothing is not worth an allocation.
    fn closed(events: Vec<TimelineEvent>) -> Self {
        if events.is_empty() {
            Events::Ring(events)
        } else {
            Events::Closed(Arc::new(events))
        }
    }

    fn as_slice(&self) -> &[TimelineEvent] {
        match self {
            Events::Ring(ring) => ring,
            Events::Closed(shared) => shared,
        }
    }

    /// The ring to record into; a closed buffer is copied out first.
    fn ring(&mut self) -> &mut Vec<TimelineEvent> {
        if let Events::Closed(shared) = self {
            *self = Events::Ring(shared.to_vec());
        }
        match self {
            Events::Ring(ring) => ring,
            Events::Closed(_) => unreachable!("a closed buffer was just reopened"),
        }
    }
}

impl fmt::Debug for Events {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for Events {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Events {}

impl Hash for Events {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
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
            events: Events::Ring(Vec::new()),
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
            events: Events::Ring(Vec::new()),
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
        self.events.as_slice().len()
    }

    /// True when nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.as_slice().is_empty()
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
        let ring = self.events.ring();
        if ring.len() < self.capacity {
            ring.push(ev);
        } else {
            ring[self.head] = ev;
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
        let (tail, front) = self.events.as_slice().split_at(self.head);
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
            self.events.as_slice(),
            self.head,
            self.dropped,
        )
    }

    /// Rebuilds a recorder from [`Timeline::raw_parts`] output.
    ///
    /// The parts are trusted as-is; this is a persistence hook, not a
    /// public constructor for new recordings. The result is closed:
    /// `events` becomes its shared buffer without being copied.
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
            events: Events::closed(events),
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
    /// dropped counts. It is closed: clones share its event buffer.
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
            events: Events::closed(events),
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
    fn clones_of_a_merged_timeline_share_one_buffer() {
        let mut part = Timeline::with_capacity(8);
        part.instant(EventKind::ChaosGcStall, 0, t(1), 7);
        let merged = Timeline::merge(vec![part]);
        let clone = merged.clone();
        assert_eq!(merged.raw_parts().2.as_ptr(), clone.raw_parts().2.as_ptr());
        assert_eq!(merged, clone);
    }

    #[test]
    fn a_cloned_recorder_diverges_on_push() {
        let mut tl = Timeline::with_capacity(8);
        tl.instant(EventKind::ChaosGcStall, 0, t(1), 1);
        let mut copy = tl.clone();
        copy.instant(EventKind::ChaosGcStall, 0, t(2), 2);
        assert_eq!(tl.len(), 1);
        assert_eq!(copy.len(), 2);
        // A closed timeline that records again takes a private copy too
        // (its capacity is its length, so the new event evicts the old).
        let closed = Timeline::merge(vec![tl]);
        let mut reopened = closed.clone();
        reopened.instant(EventKind::ChaosGcStall, 0, t(3), 3);
        let args = |tl: &Timeline| tl.events().map(|e| e.arg).collect::<Vec<_>>();
        assert_eq!((args(&closed), closed.dropped()), (vec![1], 0));
        assert_eq!((args(&reopened), reopened.dropped()), (vec![3], 1));
    }

    #[test]
    fn a_shared_timeline_debugs_and_hashes_like_its_events_held_alone() {
        use std::hash::{DefaultHasher, Hash, Hasher};

        fn hash(tl: &Timeline) -> u64 {
            let mut h = DefaultHasher::new();
            tl.hash(&mut h);
            h.finish()
        }
        let mut alone = Timeline::with_capacity(4);
        alone.instant(EventKind::ChaosGcStall, 0, t(1), 1);
        alone.span(EventKind::GcMinor, 0, t(2), t(5), 2);
        let (enabled, capacity, events, head, dropped) = alone.raw_parts();
        let shared = Timeline::from_raw_parts(enabled, capacity, events.to_vec(), head, dropped);
        let other = shared.clone();
        assert_eq!(shared.raw_parts().2.as_ptr(), other.raw_parts().2.as_ptr());
        assert_eq!(format!("{other:?}"), format!("{alone:?}"));
        assert_eq!(format!("{other:#?}"), format!("{alone:#?}"));
        assert_eq!(hash(&other), hash(&alone));
        // The storage really is the plain `Vec` rendering and hash.
        let vec = events.to_vec();
        assert!(format!("{alone:?}").contains(&format!("events: {vec:?}")));
        let mut h = DefaultHasher::new();
        (enabled, capacity, &vec, head, dropped).hash(&mut h);
        assert_eq!(hash(&alone), h.finish());
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
