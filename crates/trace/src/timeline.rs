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
//! [`Timeline::from_packed_parts`] — packs its events into one immutable,
//! shared buffer of delta-coded varints (about 7 bytes per event instead
//! of 32; see `packed.rs`), so every clone of it (a report handed out by
//! the sweep memo, a resumed report) shares that buffer. A snapshot
//! writes that buffer as it is and a resume adopts it back, so a
//! timeline is packed once, when it closes. Recording into a
//! closed timeline first unpacks a private copy, so a clone never sees
//! another's events. The storage is invisible from outside: events come
//! out by value in either form, and `Debug`, `Hash` and equality read
//! them as the plain slice a `Vec` would show.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::{Chain, Copied};
use std::slice;

use crate::event::{EventKind, Phase, TimelineEvent};
use crate::packed::{Encoder, Packed, PackedError, Reader};
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

/// The event storage in ring order: owned while recording, packed and
/// shared once closed.
#[derive(Clone)]
enum Events {
    /// A recorder's own ring, written in place.
    Ring(Vec<TimelineEvent>),
    /// A closed timeline's buffer, shared by all its clones.
    Closed(Packed),
}

impl Events {
    /// Packs `events`, in order. Without any, the store stays an empty
    /// ring: sharing nothing is not worth an allocation.
    fn closed(events: impl IntoIterator<Item = TimelineEvent>) -> Self {
        let mut enc = Encoder::default();
        for e in events {
            enc.push(e);
        }
        enc.finish()
            .map_or(Events::Ring(Vec::new()), Events::Closed)
    }

    fn len(&self) -> usize {
        match self {
            Events::Ring(ring) => ring.len(),
            Events::Closed(packed) => packed.len(),
        }
    }

    /// The events in ring order.
    fn iter(&self) -> Iter<'_> {
        self.rotated(0)
    }

    /// The events in emission order: `ring[head..]`, then `ring[..head]`.
    fn rotated(&self, head: usize) -> Iter<'_> {
        match self {
            Events::Ring(ring) => {
                let (tail, front) = ring.split_at(head);
                Iter::Ring(front.iter().chain(tail).copied())
            }
            Events::Closed(packed) => Iter::Packed(packed.rotated(head)),
        }
    }

    /// The ring to record into; a closed buffer is unpacked first.
    fn ring(&mut self) -> &mut Vec<TimelineEvent> {
        if let Events::Closed(packed) = self {
            *self = Events::Ring(packed.iter().collect());
        }
        match self {
            Events::Ring(ring) => ring,
            Events::Closed(_) => unreachable!("a closed buffer was just unpacked"),
        }
    }
}

impl fmt::Debug for Events {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Events {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // One encoding per sequence: equal bytes are equal events.
            (Events::Closed(a), Events::Closed(b)) => a.ptr_eq(b) || a.bytes() == b.bytes(),
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Events {}

impl Hash for Events {
    /// As `[TimelineEvent]` hashes: the length, then each event.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        self.iter().for_each(|e| e.hash(state));
    }
}

/// Stored events by value, from either form.
enum Iter<'a> {
    Ring(Copied<Chain<slice::Iter<'a, TimelineEvent>, slice::Iter<'a, TimelineEvent>>>),
    Packed(Reader<'a>),
}

impl Iterator for Iter<'_> {
    type Item = TimelineEvent;

    fn next(&mut self) -> Option<TimelineEvent> {
        match self {
            Iter::Ring(events) => events.next(),
            Iter::Packed(events) => events.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Iter::Ring(events) => events.size_hint(),
            Iter::Packed(events) => events.size_hint(),
        }
    }

    /// Dispatches once, so `for_each` and friends run the form's own loop.
    fn fold<B, F: FnMut(B, TimelineEvent) -> B>(self, init: B, f: F) -> B {
        match self {
            Iter::Ring(events) => events.fold(init, f),
            Iter::Packed(events) => events.fold(init, f),
        }
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
        self.events.len()
    }

    /// True when nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.len() == 0
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
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
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
    /// already applied), by value.
    pub fn events(&self) -> impl Iterator<Item = TimelineEvent> + '_ {
        self.events.rotated(self.head)
    }

    /// The recorder as a snapshot stores it:
    /// `(enabled, capacity, head, dropped, packed)`.
    ///
    /// `packed` holds the events in *ring* order (not rotated) in the
    /// closed form's encoding (see `packed.rs`), and is empty when there
    /// are none. A closed timeline lends its own buffer; a recorder's
    /// ring is packed on the fly. Together with `head` this captures the
    /// recorder exactly, so a rebuild via [`Timeline::from_packed_parts`]
    /// is `Debug`-identical to the original. Ordinary consumers want
    /// [`Timeline::events`].
    pub fn packed_parts(&self) -> (bool, usize, usize, u64, Cow<'_, [u8]>) {
        let packed = match &self.events {
            Events::Closed(packed) => Cow::Borrowed(packed.bytes()),
            Events::Ring(ring) => {
                let mut enc = Encoder::default();
                ring.iter().for_each(|&e| enc.push(e));
                Cow::Owned(enc.into_bytes())
            }
        };
        (self.enabled, self.capacity, self.head, self.dropped, packed)
    }

    /// Rebuilds a timeline from [`Timeline::packed_parts`] output; the
    /// result is closed and adopts `packed` as its buffer, uncopied.
    ///
    /// This is a persistence hook, not a constructor for new
    /// recordings, and it trusts its input no further than reading
    /// needs: `packed` must be exactly what the encoder writes and
    /// `head` at most the event count, so no input can make reading the
    /// result panic. `capacity` is kept as given.
    ///
    /// # Errors
    ///
    /// The [`PackedError`] naming the first defect.
    pub fn from_packed_parts(
        enabled: bool,
        capacity: usize,
        head: usize,
        dropped: u64,
        packed: Vec<u8>,
    ) -> Result<Self, PackedError> {
        let events = if packed.is_empty() {
            Events::Ring(Vec::new())
        } else {
            Events::Closed(Packed::from_bytes(packed)?)
        };
        if head > events.len() {
            return Err(PackedError::HeadPastEvents);
        }
        Ok(Timeline {
            enabled,
            capacity,
            events,
            head,
            dropped,
        })
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
        for part in parts {
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

    fn share_a_buffer(a: &Timeline, b: &Timeline) -> bool {
        matches!((&a.events, &b.events), (Events::Closed(x), Events::Closed(y)) if x.ptr_eq(y))
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
    fn packed_parts_round_trip_is_debug_identical() {
        let mut tl = Timeline::with_capacity(3);
        for i in 0..5u64 {
            tl.instant(EventKind::ChaosGcStall, 0, t(i), i);
        }
        // The ring has wrapped, so head != 0 and storage order differs
        // from emission order — the round trip must preserve both.
        let (enabled, capacity, head, dropped, packed) = tl.packed_parts();
        assert_ne!(head, 0);
        let back =
            Timeline::from_packed_parts(enabled, capacity, head, dropped, packed.to_vec()).unwrap();
        assert_eq!(tl, back);
        assert_eq!(format!("{tl:?}"), format!("{back:?}"));
        let args: Vec<u64> = back.events().map(|e| e.arg).collect();
        assert_eq!(args, vec![2, 3, 4]);
        // The closed copy lends its own buffer: the same bytes, unpacked
        // by no one.
        let (.., lent) = back.packed_parts();
        assert!(matches!(lent, Cow::Borrowed(_)));
        assert_eq!(lent, packed);
        // No events, no bytes; and a head past the events is refused.
        assert!(Timeline::with_capacity(3).packed_parts().4.is_empty());
        assert_eq!(
            Timeline::from_packed_parts(true, 3, 4, 0, packed.to_vec()),
            Err(PackedError::HeadPastEvents)
        );
    }

    #[test]
    fn clones_of_a_merged_timeline_share_one_buffer() {
        let mut part = Timeline::with_capacity(8);
        part.instant(EventKind::ChaosGcStall, 0, t(1), 7);
        let merged = Timeline::merge(vec![part]);
        let clone = merged.clone();
        assert!(share_a_buffer(&merged, &clone));
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
        let vec: Vec<TimelineEvent> = alone.events().collect();
        let (enabled, capacity, head, dropped, packed) = alone.packed_parts();
        let shared =
            Timeline::from_packed_parts(enabled, capacity, head, dropped, packed.into_owned())
                .unwrap();
        let other = shared.clone();
        assert!(share_a_buffer(&shared, &other));
        assert_eq!(format!("{other:?}"), format!("{alone:?}"));
        assert_eq!(format!("{other:#?}"), format!("{alone:#?}"));
        assert_eq!(hash(&other), hash(&alone));
        // The storage really is the plain `Vec` rendering and hash.
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
