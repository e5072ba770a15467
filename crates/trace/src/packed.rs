//! The compact, immutable form of a closed timeline, in memory and on
//! disk.
//!
//! A closed timeline never changes again, and it is held for as long as
//! its report is (the sweep memo, a resumed grid), so it is stored
//! packed instead of as 32-byte [`TimelineEvent`]s. The buffer is the
//! event count as a LEB128 varint, then per event:
//!
//! * a header byte, `kind × 6 + at_mode × 2 + (arg == 0)`, where `kind`
//!   is the kind's index in [`EventKind::ALL`] (138 codes in all);
//! * the track, a LEB128 varint;
//! * `at`, coded by `at_mode`:
//!   - mode 1, no bytes: `at` equals the previous event's `at` (0
//!     before the first);
//!   - mode 2, no bytes: `at` equals where the previous event on the
//!     same `(process, track)` ended (`at + dur`, wrapping; 0 before
//!     the first). Ends are kept only for the thread and monitor
//!     processes, on tracks below [`TRACKS`]: thread-state spans tile
//!     their track, and a handed-off monitor hold starts where the last
//!     one ended;
//!   - mode 0: `at` minus the previous event's `at`, wrapping,
//!     zigzag-coded and then a varint — merged timelines are
//!     time-sorted, so the delta is small and non-negative, while
//!     ring-order or unsorted input still round-trips exactly;
//! * `dur`, a LEB128 varint;
//! * `arg`, a LEB128 varint, only when it is not zero.
//!
//! Every event has exactly one encoding, so two buffers are equal iff
//! their event sequences are: of the `at` modes that yield an event's
//! `at`, the encoder takes mode 1 before mode 2 before mode 0. The same
//! bytes are the timeline section of a run-report snapshot (schema v3),
//! which stores them as they are; [`Packed::from_bytes`] decodes such
//! bytes once and adopts them only if they are exactly what the encoder
//! could have written: shortest varints, known kinds, tracks that fit a
//! `u32`, the `at` mode and `arg` flag the encoder would have chosen, a
//! count of at least one, and no byte missing or left over. An empty
//! timeline has no buffer (and no bytes) at all.

use std::fmt;
use std::sync::Arc;

use crate::event::{EventKind, Process, TimelineEvent};
use scalesim_simkit::{SimDuration, SimTime};

/// A packed, shared, non-empty event sequence. The buffer is the `Vec`
/// it was encoded or decoded into, shared as it is: wrapping it copies
/// no bytes.
#[derive(Clone)]
pub(crate) struct Packed(Arc<Vec<u8>>);

impl Packed {
    /// Packs `events`, or `None` when there are none.
    pub(crate) fn new(events: impl ExactSizeIterator<Item = TimelineEvent>) -> Option<Packed> {
        let bytes = pack(events);
        (!bytes.is_empty()).then(|| Packed(Arc::new(bytes)))
    }

    /// Number of events in the buffer.
    pub(crate) fn len(&self) -> usize {
        // The count was written from a `usize`.
        varint(self.bytes(), &mut 0) as usize
    }

    /// The events in stored order.
    pub(crate) fn iter(&self) -> Reader<'_> {
        Reader::new(self.bytes())
    }

    /// The events from index `head` to the end, then from the start up
    /// to `head`: a ring's emission order.
    pub(crate) fn rotated(&self, head: usize) -> Reader<'_> {
        let mut events = self.iter();
        let len = events.remaining;
        events.remaining = head;
        events.by_ref().for_each(drop);
        (events.remaining, events.wrapped) = (len - head, head);
        events
    }

    /// Whether both buffers are one allocation.
    pub(crate) fn ptr_eq(&self, other: &Packed) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The encoded bytes: for equality of two packed sequences, and
    /// what a snapshot stores.
    pub(crate) fn bytes(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// Adopts encoded bytes after checking they are exactly [`pack`]'s
    /// output, so decoding them can neither panic nor give two byte
    /// strings the same events.
    ///
    /// # Errors
    ///
    /// The first [`PackedError`] a front-to-back decoding walk meets.
    pub(crate) fn from_bytes(bytes: Vec<u8>) -> Result<Packed, PackedError> {
        let mut pos = 0;
        let count = checked_varint(&bytes, &mut pos)?;
        if count == 0 {
            return Err(PackedError::ZeroCount);
        }
        let mut context = Context::START;
        // Each event takes at least three bytes, so a forged count runs
        // out of bytes long before it runs out of iterations.
        for _ in 0..count {
            let header = *bytes.get(pos).ok_or(PackedError::Truncated)?;
            let kind = *KINDS
                .get(usize::from(header / CODES_PER_KIND))
                .ok_or(PackedError::UnknownKind(header))?;
            pos += 1;
            let track = u32::try_from(checked_varint(&bytes, &mut pos)?)
                .map_err(|_| PackedError::TrackOverflow)?;
            let slot = slot(kind, track);
            let mode = at_mode(header);
            let at = match mode {
                AT_DELTA => context
                    .prev_at
                    .wrapping_add(unzigzag(checked_varint(&bytes, &mut pos)?)),
                AT_PREV => context.prev_at,
                _ => context.ends[slot.ok_or(PackedError::NotCanonical)?],
            };
            if context.mode(slot, at) != mode {
                return Err(PackedError::NotCanonical);
            }
            let dur = checked_varint(&bytes, &mut pos)?;
            if header & ZERO_ARG == 0 && checked_varint(&bytes, &mut pos)? == 0 {
                return Err(PackedError::NotCanonical);
            }
            context.step(slot, at, dur);
        }
        if pos != bytes.len() {
            return Err(PackedError::TrailingBytes);
        }
        Ok(Packed(Arc::new(bytes)))
    }
}

/// Why bytes are not a packed timeline (or, for
/// [`HeadPastEvents`](PackedError::HeadPastEvents), not a ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedError {
    /// The bytes end inside the count or an event.
    Truncated,
    /// A varint that is not the shortest encoding of a `u64`: a final
    /// zero group, or more than 64 bits.
    BadVarint,
    /// A header byte whose kind is past [`EventKind::ALL`].
    UnknownKind(u8),
    /// A track above `u32::MAX`.
    TrackOverflow,
    /// An event coded otherwise than the encoder codes it: an explicit
    /// zero `arg`, an `at` delta that a header flag should have carried,
    /// a track-end `at` that the previous `at` should have carried, or a
    /// track-end `at` on a track without a kept end.
    NotCanonical,
    /// A count of zero: a timeline without events has no bytes at all.
    ZeroCount,
    /// Bytes after the last event.
    TrailingBytes,
    /// A ring head past the last event.
    HeadPastEvents,
}

impl fmt::Display for PackedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedError::Truncated => f.write_str("packed events end early"),
            PackedError::BadVarint => f.write_str("a varint is not in its shortest form"),
            PackedError::UnknownKind(header) => {
                write!(f, "unknown timeline kind in header byte {header}")
            }
            PackedError::TrackOverflow => f.write_str("timeline track exceeds u32"),
            PackedError::NotCanonical => {
                f.write_str("a packed event is not coded the way the encoder codes it")
            }
            PackedError::ZeroCount => f.write_str("a packed count of zero events"),
            PackedError::TrailingBytes => f.write_str("bytes after the last packed event"),
            PackedError::HeadPastEvents => f.write_str("timeline head is past its events"),
        }
    }
}

impl std::error::Error for PackedError {}

/// Packs `events` in order: the count, then each event, written
/// straight into the buffer that is returned. Empty when there are no
/// events.
///
/// # Panics
///
/// If `events` yields another number of events than its `len` said.
pub(crate) fn pack(events: impl ExactSizeIterator<Item = TimelineEvent>) -> Vec<u8> {
    let count = events.len();
    if count == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(MAX_VARINT + count * TYPICAL_EVENT);
    put_varint(&mut out, count as u64);
    let mut context = Context::START;
    let mut written = 0;
    for e in events {
        let (at, dur) = (e.at.as_nanos(), e.dur.as_nanos());
        let slot = slot(e.kind, e.track);
        let mode = context.mode(slot, at);
        // One capacity check per event instead of one per byte.
        out.reserve(MAX_EVENT);
        out.push(e.kind as u8 * CODES_PER_KIND + mode * 2 + u8::from(e.arg == 0) * ZERO_ARG);
        put_varint(&mut out, u64::from(e.track));
        if mode == AT_DELTA {
            put_varint(&mut out, zigzag(at.wrapping_sub(context.prev_at)));
        }
        put_varint(&mut out, dur);
        if e.arg != 0 {
            put_varint(&mut out, e.arg);
        }
        context.step(slot, at, dur);
        written += 1;
    }
    assert_eq!(written, count, "an exact-size iterator miscounted");
    // The buffer lives as long as its report: give back the estimate's
    // slack.
    out.shrink_to_fit();
    out
}

/// Decodes a packed buffer front to back, then, for a rotated ring,
/// from the first event again.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Boxed, so moving the reader stays cheap.
    context: Box<Context>,
    remaining: usize,
    /// Events to read from the first one once `remaining` runs out.
    wrapped: usize,
    /// The offset of the first event.
    first: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let mut pos = 0;
        // The count was written from a `usize`.
        let remaining = varint(bytes, &mut pos) as usize;
        Reader {
            bytes,
            pos,
            context: Box::new(Context::START),
            remaining,
            wrapped: 0,
            first: pos,
        }
    }
}

impl Iterator for Reader<'_> {
    type Item = TimelineEvent;

    fn next(&mut self) -> Option<TimelineEvent> {
        if self.remaining == 0 {
            if self.wrapped == 0 {
                return None;
            }
            (self.remaining, self.wrapped) = (self.wrapped, 0);
            (self.pos, *self.context) = (self.first, Context::START);
        }
        self.remaining -= 1;
        // The cursor stays in a local: a reader held inside an adapter
        // lives in memory, and stepping `self.pos` per byte would
        // chain every load through a store.
        let (bytes, mut pos) = (self.bytes, self.pos);
        let header = bytes[pos];
        let kind = KINDS[usize::from(header / CODES_PER_KIND)];
        pos += 1;
        // Tracks were written from a `u32`.
        let track = varint(bytes, &mut pos) as u32;
        let slot = slot(kind, track);
        let at = match at_mode(header) {
            AT_DELTA => self
                .context
                .prev_at
                .wrapping_add(unzigzag(varint(bytes, &mut pos))),
            AT_PREV => self.context.prev_at,
            _ => self.context.ends[slot.expect("adopted bytes use track ends only where kept")],
        };
        let dur = varint(bytes, &mut pos);
        let arg = if header & ZERO_ARG == 0 {
            varint(bytes, &mut pos)
        } else {
            0
        };
        self.pos = pos;
        self.context.step(slot, at, dur);
        Some(TimelineEvent {
            kind,
            track,
            at: SimTime::from_nanos(at),
            dur: SimDuration::from_nanos(dur),
            arg,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining + self.wrapped;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Reader<'_> {}

/// What coding an event depends on: the events before it, as the
/// previous `at` and where each kept track last ended.
struct Context {
    prev_at: u64,
    ends: [u64; 2 * TRACKS],
}

impl Context {
    const START: Context = Context {
        prev_at: 0,
        ends: [0; 2 * TRACKS],
    };

    /// The `at` mode the encoder takes for an event at `at` whose track
    /// end is kept in `slot`: the first that yields `at`.
    fn mode(&self, slot: Option<usize>, at: u64) -> u8 {
        if at == self.prev_at {
            AT_PREV
        } else if slot.is_some_and(|s| self.ends[s] == at) {
            AT_END
        } else {
            AT_DELTA
        }
    }

    /// Moves past an event.
    fn step(&mut self, slot: Option<usize>, at: u64, dur: u64) {
        if let Some(s) = slot {
            self.ends[s] = at.wrapping_add(dur);
        }
        self.prev_at = at;
    }
}

/// The tracks per process whose end is kept for `at` mode 2: thread
/// indexes and monitor indexes below this.
const TRACKS: usize = 64;

/// Where the end of `kind`'s `track` is kept, if it is.
fn slot(kind: EventKind, track: u32) -> Option<usize> {
    let base = match kind.process() {
        Process::Threads => 0,
        Process::Monitors => TRACKS,
        Process::Gc | Process::Runtime | Process::Server => return None,
    };
    let track = track as usize;
    (track < TRACKS).then_some(base + track)
}

/// Header codes per kind: three `at` modes, each with and without `arg`.
const CODES_PER_KIND: u8 = 6;

// Every header code fits its one byte.
const _: () = assert!(EventKind::ALL.len() * CODES_PER_KIND as usize <= 256);

/// The header bit set when `arg` is zero and not written.
const ZERO_ARG: u8 = 1;

/// `at` modes: a zigzag delta from the previous `at`, the previous `at`
/// itself, or the end of the event's track.
const AT_DELTA: u8 = 0;
const AT_PREV: u8 = 1;
const AT_END: u8 = 2;

fn at_mode(header: u8) -> u8 {
    header % CODES_PER_KIND / 2
}

/// The kinds by index. A `static`, so decoding indexes it in place;
/// indexing the `const` [`EventKind::ALL`] at run time builds a copy of
/// the array per event.
static KINDS: [EventKind; EventKind::ALL.len()] = EventKind::ALL;

/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT: usize = 10;

/// The longest packed event: the header byte and four varints.
const MAX_EVENT: usize = 1 + 4 * MAX_VARINT;

/// A packed event's size in a typical merged timeline, rounded up: the
/// first estimate of a buffer's size.
const TYPICAL_EVENT: usize = 6;

/// Reads the varint at `*pos` and steps past it.
fn varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    let mut shift = 0;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
    }
}

/// [`varint`] for bytes from outside: the varint at `*pos`, which must
/// be the shortest encoding of its value, and within `bytes`.
fn checked_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, PackedError> {
    let mut value = 0u64;
    let mut shift = 0;
    loop {
        let byte = *bytes.get(*pos).ok_or(PackedError::Truncated)?;
        *pos += 1;
        // The tenth byte holds bit 63 alone, so it also ends the varint;
        // a zero final group after the first byte is a longer spelling
        // of a shorter varint.
        if (shift == 63 && byte > 1) || (shift > 0 && byte == 0) {
            return Err(PackedError::BadVarint);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Maps a wrapped difference to an unsigned code that is small for
/// small magnitudes of either sign.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(code: u64) -> u64 {
    (code >> 1) ^ (code & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_packs_as_its_index() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn varints_round_trip_at_every_length() {
        let mut values = vec![0, 1, u64::MAX, u64::MAX - 1];
        for bits in 1..64 {
            values.extend([(1u64 << bits) - 1, 1 << bits, (1 << bits) + 1]);
        }
        for &v in &values {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            // 7 bits a byte, the shortest encoding.
            assert_eq!(
                buf.len(),
                (64 - (v | 1).leading_zeros()).div_ceil(7) as usize
            );
            let mut pos = 0;
            assert_eq!((varint(&buf, &mut pos), pos), (v, buf.len()), "{v:#x}");
        }
    }

    fn event(kind: EventKind, track: u32, at: u64, dur: u64, arg: u64) -> TimelineEvent {
        TimelineEvent {
            kind,
            track,
            at: SimTime::from_nanos(at),
            dur: SimDuration::from_nanos(dur),
            arg,
        }
    }

    /// Packs `events` and checks they read back as they went in.
    fn round_trip(events: &[TimelineEvent]) -> Packed {
        let packed = Packed::new(events.iter().copied()).unwrap();
        assert_eq!(packed.len(), events.len());
        assert_eq!(packed.iter().collect::<Vec<_>>(), events);
        packed
    }

    #[test]
    fn a_sorted_event_takes_a_few_bytes() {
        // A monitor handed from owner to owner every 40 ns.
        let holds: Vec<TimelineEvent> = (0..100u64)
            .map(|i| event(EventKind::MonitorHold, 3, 1_000_000 + 40 * i, 40, 1 + i % 4))
            .collect();
        // The count, then header, track, dur and arg at 1 B each; the
        // first event also spends a 3 B `at` delta from 0, and every
        // later one starts where the last hold ended.
        assert_eq!(round_trip(&holds).bytes().len(), 1 + 7 + 99 * 4);
        // Overlapping spans on a process without track ends: header,
        // track, 1 B `at` delta and dur, then 1 B for each of the 50
        // nonzero `arg`s; a zero `arg` costs nothing.
        let gcs: Vec<TimelineEvent> = (0..100u64)
            .map(|i| event(EventKind::GcMinor, 3, 1_000_000 + 40 * i, 90, i % 2))
            .collect();
        assert_eq!(round_trip(&gcs).bytes().len(), 1 + 6 + 99 * 4 + 50);
    }

    #[test]
    fn a_tiling_thread_track_spends_no_at_bytes() {
        // Two threads, each running → blocked → running with no gap,
        // merged by time: every `at` is the previous event's or its
        // track's end.
        let spans = [
            event(EventKind::ThreadRunning, 0, 0, 10, 0),
            event(EventKind::ThreadRunning, 1, 0, 7, 0),
            event(EventKind::ThreadBlockedMonitor, 1, 7, 30, 0),
            event(EventKind::ThreadBlockedMonitor, 0, 10, 15, 0),
            event(EventKind::ThreadRunning, 0, 25, 20, 0),
            event(EventKind::ThreadRunning, 1, 37, 5, 0),
        ];
        let packed = round_trip(&spans);
        // The count, then header, track and dur at 1 B each.
        assert_eq!(packed.bytes().len(), 1 + spans.len() * 3);
        // The same spans on a track without a kept end pay for `at`.
        let far: Vec<TimelineEvent> = spans
            .iter()
            .map(|e| TimelineEvent {
                track: e.track + TRACKS as u32,
                ..*e
            })
            .collect();
        assert_eq!(round_trip(&far).bytes().len(), 1 + 6 * 3 + 4);
    }

    #[test]
    fn a_rotated_read_restarts_the_track_ends() {
        // A ring in storage order whose second event starts where its
        // track's end stands before any event: at 0.
        let ring = [
            event(EventKind::GcMinor, 0, 50, 1, 0),
            event(EventKind::ThreadRunning, 0, 0, 7, 0),
            event(EventKind::GcMinor, 0, 60, 1, 0),
        ];
        let packed = round_trip(&ring);
        assert_eq!(at_mode(packed.bytes()[5]), AT_END);
        // Read from head 2 and wrapped: the thread span's end (7) from
        // before the wrap does not carry over.
        let rotated: Vec<TimelineEvent> = packed.rotated(2).collect();
        assert_eq!(rotated, [ring[2], ring[0], ring[1]]);
    }

    #[test]
    fn empty_input_packs_to_nothing() {
        assert!(Packed::new(std::iter::empty()).is_none());
        assert!(pack(std::iter::empty()).is_empty());
    }

    /// Two events, the second with every field at its extreme.
    fn sample() -> Vec<u8> {
        pack(
            [
                event(EventKind::GcMinor, 5, 100, 20, 3),
                event(
                    EventKind::ALL[EventKind::ALL.len() - 1],
                    u32::MAX,
                    u64::MAX,
                    u64::MAX,
                    u64::MAX,
                ),
            ]
            .into_iter(),
        )
    }

    fn adopt(bytes: &[u8]) -> Result<Vec<TimelineEvent>, PackedError> {
        Packed::from_bytes(bytes.to_vec()).map(|p| p.iter().collect())
    }

    #[test]
    fn encoder_output_is_adopted_as_is() {
        let bytes = sample();
        let packed = Packed::from_bytes(bytes.clone()).unwrap();
        assert_eq!(packed.bytes(), &bytes[..]);
        assert_eq!(packed.len(), 2);
        let back: Vec<TimelineEvent> = packed.iter().collect();
        assert_eq!((back[1].track, back[1].arg), (u32::MAX, u64::MAX));
    }

    #[test]
    fn malformed_bytes_are_rejected_by_reason() {
        use PackedError::*;
        let good = sample();
        // Count 2; event 1: header (GcMinor, `at` delta, an `arg`),
        // track 5, `at` delta 100 (zigzag 200, 2 B), dur 20, arg 3;
        // event 2 starts at byte 7.
        let gc_minor = EventKind::GcMinor as u8 * CODES_PER_KIND;
        assert_eq!(good[..7], [2, gc_minor, 5, 0xc8, 0x01, 20, 3]);
        let edited = |at: std::ops::Range<usize>, with: &[u8]| {
            let mut b = good.clone();
            b.splice(at, with.iter().copied());
            b
        };
        // A thread-state span at 0 on `track`, 10 ns long, no `arg`,
        // its `at` in `mode`; then, if `then`, one at 10 by a delta.
        let running = |mode: u8, track: u8, then: bool| {
            let header = EventKind::ThreadRunning as u8 * CODES_PER_KIND + ZERO_ARG;
            let mut b = vec![1 + u8::from(then), header + mode * 2, track, 10];
            if then {
                b.extend([header + AT_DELTA * 2, track, 20, 5]);
            }
            b
        };
        let header_codes = EventKind::ALL.len() as u8 * CODES_PER_KIND;
        let cases: Vec<(Vec<u8>, PackedError)> = vec![
            (vec![], Truncated),
            (vec![0], ZeroCount),
            (vec![0x80, 0x00], BadVarint),
            // The count 2 spelled in two bytes, then in eleven.
            (edited(0..1, &[0x82, 0x00]), BadVarint),
            (
                edited(
                    0..1,
                    &[
                        0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
                    ],
                ),
                BadVarint,
            ),
            // A tenth byte above 1 overflows 64 bits.
            (
                edited(
                    0..1,
                    &[0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02],
                ),
                BadVarint,
            ),
            (edited(1..2, &[header_codes]), UnknownKind(header_codes)),
            (edited(1..2, &[0xff]), UnknownKind(0xff)),
            // Track 2^32.
            (edited(2..3, &[0x80, 0x80, 0x80, 0x80, 0x10]), TrackOverflow),
            // An explicit zero `arg`.
            (edited(6..7, &[0]), NotCanonical),
            // A zero delta: the previous `at`, which mode 1 carries.
            (edited(3..5, &[0]), NotCanonical),
            // Mode 2 on the GC process, which keeps no track ends.
            (edited(1..5, &[gc_minor + AT_END * 2, 5]), NotCanonical),
            // Mode 2 where the track's end is also the previous `at`,
            // which mode 1 carries.
            (running(AT_END, 0, false), NotCanonical),
            // Mode 2 on a thread track past the table.
            (running(AT_END, TRACKS as u8, false), NotCanonical),
            // A delta to where the track ended, which mode 2 carries.
            (running(AT_PREV, 0, true), NotCanonical),
            (good[..good.len() - 1].to_vec(), Truncated),
            (good[..7].to_vec(), Truncated),
            ([&good[..], &[0]].concat(), TrailingBytes),
            // One event counted too many, one too few.
            (edited(0..1, &[3]), Truncated),
            (edited(0..1, &[1]), TrailingBytes),
        ];
        for (bytes, why) in cases {
            assert_eq!(adopt(&bytes), Err(why), "{bytes:02x?}");
        }
        // What the encoder writes for those spans instead.
        let spans = |track| {
            [
                event(EventKind::ThreadRunning, track, 0, 10, 0),
                event(EventKind::ThreadRunning, track, 10, 5, 0),
            ]
        };
        let far = running(AT_PREV, TRACKS as u8, true);
        assert_eq!(adopt(&far).unwrap(), spans(TRACKS as u32));
        assert_eq!(pack(spans(TRACKS as u32).into_iter()), far);
        let mut near = running(AT_PREV, 0, false);
        near[0] = 2;
        near.extend([near[1] - AT_PREV * 2 + AT_END * 2, 0, 5]);
        assert_eq!(adopt(&near).unwrap(), spans(0));
        assert_eq!(pack(spans(0).into_iter()), near);
        // The tenth byte may hold bit 63.
        let top = pack([event(EventKind::GcMinor, 0, 0, 0, 1 << 63)].into_iter());
        assert_eq!(adopt(&top).unwrap()[0].arg, 1 << 63);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_constructor() {
        // The sample's extremes, and spans that tile their tracks, so
        // edits land on every `at` mode.
        let goods = [
            sample(),
            pack(
                [
                    event(EventKind::ThreadRunning, 0, 0, 10, 0),
                    event(EventKind::ThreadRunning, 1, 0, 7, 1),
                    event(EventKind::MonitorHold, 1, 7, 30, 2),
                    event(EventKind::ThreadBlockedMonitor, 0, 10, 15, 0),
                    event(EventKind::MonitorHold, 1, 37, 5, 0),
                ]
                .into_iter(),
            ),
        ];
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = scalesim_simkit::splitmix64(state);
            state
        };
        let mut adopted = 0;
        for round in 0..20_000 {
            let bytes: Vec<u8> = if round % 2 == 0 {
                // Noise of any length up to 48 bytes.
                (0..next() % 48).map(|_| next() as u8).collect()
            } else {
                // A valid buffer with up to three bytes changed.
                let mut b = goods[round / 2 % 2].clone();
                for _ in 0..1 + next() % 3 {
                    let at = (next() % b.len() as u64) as usize;
                    b[at] = next() as u8;
                }
                b
            };
            if let Ok(packed) = Packed::from_bytes(bytes.clone()) {
                // Whatever is adopted decodes, and re-packs to itself.
                assert_eq!(pack(packed.iter()), bytes);
                adopted += 1;
            }
        }
        assert!(adopted > 100, "only {adopted} inputs were well-formed");
    }
}
