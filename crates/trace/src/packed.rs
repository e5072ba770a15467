//! The compact, immutable form of a closed timeline, in memory and on
//! disk.
//!
//! A closed timeline never changes again, and it is held for as long as
//! its report is (the sweep memo, a resumed grid), so it is stored
//! packed instead of as 32-byte [`TimelineEvent`]s. The buffer is the
//! event count as a LEB128 varint, then per event:
//!
//! * the kind, 1 byte (its index in [`EventKind::ALL`]);
//! * the track, a LEB128 varint;
//! * `at` minus the previous event's `at` (0 for the first), wrapping,
//!   zigzag-coded and then a varint — merged timelines are time-sorted,
//!   so the delta is small and non-negative, while ring-order or
//!   unsorted input still round-trips exactly;
//! * `dur` and `arg`, each a LEB128 varint.
//!
//! Every event has exactly one encoding, so two buffers are equal iff
//! their event sequences are. The same bytes are the timeline section of
//! a run-report snapshot (schema v2), which stores them as they are;
//! [`Packed::from_bytes`] adopts such bytes back only if they are exactly
//! what the encoder could have written: shortest varints, known kinds,
//! tracks that fit a `u32`, a count of at least one, and no byte missing
//! or left over. An empty timeline has no buffer (and no bytes) at all.

use std::fmt;
use std::sync::Arc;

use crate::event::{EventKind, TimelineEvent};
use scalesim_simkit::{SimDuration, SimTime};

/// A packed, shared, non-empty event sequence. The buffer is the `Vec`
/// it was encoded or decoded into, shared as it is: wrapping it copies
/// no bytes.
#[derive(Clone)]
pub(crate) struct Packed(Arc<Vec<u8>>);

impl Packed {
    /// Number of events in the buffer.
    pub(crate) fn len(&self) -> usize {
        Reader::new(self.bytes()).remaining
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

    /// Adopts encoded bytes after checking they are exactly an
    /// [`Encoder`]'s output, so decoding them can neither panic nor
    /// give two byte strings the same events.
    ///
    /// # Errors
    ///
    /// The first [`PackedError`] a front-to-back walk meets.
    pub(crate) fn from_bytes(bytes: Vec<u8>) -> Result<Packed, PackedError> {
        let mut pos = 0;
        let count = checked_varint(&bytes, &mut pos)?;
        if count == 0 {
            return Err(PackedError::ZeroCount);
        }
        // Each event takes at least five bytes, so a forged count runs
        // out of bytes long before it runs out of iterations.
        for _ in 0..count {
            let kind = *bytes.get(pos).ok_or(PackedError::Truncated)?;
            if usize::from(kind) >= KINDS.len() {
                return Err(PackedError::UnknownKind(kind));
            }
            pos += 1;
            if checked_varint(&bytes, &mut pos)? > u64::from(u32::MAX) {
                return Err(PackedError::TrackOverflow);
            }
            for _ in 0..3 {
                checked_varint(&bytes, &mut pos)?;
            }
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
    /// A kind byte past [`EventKind::ALL`].
    UnknownKind(u8),
    /// A track above `u32::MAX`.
    TrackOverflow,
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
            PackedError::UnknownKind(kind) => write!(f, "unknown timeline kind byte {kind}"),
            PackedError::TrackOverflow => f.write_str("timeline track exceeds u32"),
            PackedError::ZeroCount => f.write_str("a packed count of zero events"),
            PackedError::TrailingBytes => f.write_str("bytes after the last packed event"),
            PackedError::HeadPastEvents => f.write_str("timeline head is past its events"),
        }
    }
}

impl std::error::Error for PackedError {}

/// Packs events one at a time, in the order they should be stored.
#[derive(Default)]
pub(crate) struct Encoder {
    body: Vec<u8>,
    len: usize,
    prev_at: u64,
}

impl Encoder {
    pub(crate) fn push(&mut self, e: TimelineEvent) {
        let at = e.at.as_nanos();
        // One capacity check per event instead of one per byte.
        self.body.reserve(MAX_EVENT);
        self.body.push(e.kind as u8);
        put_varint(&mut self.body, u64::from(e.track));
        put_varint(&mut self.body, zigzag(at.wrapping_sub(self.prev_at)));
        put_varint(&mut self.body, e.dur.as_nanos());
        put_varint(&mut self.body, e.arg);
        self.prev_at = at;
        self.len += 1;
    }

    /// The packed buffer, or `None` when nothing was pushed.
    pub(crate) fn finish(self) -> Option<Packed> {
        let bytes = self.into_bytes();
        (!bytes.is_empty()).then(|| Packed(Arc::new(bytes)))
    }

    /// The packed bytes, empty when nothing was pushed.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        if self.len == 0 {
            return Vec::new();
        }
        let mut buf = Vec::with_capacity(MAX_VARINT + self.body.len());
        put_varint(&mut buf, self.len as u64);
        buf.extend_from_slice(&self.body);
        buf
    }
}

/// Decodes a packed buffer front to back, then, for a rotated ring,
/// from the first event again.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev_at: u64,
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
            prev_at: 0,
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
            (self.pos, self.prev_at) = (self.first, 0);
        }
        self.remaining -= 1;
        // The cursor stays in a local: a reader held inside an adapter
        // lives in memory, and stepping `self.pos` per byte would
        // chain every load through a store.
        let (bytes, mut pos) = (self.bytes, self.pos);
        let kind = KINDS[usize::from(bytes[pos])];
        pos += 1;
        // Tracks were written from a `u32`.
        let track = varint(bytes, &mut pos) as u32;
        let at = self.prev_at.wrapping_add(unzigzag(varint(bytes, &mut pos)));
        let dur = varint(bytes, &mut pos);
        let arg = varint(bytes, &mut pos);
        (self.pos, self.prev_at) = (pos, at);
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

/// The kinds by packed byte. A `static`, so decoding indexes it in
/// place; indexing the `const` [`EventKind::ALL`] at run time builds a
/// copy of the array per event.
static KINDS: [EventKind; EventKind::ALL.len()] = EventKind::ALL;

/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT: usize = 10;

/// The longest packed event: the kind byte and four varints.
const MAX_EVENT: usize = 1 + 4 * MAX_VARINT;

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

    #[test]
    fn a_sorted_event_takes_a_few_bytes() {
        let mut enc = Encoder::default();
        for i in 0..100u64 {
            enc.push(TimelineEvent {
                kind: EventKind::MonitorHold,
                track: 3,
                at: SimTime::from_nanos(1_000_000 + 40 * i),
                dur: SimDuration::from_nanos(90),
                arg: 7,
            });
        }
        let packed = enc.finish().unwrap();
        assert_eq!(packed.len(), 100);
        // The count, then kind, track, `at` delta, dur and arg at 1 B
        // each, except the first event's 3 B delta from 0.
        assert_eq!(packed.bytes().len(), 1 + 7 + 99 * 5);
        let at: Vec<u64> = packed.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(at[99], 1_000_000 + 40 * 99);
    }

    #[test]
    fn empty_input_packs_to_nothing() {
        assert!(Encoder::default().finish().is_none());
    }

    /// Two events, the second with every field at its extreme.
    fn sample() -> Vec<u8> {
        let mut enc = Encoder::default();
        enc.push(TimelineEvent {
            kind: EventKind::GcMinor,
            track: 5,
            at: SimTime::from_nanos(100),
            dur: SimDuration::from_nanos(20),
            arg: 3,
        });
        enc.push(TimelineEvent {
            kind: EventKind::ALL[EventKind::ALL.len() - 1],
            track: u32::MAX,
            at: SimTime::from_nanos(u64::MAX),
            dur: SimDuration::from_nanos(u64::MAX),
            arg: u64::MAX,
        });
        enc.into_bytes()
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
        // Count 2; event 1: kind, track 5, `at` delta 100 (zigzag 200,
        // 2 B), dur 20, arg 3; event 2 starts at byte 7.
        assert_eq!(good[..3], [2, EventKind::GcMinor as u8, 5]);
        let edited = |at: usize, with: &[u8]| {
            let mut b = good.clone();
            b.splice(at..at + 1, with.iter().copied());
            b
        };
        let cases: Vec<(Vec<u8>, PackedError)> = vec![
            (vec![], Truncated),
            (vec![0], ZeroCount),
            (vec![0x80, 0x00], BadVarint),
            // The count 2 spelled in two bytes, then in eleven.
            (edited(0, &[0x82, 0x00]), BadVarint),
            (
                edited(
                    0,
                    &[
                        0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
                    ],
                ),
                BadVarint,
            ),
            // A tenth byte above 1 overflows 64 bits.
            (
                edited(
                    0,
                    &[0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02],
                ),
                BadVarint,
            ),
            (
                edited(1, &[EventKind::ALL.len() as u8]),
                UnknownKind(EventKind::ALL.len() as u8),
            ),
            (edited(1, &[0xff]), UnknownKind(0xff)),
            // Track 2^32.
            (edited(2, &[0x80, 0x80, 0x80, 0x80, 0x10]), TrackOverflow),
            (good[..good.len() - 1].to_vec(), Truncated),
            (good[..7].to_vec(), Truncated),
            ([&good[..], &[0]].concat(), TrailingBytes),
            // One event counted too many, one too few.
            (edited(0, &[3]), Truncated),
            (edited(0, &[1]), TrailingBytes),
        ];
        for (bytes, why) in cases {
            assert_eq!(adopt(&bytes), Err(why), "{bytes:02x?}");
        }
        // The tenth byte may hold bit 63.
        let mut top = Encoder::default();
        top.push(TimelineEvent {
            kind: EventKind::GcMinor,
            track: 0,
            at: SimTime::ZERO,
            dur: SimDuration::ZERO,
            arg: 1 << 63,
        });
        assert_eq!(adopt(&top.into_bytes()).unwrap()[0].arg, 1 << 63);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_constructor() {
        let good = sample();
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
                let mut b = good.clone();
                for _ in 0..1 + next() % 3 {
                    let at = (next() % b.len() as u64) as usize;
                    b[at] = next() as u8;
                }
                b
            };
            if let Ok(packed) = Packed::from_bytes(bytes.clone()) {
                // Whatever is adopted decodes, and re-packs to itself.
                let mut enc = Encoder::default();
                packed.iter().for_each(|e| enc.push(e));
                assert_eq!(enc.into_bytes(), bytes);
                adopted += 1;
            }
        }
        assert!(adopted > 100, "only {adopted} inputs were well-formed");
    }
}
