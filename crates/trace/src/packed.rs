//! The compact, immutable form of a closed timeline.
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
//! their event sequences are.

use std::sync::Arc;

use crate::event::{EventKind, TimelineEvent};
use scalesim_simkit::{SimDuration, SimTime};

/// A packed, shared, non-empty event sequence.
#[derive(Clone)]
pub(crate) struct Packed(Arc<[u8]>);

impl Packed {
    /// Number of events in the buffer.
    pub(crate) fn len(&self) -> usize {
        Reader::new(&self.0).remaining
    }

    /// The events in stored order.
    pub(crate) fn iter(&self) -> Reader<'_> {
        Reader::new(&self.0)
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

    /// The encoded bytes, for equality of two packed sequences.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.0
    }
}

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
        if self.len == 0 {
            return None;
        }
        let mut buf = Vec::with_capacity(MAX_VARINT + self.body.len());
        put_varint(&mut buf, self.len as u64);
        buf.extend_from_slice(&self.body);
        Some(Packed(Arc::from(buf)))
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
}
