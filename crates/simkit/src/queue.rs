//! The discrete-event queue at the heart of every simulation.
//!
//! [`EventQueue`] is a priority queue of `(time, payload)` pairs with three
//! properties the rest of `scalesim` relies on:
//!
//! 1. **Determinism** — events at equal times pop in the order they were
//!    scheduled (FIFO tie-break by sequence number).
//! 2. **Cancellation** — scheduling returns an [`EventId`] that can later be
//!    cancelled in O(1) (tombstoning), which is how pre-emption timers are
//!    retired when a thread blocks voluntarily first.
//! 3. **Time shifting** — [`EventQueue::shift_all`] moves every pending
//!    event later by a fixed amount, which is how stop-the-world GC pauses
//!    freeze the mutator world without re-scheduling each event by hand.
//!
//! # Hot-path design
//!
//! Every simulated metric is produced by popping millions of events, so
//! the schedule/cancel/pop path avoids hashing entirely:
//!
//! * **Generation-stamped slab.** An [`EventId`] is a `(slot, generation)`
//!   pair into a slab of `u32` generation stamps. An id is live exactly
//!   when its slot's stamp equals its generation; cancelling or delivering
//!   bumps the stamp, so liveness checks, cancellation, and the tombstone
//!   filter on pop are all single array reads — no `HashSet`, no hashing.
//!   Slots are recycled through a free list while generations keep retired
//!   ids from ever matching again.
//! * **Live head.** Tombstones are dropped lazily, but never left on top:
//!   `cancel` and `pop` discard dead entries from the head of the heap, so
//!   the head is always the heap's earliest live event and
//!   [`EventQueue::peek_time`] is one read of the front slot (below) or
//!   one `peek` — O(1) however many events (or tombstones) are pending.
//!   The server engine peeks before every pop to stop at its horizon, so
//!   a linear peek would cost it a scan of its whole pending set per
//!   event. Dropping a dead head at cancel time is the same heap pop the
//!   next `pop` would otherwise have done.
//! * **Front slot.** The earliest pending entry is often held outside
//!   the heap in a one-entry slot. `schedule_at` puts a new entry there
//!   when it sorts below everything pending (below the heap head, and
//!   below the slot's occupant, which then moves into the heap), so a
//!   thread's own next step — typically due before any other thread's —
//!   is delivered by `pop` without a heap push or pop. Invariant: an
//!   occupied slot sorts below the heap head. Cancelling the occupant
//!   just empties the slot. Ties stay FIFO because the slot compares
//!   full `(time, seq)` keys: a new entry's seq is larger than every
//!   pending one, so an entry due at the same instant as a pending one
//!   never sorts below it and queues behind it in the heap. The slot
//!   holds internal time like the heap, so `shift_all` leaves it alone.
//!   [`EventQueue::front_hits`] counts the pops it served.
//! * **Epoch-offset time shifting.** The heap orders entries by *internal*
//!   time (external time minus the accumulated shift at schedule time).
//!   [`EventQueue::shift_all`] just advances the queue-global offset and
//!   the clock — O(1) instead of rewriting every pending entry, which
//!   matters because stop-the-world GC pauses call it once per collection.
//!   Relative order (including FIFO ties) is untouched because internal
//!   times never change.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled.
///
/// An id is a `(slot, generation)` pair: slots are recycled, generations
/// are not, so ids never alias for the lifetime of the queue (until a
/// slot's 2³²-generation wrap, far beyond any real run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

#[derive(Debug)]
struct Entry<E> {
    /// Internal (epoch-relative) time: external time minus the offset
    /// accumulated at schedule time.
    time: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
    payload: E,
}

// Ordering is (time, seq); BinaryHeap is a max-heap so entries are wrapped
// in `Reverse` at the call sites.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic discrete-event queue with a built-in clock.
///
/// Popping an event advances the clock to that event's timestamp; the clock
/// never moves backwards.
///
/// # Examples
///
/// ```
/// use scalesim_simkit::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_after(SimDuration::from_nanos(20), "late");
/// q.schedule_after(SimDuration::from_nanos(10), "early");
///
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_nanos(10), "early"));
/// assert_eq!(q.now(), SimTime::from_nanos(10));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The earliest pending entry, when it was scheduled below everything
    /// else pending. Invariant: if occupied, it is live and sorts below
    /// the heap head.
    front: Option<Entry<E>>,
    /// Pending entries plus lazily-dropped tombstones. Invariant: the
    /// head, if any, is live (see [`Self::drop_dead_head`]).
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Generation stamp per slot. `stamps[s] == g` ⇔ event `(s, g)` is
    /// pending; any other relation means fired, cancelled, or not issued.
    stamps: Vec<u32>,
    /// Slots available for reuse.
    free: Vec<u32>,
    /// Live (non-cancelled) pending events.
    live: usize,
    /// External simulated time of the last popped event (plus shifts).
    now: SimTime,
    /// Total time shifted so far; external = internal + offset.
    offset: SimDuration,
    next_seq: u64,
    scheduled_total: u64,
    popped_total: u64,
    front_hits: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::new(),
            stamps: Vec::new(),
            free: Vec::new(),
            live: 0,
            now: SimTime::ZERO,
            offset: SimDuration::ZERO,
            next_seq: 0,
            scheduled_total: 0,
            popped_total: 0,
            front_hits: 0,
        }
    }

    /// The current simulated time (timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Returns an [`EventId`] usable with [`cancel`](Self::cancel).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock: scheduling into the past
    /// is always a logic error in the caller.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduled event at {at} is in the past (now = {now})",
            now = self.now
        );
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.stamps.len()).expect("more than 2^32 event slots");
                self.stamps.push(0);
                s
            }
        };
        let generation = self.stamps[slot as usize];
        let id = EventId { slot, generation };
        // `now >= offset` always (both advance together in shift_all and
        // `now` also advances on pops), so `at - offset` cannot underflow.
        let entry = Entry {
            time: at - self.offset,
            seq: self.next_seq,
            slot,
            generation,
            payload,
        };
        match &self.front {
            Some(front) if entry < *front => {
                let old = self.front.replace(entry).expect("occupied front slot");
                self.heap.push(Reverse(old));
            }
            None if self.heap.peek().is_none_or(|Reverse(head)| entry < *head) => {
                self.front = Some(entry);
            }
            _ => self.heap.push(Reverse(entry)),
        }
        self.live += 1;
        self.next_seq += 1;
        self.scheduled_total += 1;
        debug_assert!(self.front_sorts_first(), "front slot above the heap head");
        id
    }

    /// Schedules `payload` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + after, payload)
    }

    /// Schedules `payload` to fire at the current instant (after any events
    /// already pending at this instant, preserving FIFO order).
    pub fn schedule_now(&mut self, payload: E) -> EventId {
        self.schedule_at(self.now, payload)
    }

    /// Whether `id` is still pending — one array read.
    fn is_live(&self, slot: u32, generation: u32) -> bool {
        self.stamps[slot as usize] == generation
    }

    /// Retires a slot: stale ids stop matching, the slot becomes reusable.
    fn retire(&mut self, slot: u32) {
        self.stamps[slot as usize] = self.stamps[slot as usize].wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
    }

    /// The front-slot invariant: an occupant is live and sorts below the
    /// heap head.
    fn front_sorts_first(&self) -> bool {
        let Some(front) = &self.front else {
            return true;
        };
        self.is_live(front.slot, front.generation)
            && self.heap.peek().is_none_or(|Reverse(head)| front < head)
    }

    /// Restores the live-head invariant by discarding tombstones from the
    /// top of the heap. Each tombstone is discarded exactly once, so this
    /// is amortized O(log n) per cancellation.
    fn drop_dead_head(&mut self) {
        while let Some(Reverse(head)) = self.heap.peek() {
            if self.is_live(head.slot, head.generation) {
                return;
            }
            self.heap.pop();
        }
    }

    /// Cancels a pending event.
    ///
    /// Returns `true` if the event was still pending (it will now never be
    /// delivered), `false` if it had already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_live(id.slot, id.generation) {
            return false; // already fired, or already cancelled
        }
        self.retire(id.slot);
        if self.front.as_ref().is_some_and(|f| f.slot == id.slot) {
            // A live slot names one pending entry, so this is it.
            self.front = None;
        } else {
            // Tombstone; the heap entry is dropped once it reaches the
            // top, which may be right now.
            self.drop_dead_head();
        }
        debug_assert!(self.front_sorts_first(), "front slot above the heap head");
        true
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Returns `None` when no events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = if let Some(front) = self.front.take() {
            // The heap head is untouched, so it is still live.
            self.front_hits += 1;
            self.retire(front.slot);
            front
        } else {
            let Reverse(entry) = self.heap.pop()?;
            debug_assert!(
                self.is_live(entry.slot, entry.generation),
                "tombstone at the head of the event queue"
            );
            self.retire(entry.slot);
            self.drop_dead_head();
            entry
        };
        debug_assert!(self.front_sorts_first(), "front slot above the heap head");
        let at = entry.time + self.offset;
        debug_assert!(at >= self.now, "event queue clock went backwards");
        self.now = at;
        self.popped_total += 1;
        Some((at, entry.payload))
    }

    /// The timestamp of the earliest pending event, if any, in O(1).
    ///
    /// Does not advance the clock.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let head = match &self.front {
            Some(front) => front,
            None => &self.heap.peek()?.0,
        };
        Some(head.time + self.offset)
    }

    /// Number of live (non-cancelled) pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime (diagnostics).
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total events delivered over the queue's lifetime (diagnostics).
    #[must_use]
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// Deliveries served by the front slot, without touching the heap,
    /// over the queue's lifetime (diagnostics).
    #[must_use]
    pub fn front_hits(&self) -> u64 {
        self.front_hits
    }

    /// Moves every pending event later by `delta` and advances the clock by
    /// the same amount, in O(1).
    ///
    /// This models a stop-the-world pause: from the mutators' point of view
    /// the world freezes for `delta` and resumes exactly where it was.
    /// Relative ordering (including FIFO ties) is preserved — pending
    /// entries are ordered by shift-invariant internal times, so a pause
    /// can never reorder same-time events.
    pub fn shift_all(&mut self, delta: SimDuration) {
        if delta.is_zero() {
            return;
        }
        self.offset += delta;
        self.now += delta;
    }
}

impl<E> fmt::Display for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EventQueue(now={}, pending={}, scheduled={}, popped={})",
            self.now,
            self.len(),
            self.scheduled_total,
            self.popped_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<E> EventQueue<E> {
        /// Entries held, tombstones included: the heap plus the slot.
        fn held(&self) -> usize {
            self.heap.len() + usize::from(self.front.is_some())
        }
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }
    fn dur(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(30), "c");
        q.schedule_at(ns(10), "a");
        q.schedule_at(ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(ns(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), ns(42));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), ());
        q.pop();
        q.schedule_at(ns(5), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(ns(10), "a");
        q.schedule_at(ns(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_fired_id_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(ns(10), ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(a), "fired events cannot be cancelled");
    }

    #[test]
    fn recycled_slot_does_not_alias_old_id() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(ns(10), "a");
        assert!(q.cancel(a));
        // The slot is recycled for "b", but under a fresh generation: the
        // stale id must not cancel the new event.
        let b = q.schedule_at(ns(20), "b");
        assert_ne!(a, b, "EventIds are never reused");
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((ns(20), "b")));
    }

    #[test]
    fn ids_stay_distinct_across_heavy_recycling() {
        let mut q = EventQueue::new();
        let mut seen = std::collections::HashSet::new();
        for round in 0..100u64 {
            let id = q.schedule_at(ns(round), round);
            assert!(seen.insert(id), "EventId reused at round {round}");
            if round % 2 == 0 {
                q.cancel(id);
            } else {
                q.pop();
            }
        }
    }

    #[test]
    fn cancelled_events_do_not_count_in_len() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(ns(10), ());
        q.schedule_at(ns(20), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(ns(10), ());
        q.schedule_at(ns(20), ());
        assert_eq!(q.peek_time(), Some(ns(10)));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(ns(20)));
    }

    #[test]
    fn head_stays_live_through_cancels_and_pops() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule_at(ns(10 * i), i)).collect();
        // A tombstone below the head stays until it surfaces...
        assert!(q.cancel(ids[5]));
        assert_eq!(q.held(), 10);
        // ...and a cancelled head goes at once, with every tombstone
        // directly beneath it.
        assert!(q.cancel(ids[1]));
        assert!(q.cancel(ids[2]));
        assert!(q.cancel(ids[0]));
        assert_eq!(q.held(), 7);
        assert_eq!(q.peek_time(), Some(ns(30)));
        for expect in [3, 4] {
            assert_eq!(q.pop().map(|(_, e)| e), Some(expect));
        }
        // Popping 4 surfaced the tombstone for 5.
        assert_eq!(q.held(), 4);
        assert_eq!(q.peek_time(), Some(ns(60)));
        for id in &ids[6..] {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.held(), 0);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn an_entry_due_first_takes_the_empty_slot() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(20), "b");
        assert_eq!(q.front.as_ref().map(|f| f.payload), Some("b"));
        q.schedule_at(ns(30), "c");
        assert_eq!(q.heap.len(), 1, "later entries go to the heap");
        assert_eq!(q.pop(), Some((ns(20), "b")));
        assert!(q.front.is_none());
        // Below the heap head (30): the emptied slot takes it.
        q.schedule_at(ns(25), "a");
        assert_eq!(q.front.as_ref().map(|f| f.payload), Some("a"));
        assert_eq!(q.peek_time(), Some(ns(25)));
        assert_eq!(q.pop(), Some((ns(25), "a")));
        assert_eq!(q.pop(), Some((ns(30), "c")));
        assert_eq!(q.front_hits(), 2);
        assert_eq!(q.popped_total(), 3);
    }

    #[test]
    fn an_earlier_entry_displaces_the_occupant_into_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(20), "b");
        q.schedule_at(ns(10), "a");
        assert_eq!(q.front.as_ref().map(|f| f.payload), Some("a"));
        assert_eq!(q.heap.len(), 1, "the occupant moved into the heap");
        assert_eq!(q.pop(), Some((ns(10), "a")));
        assert_eq!(q.pop(), Some((ns(20), "b")));
        assert_eq!(q.front_hits(), 1);
    }

    #[test]
    fn cancelling_the_occupant_empties_the_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(ns(10), "a");
        q.schedule_at(ns(20), "b");
        assert!(q.cancel(a));
        assert!(q.front.is_none());
        assert_eq!(q.held(), 1, "no tombstone is left behind");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(ns(20)));
        assert_eq!(q.pop(), Some((ns(20), "b")));
        assert_eq!(q.front_hits(), 0);
        assert!(!q.cancel(a));
    }

    #[test]
    fn shift_all_keeps_an_occupied_slot_first_and_ties_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), "a"); // slot
        q.schedule_at(ns(10), "b"); // heap, behind a
        q.shift_all(dur(5));
        assert_eq!(q.peek_time(), Some(ns(15)));
        q.schedule_at(ns(15), "c"); // same shifted instant: behind both
        assert_eq!(q.front.as_ref().map(|f| f.payload), Some("a"));
        assert_eq!(q.pop(), Some((ns(15), "a")));
        assert_eq!(q.pop(), Some((ns(15), "b")));
        assert_eq!(q.pop(), Some((ns(15), "c")));
        assert_eq!(q.front_hits(), 1);
    }

    #[test]
    fn a_same_time_entry_queues_behind_the_head() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), "a"); // slot
        q.schedule_at(ns(10), "b"); // ties never displace the occupant
        assert_eq!(q.front.as_ref().map(|f| f.payload), Some("a"));
        assert_eq!(q.pop(), Some((ns(10), "a")));
        // The slot is empty and b heads the heap: a new entry at b's
        // instant sorts after b, so it stays out of the slot.
        q.schedule_now("c");
        assert!(q.front.is_none());
        assert_eq!(q.pop(), Some((ns(10), "b")));
        assert_eq!(q.pop(), Some((ns(10), "c")));
        assert_eq!(q.front_hits(), 1);
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(100), "first");
        q.pop();
        q.schedule_after(dur(50), "second");
        assert_eq!(q.pop(), Some((ns(150), "second")));
    }

    #[test]
    fn schedule_now_preserves_fifo_at_current_instant() {
        let mut q = EventQueue::new();
        q.schedule_now("a");
        q.schedule_now("b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn shift_all_moves_everything_and_the_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), "a");
        q.schedule_at(ns(10), "b");
        q.schedule_at(ns(30), "c");
        q.shift_all(dur(100));
        assert_eq!(q.now(), ns(100));
        assert_eq!(q.pop(), Some((ns(110), "a")));
        assert_eq!(q.pop(), Some((ns(110), "b")));
        assert_eq!(q.pop(), Some((ns(130), "c")));
    }

    #[test]
    fn shift_all_zero_is_a_noop() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), ());
        q.shift_all(SimDuration::ZERO);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(ns(10)));
    }

    #[test]
    fn shift_all_never_reorders_same_time_events() {
        // A GC pause between schedules must keep the FIFO tie-break: the
        // events pending across the shift keep their order, and an event
        // scheduled *after* the shift for the same (shifted) instant still
        // pops last.
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), "a");
        q.schedule_at(ns(10), "b");
        q.shift_all(dur(5));
        q.schedule_at(ns(15), "c"); // same external instant as shifted a/b
        assert_eq!(q.pop(), Some((ns(15), "a")));
        assert_eq!(q.pop(), Some((ns(15), "b")));
        assert_eq!(q.pop(), Some((ns(15), "c")));
    }

    #[test]
    fn repeated_shifts_accumulate() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), "a");
        q.shift_all(dur(5));
        q.shift_all(dur(7));
        assert_eq!(q.now(), ns(12));
        assert_eq!(q.peek_time(), Some(ns(22)));
        assert_eq!(q.pop(), Some((ns(22), "a")));
        // Scheduling keeps working in shifted time.
        q.schedule_after(dur(3), "b");
        assert_eq!(q.pop(), Some((ns(25), "b")));
    }

    #[test]
    fn cancel_of_pre_shift_id_still_works_after_shift() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(ns(10), "a");
        q.schedule_at(ns(20), "b");
        q.shift_all(dur(100));
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((ns(120), "b")));
    }

    #[test]
    fn lifetime_counters_track_activity() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(1), ());
        q.schedule_at(ns(2), ());
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(q.to_string().contains("EventQueue"));
    }
}
