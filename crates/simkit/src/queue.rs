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
//! * **Live heads.** Tombstones are dropped lazily, but never left on
//!   top: `cancel` and `pop` discard dead entries from the heads of the
//!   heap and of the sorted run (below), so each head is its tier's
//!   earliest live event and [`EventQueue::peek_time`] is a comparison of
//!   two heads — O(1) however many events (or tombstones) are pending.
//!   The server engine peeks before every pop to stop at its horizon, so
//!   a linear peek would cost it a scan of its whole pending set per
//!   event. Dropping a dead head at cancel time is the same removal the
//!   next `pop` would otherwise have done.
//! * **Sorted run.** Beside the heap sits a run of entries in ascending
//!   `(time, seq)` order. `schedule_at` pushes a new entry onto the run's
//!   front when it sorts below both heads, appends it to the run's back
//!   when it sorts above the run's last entry, and pushes it on the heap
//!   otherwise, so the run is sorted by construction and its head is its
//!   earliest entry. `pop` and `peek_time` take the smaller of the heap
//!   head and the run head. A thread's own next step — typically due
//!   before any other thread's — goes onto the front and is delivered
//!   without a heap push or pop; timers armed at `now + constant` arrive
//!   in key order and land on the back, where they cost an O(1) append
//!   and an O(1) pop instead of two heap sifts: nearly all of the server
//!   engine's pending request timeouts, and the scheduler's quantum
//!   timers until a later wake-up (a helper thread's long sleep) is
//!   appended behind them. Cancelling a run entry tombstones it like a
//!   heap entry; the tombstone is dropped once it reaches the run head.
//!   Ties stay FIFO across tiers because the run, the heap and the head
//!   comparison all order by the full `(time, seq)` key: a new entry's
//!   seq is larger than every pending one, so an entry due at the same
//!   instant as a pending one never sorts below it and queues behind it.
//!   [`EventQueue::run_hits`] counts the pops the run served.
//! * **Epoch-offset time shifting.** Every tier orders entries by
//!   *internal* time (external time minus the accumulated shift at
//!   schedule time). [`EventQueue::shift_all`] just advances the
//!   queue-global offset and the clock — O(1) instead of rewriting every
//!   pending entry, which matters because stop-the-world GC pauses call
//!   it once per collection. Relative order (including FIFO ties) is
//!   untouched because internal times never change.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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
    /// Pending entries plus lazily-dropped tombstones. Invariant: the
    /// head, if any, is live (see [`Self::drop_dead_head`]).
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Pending entries in ascending key order, plus lazily-dropped
    /// tombstones; sorted because an entry is only pushed below the head
    /// or appended above the last one. Invariant: the head, if any, is
    /// live.
    run: VecDeque<Entry<E>>,
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
    run_hits: u64,
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
            heap: BinaryHeap::new(),
            run: VecDeque::new(),
            stamps: Vec::new(),
            free: Vec::new(),
            live: 0,
            now: SimTime::ZERO,
            offset: SimDuration::ZERO,
            next_seq: 0,
            scheduled_total: 0,
            popped_total: 0,
            run_hits: 0,
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
        if self.run.front().is_none_or(|head| entry < *head)
            && self.heap.peek().is_none_or(|Reverse(head)| entry < *head)
        {
            self.run.push_front(entry);
        } else if self.run.back().is_none_or(|last| entry > *last) {
            self.run.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
        self.live += 1;
        self.next_seq += 1;
        self.scheduled_total += 1;
        debug_assert!(self.heads_are_sound(), "event queue head invariant broken");
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

    /// Whether the run head sorts below the heap head (or the run alone is
    /// non-empty), i.e. whether the next entry comes from the run.
    fn run_leads(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(Reverse(heap))) => run < heap,
            (run, _) => run.is_some(),
        }
    }

    /// The earlier of the run head and the heap head.
    fn tiers_head(&self) -> Option<&Entry<E>> {
        if self.run_leads() {
            self.run.front()
        } else {
            self.heap.peek().map(|Reverse(head)| head)
        }
    }

    /// The head invariant, in O(1): the run and heap heads are live.
    fn heads_are_sound(&self) -> bool {
        let live = |entry: &Entry<E>| self.is_live(entry.slot, entry.generation);
        self.run.front().is_none_or(live) && self.heap.peek().is_none_or(|Reverse(head)| live(head))
    }

    /// Restores the live-head invariant by discarding tombstones from the
    /// heads of the heap and the run. Each tombstone is discarded exactly
    /// once, so this is amortized O(log n) per cancellation.
    fn drop_dead_head(&mut self) {
        self.drop_dead_heap_head();
        self.drop_dead_run_head();
    }

    fn drop_dead_heap_head(&mut self) {
        while let Some(Reverse(head)) = self.heap.peek() {
            if self.is_live(head.slot, head.generation) {
                return;
            }
            self.heap.pop();
        }
    }

    fn drop_dead_run_head(&mut self) {
        while let Some(head) = self.run.front() {
            if self.is_live(head.slot, head.generation) {
                return;
            }
            self.run.pop_front();
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
        // Tombstone; the run or heap entry is dropped once it reaches its
        // tier's head, which may be right now.
        self.drop_dead_head();
        debug_assert!(self.heads_are_sound(), "event queue head invariant broken");
        true
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Returns `None` when no events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = if self.run_leads() {
            self.run_hits += 1;
            let entry = self.run.pop_front().expect("non-empty run");
            self.drop_dead_run_head();
            entry
        } else {
            let Reverse(entry) = self.heap.pop()?;
            self.drop_dead_heap_head();
            entry
        };
        debug_assert!(
            self.is_live(entry.slot, entry.generation),
            "tombstone at the head of the event queue"
        );
        self.retire(entry.slot);
        debug_assert!(self.heads_are_sound(), "event queue head invariant broken");
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
        Some(self.tiers_head()?.time + self.offset)
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

    /// Deliveries served by the sorted run, without touching the heap,
    /// over the queue's lifetime (diagnostics).
    #[must_use]
    pub fn run_hits(&self) -> u64 {
        self.run_hits
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
        /// Entries held, tombstones included: the heap and the run.
        fn held(&self) -> usize {
            self.heap.len() + self.run.len()
        }

        /// The run's payloads, head first, tombstones included.
        fn run_payloads(&self) -> Vec<E>
        where
            E: Copy,
        {
            self.run.iter().map(|entry| entry.payload).collect()
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
    fn an_entry_due_first_goes_onto_the_run_front() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(20), "b");
        q.schedule_at(ns(30), "c");
        assert_eq!(q.run_payloads(), ["b", "c"], "a later entry is appended");
        assert_eq!(q.pop(), Some((ns(20), "b")));
        // Below the run head (30): pushed onto the front.
        q.schedule_at(ns(25), "a");
        assert_eq!(q.run_payloads(), ["a", "c"]);
        assert_eq!(q.peek_time(), Some(ns(25)));
        assert_eq!(q.pop(), Some((ns(25), "a")));
        assert_eq!(q.pop(), Some((ns(30), "c")));
        assert!(q.heap.is_empty());
        assert_eq!(q.run_hits(), 3);
        assert_eq!(q.popped_total(), 3);
    }

    #[test]
    fn in_order_entries_are_served_by_the_run_alone() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule_at(ns(10 * (i + 1)), i);
        }
        assert_eq!(q.run_payloads(), [0, 1, 2, 3, 4]);
        // A timer re-armed at `now + constant` after every pop keeps
        // arriving above the run's last entry.
        for expect in 0..20 {
            let (t, e) = q.pop().unwrap();
            assert_eq!(e, expect);
            q.schedule_at(t + dur(50), expect + 5);
            assert!(q.heap.is_empty(), "an in-order entry reached the heap");
        }
        assert_eq!(q.run_hits(), 20);
        assert_eq!(q.peek_time(), Some(ns(210)));
    }

    #[test]
    fn an_entry_below_the_runs_last_goes_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), "a"); // run
        q.schedule_at(ns(20), "b"); // run
        q.schedule_at(ns(40), "d"); // run
        q.schedule_at(ns(30), "c"); // between the run's head and last: heap
        assert_eq!(q.run_payloads(), ["a", "b", "d"]);
        assert_eq!(q.heap.len(), 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(ns(10), "a"), (ns(20), "b"), (ns(30), "c"), (ns(40), "d")]
        );
        assert_eq!(q.run_hits(), 3);
    }

    #[test]
    fn cancelled_run_entries_leave_the_head_live() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (1..=5).map(|i| q.schedule_at(ns(10 * i), i)).collect();
        assert_eq!(q.pop(), Some((ns(10), 1)));
        assert_eq!(q.run.len(), 4);
        // Cancelling the run head drops it at once: peek stays exact.
        assert!(q.cancel(ids[1]));
        assert_eq!(q.run.len(), 3);
        assert_eq!(q.peek_time(), Some(ns(30)));
        // A mid-run cancel leaves a tombstone until it reaches the head.
        assert!(q.cancel(ids[3]));
        assert_eq!((q.held(), q.len()), (3, 2));
        assert_eq!(q.peek_time(), Some(ns(30)));
        assert_eq!(q.pop(), Some((ns(30), 3)));
        assert_eq!(q.held(), 1, "the tombstone went with the head");
        assert_eq!(q.peek_time(), Some(ns(50)));
        assert_eq!(q.pop(), Some((ns(50), 5)));
        assert!(q.pop().is_none());
        assert_eq!(q.run_hits(), 3);
    }

    #[test]
    fn ties_across_heap_and_run_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), "a"); // the empty run takes it
        let x = q.schedule_at(ns(20), "x"); // above a: run
        q.schedule_at(ns(10), "b"); // between a and x: heap
        q.schedule_at(ns(20), "c"); // above x: run
        q.schedule_at(ns(10), "d"); // behind b: heap
        assert!(q.cancel(x)); // a mid-run tombstone
        assert_eq!(q.run_payloads(), ["a", "x", "c"]);
        assert_eq!((q.heap.len(), q.len()), (2, 4));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "d", "c"]);
        assert_eq!(q.run_hits(), 2);
    }

    #[test]
    fn shift_all_moves_both_tiers() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), "a"); // run
        q.schedule_at(ns(30), "c"); // run
        q.schedule_at(ns(20), "b"); // heap
        assert_eq!((q.run.len(), q.heap.len()), (2, 1));
        q.shift_all(dur(100));
        assert_eq!(q.peek_time(), Some(ns(110)));
        // Scheduled after the shift, in internal time above c: run.
        q.schedule_at(ns(140), "d");
        assert_eq!(q.run_payloads(), ["a", "c", "d"]);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (ns(110), "a"),
                (ns(120), "b"),
                (ns(130), "c"),
                (ns(140), "d")
            ]
        );
    }

    #[test]
    fn an_earlier_entry_keeps_the_old_head_in_the_run() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(20), "b");
        q.schedule_at(ns(10), "a");
        assert_eq!(q.run_payloads(), ["a", "b"]);
        assert!(q.heap.is_empty(), "the old head stayed in the run");
        assert_eq!(q.pop(), Some((ns(10), "a")));
        assert_eq!(q.pop(), Some((ns(20), "b")));
        assert_eq!(q.run_hits(), 2);
    }

    #[test]
    fn cancelling_the_run_head_leaves_no_tombstone() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(ns(10), "a");
        q.schedule_at(ns(20), "b");
        assert!(q.cancel(a));
        assert_eq!(q.held(), 1, "no tombstone is left behind");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(ns(20)));
        assert_eq!(q.pop(), Some((ns(20), "b")));
        assert_eq!(q.run_hits(), 1);
        assert!(!q.cancel(a));
    }

    #[test]
    fn shift_all_keeps_the_run_head_first_and_ties_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(10), "a");
        q.schedule_at(ns(10), "b"); // a tie sorts above a: appended
        q.shift_all(dur(5));
        assert_eq!(q.peek_time(), Some(ns(15)));
        q.schedule_at(ns(15), "c"); // same shifted instant: behind both
        assert_eq!(q.run_payloads(), ["a", "b", "c"]);
        assert_eq!(q.pop(), Some((ns(15), "a")));
        assert_eq!(q.pop(), Some((ns(15), "b")));
        assert_eq!(q.pop(), Some((ns(15), "c")));
        assert_eq!(q.run_hits(), 3);
    }

    #[test]
    fn a_same_time_entry_queues_behind_the_head() {
        let mut q = EventQueue::new();
        q.schedule_at(ns(30), "x");
        q.schedule_at(ns(10), "a"); // below x: the front
        q.schedule_at(ns(10), "b"); // a tie never goes below a: heap
        assert_eq!(q.run_payloads(), ["a", "x"]);
        assert_eq!(q.pop(), Some((ns(10), "a")));
        // b heads the heap: a new entry at b's instant sorts after b, so
        // it does not go onto the run's front.
        q.schedule_now("c");
        assert_eq!(q.run_payloads(), ["x"]);
        assert_eq!(q.heap.len(), 2);
        assert_eq!(q.pop(), Some((ns(10), "b")));
        assert_eq!(q.pop(), Some((ns(10), "c")));
        assert_eq!(q.pop(), Some((ns(30), "x")));
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
