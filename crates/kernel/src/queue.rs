//! Deterministic time-ordered event queue: a one-cycle calendar ring.
//!
//! The queue delivers events in non-decreasing time order with FIFO
//! ordering inside a cycle — exactly the contract a `BinaryHeap` keyed by
//! `(time, push-sequence)` provides — but with O(1) pushes and pops for
//! the near future and no per-event comparisons there.
//!
//! Times in the window `[cursor, cursor + SPAN)` live in a ring of
//! [`SPAN`] one-cycle slots: slot `t % SPAN` holds exactly the events of
//! time `t`, as a FIFO list threaded through a shared node pool. An
//! occupancy bitmap (one bit per slot) plus a summary word (one bit per
//! bitmap word) find the next occupied slot in two or three word scans.
//! Events beyond the window wait in an overflow map ordered by
//! `(time, push order)`.
//!
//! Same-cycle FIFO across the overflow→ring move rests on one rule: when
//! the cursor advances, every overflow event that the new window covers
//! moves into the ring, in `(time, push order)`, before anything else is
//! pushed. Every overflow event for a time was pushed before that time
//! entered the window, and every ring push for it after, so appending the
//! moved events to an empty slot keeps push order.

use std::collections::BTreeMap;

use crate::Cycle;

/// Cycles the ring covers: the smallest power of two above every
/// scheduling delta the fabric produced on the paper-scale protocol
/// (figures 8 and 16 at 4 MiB per SPE, 20.7 M pushes: 72 % under 16
/// cycles, 2.3 % in `[512, 1024)`, none beyond), so only rare far events
/// take the overflow map.
const SPAN: u64 = 1024;
/// 64-bit occupancy words covering the ring.
const WORDS: usize = SPAN as usize / 64;
/// End of a slot list, and of the free list.
const NIL: u32 = u32::MAX;

/// One queued event in the ring's node pool.
struct Node<E> {
    /// `None` only while the node sits on the free list.
    event: Option<E>,
    next: u32,
}

/// First and last node of one slot's FIFO list.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

/// A priority queue of `(time, event)` pairs.
///
/// Events are delivered in non-decreasing time order. Events scheduled for
/// the *same* cycle come out in the order they were pushed (FIFO), which
/// keeps simulations deterministic without requiring `E: Ord`.
///
/// The queue is a calendar ring, not a heap, so pushes must never land
/// before the most recently popped time (a discrete-event simulation
/// never schedules into the past; [`push`](EventQueue::push) panics if
/// one tries).
///
/// ```
/// use cellsim_kernel::{Cycle, EventQueue};
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(5), "late");
/// q.push(Cycle::new(1), "early-a");
/// q.push(Cycle::new(1), "early-b");
/// assert_eq!(q.pop(), Some((Cycle::new(1), "early-a")));
/// assert_eq!(q.pop(), Some((Cycle::new(1), "early-b")));
/// assert_eq!(q.pop(), Some((Cycle::new(5), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Slot `t % SPAN` lists the ring's events at time `t`.
    slots: Vec<List>,
    nodes: Vec<Node<E>>,
    /// Head of the free-node list, threaded through `Node::next`.
    free: u32,
    /// Bit `i % 64` of word `i / 64` set ⇔ slot `i` is non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` set ⇔ `occupied[w] != 0`.
    summary: u64,
    /// Events at `cursor + SPAN` or later, keyed by `(time, push order)`.
    overflow: BTreeMap<(u64, u64), E>,
    overflow_pushes: u64,
    /// Time of the most recent pop; pending times are all `>= cursor`.
    cursor: u64,
    /// Cached earliest pending time.
    next: Option<u64>,
    len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: vec![
                List {
                    head: NIL,
                    tail: NIL
                };
                SPAN as usize
            ],
            nodes: Vec::new(),
            free: NIL,
            occupied: [0; WORDS],
            summary: 0,
            overflow: BTreeMap::new(),
            overflow_pushes: 0,
            cursor: 0,
            next: None,
            len: 0,
        }
    }

    /// Schedules `event` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the most recently popped time: the
    /// ring's cursor has already swept past it.
    pub fn push(&mut self, at: Cycle, event: E) {
        let t = at.as_u64();
        assert!(
            t >= self.cursor,
            "event scheduled in the past, before the queue's current time: at={t}, cursor={}",
            self.cursor
        );
        if t - self.cursor < SPAN {
            self.link(t, event);
        } else {
            self.overflow.insert((t, self.overflow_pushes), event);
            self.overflow_pushes += 1;
        }
        self.len += 1;
        self.next = Some(self.next.map_or(t, |n| n.min(t)));
    }

    /// Appends an event to its slot's list; `t` must be inside the window.
    #[inline]
    fn link(&mut self, t: u64, event: E) {
        let node = Node {
            event: Some(event),
            next: NIL,
        };
        let id = if self.free == NIL {
            let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 events in the ring");
            self.nodes.push(node);
            id
        } else {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            id
        };
        let slot = (t % SPAN) as usize;
        let list = &mut self.slots[slot];
        if list.head == NIL {
            list.head = id;
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.summary |= 1 << (slot / 64);
        } else {
            self.nodes[list.tail as usize].next = id;
        }
        list.tail = id;
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let t = self.next?;
        if t != self.cursor {
            self.cursor = t;
            self.refill();
        }
        let slot = (t % SPAN) as usize;
        let id = self.slots[slot].head;
        let node = &mut self.nodes[id as usize];
        let event = node
            .event
            .take()
            .expect("an occupied slot lists live nodes");
        let next = node.next;
        node.next = self.free;
        self.free = id;
        self.slots[slot].head = next;
        self.len -= 1;
        if next == NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            if self.occupied[slot / 64] == 0 {
                self.summary &= !(1 << (slot / 64));
            }
            self.next = self.scan_next();
        }
        Some((Cycle::new(t), event))
    }

    /// Moves the overflow events the window now covers into the ring, in
    /// `(time, push order)`.
    fn refill(&mut self) {
        while let Some(entry) = self.overflow.first_entry() {
            let t = entry.key().0;
            if t - self.cursor >= SPAN {
                break;
            }
            let event = entry.remove();
            self.link(t, event);
        }
    }

    /// Earliest pending time once the cursor's slot has drained: the first
    /// occupied slot at or after the cursor's, wrapping around the ring,
    /// or else the overflow's earliest time (which always lies beyond
    /// every ring time).
    fn scan_next(&self) -> Option<u64> {
        if self.summary == 0 {
            return self.overflow.first_key_value().map(|(&(t, _), _)| t);
        }
        let from = (self.cursor % SPAN) as usize;
        let (word, bit) = (from / 64, from % 64);
        let here = self.occupied[word] & (!0u64 << bit);
        let slot = if here != 0 {
            word * 64 + here.trailing_zeros() as usize
        } else {
            // Later words first, then wrap to the lowest; wrapping back
            // onto `word` finds only bits below `bit`, which are later
            // times too.
            let later = self.summary & (!1u64 << word);
            let w = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        Some(self.cursor + (slot as u64 + SPAN - from as u64) % SPAN)
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.next.map(Cycle::new)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(u64, E)> {
        std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_u64(), e))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(30), 3);
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle::new(4), ());
        q.push(Cycle::new(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle::new(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Cycle::new(4)));
    }

    #[test]
    fn far_future_events_come_back_in_order() {
        // Spans the ring and the overflow, including a same-cycle pair
        // parked beyond the window that must stay FIFO as it moves in.
        let mut q = EventQueue::new();
        q.push(Cycle::new(1 << 20), "far-a");
        q.push(Cycle::new(3), "near");
        q.push(Cycle::new(1 << 20), "far-b");
        q.push(Cycle::new((1 << 20) + 1), "far-c");
        q.push(Cycle::new(u64::MAX), "horizon");
        assert_eq!(q.pop(), Some((Cycle::new(3), "near")));
        assert_eq!(q.pop(), Some((Cycle::new(1 << 20), "far-a")));
        assert_eq!(q.pop(), Some((Cycle::new(1 << 20), "far-b")));
        assert_eq!(q.pop(), Some((Cycle::new((1 << 20) + 1), "far-c")));
        assert_eq!(q.pop(), Some((Cycle::new(u64::MAX), "horizon")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(100), 1);
        q.push(Cycle::new(200), 2);
        assert_eq!(q.pop(), Some((Cycle::new(100), 1)));
        // Push between pops, at and after the cursor.
        q.push(Cycle::new(100), 3);
        q.push(Cycle::new(150), 4);
        assert_eq!(q.pop(), Some((Cycle::new(100), 3)));
        assert_eq!(q.pop(), Some((Cycle::new(150), 4)));
        assert_eq!(q.pop(), Some((Cycle::new(200), 2)));
    }

    #[test]
    fn events_at_the_ring_boundary() {
        // From a cursor of 0: span−1 is the window's last slot, span and
        // span+1 overflow; span shares slot 0 with the cursor's own time.
        let mut q = EventQueue::new();
        q.push(Cycle::new(SPAN + 1), "span+1");
        q.push(Cycle::new(SPAN), "span");
        q.push(Cycle::new(SPAN - 1), "span-1");
        q.push(Cycle::ZERO, "zero");
        assert_eq!(q.overflow.len(), 2);
        assert_eq!(
            drain(&mut q),
            [
                (0, "zero"),
                (SPAN - 1, "span-1"),
                (SPAN, "span"),
                (SPAN + 1, "span+1")
            ]
        );
    }

    #[test]
    fn same_time_stays_fifo_from_far_to_near() {
        // "far" is pushed while its time lies beyond the window; after the
        // cursor advances, "near" is pushed for the same time straight
        // into the ring. The overflow event must still come out first.
        let t = SPAN + 10;
        let mut q = EventQueue::new();
        q.push(Cycle::new(t), "far");
        q.push(Cycle::new(20), "step");
        assert_eq!(q.pop(), Some((Cycle::new(20), "step")));
        q.push(Cycle::new(t), "near");
        assert_eq!(q.pop(), Some((Cycle::new(t), "far")));
        assert_eq!(q.pop(), Some((Cycle::new(t), "near")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_at_the_cursor_while_its_slot_drains() {
        // Pushing at the current time between pops of that time's slot
        // joins the back of the same list, behind what is still queued.
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), 0);
        q.push(Cycle::new(5), 1);
        q.push(Cycle::new(5 + SPAN - 1), 9);
        assert_eq!(q.pop(), Some((Cycle::new(5), 0)));
        q.push(Cycle::new(5), 2);
        assert_eq!(q.pop(), Some((Cycle::new(5), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(5), 2)));
        // The slot drained; a push at the cursor re-opens it.
        q.push(Cycle::new(5), 3);
        assert_eq!(q.peek_time(), Some(Cycle::new(5)));
        assert_eq!(drain(&mut q), [(5, 3), (5 + SPAN - 1, 9)]);
    }

    #[test]
    #[should_panic(expected = "before the queue's current time")]
    fn pushing_behind_the_cursor_panics() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(50), ());
        q.pop();
        q.push(Cycle::new(49), ());
    }
}
