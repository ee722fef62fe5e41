//! Deterministic event queue.
//!
//! [`EventQueue`] is a priority queue keyed on [`SimTime`] with **stable FIFO
//! ordering for simultaneous events**: two events scheduled for the same
//! instant are popped in the order they were pushed. This determinism is what
//! lets every experiment in the workspace reproduce bit-identical results for
//! a given seed. The full-system simulator schedules through a specialized
//! agenda of its own and keeps this queue as that agenda's differential-test
//! reference.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled in an [`EventQueue`], pairing a payload with its due
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The instant at which the event fires.
    pub at: SimTime,
    /// The payload.
    pub event: E,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and lowest
        // sequence number among ties) is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timed events.
///
/// # Example
///
/// ```
/// use simcore::event::EventQueue;
/// use simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "decode done");
/// q.push(SimTime::from_nanos(10), "frame arrival");
/// q.push(SimTime::from_nanos(10), "timer");
///
/// let first = q.pop().unwrap();
/// assert_eq!((first.at, first.event), (SimTime::from_nanos(10), "frame arrival"));
/// // FIFO among simultaneous events:
/// assert_eq!(q.pop().unwrap().event, "timer");
/// assert_eq!(q.pop().unwrap().event, "decode done");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the backing heap reallocates. Simulators that know their
    /// steady-state event population preallocate here and keep the hot
    /// loop reallocation-free.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Reserves capacity for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of pending events the queue can hold without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The current simulation time: the due time of the most recently popped
    /// event, or [`SimTime::ZERO`] if nothing has been popped yet.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time — the
    /// simulated past cannot be changed. Scheduling *at* the current time is
    /// allowed (zero-delay events).
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at} in the past of {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// due time. Simultaneous events pop in push order. Returns `None` when
    /// the queue is empty.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some(Scheduled {
            at: entry.at,
            event: entry.event,
        })
    }

    /// The due time of the earliest pending event, if any, without popping.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    #[test]
    fn zero_delay_events_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.pop();
        q.push(q.now(), "b"); // same instant as current time is fine
        assert_eq!(q.pop().unwrap().event, "b");
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs_f64(1.0), 'x');
        q.push(SimTime::from_secs_f64(0.5), 'y');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(0.5)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_preallocates_and_behaves_identically() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        let cap = q.capacity();
        for i in 0..64 {
            q.push(SimTime::from_nanos(64 - i), i);
        }
        assert_eq!(q.capacity(), cap, "no growth within the preallocation");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        let mut expected: Vec<u64> = (0..64).collect();
        expected.reverse();
        assert_eq!(order, expected);
        q.reserve(128);
        assert!(q.capacity() >= 128);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(30), 3);
        assert_eq!(q.pop().unwrap().event, 1);
        q.push(q.now() + SimDuration::from_nanos(10), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
    }
}
