//! The event queue at the heart of the discrete-event simulation.
//!
//! Events are ordered by `(fire_time, sequence_number)`. The sequence number
//! is assigned at insertion, which gives a *stable* total order: two events
//! scheduled for the same instant fire in the order they were scheduled.
//! Combined with seeded randomness this makes every run bit-reproducible,
//! which the anomaly-replay experiments (H1–H3) rely on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event drawn from the queue: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant at which the event fires.
    pub at: SimTime,
    /// Stable tie-breaker (insertion order).
    pub seq: u64,
    /// The domain payload.
    pub payload: E,
}

impl<E: Eq> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E: Eq> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
///
/// `EventQueue` also tracks the current simulated time: popping an event
/// advances the clock to that event's fire time. Scheduling into the past is
/// a logic error and panics (in debug and release), because it would silently
/// corrupt causality in the protocols under test.
#[derive(Debug)]
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// The current simulated time (the fire time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is earlier than the current simulated time.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Pop the next event, advancing the simulated clock to its fire time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.now);
        self.now = ev.at;
        self.popped += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(30), "c");
        q.schedule_at(SimTime::from_micros(10), "a");
        q.schedule_at(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule_at(SimTime::from_micros(5), label);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(2));
        assert!(q.is_empty());
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1), 0u32);
        q.pop();
        q.schedule_after(SimDuration::from_millis(3), 1u32);
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, SimTime::from_millis(4));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(5), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(1), ());
    }
}
