//! The pending-event set.
//!
//! A [`Calendar`] orders events by timestamp with a stable FIFO tie-break:
//! two events scheduled for the same instant fire in scheduling order.
//! Without the tie-break, `BinaryHeap`'s arbitrary ordering of equal keys
//! would make simulations irreproducible across runs and platforms.

use crate::clock::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event drawn from the calendar: a timestamp plus a caller-defined
/// payload describing what happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<P> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone sequence number assigned at scheduling time; exposes the
    /// FIFO tie-break order for tests and tracing.
    pub seq: u64,
    /// What the event means (interpreted by the simulation).
    pub payload: P,
}

/// Internal heap entry. `BinaryHeap` is a max-heap, so the ordering is
/// reversed: earliest time (then lowest sequence number) is "greatest".
struct Entry<P> {
    time: SimTime,
    seq: u64,
    payload: P,
}

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<P> Eq for Entry<P> {}
impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller (time, seq) compares greater so it pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event calendar (pending-event set).
///
/// Events are popped in nondecreasing time order; equal times pop in
/// scheduling (FIFO) order. The calendar also tracks the timestamp of the
/// last popped event and rejects scheduling into the past, which turns
/// causality bugs into immediate panics instead of silent reordering.
pub struct Calendar<P> {
    heap: BinaryHeap<Entry<P>>,
    next_seq: u64,
    now: SimTime,
}

impl<P> Default for Calendar<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Calendar<P> {
    /// Create an empty calendar at time zero.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Create an empty calendar with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Calendar {
            heap: BinaryHeap::with_capacity(cap),
            ..Calendar::new()
        }
    }

    /// The time of the most recently popped event (time zero initially).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current simulation time; an
    /// event in the past is a causality bug in the caller.
    pub fn schedule(&mut self, at: SimTime, payload: P) {
        assert!(
            at >= self.now,
            "scheduled event at {} is in the past (now = {})",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
    }

    /// Reserve capacity for at least `additional` more pending events.
    ///
    /// Hot simulation loops that know a burst of scheduling is coming
    /// (e.g. one `Deliver` + one `Fire` per firing) can pre-size the
    /// heap once instead of growing it incrementally mid-run.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the next event, advancing the calendar clock to its timestamp.
    pub fn pop(&mut self) -> Option<Event<P>> {
        let entry = self.heap.pop()?;
        debug_assert!(
            entry.time >= self.now,
            "heap returned an out-of-order event"
        );
        self.now = entry.time;
        Some(Event {
            time: entry.time,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// Drop every pending event, leaving the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> SimTime {
        SimTime::from_cycles(c)
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(t(30), "c");
        cal.schedule(t(10), "a");
        cal.schedule(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| cal.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| cal.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_equal_and_unequal_times_are_stable() {
        let mut cal = Calendar::new();
        cal.schedule(t(10), "x1");
        cal.schedule(t(5), "y");
        cal.schedule(t(10), "x2");
        assert_eq!(cal.pop().unwrap().payload, "y");
        assert_eq!(cal.pop().unwrap().payload, "x1");
        assert_eq!(cal.pop().unwrap().payload, "x2");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = Calendar::new();
        cal.schedule(t(7), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), t(7));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(t(10), ());
        cal.pop();
        cal.schedule(t(9), ());
    }

    #[test]
    fn counters_track_activity() {
        let mut cal = Calendar::new();
        cal.schedule(t(1), ());
        cal.schedule(t(2), ());
        cal.pop();
        assert_eq!(cal.len(), 1);
        assert!(!cal.is_empty());
        cal.clear();
        assert!(cal.is_empty());
    }

    #[test]
    fn reserve_grows_capacity_without_touching_events() {
        let mut cal = Calendar::new();
        cal.schedule(t(1), "a");
        cal.reserve(1024);
        cal.schedule(t(2), "b");
        assert_eq!(cal.pop().unwrap().payload, "a");
        assert_eq!(cal.pop().unwrap().payload, "b");
        assert!(cal.is_empty());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut cal = Calendar::new();
        assert!(cal.peek_time().is_none());
        cal.schedule(t(4), ());
        assert_eq!(cal.peek_time(), Some(t(4)));
    }
}
