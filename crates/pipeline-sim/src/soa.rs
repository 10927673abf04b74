//! Structure-of-arrays queues for the simulators' hot state.
//!
//! The scalar simulators kept per-item structs (`Item { origin,
//! arrival }`) in `VecDeque`s and popped them one at a time. The
//! vectorized paths instead keep each per-item attribute in its own
//! flat lane ([`SoaQueue`]), so a firing that consumes `take` items
//! operates on a contiguous `&[u64]` slice: gain draws fill a batch
//! buffer, lineage updates stream over the slice, and sojourn samples
//! are computed chunk-wise — all autovectorization-friendly, with no
//! per-item pointer chasing.
//!
//! A [`SoaQueue`] is a FIFO over a flat `Vec` with a consumed-prefix
//! cursor: `take_front(n)` returns the oldest `n` elements as one
//! slice and advances the cursor, and the consumed prefix is compacted
//! away (one `memmove` of the live region) only when it dominates the
//! buffer, so amortized cost per item stays O(1) without `VecDeque`'s
//! wrap-around split.

/// A flat FIFO lane: contiguous storage, slice-based batch dequeue.
#[derive(Debug, Clone)]
pub struct SoaQueue<T> {
    buf: Vec<T>,
    /// Index of the oldest live element; everything before it has been
    /// consumed and awaits compaction.
    head: usize,
}

/// Consumed prefix beyond which a push triggers compaction (when the
/// prefix also outweighs the live region). Small enough to bound waste,
/// large enough that compaction cost amortizes over many items.
const COMPACT_THRESHOLD: usize = 1024;

impl<T: Copy> SoaQueue<T> {
    /// New empty queue.
    pub fn new() -> Self {
        SoaQueue {
            buf: Vec::new(),
            head: 0,
        }
    }

    /// New empty queue with room for `cap` live elements.
    pub fn with_capacity(cap: usize) -> Self {
        SoaQueue {
            buf: Vec::with_capacity(cap),
            head: 0,
        }
    }

    /// Number of live (unconsumed) elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True if no live element remains.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// The live elements, oldest first, as one contiguous slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[self.head..]
    }

    /// Drop the consumed prefix when it is worth the `memmove`: always
    /// when nothing is live (free), otherwise only once the prefix is
    /// both large and at least as long as the live region.
    #[inline]
    fn maybe_compact(&mut self) {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= COMPACT_THRESHOLD && self.head >= self.len() {
            let live = self.len();
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(live);
            self.head = 0;
        }
    }

    /// Append one element.
    #[inline]
    pub fn push_back(&mut self, x: T) {
        self.maybe_compact();
        self.buf.push(x);
    }

    /// Append a batch of elements, oldest first.
    #[inline]
    pub fn extend_from_slice(&mut self, xs: &[T]) {
        self.maybe_compact();
        self.buf.extend_from_slice(xs);
    }

    /// Append every element of `xs`, oldest first (e.g. a run of
    /// consecutive origins as one range).
    #[inline]
    pub fn extend(&mut self, xs: impl IntoIterator<Item = T>) {
        self.maybe_compact();
        self.buf.extend(xs);
    }

    /// Append `n` copies of `x`.
    #[inline]
    pub fn push_n(&mut self, x: T, n: usize) {
        self.maybe_compact();
        self.buf.resize(self.buf.len() + n, x);
    }

    /// Consume the oldest `n` elements, returned as one slice (valid
    /// until the next mutation; the borrow checker enforces that).
    ///
    /// # Panics
    /// Panics if fewer than `n` elements are live.
    #[inline]
    pub fn take_front(&mut self, n: usize) -> &[T] {
        assert!(n <= self.len(), "take_front past queue end");
        let start = self.head;
        self.head += n;
        &self.buf[start..self.head]
    }
}

impl<T: Copy> Default for SoaQueue<T> {
    fn default() -> Self {
        SoaQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn fifo_order_across_batches() {
        let mut q = SoaQueue::new();
        q.extend_from_slice(&[1u64, 2, 3]);
        q.push_back(4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.take_front(2), &[1, 2]);
        q.push_n(9, 2);
        assert_eq!(q.as_slice(), &[3, 4, 9, 9]);
        assert_eq!(q.take_front(4), &[3, 4, 9, 9]);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "past queue end")]
    fn overdrain_panics() {
        let mut q: SoaQueue<u64> = SoaQueue::new();
        q.push_back(1);
        q.take_front(2);
    }

    #[test]
    fn matches_vecdeque_model_through_compaction() {
        // Drive the queue far past the compaction threshold with a
        // deterministic push/pop pattern and check it against VecDeque.
        let mut q: SoaQueue<u64> = SoaQueue::with_capacity(8);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for round in 0..5000 {
            let push = (round * 7) % 5;
            for _ in 0..push {
                q.push_back(next);
                model.push_back(next);
                next += 1;
            }
            let pop = ((round * 3) % 6).min(model.len());
            let got: Vec<u64> = q.take_front(pop).to_vec();
            let want: Vec<u64> = (0..pop).map(|_| model.pop_front().unwrap()).collect();
            assert_eq!(got, want, "round {round}");
            assert_eq!(q.len(), model.len());
        }
        assert_eq!(q.as_slice(), model.make_contiguous());
    }
}
