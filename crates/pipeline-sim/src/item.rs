//! Lineage of stream inputs through the simulated pipeline.
//!
//! Deadlines attach to stream inputs (paper §2.3): an input's deadline
//! is met only when every item derived from it has left the pipeline.
//! [`LineageWindow`] tracks that per input, but only for the inputs
//! still *in flight* — a run of a million inputs keeps a window of a
//! few thousand, not four per-input lanes of a million.

/// Live-count and completion ledger over the in-flight stream inputs.
///
/// An input starts with one live item (itself). When a node consumes an
/// item and emits `k` outputs, the live count changes by `k − 1`; when
/// it reaches zero the input is *resolved* — its outputs all exited the
/// last stage, or its lineage died at a filter stage.
///
/// **Window invariant.** The ledger holds exactly the origins in
/// `[lo, hi)`: `hi` is one past the last arrived origin and `lo` is the
/// lowest origin not yet handed to a [`fold`](Self::fold). Every origin
/// below `lo` is resolved, and `lo` itself is unresolved whenever
/// `lo < hi` after a fold. The two lanes are a power-of-two ring indexed
/// by `origin & mask`, doubled when an arrival would overrun it, so the
/// footprint tracks the in-flight span rather than the stream length.
#[derive(Debug)]
pub(crate) struct LineageWindow {
    /// Live-item count per in-flight origin (0 once resolved).
    live: Vec<u32>,
    /// Completion cycle per in-flight origin (the last consume's while
    /// unresolved): [`LineageWindow::SHED`] for an input rejected at
    /// admission.
    completion: Vec<u64>,
    mask: usize,
    lo: u64,
    hi: u64,
    /// Stream length: origins are `0..len`.
    len: u64,
    resolved: u64,
}

/// Ring slots a new window starts with (fewer for shorter streams).
const INITIAL_CAPACITY: usize = 1024;

impl LineageWindow {
    /// Completion mark of an input shed at admission: resolved, but
    /// neither a completion nor a latency sample. (A real completion
    /// this late is unrepresentable: runs truncate long before the
    /// cycle clock nears `u64::MAX`.)
    pub const SHED: u64 = u64::MAX;

    /// Ledger for a stream of `len` inputs, none arrived yet.
    pub fn new(len: usize) -> Self {
        Self::with_capacity(len, INITIAL_CAPACITY)
    }

    /// [`LineageWindow::new`] starting from `cap` ring slots (rounded up
    /// to a power of two, at most the stream length).
    pub fn with_capacity(len: usize, cap: usize) -> Self {
        let cap = cap.min(len).max(1).next_power_of_two();
        LineageWindow {
            live: vec![0; cap],
            completion: vec![0; cap],
            mask: cap - 1,
            lo: 0,
            hi: 0,
            len: len as u64,
            resolved: 0,
        }
    }

    /// Ring slots currently allocated.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.live.len()
    }

    /// Origins `hi..end` arrive, each with one live item.
    ///
    /// # Panics
    /// Panics if `end` is past the stream length.
    pub fn arrive_until(&mut self, end: u64) {
        assert!(end <= self.len, "origin {end} past the stream end");
        if (end - self.lo) as usize > self.live.len() {
            self.grow((end - self.lo) as usize);
        }
        for origin in self.hi..end {
            self.live[origin as usize & self.mask] = 1;
        }
        self.hi = end;
    }

    /// The next origin arrives and is shed at admission: it resolves at
    /// once, as [`LineageWindow::SHED`].
    pub fn arrive_shed(&mut self) {
        let origin = self.hi;
        self.arrive_until(origin + 1);
        let i = origin as usize & self.mask;
        self.live[i] = 0;
        self.completion[i] = Self::SHED;
        self.resolved += 1;
    }

    /// Re-lay the ring out at the first power of two holding `need`
    /// slots (at least double the current size).
    fn grow(&mut self, need: usize) {
        let cap = need.max(2 * self.live.len()).next_power_of_two();
        let mask = cap - 1;
        let mut live = vec![0; cap];
        let mut completion = vec![0; cap];
        for origin in self.lo..self.hi {
            let (old, new) = (origin as usize & self.mask, origin as usize & mask);
            live[new] = self.live[old];
            completion[new] = self.completion[old];
        }
        self.live = live;
        self.completion = completion;
        self.mask = mask;
    }

    /// One item of `origin`'s lineage was consumed and produced
    /// `outputs` new items, finishing at cycle `at`. Returns 1 if this
    /// resolved the input, else 0.
    ///
    /// Branch-free: every consume stamps the input's completion slot.
    /// An input reaches zero live items exactly once and no item of a
    /// resolved lineage is left to consume, so the last stamp is the one
    /// that resolved it — and only resolved slots are ever read.
    #[inline(always)]
    pub fn consume(&mut self, origin: u64, outputs: u32, at: u64) -> u64 {
        debug_assert!(
            (self.lo..self.hi).contains(&origin),
            "origin {origin} outside the window"
        );
        let i = origin as usize & self.mask;
        let live = self.live[i] - 1 + outputs;
        self.live[i] = live;
        let done = live == 0;
        self.completion[i] = at;
        self.resolved += u64::from(done);
        u64::from(done)
    }

    /// Hand the resolved prefix of the window to `each(origin,
    /// completion)` in origin order and slide `lo` past it.
    pub fn fold(&mut self, mut each: impl FnMut(u64, u64)) {
        while self.lo < self.hi {
            let i = self.lo as usize & self.mask;
            if self.live[i] != 0 {
                break;
            }
            each(self.lo, self.completion[i]);
            self.lo += 1;
        }
    }

    /// Close the run: hand every origin not yet folded to `each(origin,
    /// completion)` in origin order, `None` for an input unresolved at
    /// run end (including any that never arrived).
    pub fn finish(mut self, mut each: impl FnMut(u64, Option<u64>)) {
        self.fold(|origin, c| each(origin, Some(c)));
        for origin in self.lo..self.len {
            let i = origin as usize & self.mask;
            let resolved = origin < self.hi && self.live[i] == 0;
            each(origin, resolved.then_some(self.completion[i]));
        }
    }

    /// Inputs resolved so far (completed or shed).
    pub fn resolved(&self) -> u64 {
        self.resolved
    }

    /// True once every input of the stream is resolved.
    pub fn all_resolved(&self) -> bool {
        self.resolved == self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn folded(w: &mut LineageWindow) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        w.fold(|o, c| out.push((o, c)));
        out
    }

    #[test]
    fn single_item_passthrough() {
        let mut w = LineageWindow::new(1);
        w.arrive_until(1);
        // One node consumes it, emits 1 output.
        assert_eq!(w.consume(0, 1, 10), 0);
        assert!(folded(&mut w).is_empty());
        // Final node consumes, emits nothing further (exits).
        assert_eq!(w.consume(0, 0, 20), 1);
        assert!(w.all_resolved());
        assert_eq!(folded(&mut w), vec![(0, 20)]);
    }

    #[test]
    fn filtered_item_completes_at_filter() {
        let mut w = LineageWindow::new(1);
        w.arrive_until(1);
        assert_eq!(w.consume(0, 0, 5), 1, "zero outputs → lineage dies");
        assert_eq!(folded(&mut w), vec![(0, 5)]);
    }

    #[test]
    fn expansion_requires_all_descendants() {
        let mut w = LineageWindow::new(1);
        w.arrive_until(1);
        // Expand ×3, then the three die one at a time.
        assert_eq!(w.consume(0, 3, 10), 0);
        assert_eq!(w.consume(0, 0, 20), 0);
        assert_eq!(w.consume(0, 0, 30), 0);
        assert_eq!(w.consume(0, 0, 40), 1);
        assert_eq!(folded(&mut w), vec![(0, 40)]);
    }

    #[test]
    fn independent_origins() {
        let mut w = LineageWindow::new(2);
        w.arrive_until(2);
        w.consume(1, 0, 5);
        assert_eq!(w.resolved(), 1);
        // Origin 1 resolved first, but folds wait for origin 0.
        assert!(folded(&mut w).is_empty());
        assert!(!w.all_resolved());
        w.consume(0, 0, 9);
        assert!(w.all_resolved());
        assert_eq!(folded(&mut w), vec![(0, 9), (1, 5)]);
    }

    #[test]
    fn grows_past_its_capacity_and_keeps_origin_order() {
        let n = 100u64;
        let mut w = LineageWindow::with_capacity(n as usize, 4);
        assert_eq!(w.capacity(), 4);
        // Origin 0 stays in flight while the rest arrive and resolve in
        // reverse order: the window must span all of them.
        w.arrive_until(1);
        w.consume(0, 2, 1);
        for o in 1..n {
            w.arrive_until(o + 1);
        }
        assert!(w.capacity() >= n as usize);
        for o in (1..n).rev() {
            assert_eq!(w.consume(o, 0, 1000 - o), 1);
        }
        assert!(folded(&mut w).is_empty());
        w.consume(0, 0, 7);
        w.consume(0, 0, 8);
        let got = folded(&mut w);
        let want: Vec<(u64, u64)> = std::iter::once((0, 8))
            .chain((1..n).map(|o| (o, 1000 - o)))
            .collect();
        assert_eq!(got, want);
        assert!(w.all_resolved());
    }

    #[test]
    fn finish_reports_unresolved_and_unarrived_as_none() {
        let mut w = LineageWindow::with_capacity(5, 2);
        w.arrive_until(3);
        w.arrive_shed();
        w.consume(1, 0, 11);
        let mut out = Vec::new();
        w.finish(|o, c| out.push((o, c)));
        assert_eq!(
            out,
            vec![
                (0, None),
                (1, Some(11)),
                (2, None),
                (3, Some(LineageWindow::SHED)),
                (4, None),
            ]
        );
    }
}
