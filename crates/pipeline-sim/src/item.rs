//! Lineage of stream inputs through the simulated pipeline.
//!
//! Deadlines attach to stream inputs (paper §2.3): an input's deadline
//! is met only when every item derived from it has left the pipeline.
//! [`LineageWindow`] tracks that per input, but only for the inputs
//! still *in flight* — a run of a million inputs keeps a window of a
//! few thousand, not four per-input lanes of a million.

use std::ops::Range;

/// Live-count and completion ledger over the in-flight stream inputs.
///
/// An input's lineage starts with one live item (itself). The source
/// consumes each input exactly once, so its consume *stores* the live
/// count ([`enter`](Self::enter)); every later consume changes it by
/// `k − 1` ([`consume`](Self::consume)). When it reaches zero the input
/// is *resolved* — its outputs all exited the last stage, or its
/// lineage died at a filter stage.
///
/// **Window invariant.** The ledger holds exactly the origins in
/// `[lo, hi)`: `hi` is one past the last arrived origin and `lo` is the
/// lowest origin not yet handed out by
/// [`take_resolved`](Self::take_resolved). Every origin below `lo` is
/// resolved. The two lanes are a power-of-two ring indexed by
/// `origin & mask`, doubled when an arrival would overrun it, so the
/// footprint tracks the in-flight span rather than the stream length.
///
/// **Frontier.** Arrival writes nothing: an input's slots are first
/// written by its source consume or by
/// [`arrive_shed_run`](Self::arrive_shed_run), and until then hold what
/// the ring's last occupant left. So the caller names the *frontier* —
/// the oldest origin still waiting at the source — and the window reads
/// slots only below it. That origin is unresolved, so stopping there is
/// stopping at the first unresolved input, as a window that initialized
/// every arrival would.
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

    /// Origins `hi..end` arrive. Nothing is written per origin (see the
    /// frontier in the type docs); the ring only grows if they would
    /// overrun it.
    ///
    /// # Panics
    /// Panics if `end` is past the stream length.
    #[inline]
    pub fn arrive_until(&mut self, end: u64) {
        assert!(end <= self.len, "origin {end} past the stream end");
        if (end - self.lo) as usize > self.live.len() {
            self.grow((end - self.lo) as usize);
        }
        self.hi = end;
    }

    /// The next `n` origins arrive and are shed at admission: each
    /// resolves at once, as [`LineageWindow::SHED`] — at most two ring
    /// slices filled.
    pub fn arrive_shed_run(&mut self, n: u64) {
        let from = self.hi;
        self.arrive_until(from + n);
        for r in self.ring_ranges(from, n as usize) {
            self.live[r.clone()].fill(0);
            self.completion[r].fill(Self::SHED);
        }
        self.resolved += n;
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

    /// The source consumed `origin`, its lineage's first consume, and
    /// produced `outputs` items, finishing at cycle `at`: the input now
    /// has `outputs` live items. Returns 1 if this resolved the input,
    /// else 0.
    #[inline(always)]
    pub fn enter(&mut self, origin: u64, outputs: u32, at: u64) -> u64 {
        debug_assert!(
            (self.lo..self.hi).contains(&origin),
            "origin {origin} outside the window"
        );
        let i = origin as usize & self.mask;
        self.live[i] = outputs;
        self.completion[i] = at;
        let done = u64::from(outputs == 0);
        self.resolved += done;
        done
    }

    /// One item of `origin`'s lineage was consumed past the source and
    /// produced `outputs` new items, finishing at cycle `at`. Returns 1
    /// if this resolved the input, else 0.
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

    /// [`enter`](Self::enter) for each consumed origin with its output
    /// count; returns how many resolved. A run of consecutive origins —
    /// every source firing unless admission shed some — is two slice
    /// copies and a fill.
    pub fn enter_all(&mut self, origins: &[u64], outputs: &[u32], at: u64) -> u64 {
        let (Some(&first), Some(&last)) = (origins.first(), origins.last()) else {
            return 0;
        };
        if last - first + 1 != origins.len() as u64 {
            return origins
                .iter()
                .zip(outputs)
                .map(|(&o, &k)| self.enter(o, k, at))
                .sum();
        }
        let [a, b] = self.ring_ranges(first, origins.len());
        let (head, tail) = outputs.split_at(a.len());
        self.live[a.clone()].copy_from_slice(head);
        self.live[b.clone()].copy_from_slice(tail);
        self.completion[a].fill(at);
        self.completion[b].fill(at);
        let done = outputs.iter().filter(|&&k| k == 0).count() as u64;
        self.resolved += done;
        done
    }

    /// The ring slots of origins `from..from + n` (`n` at most the
    /// ring's size), in origin order: at most two ranges, split where
    /// the ring wraps.
    fn ring_ranges(&self, from: u64, n: usize) -> [Range<usize>; 2] {
        let start = from as usize & self.mask;
        let first = n.min(self.live.len() - start);
        [start..start + first, 0..n - first]
    }

    /// Slide `lo` past the resolved prefix of the window below
    /// `frontier` (the oldest origin still waiting at the source, or
    /// anything at or past `hi` when none waits), and hand it out: its
    /// first origin and its completion stamps in origin order, as at
    /// most two ring slices.
    pub fn take_resolved(&mut self, frontier: u64) -> (u64, [&[u64]; 2]) {
        let first = self.lo;
        let span = (frontier.clamp(first, self.hi) - first) as usize;
        let [a, b] = self.ring_ranges(first, span);
        let unresolved = |r: &Range<usize>| self.live[r.clone()].iter().position(|&l| l != 0);
        let count = match unresolved(&a) {
            Some(k) => k,
            None => a.len() + unresolved(&b).unwrap_or(b.len()),
        };
        self.lo += count as u64;
        let [a, b] = self.ring_ranges(first, count);
        (first, [&self.completion[a], &self.completion[b]])
    }

    /// Close the run: hand every origin not yet taken to `each(origin,
    /// completion)` in origin order, `None` for an input unresolved at
    /// run end — one of the `waiting` origins still queued at the
    /// source, an input in flight, or one that never arrived.
    pub fn finish(mut self, waiting: &[u64], mut each: impl FnMut(u64, Option<u64>)) {
        for &origin in waiting {
            self.live[origin as usize & self.mask] = 1;
        }
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

    /// Every origin below `frontier` that `take_resolved` hands out, as
    /// `(origin, completion)` pairs.
    fn taken(w: &mut LineageWindow, frontier: u64) -> Vec<(u64, u64)> {
        let (first, parts) = w.take_resolved(frontier);
        parts
            .iter()
            .flat_map(|p| p.iter())
            .enumerate()
            .map(|(j, &c)| (first + j as u64, c))
            .collect()
    }

    /// Everything arrived has left the source.
    const ALL: u64 = u64::MAX;

    #[test]
    fn single_item_passthrough() {
        let mut w = LineageWindow::new(1);
        w.arrive_until(1);
        // Waiting at the source: nothing to read yet.
        assert!(taken(&mut w, 0).is_empty());
        // The source consumes it and emits 1 output.
        assert_eq!(w.enter(0, 1, 10), 0);
        assert!(taken(&mut w, ALL).is_empty());
        // Final node consumes, emits nothing further (exits).
        assert_eq!(w.consume(0, 0, 20), 1);
        assert!(w.all_resolved());
        assert_eq!(taken(&mut w, ALL), vec![(0, 20)]);
    }

    #[test]
    fn filtered_item_completes_at_filter() {
        let mut w = LineageWindow::new(1);
        w.arrive_until(1);
        assert_eq!(w.enter(0, 0, 5), 1, "zero outputs → lineage dies");
        assert_eq!(taken(&mut w, ALL), vec![(0, 5)]);
    }

    #[test]
    fn expansion_requires_all_descendants() {
        let mut w = LineageWindow::new(1);
        w.arrive_until(1);
        // Expand ×3, then the three die one at a time.
        assert_eq!(w.enter(0, 3, 10), 0);
        assert_eq!(w.consume(0, 0, 20), 0);
        assert_eq!(w.consume(0, 0, 30), 0);
        assert_eq!(w.consume(0, 0, 40), 1);
        assert_eq!(taken(&mut w, ALL), vec![(0, 40)]);
    }

    #[test]
    fn independent_origins() {
        let mut w = LineageWindow::new(2);
        w.arrive_until(2);
        w.enter(0, 1, 3);
        w.enter(1, 0, 5);
        assert_eq!(w.resolved(), 1);
        // Origin 1 resolved first, but taking waits for origin 0.
        assert!(taken(&mut w, ALL).is_empty());
        assert!(!w.all_resolved());
        w.consume(0, 0, 9);
        assert!(w.all_resolved());
        assert_eq!(taken(&mut w, ALL), vec![(0, 9), (1, 5)]);
    }

    #[test]
    fn the_frontier_hides_stale_slots_of_waiting_inputs() {
        // A ring of two: origins 2 and 3 reuse the resolved slots of 0
        // and 1, whose zero live counts they must not be read by.
        let mut w = LineageWindow::with_capacity(4, 2);
        w.arrive_until(2);
        w.enter(0, 0, 1);
        w.enter(1, 0, 2);
        assert_eq!(taken(&mut w, ALL), vec![(0, 1), (1, 2)]);
        w.arrive_until(4);
        assert_eq!(w.capacity(), 2);
        // Both wait at the source: their slots still read "resolved".
        assert!(taken(&mut w, 2).is_empty());
        w.enter(2, 0, 7);
        assert_eq!(taken(&mut w, 3), vec![(2, 7)]);
        let mut out = Vec::new();
        w.finish(&[3], |o, c| out.push((o, c)));
        assert_eq!(out, vec![(3, None)]);
    }

    #[test]
    fn take_resolved_splits_at_the_wrap_and_skips_nothing() {
        let mut w = LineageWindow::with_capacity(12, 8);
        w.arrive_until(6);
        for o in 0..6 {
            w.enter(o, 0, 100 + o);
        }
        assert_eq!(taken(&mut w, ALL).len(), 6);
        // Origins 6..12 occupy slots 6, 7, 0, 1, 2, 3.
        w.arrive_until(12);
        for o in 6..12 {
            w.enter(o, 1, 0);
            w.consume(o, 0, 200 + o);
        }
        let (first, [a, b]) = w.take_resolved(ALL);
        assert_eq!(first, 6);
        assert_eq!(a, &[206, 207]);
        assert_eq!(b, &[208, 209, 210, 211]);
        assert!(w.all_resolved());
    }

    #[test]
    fn growth_mid_run_keeps_the_unresolved_tail_in_place() {
        let mut w = LineageWindow::with_capacity(20, 4);
        w.arrive_until(3);
        w.enter(0, 0, 1);
        w.enter(1, 2, 1);
        w.enter(2, 0, 3);
        assert_eq!(taken(&mut w, ALL), vec![(0, 1)]);
        // Origin 1 holds the window open while ten more arrive: the
        // ring grows past its four slots mid-run, with `lo` past zero.
        w.arrive_until(13);
        assert!(w.capacity() >= 12);
        for o in 3..13 {
            w.enter(o, 0, 10 + o);
        }
        assert!(taken(&mut w, ALL).is_empty());
        w.consume(1, 0, 50);
        w.consume(1, 0, 60);
        let want: Vec<(u64, u64)> = [(1, 60), (2, 3)]
            .into_iter()
            .chain((3..13).map(|o| (o, 10 + o)))
            .collect();
        assert_eq!(taken(&mut w, ALL), want);
    }

    #[test]
    fn shed_slots_resolve_in_origin_order() {
        let mut w = LineageWindow::with_capacity(4, 4);
        w.arrive_until(1);
        w.arrive_shed_run(1);
        w.arrive_until(3);
        w.arrive_shed_run(1);
        assert_eq!(w.resolved(), 2);
        // Origin 0 waits at the source (frontier 0); 2 waits behind the
        // shed 1.
        assert!(taken(&mut w, 0).is_empty());
        w.enter(0, 0, 8);
        assert_eq!(taken(&mut w, 2), vec![(0, 8), (1, LineageWindow::SHED)]);
        w.enter(2, 0, 9);
        assert_eq!(taken(&mut w, ALL), vec![(2, 9), (3, LineageWindow::SHED)]);
        assert!(w.all_resolved());
    }

    #[test]
    fn a_shed_run_is_one_shed_arrival_at_a_time() {
        // Runs that wrap the eight-slot ring and one that overruns it
        // (the ring grows mid-run), between admitted inputs.
        let steps: [(u64, u64); 4] = [(3, 4), (1, 3), (1, 9), (2, 1)];
        let mut run = LineageWindow::with_capacity(40, 8);
        let mut one = LineageWindow::with_capacity(40, 8);
        let mut want = Vec::new();
        let mut got = Vec::new();
        for (i, &(admitted, shed)) in steps.iter().enumerate() {
            for w in [&mut run, &mut one] {
                let first = w.hi;
                w.arrive_until(first + admitted);
                for origin in first..first + admitted {
                    w.enter(origin, 0, 100 + i as u64);
                }
            }
            run.arrive_shed_run(shed);
            for _ in 0..shed {
                one.arrive_shed_run(1);
            }
            got.extend(taken(&mut run, ALL));
            want.extend(taken(&mut one, ALL));
        }
        assert_eq!(run.resolved(), one.resolved());
        assert_eq!(got, want);
        assert_eq!(got.len(), 24);
        assert!(run.capacity() > 8);
    }

    #[test]
    fn settling_a_firing_matches_one_consume_per_item() {
        // The same source firings settled item by item and as lanes, on
        // an eight-slot ring, between downstream firings with repeated
        // origins: a run before the wrap, a run across the wrap (origins
        // 6..12 sit in slots 6, 7, 0..4), and a firing that a shed
        // origin breaks into pieces.
        let one_by_one = |w: &mut LineageWindow, origins: &[u64], ks: &[u32], at, src: bool| {
            let settle = |(&o, &k): (&u64, &u32)| {
                if src {
                    w.enter(o, k, at)
                } else {
                    w.consume(o, k, at)
                }
            };
            origins.iter().zip(ks).map(settle).sum::<u64>()
        };
        let mut a = LineageWindow::with_capacity(16, 8);
        let mut b = LineageWindow::with_capacity(16, 8);
        let arrive = |w: &mut LineageWindow, until: u64, shed: bool| {
            w.arrive_until(until);
            if shed {
                w.arrive_shed_run(1);
            }
        };
        // (arrivals first, origins, output counts, at the source, frontier)
        type Firing = (
            Option<(u64, bool)>,
            &'static [u64],
            &'static [u32],
            bool,
            u64,
        );
        let firings: [Firing; 6] = [
            (Some((5, true)), &[0, 1, 2, 3, 4], &[0, 0, 0, 1, 0], true, 6),
            (Some((8, false)), &[3], &[0], false, 6),
            (
                Some((12, false)),
                &[6, 7, 8, 9, 10, 11],
                &[0, 0, 1, 0, 3, 0],
                true,
                ALL,
            ),
            (None, &[8, 10, 10], &[0, 0, 0], false, ALL),
            (None, &[10], &[0], false, ALL),
            (Some((13, true)), &[12, 14, 15], &[0, 0, 0], true, ALL),
        ];
        for (at, (arrivals, origins, ks, src, frontier)) in firings.into_iter().enumerate() {
            if let Some((until, shed)) = arrivals {
                arrive(&mut a, until, shed);
                arrive(&mut b, until, shed);
                if until == 13 {
                    arrive(&mut a, 16, false);
                    arrive(&mut b, 16, false);
                }
            }
            assert_eq!(a.capacity(), 8);
            let at = 10 * at as u64;
            let want = one_by_one(&mut a, origins, ks, at, src);
            let got = if src {
                b.enter_all(origins, ks, at)
            } else {
                one_by_one(&mut b, origins, ks, at, src)
            };
            assert_eq!(got, want);
            assert_eq!(taken(&mut b, frontier), taken(&mut a, frontier));
        }
        assert!(a.all_resolved() && b.all_resolved());
    }

    #[test]
    fn grows_past_its_capacity_and_keeps_origin_order() {
        let n = 100u64;
        let mut w = LineageWindow::with_capacity(n as usize, 4);
        assert_eq!(w.capacity(), 4);
        // Origin 0 stays in flight while the rest arrive and resolve in
        // reverse order: the window must span all of them.
        w.arrive_until(1);
        w.enter(0, 2, 1);
        for o in 1..n {
            w.arrive_until(o + 1);
        }
        assert!(w.capacity() >= n as usize);
        for o in (1..n).rev() {
            assert_eq!(w.enter(o, 0, 1000 - o), 1);
        }
        assert!(taken(&mut w, ALL).is_empty());
        w.consume(0, 0, 7);
        w.consume(0, 0, 8);
        let got = taken(&mut w, ALL);
        let want: Vec<(u64, u64)> = std::iter::once((0, 8))
            .chain((1..n).map(|o| (o, 1000 - o)))
            .collect();
        assert_eq!(got, want);
        assert!(w.all_resolved());
    }

    #[test]
    fn finish_reports_unresolved_and_unarrived_as_none() {
        let mut w = LineageWindow::with_capacity(6, 2);
        w.arrive_until(3);
        w.arrive_shed_run(1);
        w.enter(0, 1, 4);
        w.enter(1, 0, 11);
        // Origin 2 still waits at the source; 0 is in flight.
        let mut out = Vec::new();
        w.finish(&[2], |o, c| out.push((o, c)));
        assert_eq!(
            out,
            vec![
                (0, None),
                (1, Some(11)),
                (2, None),
                (3, Some(LineageWindow::SHED)),
                (4, None),
                (5, None),
            ]
        );
    }
}
