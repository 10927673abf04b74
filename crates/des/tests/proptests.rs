//! Property-based tests for the discrete-event engine.

use des::prelude::*;
use proptest::prelude::*;

proptest! {
    #[test]
    fn calendar_pops_sorted_by_time_then_seq(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_cycles(t), i);
        }
        let mut popped: Vec<(u64, u64)> = Vec::new();
        while let Some(ev) = cal.pop() {
            popped.push((ev.time.cycles(), ev.seq));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0] <= w[1], "out of (time, seq) order: {:?} then {:?}", w[0], w[1]);
        }
        // Every scheduled time appears.
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let got: Vec<u64> = popped.iter().map(|(t, _)| *t).collect();
        prop_assert_eq!(got, sorted);
    }

    #[test]
    fn online_stats_merge_is_order_insensitive(
        xs in prop::collection::vec(-1e6..1e6f64, 1..100),
        split in 0usize..100,
    ) {
        let cut = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..cut] { a.push(x); }
        for &x in &xs[cut..] { b.push(x); }
        // Merge both ways.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for m in [&ab, &ba] {
            prop_assert_eq!(m.count(), whole.count());
            prop_assert!((m.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
            prop_assert!((m.variance() - whole.variance()).abs() <= 1e-4 * whole.variance().abs().max(1.0));
        }
    }

    #[test]
    fn histogram_quantiles_are_monotone(
        xs in prop::collection::vec(0.0..100.0f64, 1..200),
        qa in 0.0..1.0f64,
        qb in 0.0..1.0f64,
    ) {
        let mut h = Histogram::new(0.0, 100.0, 50);
        for &x in &xs {
            h.push(x);
        }
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let a = h.quantile(lo_q).unwrap();
        let b = h.quantile(hi_q).unwrap();
        prop_assert!(a <= b, "quantile({lo_q})={a} > quantile({hi_q})={b}");
    }

    #[test]
    fn rng_uniform_below_is_always_in_range(seed in 0u64..10_000, n in 1u64..1_000_000) {
        let mut r = RngStream::new(seed);
        for _ in 0..100 {
            prop_assert!(r.uniform_below(n) < n);
        }
    }

    #[test]
    fn rng_substreams_with_distinct_labels_differ(seed in 0u64..10_000, l1 in 0u64..1000, l2 in 0u64..1000) {
        prop_assume!(l1 != l2);
        let parent = RngStream::new(seed);
        let mut a = parent.substream(l1);
        let mut b = parent.substream(l2);
        let matches = (0..16).filter(|_| a.next_u64_raw() == b.next_u64_raw()).count();
        prop_assert!(matches < 2, "substreams {l1} and {l2} coincide");
    }
}

proptest! {
    // The histogram path and the exact (sorted-sample) path share one
    // rank convention (`stats::nearest_rank`), so for in-range data a
    // histogram quantile may only differ from the exact quantile by
    // bin granularity: the exact rank-th sample lies inside the bin
    // whose upper edge the histogram reports, so the gap is at most one
    // bin width.
    #[test]
    fn histogram_and_exact_quantiles_agree_within_one_bin(
        samples in prop::collection::vec(0.0..1000.0f64, 1..400),
        nbins in 4usize..256,
        q in 0.0..=1.0f64,
    ) {
        use des::stats::nearest_rank;

        let (lo, hi) = (0.0, 1000.0);
        let mut h = Histogram::new(lo, hi, nbins);
        for &x in &samples {
            h.push(x);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = nearest_rank(q, sorted.len() as u64) as usize;
        let exact = sorted[rank - 1];
        let hist = h.quantile(q).expect("nonempty histogram");
        // The histogram reports the midpoint of the bin holding the
        // rank-th sample, so it is within half a bin of the exact value
        // — "one bin width" with slack for edge-placement rounding.
        let bin_width = (hi - lo) / nbins as f64;
        prop_assert!(
            (hist - exact).abs() <= bin_width + 1e-9,
            "q={q}: histogram {hist} vs exact {exact} (bin width {bin_width})"
        );
    }
}
