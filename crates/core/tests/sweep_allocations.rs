//! A sweep allocates per row, not per cell.
//!
//! A counting global allocator tallies the heap allocations the calling
//! thread makes. On one worker (`RTSDF_THREADS=1`) `sweep` runs on the
//! calling thread, so the tally of one sweep is exactly its own. Two grids with the same rows and the same
//! largest deadline share their block table and their row segments
//! (`paper_grid(16, n)` cuts into 16 whole-row segments for any `n ≥ 2`
//! on one worker); one has 56 more cells per row. If cells allocated,
//! the wider grid would cost at least 16·56 = 896 more allocations.
//!
//! This test is the only one in its binary, so no other test's
//! allocations interleave with it.

use dataflow_model::{GainModel, PipelineSpecBuilder, RtParams, Topology};
use rtsdf_core::comparison::{sweep, SweepConfig};
use rtsdf_core::threads::THREADS_ENV;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation on
/// the thread that asks for it.
struct Counting;

fn count() {
    // The count is unavailable while the thread is torn down; an
    // allocation then is not a sweep's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a `Cell` in const-initialized thread
// local storage, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn blast() -> Topology {
    let p = PipelineSpecBuilder::new(128)
        .stage("s0", 287.0, GainModel::Bernoulli { p: 0.379 })
        .stage(
            "s1",
            955.0,
            GainModel::CensoredPoisson {
                mean: 1.920,
                cap: 16,
            },
        )
        .stage("s2", 402.0, GainModel::Bernoulli { p: 0.0332 })
        .stage("s3", 2753.0, GainModel::Deterministic { k: 1 })
        .build()
        .unwrap();
    Topology::chain(&p)
}

/// Allocations the calling thread makes in one `sweep` of
/// `paper_grid(16, cols)`.
fn sweep_allocations(p: &Topology, cols: usize) -> u64 {
    let (tau0s, ds) = RtParams::paper_grid(16, cols);
    let cfg = SweepConfig::paper_blast();
    let before = ALLOCATIONS.with(Cell::get);
    let r = sweep(p, &tau0s, &ds, &cfg, None).unwrap();
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(r.cells.len(), 16 * cols);
    assert!(r.cells.iter().any(|c| c.difference().is_some()));
    after - before
}

/// Allocations the wider grid may make beyond the narrower one. Both
/// make the same number (236 on the BLAST chain): every buffer sized by
/// the column count is one allocation either way. The few allowed here
/// keep the bound about per-cell cost, not about how a buffer grows.
const SLACK: u64 = 4;

#[test]
fn sweep_allocates_per_row_not_per_cell() {
    // The only test in this binary, so no other thread reads the
    // environment while it is set.
    std::env::set_var(THREADS_ENV, "1");
    let p = blast();
    // A first sweep takes any one-time allocations (lazy statics).
    sweep_allocations(&p, 8);
    let narrow = sweep_allocations(&p, 8);
    let wide = sweep_allocations(&p, 64);
    assert!(
        wide <= narrow + SLACK,
        "16x64 made {wide} allocations, 16x8 made {narrow}"
    );
}
