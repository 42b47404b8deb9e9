//! Scale invariance of LP1, right-shift and rounding: the 40-job
//! probe-family instance scaled by 10^k, k = 0..=9 (up to about 1.2e12
//! slots). LP1's objective scales exactly, its run count is fixed, and
//! `right_shift` allocates the same bytes at every scale — nothing per
//! slot. The rounding, whose schedule lists every unit, runs for k ≤ 3.
//!
//! This file is its own test binary with a single test, so the counting
//! allocator below sees only this test's allocations.

use abt_active::{lp_rounding_from, right_shift, solve_active_lp};
use abt_core::io::read_instance;
use abt_core::{Instance, Job};
use abt_lp::Rat;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the bytes every allocation asks for.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` guarantees hold for `System` too.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` meets the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn scaled(base: &Instance, f: i64) -> Instance {
    let jobs = base
        .jobs()
        .iter()
        .map(|j| Job::new(j.release * f, j.deadline * f, j.length * f))
        .collect();
    Instance::new(jobs, base.g()).unwrap()
}

#[test]
fn lp1_right_shift_and_rounding_are_horizon_independent() {
    let base = read_instance(include_str!("fixtures/probe40.txt")).unwrap();
    let base_lp = solve_active_lp(&base).unwrap();
    let base_runs = base_lp.slots.runs().len();
    let mut shift_bytes = None;
    for k in 0..=9u32 {
        let f = 10i64.pow(k);
        let inst = scaled(&base, f);
        let lp = solve_active_lp(&inst).unwrap();
        assert_eq!(
            lp.objective,
            base_lp.objective.mul(&Rat::from_int(f)),
            "k = {k}"
        );
        assert_eq!(lp.slots.runs().len(), base_runs, "k = {k}");
        assert_eq!(
            lp.slots.len() as i64,
            (base.max_deadline() - base.min_release()) * f
        );

        let before = ALLOCATED.load(Ordering::Relaxed);
        let rs = right_shift(&inst, &lp);
        let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
        assert_eq!(*shift_bytes.get_or_insert(bytes), bytes, "k = {k}");
        let mass = rs
            .segments
            .iter()
            .fold(Rat::ZERO, |acc, s| acc.add(&s.y_sum));
        assert_eq!(mass, lp.objective, "k = {k}");

        if k <= 3 {
            let out = lp_rounding_from(&inst, &lp).unwrap();
            out.schedule.validate(&inst).unwrap();
            assert_eq!(out.schedule.cost(), out.cost);
            assert!(
                out.within_two_lp(),
                "k = {k}: {} > 2·{}",
                out.cost,
                lp.objective
            );
        }
    }
}
