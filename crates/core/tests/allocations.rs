//! Allocation gate of the library's own search loop: a sequential solve
//! builds a solution only for the neighbors a memory admits or the step
//! selects, so its heap allocations per evaluation stay a small constant
//! instead of a copy of every neighbor's routes.
//!
//! The count is per thread (a `#[global_allocator]` that bumps a
//! thread-local counter), so it is exact for a solve run on the test's
//! own thread while the test harness allocates on others.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tsmo_core::{ParallelVariant, TsmoConfig};
use vrptw::generator::{GeneratorConfig, InstanceClass};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc`,
/// `alloc_zeroed` and `realloc` calls.
struct CountingAlloc;

fn count_one() {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`
// without a destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Evaluations per solve: enough iterations (100 at the paper's
/// neighborhood of 200) for the per-iteration work to dominate, and
/// affordable in a debug build.
const EVALUATIONS: u64 = 20_000;

/// The gate. Before neighbors were built lazily a solve made 48.8
/// allocations per evaluation on R1-100 and 43.9 on C2-400.
const MAX_ALLOCATIONS_PER_EVALUATION: f64 = 10.0;

/// Allocations per evaluation of one sequential solve at paper settings
/// (I1 construction included), printed for the record.
fn allocations_per_evaluation(class: InstanceClass, customers: usize) -> f64 {
    let inst = Arc::new(GeneratorConfig::new(class, customers, 1).build());
    let cfg = TsmoConfig {
        max_evaluations: EVALUATIONS,
        ..TsmoConfig::default().with_seed(7)
    };
    let before = thread_allocations();
    let out = ParallelVariant::Sequential.run(&inst, &cfg);
    let allocations = thread_allocations() - before;
    assert_eq!(out.evaluations, EVALUATIONS);
    let per_eval = allocations as f64 / out.evaluations as f64;
    println!(
        "{class:?}-{customers}: {allocations} allocations over {} evaluations = {per_eval:.2} per evaluation",
        out.evaluations
    );
    per_eval
}

#[test]
fn sequential_r1_100_allocates_at_most_ten_per_evaluation() {
    let per_eval = allocations_per_evaluation(InstanceClass::R1, 100);
    assert!(
        per_eval <= MAX_ALLOCATIONS_PER_EVALUATION,
        "R1-100: {per_eval:.2} allocations per evaluation"
    );
}

#[test]
fn sequential_c2_400_allocates_at_most_ten_per_evaluation() {
    let per_eval = allocations_per_evaluation(InstanceClass::C2, 400);
    assert!(
        per_eval <= MAX_ALLOCATIONS_PER_EVALUATION,
        "C2-400: {per_eval:.2} allocations per evaluation"
    );
}
