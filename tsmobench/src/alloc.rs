//! A counting global allocator for allocation-per-neighbor counts.
//!
//! The count is per thread, so it is exact and repeatable for a search
//! driven on one thread even while other threads (the test runner, daemons)
//! allocate. Install it with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;` in the
//! binary; without it [`thread_allocations`] stays at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of allocation calls
/// (`alloc`, `alloc_zeroed` and `realloc` each count one).
pub struct CountingAlloc;

fn count_one() {
    // `try_with` fails only while the thread's locals are being torn down;
    // allocations made then are not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` without a destructor, which never
// allocates.
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

/// Allocation calls made so far by the current thread.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
