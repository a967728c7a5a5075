//! The local feasibility filter allocates nothing: it reads a move's
//! splice arcs from inline buffers and a 2-opt's reversed segment in
//! place, so a draw it rejects costs no heap traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::solution::EvaluatedSolution;
use vrptw::Solution;
use vrptw_operators::descent::enumerate_moves;
use vrptw_operators::{Move, OperatorKind};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of allocation calls, so
/// the test runner's other threads do not disturb the count.
struct CountingAlloc;

fn count_one() {
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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const MOVES_PER_OPERATOR: usize = 10_000;

#[test]
fn feasibility_filter_never_allocates() {
    // Tight windows, so the filter both accepts and rejects.
    let inst = GeneratorConfig::new(InstanceClass::RC1, 60, 3).build();
    let customers: Vec<u16> = inst.customers().collect();
    let routes = customers.chunks(6).map(<[u16]>::to_vec).collect();
    let snapshot = EvaluatedSolution::new(Solution::from_routes(routes), &inst);
    let all = enumerate_moves(&snapshot);
    let moves: Vec<Move> = OperatorKind::ALL
        .iter()
        .flat_map(|&kind| {
            let of_kind: Vec<Move> = all.iter().copied().filter(|m| m.kind() == kind).collect();
            assert!(!of_kind.is_empty(), "{kind:?} has no move");
            of_kind.into_iter().cycle().take(MOVES_PER_OPERATOR)
        })
        .collect();

    let before = allocations();
    let mut accepted = [0usize; 5];
    for mv in &moves {
        if black_box(mv).splice_feasible(&inst, &snapshot) {
            accepted[mv.kind().index()] += 1;
        }
    }
    let allocated = allocations() - before;

    assert_eq!(
        allocated,
        0,
        "the filter allocated over {} moves",
        moves.len()
    );
    for kind in OperatorKind::ALL {
        let kept = accepted[kind.index()];
        assert!(
            kept > 0 && kept < MOVES_PER_OPERATOR,
            "{kind:?}: the filter kept {kept} of {MOVES_PER_OPERATOR}, so one path went unexercised"
        );
    }
}
