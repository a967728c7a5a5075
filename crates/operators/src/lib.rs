//! Neighborhood operators for the CVRPTW (§II.B of the paper).
//!
//! Five operators, each given the same chance to create a neighboring
//! solution:
//!
//! * **Relocate** — move a customer from one route to another
//!   (a `(1, 0)` λ-exchange in Osman's terminology);
//! * **Exchange** — swap two customers of different routes (`(1, 1)`);
//! * **2-opt** — reverse a tour or part of it;
//! * **2-opt\*** — cross two tours, exchanging their tails;
//! * **Or-opt** — move two consecutive customers to a different place in
//!   the same tour.
//!
//! Every operator applies the paper's *local feasibility criterion*: a move
//! is discarded when it would obviously violate a time window at the splice
//! points (e.g. inserting `k` between `i` and `j` is rejected when
//! `a_i + c_i + t_{i,k} > b_k` or `a_k + c_k + t_{k,j} > b_j`) or when it
//! would exceed the vehicle capacity. The criterion is deliberately weak —
//! solutions with time-window violations still occur (soft windows!) — but
//! strong enough that the search can return to fully feasible solutions.
//!
//! Moves are plain data ([`Move`]); [`Move::expand`] turns a move into a
//! [`RoutePatch`](vrptw::solution::RoutePatch) against the snapshot it was
//! sampled from, and [`Move::splice_delta`] lists the arc attributes the
//! tabu list is built on from the move's splice points alone.
//! [`Move::splice_feasible`] applies the criterion to the same splice arcs
//! without allocating, so a rejected draw costs no expansion.
//! [`Move::arc_delta`] (with [`Move::arcs_created`]/[`Move::arcs_removed`])
//! is the reference oracle: it expands the move and diffs the touched
//! routes, and the tests hold the splice form equal to it.

pub mod descent;
mod feasibility;
mod moves;
mod sample;

pub use descent::{descend, DescentConfig, DescentOutcome};
pub use feasibility::{arc_feasible, insertion_feasible};
pub use moves::{Arc, Move, OperatorKind};
pub use sample::{
    sample_move, sample_move_tallied, sample_of_kind, Candidate, SampleParams, SampleTally,
};

#[cfg(test)]
mod proptests;
