//! Neighborhood generation in deterministic, seed-derived chunks.
//!
//! Each iteration's neighborhood is produced in `cfg.chunks` chunks, every
//! chunk driven by its own seed drawn from the master RNG. The sequential
//! algorithm processes the chunks in order on one thread; the synchronous
//! variant hands one chunk to each processor and reassembles in chunk
//! order. Because a chunk's output depends only on `(seed, snapshot)`, the
//! two variants produce *identical* neighborhoods — the testable form of
//! the paper's claim that synchronous parallelization leaves the behavior
//! unchanged.

use detrand::Xoshiro256StarStar;
use std::sync::Arc as StdArc;
use vrptw::solution::{EvaluatedSolution, RoutePatch};
use vrptw::{Instance, Objectives, Solution};
use vrptw_operators::{sample_move_tallied, Arc, OperatorKind, SampleParams, SampleTally};

/// What [`SearchCore::step`](crate::SearchCore::step) reads from a
/// neighbor. The step judges every neighbor by its objectives and tabu
/// arcs, and asks for the solution only of those a memory admits or the
/// selection picks.
pub trait StepNeighbor {
    /// The neighbor's three objectives.
    fn objectives(&self) -> Objectives;
    /// Arcs the generating move created (tabu check).
    fn arcs_created(&self) -> &[Arc];
    /// Arcs the generating move removed (pushed on the tabu list when the
    /// neighbor is selected).
    fn arcs_removed(&self) -> &[Arc];
    /// Operator family of the generating move.
    fn operator(&self) -> OperatorKind;
    /// Iteration whose current solution spawned the neighbor.
    fn created_iteration(&self) -> usize;
    /// The neighboring solution, built (or copied) on each call.
    fn solution(&self) -> Solution;
}

/// A fully built neighbor. It remains only for callers that build their
/// own neighbors from `sample_move`, `Solution::patched` and the move's
/// arcs (tsmobench's outside-in driver); the library's own loops use
/// [`LazyNeighbor`]. It goes when the benchmark drives [`generate_chunk`]
/// itself (ROADMAP item 1).
#[derive(Debug, Clone)]
pub struct Neighbor {
    /// The materialized neighboring solution.
    pub solution: Solution,
    /// Its three objectives.
    pub objectives: Objectives,
    /// Arcs the generating move created (tabu check).
    pub arcs_created: Vec<Arc>,
    /// Arcs the generating move removed (pushed on the tabu list when the
    /// neighbor is selected).
    pub arcs_removed: Vec<Arc>,
    /// Operator family of the generating move (per-operator attribution
    /// in the step loop: accepted / improving / tabu-rejected counters).
    pub operator: OperatorKind,
    /// Iteration whose current solution spawned this neighbor (Fig. 1's
    /// iteration tags; in the asynchronous variant a neighbor can be
    /// considered in a later iteration than it was created in).
    pub created_iteration: usize,
}

impl StepNeighbor for Neighbor {
    fn objectives(&self) -> Objectives {
        self.objectives
    }
    fn arcs_created(&self) -> &[Arc] {
        &self.arcs_created
    }
    fn arcs_removed(&self) -> &[Arc] {
        &self.arcs_removed
    }
    fn operator(&self) -> OperatorKind {
        self.operator
    }
    fn created_iteration(&self) -> usize {
        self.created_iteration
    }
    fn solution(&self) -> Solution {
        self.solution.clone()
    }
}

/// One evaluated neighbor, not yet built: the move's route patch against
/// a shared handle to the snapshot it was sampled from, with the preview
/// objectives and tabu arcs the step judges it by. Self-contained (the
/// handle keeps the snapshot alive), so the asynchronous variant can
/// keep it across iterations. The fields are private because the
/// objectives and arcs describe exactly this patch of this snapshot.
#[derive(Debug, Clone)]
pub struct LazyNeighbor {
    snapshot: StdArc<EvaluatedSolution>,
    patch: RoutePatch,
    objectives: Objectives,
    arcs_created: Vec<Arc>,
    arcs_removed: Vec<Arc>,
    operator: OperatorKind,
    created_iteration: usize,
}

impl StepNeighbor for LazyNeighbor {
    fn objectives(&self) -> Objectives {
        self.objectives
    }
    fn arcs_created(&self) -> &[Arc] {
        &self.arcs_created
    }
    fn arcs_removed(&self) -> &[Arc] {
        &self.arcs_removed
    }
    fn operator(&self) -> OperatorKind {
        self.operator
    }
    fn created_iteration(&self) -> usize {
        self.created_iteration
    }
    /// The snapshot with the patch applied.
    fn solution(&self) -> Solution {
        self.snapshot.solution().patched(&self.patch)
    }
}

/// A generated chunk: the neighbors plus the per-operator sampling tally
/// accumulated while producing them. The tally travels with the chunk
/// (worker → master in the parallel variants) and is folded into the
/// run-level attribution by the search core at finish time.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    /// The evaluated neighbors, in draw order.
    pub neighbors: Vec<LazyNeighbor>,
    /// Per-operator proposed/feasible counts for every draw of this
    /// chunk (including failed draws, which produce no neighbor).
    pub tally: SampleTally,
}

/// Generates (up to) `count` neighbors of `snapshot` from `seed`, with
/// the per-operator [`SampleTally`] of every draw. Each neighbor holds
/// its route patch and a handle to `snapshot`; none is built.
///
/// Each successful draw costs one evaluation; the caller is responsible
/// for having reserved `count` evaluations from the shared budget. On
/// degenerate snapshots where the operators keep failing, fewer than
/// `count` neighbors are returned (the attempt cap prevents livelock).
pub fn generate_chunk(
    inst: &Instance,
    snapshot: &StdArc<EvaluatedSolution>,
    seed: u64,
    count: usize,
    params: SampleParams,
    created_iteration: usize,
) -> Chunk {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut tally = SampleTally::default();
    let max_attempts = count.saturating_mul(60).max(64);
    let mut attempts = 0;
    while out.len() < count && attempts < max_attempts {
        attempts += 1;
        if let Some(c) = sample_move_tallied(&mut rng, inst, snapshot, params, &mut tally) {
            let (arcs_removed, arcs_created) = c.mv.splice_delta(snapshot);
            out.push(LazyNeighbor {
                snapshot: StdArc::clone(snapshot),
                patch: c.patch,
                objectives: c.preview.objectives,
                arcs_created,
                arcs_removed,
                operator: c.mv.kind(),
                created_iteration,
            });
        }
    }
    Chunk {
        neighbors: out,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};
    use vrptw_construct::{i1, I1Config};

    fn setup() -> (StdArc<Instance>, StdArc<EvaluatedSolution>) {
        let inst = StdArc::new(GeneratorConfig::new(InstanceClass::R2, 40, 3).build());
        let sol = i1(&inst, &I1Config::default());
        let ev = StdArc::new(EvaluatedSolution::new(sol, &inst));
        (inst, ev)
    }

    #[test]
    fn chunk_is_deterministic_in_seed_and_snapshot() {
        let (inst, ev) = setup();
        let a = generate_chunk(&inst, &ev, 42, 30, SampleParams::default(), 0).neighbors;
        let b = generate_chunk(&inst, &ev, 42, 30, SampleParams::default(), 0).neighbors;
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.solution(), y.solution());
            assert_eq!(x.arcs_created(), y.arcs_created());
        }
        let c = generate_chunk(&inst, &ev, 43, 30, SampleParams::default(), 0).neighbors;
        let all_same =
            a.len() == c.len() && a.iter().zip(&c).all(|(x, y)| x.solution() == y.solution());
        assert!(!all_same, "different seeds should differ");
    }

    #[test]
    fn chunk_produces_requested_count_on_healthy_snapshots() {
        let (inst, ev) = setup();
        let n = generate_chunk(&inst, &ev, 1, 50, SampleParams::default(), 0).neighbors;
        assert_eq!(n.len(), 50);
    }

    #[test]
    fn neighbors_are_valid_and_correctly_evaluated() {
        let (inst, ev) = setup();
        for nb in generate_chunk(&inst, &ev, 7, 40, SampleParams::default(), 3).neighbors {
            let solution = nb.solution();
            assert!(solution.check(&inst).is_empty());
            let full = solution.evaluate(&inst);
            assert!((nb.objectives().distance - full.distance).abs() < 1e-6);
            assert_eq!(nb.objectives().vehicles, full.vehicles);
            assert!((nb.objectives().tardiness - full.tardiness).abs() < 1e-6);
            assert_eq!(nb.created_iteration(), 3);
        }
    }

    #[test]
    fn chunk_tally_accounts_every_draw() {
        let (inst, ev) = setup();
        let chunk = generate_chunk(&inst, &ev, 42, 30, SampleParams::default(), 0);
        // Every neighbor came from a feasible draw of its operator.
        let mut per_op = [0u64; 5];
        for nb in &chunk.neighbors {
            per_op[nb.operator().index()] += 1;
        }
        assert_eq!(chunk.tally.feasible, per_op);
        assert!(chunk.tally.total_proposed() >= chunk.neighbors.len() as u64);
    }

    #[test]
    fn degenerate_snapshot_does_not_livelock() {
        // Single route, one customer: only 2-opt* & friends, all impossible.
        let depot = vrptw::Customer {
            x: 0.0,
            y: 0.0,
            demand: 0.0,
            ready: 0.0,
            due: 100.0,
            service: 0.0,
        };
        let c = vrptw::Customer {
            x: 1.0,
            y: 0.0,
            demand: 1.0,
            ready: 0.0,
            due: 100.0,
            service: 0.0,
        };
        let inst = Instance::new("deg", vec![depot, c], 10.0, 1);
        let ev = StdArc::new(EvaluatedSolution::new(
            Solution::from_routes(vec![vec![1]]),
            &inst,
        ));
        let n = generate_chunk(&inst, &ev, 1, 20, SampleParams::default(), 0).neighbors;
        assert!(
            n.is_empty(),
            "no moves exist for a single-customer solution"
        );
    }
}
