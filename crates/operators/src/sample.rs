//! Random sampling of candidate moves, one draw per call.
//!
//! The paper's neighborhood generation "draws a number of moves … from the
//! five operators": for each move an operator is chosen at random with
//! equal probability, and "if the operator was unable to find a suitable
//! move, with regard to the local feasibility criterion, a new random
//! number is drawn and possibly a different operator is selected". The
//! retry loop lives with the caller (the neighborhood builder in
//! `tsmo-core`); this module implements the single attempt.

use crate::moves::{Move, OperatorKind};
use detrand::Rng;
use vrptw::solution::{EvaluatedSolution, Preview, RoutePatch};
use vrptw::Instance;

/// Sampling policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SampleParams {
    /// Apply the local feasibility criterion (the paper's default). The
    /// ablation harness switches this off to measure the criterion's value.
    pub feasibility: bool,
}

impl Default for SampleParams {
    fn default() -> Self {
        Self { feasibility: true }
    }
}

/// A sampled move together with its expansion and evaluation — everything
/// the tabu search needs to treat it as a neighbor.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The move itself (tabu attributes come from here).
    pub mv: Move,
    /// Its route patch against the snapshot it was sampled from.
    pub patch: RoutePatch,
    /// The objectives of the patched solution.
    pub preview: Preview,
}

/// Per-operator draw/success counts from a sampling run. Indexed by
/// [`OperatorKind::index`]; merged across chunks and runs by addition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleTally {
    /// Draws handed to each operator (before any feasibility filter).
    pub proposed: [u64; OperatorKind::ALL.len()],
    /// Draws that produced a structurally valid, feasible candidate.
    pub feasible: [u64; OperatorKind::ALL.len()],
}

impl SampleTally {
    /// Adds another tally into this one element-wise.
    pub fn merge(&mut self, other: &SampleTally) {
        for (a, b) in self.proposed.iter_mut().zip(other.proposed.iter()) {
            *a += b;
        }
        for (a, b) in self.feasible.iter_mut().zip(other.feasible.iter()) {
            *a += b;
        }
    }

    /// Total draws across all operators.
    pub fn total_proposed(&self) -> u64 {
        self.proposed.iter().sum()
    }
}

/// Draws one operator uniformly at random and attempts to sample a move
/// with it. Returns `None` when the chosen operator could not produce a
/// suitable move for this snapshot (caller re-draws).
pub fn sample_move<R: Rng>(
    rng: &mut R,
    inst: &Instance,
    snapshot: &EvaluatedSolution,
    params: SampleParams,
) -> Option<Candidate> {
    let kind = OperatorKind::ALL[rng.index(OperatorKind::ALL.len())];
    sample_of_kind(rng, inst, snapshot, kind, params)
}

/// [`sample_move`] with per-operator attribution: counts the drawn
/// operator in `tally.proposed` and, on success, in `tally.feasible`.
/// Consumes exactly the same RNG sequence as `sample_move`, so
/// instrumented and uninstrumented runs stay trajectory-identical.
pub fn sample_move_tallied<R: Rng>(
    rng: &mut R,
    inst: &Instance,
    snapshot: &EvaluatedSolution,
    params: SampleParams,
    tally: &mut SampleTally,
) -> Option<Candidate> {
    let kind = OperatorKind::ALL[rng.index(OperatorKind::ALL.len())];
    tally.proposed[kind.index()] += 1;
    let candidate = sample_of_kind(rng, inst, snapshot, kind, params);
    if candidate.is_some() {
        tally.feasible[kind.index()] += 1;
    }
    candidate
}

/// Attempts to sample a move of a specific operator family.
///
/// A `Some` result is structurally valid, non-identity, and (when
/// `params.feasibility` is set) passes the local feasibility criterion:
/// every newly created arc satisfies [`arc_feasible`](crate::arc_feasible)
/// ([`Move::splice_feasible`]) and no touched route
/// exceeds the vehicle capacity.
pub fn sample_of_kind<R: Rng>(
    rng: &mut R,
    inst: &Instance,
    snapshot: &EvaluatedSolution,
    kind: OperatorKind,
    params: SampleParams,
) -> Option<Candidate> {
    let mv = match kind {
        OperatorKind::Relocate => sample_relocate(rng, snapshot)?,
        OperatorKind::Exchange => sample_exchange(rng, snapshot)?,
        OperatorKind::TwoOpt => sample_two_opt(rng, snapshot)?,
        OperatorKind::TwoOptStar => sample_two_opt_star(rng, snapshot)?,
        OperatorKind::OrOpt => sample_or_opt(rng, snapshot)?,
    };
    finish(inst, snapshot, mv, params)
}

/// Applies the feasibility filter to `mv`, then expands and evaluates it.
/// The filter reads only the move's splice arcs, so a rejected draw
/// expands nothing and allocates nothing.
fn finish(
    inst: &Instance,
    snapshot: &EvaluatedSolution,
    mv: Move,
    params: SampleParams,
) -> Option<Candidate> {
    if params.feasibility && !mv.splice_feasible(inst, snapshot) {
        return None;
    }
    let patch = mv.expand(snapshot);
    let preview = snapshot.preview(inst, &patch);
    // Capacity is a hard constraint by operator design (§II.A: "because of
    // the design of the operators, this violation could not occur").
    if preview.capacity_excess > 0.0 {
        return None;
    }
    Some(Candidate { mv, patch, preview })
}

fn sample_relocate<R: Rng>(rng: &mut R, snap: &EvaluatedSolution) -> Option<Move> {
    let n = snap.n_routes();
    if n < 2 {
        return None;
    }
    let from_route = rng.index(n);
    let mut to_route = rng.index(n - 1);
    if to_route >= from_route {
        to_route += 1;
    }
    let from_pos = rng.index(snap.route(from_route).len());
    let to_pos = rng.index(snap.route(to_route).len() + 1);
    Some(Move::Relocate {
        from: (from_route, from_pos),
        to: (to_route, to_pos),
    })
}

fn sample_exchange<R: Rng>(rng: &mut R, snap: &EvaluatedSolution) -> Option<Move> {
    let n = snap.n_routes();
    if n < 2 {
        return None;
    }
    let ra = rng.index(n);
    let mut rb = rng.index(n - 1);
    if rb >= ra {
        rb += 1;
    }
    let pa = rng.index(snap.route(ra).len());
    let pb = rng.index(snap.route(rb).len());
    Some(Move::Exchange {
        a: (ra, pa),
        b: (rb, pb),
    })
}

fn sample_two_opt<R: Rng>(rng: &mut R, snap: &EvaluatedSolution) -> Option<Move> {
    let n = snap.n_routes();
    let route = rng.index(n);
    let len = snap.route(route).len();
    if len < 2 {
        return None;
    }
    let i = rng.index(len - 1);
    let j = rng.range_u64(i as u64 + 1, len as u64) as usize;
    Some(Move::TwoOpt { route, i, j })
}

fn sample_two_opt_star<R: Rng>(rng: &mut R, snap: &EvaluatedSolution) -> Option<Move> {
    let n = snap.n_routes();
    if n < 2 {
        return None;
    }
    let a = rng.index(n);
    let mut b = rng.index(n - 1);
    if b >= a {
        b += 1;
    }
    let len_a = snap.route(a).len();
    let len_b = snap.route(b).len();
    let cut_a = rng.index(len_a + 1);
    let cut_b = rng.index(len_b + 1);
    // Reject relabelings: swapping both full routes or both empty tails.
    if (cut_a == 0 && cut_b == 0) || (cut_a == len_a && cut_b == len_b) {
        return None;
    }
    Some(Move::TwoOptStar { a, cut_a, b, cut_b })
}

fn sample_or_opt<R: Rng>(rng: &mut R, snap: &EvaluatedSolution) -> Option<Move> {
    let n = snap.n_routes();
    let route = rng.index(n);
    let len = snap.route(route).len();
    if len < 3 {
        return None;
    }
    let from = rng.index(len - 1);
    let to = rng.index(len - 2);
    // `to` indexes the route with the pair removed; skip the identity slot.
    let to = if to >= from { to + 1 } else { to };
    if to > len - 2 {
        return None;
    }
    Some(Move::OrOpt { route, from, to })
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::Xoshiro256StarStar;
    use vrptw::{Instance, Solution};

    fn setup(routes: Vec<Vec<u16>>) -> (Instance, EvaluatedSolution) {
        let inst = Instance::tiny();
        let ev = EvaluatedSolution::new(Solution::from_routes(routes), &inst);
        (inst, ev)
    }

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(7)
    }

    #[test]
    fn sampled_candidates_keep_permutation_invariant() {
        let (inst, ev) = setup(vec![vec![1, 2], vec![3, 4]]);
        let mut r = rng();
        let mut produced = 0;
        for _ in 0..500 {
            if let Some(c) = sample_move(&mut r, &inst, &ev, SampleParams::default()) {
                produced += 1;
                let mut applied = ev.clone();
                applied.apply(&inst, c.patch.clone());
                assert!(
                    applied.solution().check(&inst).is_empty(),
                    "move {:?} broke the permutation",
                    c.mv
                );
            }
        }
        // OrOpt can never fire (routes too short) and Relocate is mostly
        // capacity-blocked on this tight instance, so well under half of
        // the draws succeed — but a healthy fraction must.
        assert!(
            produced > 100,
            "expected a healthy success rate, got {produced}"
        );
    }

    #[test]
    fn preview_matches_full_evaluation_for_samples() {
        let (inst, ev) = setup(vec![vec![1, 2], vec![3, 4]]);
        let mut r = rng();
        for _ in 0..200 {
            if let Some(c) = sample_move(&mut r, &inst, &ev, SampleParams::default()) {
                let mut applied = ev.clone();
                applied.apply(&inst, c.patch.clone());
                let full = applied.solution().evaluate(&inst);
                assert!((c.preview.objectives.distance - full.distance).abs() < 1e-9);
                assert_eq!(c.preview.objectives.vehicles, full.vehicles);
                assert!((c.preview.objectives.tardiness - full.tardiness).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn all_operator_kinds_can_fire() {
        // A roomier variant of `tiny` (capacity 20) so that three-customer
        // routes are capacity-feasible and every operator has valid moves.
        let mk = |x: f64, y: f64| vrptw::Customer {
            x,
            y,
            demand: 4.0,
            ready: 0.0,
            due: 100.0,
            service: 1.0,
        };
        let depot = vrptw::Customer {
            x: 0.0,
            y: 0.0,
            demand: 0.0,
            ready: 0.0,
            due: 1000.0,
            service: 0.0,
        };
        let inst = Instance::new(
            "roomy",
            vec![
                depot,
                mk(10.0, 0.0),
                mk(0.0, 10.0),
                mk(-10.0, 0.0),
                mk(0.0, -10.0),
            ],
            20.0,
            3,
        );
        let ev = EvaluatedSolution::new(Solution::from_routes(vec![vec![1, 2, 3], vec![4]]), &inst);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            if let Some(c) = sample_move(&mut r, &inst, &ev, SampleParams::default()) {
                seen.insert(c.mv.kind());
            }
        }
        for kind in OperatorKind::ALL {
            assert!(seen.contains(&kind), "{kind:?} never produced a move");
        }
    }

    #[test]
    fn tallied_sampler_matches_plain_sampler_and_counts() {
        let (inst, ev) = setup(vec![vec![1, 2], vec![3, 4]]);
        let mut plain_rng = rng();
        let mut tallied_rng = rng();
        let mut tally = SampleTally::default();
        let mut successes = 0u64;
        for _ in 0..500 {
            let plain = sample_move(&mut plain_rng, &inst, &ev, SampleParams::default());
            let tallied = sample_move_tallied(
                &mut tallied_rng,
                &inst,
                &ev,
                SampleParams::default(),
                &mut tally,
            );
            // Identical RNG consumption ⇒ identical draws, forever.
            assert_eq!(plain.as_ref().map(|c| c.mv), tallied.as_ref().map(|c| c.mv));
            successes += u64::from(tallied.is_some());
        }
        assert_eq!(tally.total_proposed(), 500);
        assert_eq!(tally.feasible.iter().sum::<u64>(), successes);
        for (p, f) in tally.proposed.iter().zip(tally.feasible.iter()) {
            assert!(f <= p, "feasible cannot exceed proposed");
        }
        // Merging doubles every cell.
        let mut doubled = tally;
        doubled.merge(&tally);
        assert_eq!(doubled.total_proposed(), 1000);
    }

    #[test]
    fn capacity_violations_are_rejected() {
        // tiny: capacity 10, demands 4 => max 2 customers per route.
        let (inst, ev) = setup(vec![vec![1, 2], vec![3, 4]]);
        let mut r = rng();
        for _ in 0..1000 {
            if let Some(c) = sample_of_kind(
                &mut r,
                &inst,
                &ev,
                OperatorKind::Relocate,
                SampleParams::default(),
            ) {
                // Every accepted relocate keeps loads within capacity.
                assert_eq!(c.preview.capacity_excess, 0.0);
                let mut applied = ev.clone();
                applied.apply(&inst, c.patch.clone());
                for i in 0..applied.n_routes() {
                    assert!(applied.route_eval(i).load <= inst.capacity());
                }
            }
        }
    }

    #[test]
    fn relocate_impossible_with_single_route() {
        let (inst, ev) = setup(vec![vec![1, 2]]);
        let mut r = rng();
        for kind in [
            OperatorKind::Relocate,
            OperatorKind::Exchange,
            OperatorKind::TwoOptStar,
        ] {
            assert!(
                sample_of_kind(&mut r, &inst, &ev, kind, SampleParams::default()).is_none(),
                "{kind:?} needs two routes"
            );
        }
    }

    #[test]
    fn two_opt_needs_two_customers() {
        let (inst, ev) = setup(vec![vec![1], vec![2], vec![3]]);
        let mut r = rng();
        for _ in 0..50 {
            assert!(sample_of_kind(
                &mut r,
                &inst,
                &ev,
                OperatorKind::TwoOpt,
                SampleParams::default()
            )
            .is_none());
        }
    }

    #[test]
    fn or_opt_needs_three_customers() {
        let (inst, ev) = setup(vec![vec![1, 2], vec![3, 4]]);
        let mut r = rng();
        for _ in 0..50 {
            assert!(sample_of_kind(
                &mut r,
                &inst,
                &ev,
                OperatorKind::OrOpt,
                SampleParams::default()
            )
            .is_none());
        }
    }

    #[test]
    fn or_opt_never_produces_identity() {
        let inst =
            vrptw::generator::GeneratorConfig::new(vrptw::generator::InstanceClass::R2, 12, 3)
                .with_max_vehicles(3)
                .build();
        let sol = vrptw_construct_like(&inst);
        let ev = EvaluatedSolution::new(sol, &inst);
        let mut r = rng();
        for _ in 0..500 {
            if let Some(c) = sample_of_kind(
                &mut r,
                &inst,
                &ev,
                OperatorKind::OrOpt,
                SampleParams::default(),
            ) {
                if let Move::OrOpt { route, .. } = c.mv {
                    let mut applied = ev.clone();
                    let before = ev.route(route).to_vec();
                    applied.apply(&inst, c.patch.clone());
                    assert!(
                        applied.route(route) != before.as_slice(),
                        "or-opt {:?} was an identity",
                        c.mv
                    );
                }
            }
        }
    }

    /// A crude round-robin split of customers into 3 routes (test helper —
    /// the real construction heuristic lives in `vrptw-construct`).
    fn vrptw_construct_like(inst: &Instance) -> Solution {
        let mut routes: Vec<Vec<u16>> = vec![Vec::new(); 3];
        for (i, c) in inst.customers().enumerate() {
            routes[i % 3].push(c);
        }
        Solution::from_routes(routes)
    }

    #[test]
    fn feasibility_off_admits_more_moves() {
        // A tight-window instance where many splices violate windows.
        let inst =
            vrptw::generator::GeneratorConfig::new(vrptw::generator::InstanceClass::R1, 30, 5)
                .build();
        let sol = Solution::one_customer_per_route(&inst);
        let ev = EvaluatedSolution::new(sol, &inst);
        let strict = SampleParams { feasibility: true };
        let loose = SampleParams { feasibility: false };
        let count = |params: SampleParams| {
            let mut r = rng();
            (0..2000)
                .filter(|_| sample_move(&mut r, &inst, &ev, params).is_some())
                .count()
        };
        assert!(count(loose) >= count(strict));
    }
}
