//! Deterministic best-improvement descent over the full move vocabulary.
//!
//! Unlike the tabu search's *sampled* neighborhoods, this enumerates every
//! structurally valid move of all five operator families and repeatedly
//! applies the best one under a weighted scalarization of the three
//! objectives. It serves two roles in the suite:
//!
//! * a **polisher** for fronts produced by the metaheuristics (the classic
//!   "improvement phase" of routing pipelines), and
//! * a **baseline** local search the ablation harness can compare the tabu
//!   searches against.

use crate::moves::{Move, OperatorKind};
use vrptw::solution::EvaluatedSolution;
use vrptw::{Instance, Objectives, Solution};

/// Scalarization and termination knobs for the descent.
#[derive(Debug, Clone, Copy)]
pub struct DescentConfig {
    /// Weights of `(distance, vehicles, tardiness)` in the improvement
    /// criterion. The defaults make a vehicle "worth" a large detour and a
    /// unit of tardiness slightly more than a unit of distance, which
    /// drives solutions toward feasibility first.
    pub weights: [f64; 3],
    /// Upper bound on improving moves applied (safety valve; descent on
    /// benchmark-sized instances converges far earlier).
    pub max_moves: usize,
}

impl Default for DescentConfig {
    fn default() -> Self {
        Self {
            weights: [1.0, 100.0, 10.0],
            max_moves: 10_000,
        }
    }
}

/// The result of a descent run.
#[derive(Debug, Clone)]
pub struct DescentOutcome {
    /// The locally optimal solution.
    pub solution: Solution,
    /// Its objectives.
    pub objectives: Objectives,
    /// Number of improving moves applied.
    pub moves_applied: usize,
}

fn scalar(weights: &[f64; 3], o: Objectives) -> f64 {
    let v = o.to_vector();
    weights[0] * v[0] + weights[1] * v[1] + weights[2] * v[2]
}

/// Runs best-improvement descent from `start` until a local optimum of the
/// enumerated neighborhood (or the move cap) is reached.
pub fn descend(inst: &Instance, start: Solution, cfg: &DescentConfig) -> DescentOutcome {
    let mut current = EvaluatedSolution::new(start, inst);
    let mut moves_applied = 0;
    while moves_applied < cfg.max_moves {
        let base = scalar(&cfg.weights, current.objectives());
        let mut best: Option<(Move, f64)> = None;
        for mv in enumerate_moves(&current) {
            let patch = mv.expand(&current);
            let preview = current.preview(inst, &patch);
            if preview.capacity_excess > 0.0 {
                continue;
            }
            let value = scalar(&cfg.weights, preview.objectives);
            if value < base - 1e-9 && best.as_ref().is_none_or(|(_, b)| value < *b) {
                best = Some((mv, value));
            }
        }
        match best {
            Some((mv, _)) => {
                let patch = mv.expand(&current);
                current.apply(inst, patch);
                moves_applied += 1;
            }
            None => break,
        }
    }
    let objectives = current.objectives();
    DescentOutcome {
        solution: current.into_solution(),
        objectives,
        moves_applied,
    }
}

/// Enumerates every structurally valid move of all five families against
/// the snapshot (the deterministic counterpart of random sampling).
pub fn enumerate_moves(snap: &EvaluatedSolution) -> Vec<Move> {
    let n = snap.n_routes();
    let mut out = Vec::new();
    // Relocate + Exchange + 2-opt* need route pairs.
    for a in 0..n {
        let len_a = snap.route(a).len();
        for b in 0..n {
            if a == b {
                continue;
            }
            let len_b = snap.route(b).len();
            for pa in 0..len_a {
                for pb in 0..=len_b {
                    out.push(Move::Relocate {
                        from: (a, pa),
                        to: (b, pb),
                    });
                }
                if a < b {
                    for pb in 0..len_b {
                        out.push(Move::Exchange {
                            a: (a, pa),
                            b: (b, pb),
                        });
                    }
                }
            }
            if a < b {
                for cut_a in 0..=len_a {
                    for cut_b in 0..=len_b {
                        if (cut_a == 0 && cut_b == 0) || (cut_a == len_a && cut_b == len_b) {
                            continue;
                        }
                        out.push(Move::TwoOptStar { a, cut_a, b, cut_b });
                    }
                }
            }
        }
        // Intra-route families.
        for i in 0..len_a.saturating_sub(1) {
            for j in (i + 1)..len_a {
                out.push(Move::TwoOpt { route: a, i, j });
            }
        }
        if len_a >= 3 {
            for from in 0..(len_a - 1) {
                for to in 0..=(len_a - 2) {
                    if to != from {
                        out.push(Move::OrOpt { route: a, from, to });
                    }
                }
            }
        }
    }
    out
}

/// Number of enumerated moves per family, for diagnostics and tests.
pub fn neighborhood_census(snap: &EvaluatedSolution) -> [(OperatorKind, usize); 5] {
    let mut counts = [0usize; 5];
    for mv in enumerate_moves(snap) {
        let idx = OperatorKind::ALL
            .iter()
            .position(|&k| k == mv.kind())
            .expect("known kind");
        counts[idx] += 1;
    }
    [
        (OperatorKind::Relocate, counts[0]),
        (OperatorKind::Exchange, counts[1]),
        (OperatorKind::TwoOpt, counts[2]),
        (OperatorKind::TwoOptStar, counts[3]),
        (OperatorKind::OrOpt, counts[4]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn snapshot(inst: &Instance, routes: Vec<Vec<u16>>) -> EvaluatedSolution {
        EvaluatedSolution::new(Solution::from_routes(routes), inst)
    }

    /// A fleet-respecting start: customers dealt round-robin into k routes.
    fn round_robin(inst: &Instance, k: usize) -> Solution {
        let k = k.clamp(1, inst.max_vehicles());
        let mut routes: Vec<Vec<u16>> = vec![Vec::new(); k];
        for (i, c) in inst.customers().enumerate() {
            routes[i % k].push(c);
        }
        Solution::from_routes(routes)
    }

    #[test]
    fn census_counts_match_combinatorics() {
        let inst = Instance::tiny();
        let snap = snapshot(&inst, vec![vec![1, 2], vec![3, 4]]);
        let census = neighborhood_census(&snap);
        // Relocate: 2 routes × 2 customers × 3 insert slots = 12 (ordered pairs).
        assert_eq!(census[0], (OperatorKind::Relocate, 12));
        // Exchange: 2×2 position pairs for the one unordered route pair.
        assert_eq!(census[1], (OperatorKind::Exchange, 4));
        // TwoOpt: per route C(2,2) = 1 segment each.
        assert_eq!(census[2], (OperatorKind::TwoOpt, 2));
        // TwoOptStar: 3×3 cut pairs − 2 degenerate = 7.
        assert_eq!(census[3], (OperatorKind::TwoOptStar, 7));
        // OrOpt: routes too short.
        assert_eq!(census[4], (OperatorKind::OrOpt, 0));
    }

    #[test]
    fn descent_never_worsens_and_reaches_local_optimum() {
        let inst = GeneratorConfig::new(InstanceClass::R2, 30, 5).build();
        let start = round_robin(&inst, inst.max_vehicles());
        let start_obj = start.evaluate(&inst);
        let cfg = DescentConfig::default();
        let out = descend(&inst, start, &cfg);
        assert!(out.solution.check(&inst).is_empty());
        assert!(scalar(&cfg.weights, out.objectives) <= scalar(&cfg.weights, start_obj) + 1e-9);
        assert!(
            out.moves_applied > 0,
            "the trivial start is certainly improvable"
        );
        // Local optimality: running again applies nothing.
        let again = descend(&inst, out.solution.clone(), &cfg);
        assert_eq!(again.moves_applied, 0);
        assert_eq!(again.solution, out.solution);
    }

    #[test]
    fn descent_reduces_vehicles_with_heavy_vehicle_weight() {
        let inst = GeneratorConfig::new(InstanceClass::C2, 24, 3).build();
        let start = round_robin(&inst, inst.max_vehicles());
        let out = descend(
            &inst,
            start.clone(),
            &DescentConfig {
                weights: [0.001, 1000.0, 1.0],
                ..Default::default()
            },
        );
        assert!(
            out.objectives.vehicles < start.evaluate(&inst).vehicles,
            "vehicle-weighted descent must merge routes"
        );
    }

    #[test]
    fn move_cap_is_respected() {
        let inst = GeneratorConfig::new(InstanceClass::R2, 40, 7).build();
        let start = round_robin(&inst, inst.max_vehicles());
        let out = descend(
            &inst,
            start,
            &DescentConfig {
                max_moves: 3,
                ..Default::default()
            },
        );
        assert_eq!(out.moves_applied, 3);
    }

    #[test]
    fn enumerated_moves_are_all_expandable() {
        let inst = GeneratorConfig::new(InstanceClass::RC1, 15, 2).build();
        let mut routes: Vec<Vec<u16>> = vec![Vec::new(); 3];
        for (i, c) in inst.customers().enumerate() {
            routes[i % 3].push(c);
        }
        let snap = snapshot(&inst, routes);
        for mv in enumerate_moves(&snap) {
            let patch = mv.expand(&snap); // must not panic
            let mut applied = snap.clone();
            applied.apply(&inst, patch);
            assert!(applied.solution().check(&inst).is_empty(), "{mv:?}");
        }
    }
}
