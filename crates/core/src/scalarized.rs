//! Weighted-sum (single-criterion) tabu search — the alternative §II.C of
//! the paper weighs the multiobjective approach against.
//!
//! "Solving the problem a number of times with modified weights and a
//! single criteria approach can result in several pareto-optimal solutions
//! as well, however if weights are to be selected randomly the additional
//! effort of MO optimization may shrink considerably against the
//! additional computational effort of the single criteria approach."
//!
//! [`WeightedSumTs`] is a classic tabu search on the scalarized objective
//! `w · (f1, f2, f3)`; [`weighted_front`] runs it for a set of weight
//! vectors and collects the union of the best solutions into a Pareto
//! front, so the ablation harness can compare *k weighted runs sharing the
//! MO run's total budget* against a single TSMO run — the exact trade the
//! paragraph above describes.

use crate::config::TsmoConfig;
use crate::neighborhood::{generate_chunk, LazyNeighbor, StepNeighbor};
use crate::outcome::FrontEntry;
use crate::tabu::TabuList;
use deme::EvaluationBudget;
use detrand::{RandomSource, Rng, Xoshiro256StarStar};
use pareto::ParetoFront;
use std::sync::Arc;
use vrptw::solution::EvaluatedSolution;
use vrptw::{Instance, Objectives, Solution};
use vrptw_construct::randomized_i1;
use vrptw_operators::SampleParams;

/// A single-objective tabu search over the weighted objective sum.
pub struct WeightedSumTs {
    cfg: TsmoConfig,
    weights: [f64; 3],
}

/// Result of one weighted run: the best solution under the scalarization.
#[derive(Debug, Clone)]
pub struct WeightedOutcome {
    /// Best solution found.
    pub best: FrontEntry,
    /// Scalarized value of `best`.
    pub value: f64,
    /// Evaluations consumed.
    pub evaluations: u64,
    /// Iterations performed.
    pub iterations: usize,
}

/// `w · (f1, f2, f3)`, summed left to right.
pub(crate) fn scalar(weights: &[f64; 3], o: Objectives) -> f64 {
    let v = o.to_vector();
    weights[0] * v[0] + weights[1] * v[1] + weights[2] * v[2]
}

impl WeightedSumTs {
    /// Creates the runner; `weights` applies to `(distance, vehicles,
    /// tardiness)`.
    ///
    /// # Panics
    /// Panics if any weight is negative or all are zero.
    pub fn new(cfg: TsmoConfig, weights: [f64; 3]) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        assert!(
            weights.iter().any(|&w| w > 0.0),
            "at least one weight must be positive"
        );
        Self { cfg, weights }
    }

    /// Runs to budget exhaustion from a randomized I1 start, tracking the
    /// best scalarized solution.
    pub fn run(&self, inst: &Arc<Instance>) -> WeightedOutcome {
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.cfg.seed);
        let start = randomized_i1(inst, &mut rng);
        tabu_search(
            inst,
            &self.cfg,
            &self.weights,
            start,
            rng,
            self.cfg.max_evaluations,
        )
    }
}

/// The weighted-sum tabu loop: from `start`, spends up to `budget`
/// evaluations on neighborhoods of `cfg.neighborhood_size` drawn with
/// `rng`, and restarts from the incumbent after `cfg.stagnation_limit`
/// iterations without improvement. Adaptive memory's improvement tasks
/// run it too.
pub(crate) fn tabu_search(
    inst: &Instance,
    cfg: &TsmoConfig,
    weights: &[f64; 3],
    start: Solution,
    mut rng: Xoshiro256StarStar,
    budget: u64,
) -> WeightedOutcome {
    let budget = EvaluationBudget::new(budget);
    let params = SampleParams {
        feasibility: cfg.feasibility_criterion,
    };
    let mut current = Arc::new(EvaluatedSolution::new(start, inst));
    let mut tabu = TabuList::new(cfg.tabu_tenure);
    let mut best = FrontEntry::new(current.solution().clone(), current.objectives());
    let mut best_value = scalar(weights, current.objectives());
    let mut stagnation = 0usize;
    let mut iterations = 0usize;

    while !budget.exhausted() {
        let granted = budget.try_consume(cfg.neighborhood_size as u64) as usize;
        if granted == 0 {
            break;
        }
        let seed = rng.next_u64();
        let pool = generate_chunk(inst, &current, seed, granted, params, iterations).neighbors;
        iterations += 1;
        // Classic best-improvement selection with aspiration: the best
        // non-tabu neighbor, or a tabu one that beats the incumbent.
        let mut chosen: Option<&LazyNeighbor> = None;
        let mut chosen_value = f64::INFINITY;
        for nb in &pool {
            let value = scalar(weights, nb.objectives());
            let tabu_hit = tabu.is_tabu(nb.arcs_created());
            let admissible = !tabu_hit || value < best_value;
            if admissible && value < chosen_value {
                chosen = Some(nb);
                chosen_value = value;
            }
        }
        match chosen {
            Some(nb) => {
                tabu.push(nb.arcs_removed().to_vec());
                let solution = nb.solution();
                if chosen_value < best_value {
                    best_value = chosen_value;
                    best = FrontEntry::new(solution.clone(), nb.objectives());
                    stagnation = 0;
                } else {
                    stagnation += 1;
                }
                current = Arc::new(EvaluatedSolution::new(solution, inst));
            }
            None => stagnation += 1,
        }
        if stagnation >= cfg.stagnation_limit {
            // Restart from the incumbent.
            current = Arc::new(EvaluatedSolution::new(best.solution.clone(), inst));
            stagnation = 0;
        }
    }
    WeightedOutcome {
        best,
        value: best_value,
        evaluations: budget.consumed(),
        iterations,
    }
}

/// Runs `k` weighted-sum searches with random weight vectors (uniform on
/// the simplex via normalized exponentials of uniforms — here simply
/// normalized uniforms, which suffices for coverage of the weight space)
/// sharing `total_budget` evaluations, and returns the Pareto front of
/// their best solutions. This is §II.C's "solving the problem a number of
/// times with modified weights".
pub fn weighted_front(
    inst: &Arc<Instance>,
    base: &TsmoConfig,
    k: usize,
    total_budget: u64,
) -> ParetoFront<FrontEntry> {
    assert!(k > 0, "at least one weighted run required");
    let mut rng = Xoshiro256StarStar::seed_from_u64(base.seed ^ 0x5CA1A);
    let mut front = ParetoFront::new();
    let per_run = (total_budget / k as u64).max(1);
    for run in 0..k {
        // Random weights; tardiness always weighted (feasibility matters).
        let raw = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
        let sum: f64 = raw.iter().sum::<f64>().max(1e-9);
        let weights = [raw[0] / sum, raw[1] / sum, (raw[2] / sum).max(0.1)];
        let cfg = TsmoConfig {
            max_evaluations: per_run,
            seed: base.seed ^ (run as u64 + 1),
            ..base.clone()
        };
        let out = WeightedSumTs::new(cfg, weights).run(inst);
        front.insert(out.best);
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn cfg(evals: u64) -> TsmoConfig {
        TsmoConfig {
            max_evaluations: evals,
            neighborhood_size: 50,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn weighted_run_improves_the_scalar_objective() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
        let weights = [1.0, 100.0, 10.0];
        let out = WeightedSumTs::new(cfg(4_000).with_seed(1), weights).run(&inst);
        assert_eq!(out.evaluations, 4_000);
        assert!(out.best.solution.check(&inst).is_empty());
        // The incumbent must beat (or match) a fresh I1 construction.
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let reference = randomized_i1(&inst, &mut rng).evaluate(&inst);
        assert!(out.value <= scalar(&weights, reference) + 1e-9);
    }

    #[test]
    fn heavier_vehicle_weight_yields_fewer_vehicles() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 40, 9).build());
        let light = WeightedSumTs::new(cfg(4_000).with_seed(2), [1.0, 0.0, 10.0]).run(&inst);
        let heavy = WeightedSumTs::new(cfg(4_000).with_seed(2), [0.01, 1000.0, 10.0]).run(&inst);
        assert!(
            heavy.best.objectives.vehicles <= light.best.objectives.vehicles,
            "vehicle-heavy weights should not deploy more vehicles ({} vs {})",
            heavy.best.objectives.vehicles,
            light.best.objectives.vehicles
        );
    }

    #[test]
    fn weighted_front_is_non_dominated_and_budget_split() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 3).build());
        let front = weighted_front(&inst, &cfg(0), 5, 5_000);
        assert!(!front.is_empty());
        assert!(front.len() <= 5);
        let nd = pareto::non_dominated_indices(front.items());
        assert_eq!(nd.len(), front.len());
        for e in front.items() {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    #[should_panic]
    fn negative_weights_rejected() {
        WeightedSumTs::new(cfg(100), [1.0, -1.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn all_zero_weights_rejected() {
        WeightedSumTs::new(cfg(100), [0.0, 0.0, 0.0]);
    }
}
