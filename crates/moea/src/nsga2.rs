//! The NSGA-II main loop.

use crate::sorting::{crowded_compare, fast_non_dominated_sort, rank_and_crowd};
use crate::variation::{best_cost_route_crossover, mutate};
use deme::{EvaluationBudget, RunClock};
use detrand::{Rng, Xoshiro256StarStar};
use pareto::crowding_distances;
use std::sync::Arc;
use tsmo_core::{CancelToken, FrontEntry, TsmoOutcome};
use vrptw::{Instance, Solution};
use vrptw_construct::randomized_i1;

/// NSGA-II parameters.
#[derive(Debug, Clone)]
pub struct Nsga2Config {
    /// Population size (and offspring count per generation).
    pub population: usize,
    /// Total evaluation budget, counted like the tabu searches count theirs.
    pub max_evaluations: u64,
    /// Probability of crossover per offspring (else the receiver parent is
    /// cloned before mutation).
    pub crossover_rate: f64,
    /// Probability of mutating each offspring.
    pub mutation_rate: f64,
    /// Master seed.
    pub seed: u64,
    /// Solutions seeding the initial population (resume/racing). The first
    /// `population` entries fill initial slots — each consuming one
    /// evaluation exactly like a cold construction, so warm and cold runs
    /// spend equal budgets — and the remainder is constructed with
    /// randomized I1. Empty leaves the cold start byte-identical.
    pub warm_start: Vec<Solution>,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self {
            population: 60,
            max_evaluations: 100_000,
            crossover_rate: 0.9,
            mutation_rate: 0.3,
            seed: 0,
            warm_start: Vec::new(),
        }
    }
}

/// The NSGA-II runner.
pub struct Nsga2 {
    cfg: Nsga2Config,
}

impl Nsga2 {
    /// Creates the runner.
    ///
    /// # Panics
    /// Panics if the population is smaller than 2.
    pub fn new(cfg: Nsga2Config) -> Self {
        assert!(
            cfg.population >= 2,
            "population must hold at least two parents"
        );
        Self { cfg }
    }

    /// Runs until the budget is exhausted or the token stops the run;
    /// `iterations` counts generations, and `archive` is the final
    /// population's first front.
    ///
    /// The token is checked at the top of each generation, before any
    /// randomness is drawn, so a truncated run's population trajectory is
    /// a byte-identical prefix of the unstopped run's — the same contract
    /// the TSMO variants honor (`tsmo_core::CancelToken`).
    pub fn run(&self, inst: &Arc<Instance>, cancel: &CancelToken) -> TsmoOutcome {
        let clock = RunClock::start();
        let cfg = &self.cfg;
        let budget = EvaluationBudget::new(cfg.max_evaluations);
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);

        // Initial population: warm-start seeds first, randomized I1
        // constructions for the remaining slots.
        let init = budget.try_consume(cfg.population as u64) as usize;
        let mut pop: Vec<FrontEntry> = (0..init.max(2))
            .map(|i| {
                let sol = match cfg.warm_start.get(i) {
                    Some(s) => s.clone(),
                    None => randomized_i1(inst, &mut rng),
                };
                FrontEntry::evaluated(sol, inst)
            })
            .collect();

        let mut generations = 0;
        while !budget.exhausted() && !cancel.should_stop(generations) {
            let (rank, crowd) = rank_and_crowd(&pop);
            let offspring_budget = budget.try_consume(cfg.population as u64) as usize;
            if offspring_budget == 0 {
                break;
            }
            let mut offspring = Vec::with_capacity(offspring_budget);
            for _ in 0..offspring_budget {
                let p1 = tournament(&pop, &rank, &crowd, &mut rng);
                let p2 = tournament(&pop, &rank, &crowd, &mut rng);
                let mut child = if rng.bernoulli(cfg.crossover_rate) {
                    best_cost_route_crossover(inst, &pop[p1].solution, &pop[p2].solution, &mut rng)
                } else {
                    pop[p1].solution.clone()
                };
                if rng.bernoulli(cfg.mutation_rate) {
                    child = mutate(inst, &child, &mut rng);
                }
                offspring.push(FrontEntry::evaluated(child, inst));
            }
            // Environmental selection over parents + offspring.
            pop.extend(offspring);
            pop = environmental_selection(pop, cfg.population);
            generations += 1;
        }

        let fronts = fast_non_dominated_sort(&pop);
        let archive = fronts
            .first()
            .map(|f| f.iter().map(|&i| pop[i].clone()).collect())
            .unwrap_or_default();
        TsmoOutcome {
            archive,
            evaluations: budget.consumed(),
            iterations: generations,
            runtime_seconds: clock.seconds(),
            trace: None,
        }
    }
}

/// Binary tournament by the crowded-comparison operator.
fn tournament<R: Rng>(pop: &[FrontEntry], rank: &[usize], crowd: &[f64], rng: &mut R) -> usize {
    let a = rng.index(pop.len());
    let b = rng.index(pop.len());
    match crowded_compare(rank[a], crowd[a], rank[b], crowd[b]) {
        std::cmp::Ordering::Greater => b,
        _ => a,
    }
}

/// Keeps the best `target` individuals: whole fronts while they fit, the
/// last front truncated by crowding distance.
fn environmental_selection(pop: Vec<FrontEntry>, target: usize) -> Vec<FrontEntry> {
    let fronts = fast_non_dominated_sort(&pop);
    let mut keep: Vec<usize> = Vec::with_capacity(target);
    for front in fronts {
        if keep.len() + front.len() <= target {
            keep.extend(front);
        } else {
            let members: Vec<&FrontEntry> = front.iter().map(|&i| &pop[i]).collect();
            let dist = crowding_distances(&members);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&x, &y| {
                dist[y]
                    .partial_cmp(&dist[x])
                    .expect("crowding distances are not NaN")
            });
            keep.extend(
                order
                    .into_iter()
                    .take(target - keep.len())
                    .map(|k| front[k]),
            );
            break;
        }
    }
    let mut flags = vec![false; pop.len()];
    for &i in &keep {
        flags[i] = true;
    }
    pop.into_iter()
        .zip(flags)
        .filter_map(|(ind, keep)| keep.then_some(ind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn small() -> Nsga2Config {
        Nsga2Config {
            population: 20,
            max_evaluations: 1_000,
            ..Default::default()
        }
    }

    #[test]
    fn runs_to_budget_and_returns_front() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 3).build());
        let out = Nsga2::new(small()).run(&inst, &CancelToken::never());
        assert_eq!(out.evaluations, 1_000);
        assert!(out.iterations > 0);
        assert!(!out.archive.is_empty());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn front_passes_verification() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 30, 6).build());
        let out = Nsga2::new(small()).run(&inst, &CancelToken::never());
        assert_eq!(tsmo_core::verify_front(&inst, &out.archive), Ok(()));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 25, 9).build());
        let a = Nsga2::new(Nsga2Config { seed: 7, ..small() }).run(&inst, &CancelToken::never());
        let b = Nsga2::new(Nsga2Config { seed: 7, ..small() }).run(&inst, &CancelToken::never());
        assert_eq!(a.feasible_vectors(), b.feasible_vectors());
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn evolution_improves_over_initialization() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 4).build());
        let quick = Nsga2::new(Nsga2Config {
            population: 24,
            max_evaluations: 24, // initialization only
            ..Default::default()
        })
        .run(&inst, &CancelToken::never());
        let long = Nsga2::new(Nsga2Config {
            population: 24,
            max_evaluations: 3_000,
            ..Default::default()
        })
        .run(&inst, &CancelToken::never());
        let (q, l) = (
            quick.best_distance().expect("feasible"),
            long.best_distance().expect("feasible"),
        );
        assert!(l <= q, "evolution should not be worse: {l} vs {q}");
    }

    #[test]
    fn environmental_selection_respects_target_and_elitism() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 20, 1).build());
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let pop: Vec<FrontEntry> = (0..30)
            .map(|_| FrontEntry::evaluated(randomized_i1(&inst, &mut rng), &inst))
            .collect();
        let best_distance = pop
            .iter()
            .map(|i| i.objectives.distance)
            .fold(f64::INFINITY, f64::min);
        let kept = environmental_selection(pop, 10);
        assert_eq!(kept.len(), 10);
        // Elitism: a best-distance individual is non-dominated in f1 and
        // must survive.
        assert!(kept
            .iter()
            .any(|i| (i.objectives.distance - best_distance).abs() < 1e-9));
    }
}
