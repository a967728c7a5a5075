//! SPEA2 (Zitzler, Laumanns & Thiele 2001) adapted to the CVRPTW.
//!
//! The paper cites SPEA2 alongside NSGA-II as the established
//! multiobjective EAs that TSMO should eventually be compared against
//! (§III.A and §V). This implementation follows the original report:
//! strength/raw-fitness plus k-th-nearest-neighbor density, environmental
//! selection into a fixed-size archive with distance-based truncation, and
//! binary tournaments on the archive — using the same routing variation
//! operators as our NSGA-II.

use crate::variation::{best_cost_route_crossover, mutate};
use deme::{EvaluationBudget, RunClock};
use detrand::{Rng, Xoshiro256StarStar};
use pareto::dominates;
use std::sync::Arc;
use tsmo_core::{CancelToken, FrontEntry, TsmoOutcome};
use vrptw::{Instance, Solution};
use vrptw_construct::randomized_i1;

/// SPEA2 parameters.
#[derive(Debug, Clone)]
pub struct Spea2Config {
    /// Population size (offspring per generation).
    pub population: usize,
    /// Archive size `N̄` (environmental selection target).
    pub archive: usize,
    /// Total evaluation budget.
    pub max_evaluations: u64,
    /// Crossover probability per offspring.
    pub crossover_rate: f64,
    /// Mutation probability per offspring.
    pub mutation_rate: f64,
    /// Master seed.
    pub seed: u64,
    /// Solutions seeding the initial population (resume/racing); same
    /// budget accounting and fill rule as [`crate::Nsga2Config::warm_start`].
    pub warm_start: Vec<Solution>,
}

impl Default for Spea2Config {
    fn default() -> Self {
        Self {
            population: 60,
            archive: 30,
            max_evaluations: 100_000,
            crossover_rate: 0.9,
            mutation_rate: 0.3,
            seed: 0,
            warm_start: Vec::new(),
        }
    }
}

/// The SPEA2 runner.
pub struct Spea2 {
    cfg: Spea2Config,
}

impl Spea2 {
    /// Creates the runner.
    ///
    /// # Panics
    /// Panics if population or archive sizes are below 2.
    pub fn new(cfg: Spea2Config) -> Self {
        assert!(
            cfg.population >= 2 && cfg.archive >= 2,
            "sizes must be at least 2"
        );
        Self { cfg }
    }

    /// Runs until the budget is exhausted or the token stops the run;
    /// `iterations` counts generations, and `archive` holds the final
    /// archive's non-dominated members.
    ///
    /// The token is checked once per generation — after environmental
    /// selection, before any mating randomness is drawn — so a truncated
    /// run returns the same archive the unstopped run held at that
    /// generation (the `tsmo_core::CancelToken` prefix contract).
    pub fn run(&self, inst: &Arc<Instance>, cancel: &CancelToken) -> TsmoOutcome {
        let clock = RunClock::start();
        let cfg = &self.cfg;
        let budget = EvaluationBudget::new(cfg.max_evaluations);
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);

        let init = budget.try_consume(cfg.population as u64) as usize;
        let mut population: Vec<FrontEntry> = (0..init.max(2))
            .map(|i| {
                let sol = match cfg.warm_start.get(i) {
                    Some(s) => s.clone(),
                    None => randomized_i1(inst, &mut rng),
                };
                FrontEntry::evaluated(sol, inst)
            })
            .collect();
        let mut archive: Vec<FrontEntry> = Vec::new();
        let mut generations = 0;

        loop {
            // Fitness over P ∪ A, then environmental selection into A.
            let mut union = population.clone();
            union.extend(archive.iter().cloned());
            let fitness = spea2_fitness(&union);
            archive = environmental_selection(union, &fitness, cfg.archive);
            if budget.exhausted() || cancel.should_stop(generations) {
                break;
            }
            // Mating selection + variation.
            let offspring_budget = budget.try_consume(cfg.population as u64) as usize;
            if offspring_budget == 0 {
                break;
            }
            let arch_fitness = spea2_fitness(&archive);
            let mut offspring = Vec::with_capacity(offspring_budget);
            for _ in 0..offspring_budget {
                let p1 = tournament(&archive, &arch_fitness, &mut rng);
                let p2 = tournament(&archive, &arch_fitness, &mut rng);
                let mut child = if rng.bernoulli(cfg.crossover_rate) {
                    best_cost_route_crossover(
                        inst,
                        &archive[p1].solution,
                        &archive[p2].solution,
                        &mut rng,
                    )
                } else {
                    archive[p1].solution.clone()
                };
                if rng.bernoulli(cfg.mutation_rate) {
                    child = mutate(inst, &child, &mut rng);
                }
                offspring.push(FrontEntry::evaluated(child, inst));
            }
            population = offspring;
            generations += 1;
        }

        // Final front: non-dominated archive members.
        let front = archive
            .iter()
            .filter(|i| !archive.iter().any(|j| dominates(j.vector(), i.vector())))
            .cloned()
            .collect();
        TsmoOutcome {
            archive: front,
            evaluations: budget.consumed(),
            iterations: generations,
            runtime_seconds: clock.seconds(),
            trace: None,
        }
    }
}

/// SPEA2 fitness `F = R + D` for every member of `items`.
fn spea2_fitness(items: &[FrontEntry]) -> Vec<f64> {
    let n = items.len();
    // Strength: how many others each individual dominates.
    let mut strength = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates(items[i].vector(), items[j].vector()) {
                strength[i] += 1;
            }
        }
    }
    // Raw fitness: sum of the strengths of the dominators.
    let mut raw = vec![0.0f64; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates(items[j].vector(), items[i].vector()) {
                raw[i] += strength[j] as f64;
            }
        }
    }
    // Density: 1 / (σ_k + 2) with k = √n.
    let k = (n as f64).sqrt().floor() as usize;
    let mut fitness = Vec::with_capacity(n);
    for i in 0..n {
        let mut dists: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| euclid(items[i].vector(), items[j].vector()))
            .collect();
        dists.sort_by(|a, b| a.partial_cmp(b).expect("distances are not NaN"));
        let sigma_k = dists
            .get(k.saturating_sub(1).min(dists.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0);
        fitness.push(raw[i] + 1.0 / (sigma_k + 2.0));
    }
    fitness
}

fn euclid(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Keeps the non-dominated members (F < 1), truncating by repeated removal
/// of the most crowded point when too many, or filling with the
/// best-fitness dominated members when too few.
fn environmental_selection(
    union: Vec<FrontEntry>,
    fitness: &[f64],
    target: usize,
) -> Vec<FrontEntry> {
    let mut selected: Vec<usize> = (0..union.len()).filter(|&i| fitness[i] < 1.0).collect();
    if selected.len() < target {
        // Fill with the best of the rest.
        let mut rest: Vec<usize> = (0..union.len()).filter(|&i| fitness[i] >= 1.0).collect();
        rest.sort_by(|&a, &b| fitness[a].partial_cmp(&fitness[b]).expect("not NaN"));
        selected.extend(rest.into_iter().take(target - selected.len()));
    } else {
        // Truncation: repeatedly drop the member with the smallest
        // nearest-neighbor distance (ties broken by the next distance —
        // approximated here by the plain minimum, which suffices for the
        // archive sizes in play).
        while selected.len() > target {
            let mut worst = 0;
            let mut worst_d = f64::INFINITY;
            for (si, &i) in selected.iter().enumerate() {
                let mut best = f64::INFINITY;
                for &j in &selected {
                    if i != j {
                        best = best.min(euclid(union[i].vector(), union[j].vector()));
                    }
                }
                if best < worst_d {
                    worst_d = best;
                    worst = si;
                }
            }
            selected.swap_remove(worst);
        }
    }
    let mut keep = vec![false; union.len()];
    for &i in &selected {
        keep[i] = true;
    }
    union
        .into_iter()
        .zip(keep)
        .filter_map(|(ind, k)| k.then_some(ind))
        .collect()
}

/// Binary tournament by SPEA2 fitness (lower is better).
fn tournament<R: Rng>(pool: &[FrontEntry], fitness: &[f64], rng: &mut R) -> usize {
    let a = rng.index(pool.len());
    let b = rng.index(pool.len());
    if fitness[b] < fitness[a] {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};
    use vrptw::Objectives;

    fn small() -> Spea2Config {
        Spea2Config {
            population: 20,
            archive: 10,
            max_evaluations: 1_000,
            ..Default::default()
        }
    }

    #[test]
    fn runs_to_budget_and_returns_valid_front() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 3).build());
        let out = Spea2::new(small()).run(&inst, &CancelToken::never());
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
        let out = Spea2::new(small()).run(&inst, &CancelToken::never());
        assert_eq!(tsmo_core::verify_front(&inst, &out.archive), Ok(()));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 25, 9).build());
        let a = Spea2::new(Spea2Config { seed: 7, ..small() }).run(&inst, &CancelToken::never());
        let b = Spea2::new(Spea2Config { seed: 7, ..small() }).run(&inst, &CancelToken::never());
        assert_eq!(a.feasible_vectors(), b.feasible_vectors());
    }

    #[test]
    fn fitness_of_non_dominated_is_below_one() {
        let mk = |v: [f64; 3]| {
            FrontEntry::new(
                Solution::from_routes(vec![vec![1]]),
                Objectives {
                    distance: v[0],
                    vehicles: v[1] as usize,
                    tardiness: v[2],
                },
            )
        };
        let items = vec![
            mk([1.0, 1.0, 0.0]), // non-dominated
            mk([2.0, 2.0, 0.0]), // dominated by 0
            mk([0.5, 3.0, 0.0]), // non-dominated
        ];
        let f = spea2_fitness(&items);
        assert!(f[0] < 1.0);
        assert!(f[2] < 1.0);
        assert!(f[1] >= 1.0, "dominated members have raw fitness >= 1");
    }

    #[test]
    fn truncation_respects_target_size() {
        let mk = |x: f64, y: f64| {
            FrontEntry::new(
                Solution::from_routes(vec![vec![1]]),
                Objectives {
                    distance: x,
                    vehicles: 1,
                    tardiness: y,
                },
            )
        };
        // Seven mutually non-dominated points on a line.
        let union: Vec<FrontEntry> = (0..7).map(|i| mk(i as f64, 6.0 - i as f64)).collect();
        let fitness = spea2_fitness(&union);
        let kept = environmental_selection(union, &fitness, 4);
        assert_eq!(kept.len(), 4);
    }
}
