//! Adaptive-memory parallel tabu search — the *domain decomposition* level
//! of parallel TS the paper's introduction describes.
//!
//! §I: "Domain decomposition was introduced to Tabu Search in a concept
//! known as 'Adaptive Memory'. Adaptive memory is represented as a pool of
//! solution parts from which new solutions are created. During the search
//! good parts are identified and added to the memory" (Taillard et al.
//! 1997 for the CVRPsTW; parallelized by Badeau et al. 1997). The paper
//! itself implements the *functional decomposition* and *multisearch*
//! levels only; this module completes the taxonomy so all three levels can
//! be compared on the same substrate.
//!
//! Design (following [8]/[9] in simplified form):
//!
//! * the **memory** is a bounded pool of routes, each tagged with the
//!   scalarized quality of the solution it came from;
//! * a work unit draws a rank-weighted, customer-disjoint subset of routes
//!   from the pool, repairs it into a complete solution (cheapest
//!   insertion of uncovered customers), and improves it with a short
//!   weighted-sum tabu search;
//! * improved solutions are returned to the master, which updates the pool
//!   with their routes and maintains a Pareto archive of everything seen;
//! * `P − 1` workers improve concurrently; the master assembles, updates,
//!   and dispatches (Badeau et al.'s master/worker organization).

use crate::config::TsmoConfig;
use crate::neighborhood::generate_chunk;
use crate::outcome::{FrontEntry, TsmoOutcome};
use crate::tabu::TabuList;
use deme::{EvaluationBudget, MasterWorker, PoolError, RunClock};
use detrand::{RandomSource, Rng, Xoshiro256StarStar};
use pareto::Archive;
use std::sync::Arc;
use vrptw::solution::EvaluatedSolution;
use vrptw::{evaluate_route, Instance, Objectives, SiteId, Solution};
use vrptw_construct::randomized_i1;
use vrptw_operators::SampleParams;

/// The pool of solution parts (routes) with quality tags.
#[derive(Debug, Clone)]
pub struct AdaptiveMemory {
    /// `(route, scalarized value of the source solution)` — lower is better.
    routes: Vec<(Vec<SiteId>, f64)>,
    capacity: usize,
}

impl AdaptiveMemory {
    /// An empty memory holding at most `capacity` routes.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "memory capacity must be positive");
        Self {
            routes: Vec::with_capacity(capacity + 32),
            capacity,
        }
    }

    /// Number of stored routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Adds every route of `solution` with quality tag `value`, then
    /// truncates the pool to capacity keeping the best-tagged routes.
    pub fn absorb(&mut self, solution: &Solution, value: f64) {
        for route in solution.routes() {
            self.routes.push((route.clone(), value));
        }
        self.routes
            .sort_by(|a, b| a.1.partial_cmp(&b.1).expect("values are not NaN"));
        self.routes.truncate(self.capacity);
    }

    /// Draws a customer-disjoint set of routes, rank-weighted toward good
    /// tags ("during the search good parts are identified"), and repairs it
    /// into a complete solution for the instance.
    pub fn sample_solution<R: Rng>(&self, inst: &Instance, rng: &mut R) -> Solution {
        let n = self.routes.len();
        debug_assert!(n > 0, "sample from an empty memory");
        // Rank weights: best route gets weight n, worst gets 1.
        let weights: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        let mut available: Vec<usize> = (0..n).collect();
        let mut covered = vec![false; inst.n_sites()];
        let mut routes: Vec<Vec<SiteId>> = Vec::new();
        while !available.is_empty() && routes.len() < inst.max_vehicles() {
            let w: Vec<f64> = available.iter().map(|&i| weights[i]).collect();
            let pick = rng.choose_weighted(&w).expect("weights are positive");
            let idx = available.swap_remove(pick);
            let route = &self.routes[idx].0;
            if route.iter().all(|&c| !covered[c as usize]) {
                for &c in route {
                    covered[c as usize] = true;
                }
                routes.push(route.clone());
            }
        }
        // Repair: cheapest capacity-feasible insertion of the uncovered.
        for c in inst.customers() {
            if !covered[c as usize] {
                insert_cheapest(inst, &mut routes, c);
            }
        }
        Solution::from_routes(routes)
    }
}

/// Inserts `customer` at the cheapest capacity-feasible position (heavily
/// penalizing added tardiness), opening a new route when the fleet allows.
///
/// Exported because it is also the repair primitive of the dynamic
/// re-optimization path (`tsmo-scenario`): elites of the previous epoch
/// are patched against a mutated instance by removing affected customers
/// and re-inserting them here.
pub fn insert_cheapest(inst: &Instance, routes: &mut Vec<Vec<SiteId>>, customer: SiteId) {
    let demand = inst.site(customer).demand;
    let mut best: Option<(usize, usize, f64)> = None;
    for (ri, route) in routes.iter().enumerate() {
        let base = evaluate_route(inst, route);
        if base.load + demand > inst.capacity() {
            continue;
        }
        for pos in 0..=route.len() {
            let mut cand = route.clone();
            cand.insert(pos, customer);
            let e = evaluate_route(inst, &cand);
            let cost = (e.distance - base.distance) + 1e3 * (e.tardiness - base.tardiness);
            if best.is_none_or(|(_, _, b)| cost < b) {
                best = Some((ri, pos, cost));
            }
        }
    }
    if routes.len() < inst.max_vehicles() {
        let solo = evaluate_route(inst, &[customer]);
        let cost = solo.distance + 1e3 * solo.tardiness;
        if best.is_none_or(|(_, _, b)| cost < b) {
            routes.push(vec![customer]);
            return;
        }
    }
    match best {
        Some((ri, pos, _)) => routes[ri].insert(pos, customer),
        None => {
            let ri = routes
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let la = evaluate_route(inst, a).load;
                    let lb = evaluate_route(inst, b).load;
                    la.partial_cmp(&lb).expect("loads are not NaN")
                })
                .map(|(i, _)| i)
                .expect("at least one route");
            routes[ri].push(customer);
        }
    }
}

/// Scalarization used for route quality tags and the inner tabu search
/// (also the elite-ranking key of the dynamic warm-start pool).
pub fn scalarize(o: Objectives) -> f64 {
    o.distance + 100.0 * o.vehicles as f64 + 10.0 * o.tardiness
}

/// A short weighted-sum tabu-search improvement of `start`, spending up to
/// `evals` evaluations from its own seed. This is the "tabu searchers that
/// solve subproblems" role of Badeau et al.'s architecture.
fn improve(
    inst: &Instance,
    start: Solution,
    seed: u64,
    evals: usize,
    cfg: &TsmoConfig,
) -> (Solution, Objectives) {
    let params = SampleParams {
        feasibility: cfg.feasibility_criterion,
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut current = EvaluatedSolution::new(start, inst);
    let mut best = current.solution().clone();
    let mut best_obj = current.objectives();
    let mut best_value = scalarize(best_obj);
    let mut tabu = TabuList::new(cfg.tabu_tenure);
    let mut spent = 0usize;
    let nbhd = cfg.neighborhood_size.min(evals.max(1));
    while spent < evals {
        let count = nbhd.min(evals - spent);
        let seed = rng.next_u64();
        let pool = generate_chunk(inst, &current, seed, count, params, 0).neighbors;
        spent += count;
        let mut chosen: Option<usize> = None;
        let mut chosen_value = f64::INFINITY;
        for (i, nb) in pool.iter().enumerate() {
            let value = scalarize(nb.objectives);
            let admissible = !tabu.is_tabu(&nb.arcs_created) || value < best_value;
            if admissible && value < chosen_value {
                chosen = Some(i);
                chosen_value = value;
            }
        }
        if let Some(i) = chosen {
            let nb = &pool[i];
            tabu.push(nb.arcs_removed.clone());
            current = EvaluatedSolution::new(nb.solution.clone(), inst);
            if chosen_value < best_value {
                best_value = chosen_value;
                best = nb.solution.clone();
                best_obj = nb.objectives;
            }
        }
    }
    (best, best_obj)
}

/// The adaptive-memory parallel tabu search.
pub struct AdaptiveMemoryTs {
    cfg: TsmoConfig,
    processors: usize,
    /// Route-pool capacity.
    pub pool_capacity: usize,
    /// Evaluations per improvement task.
    pub task_evaluations: usize,
}

struct Task {
    start: Solution,
    seed: u64,
    evals: usize,
}

impl AdaptiveMemoryTs {
    /// Creates the runner with `processors` CPUs (one master + workers).
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    pub fn new(cfg: TsmoConfig, processors: usize) -> Self {
        assert!(processors > 0, "need at least the master processor");
        Self {
            cfg,
            processors,
            pool_capacity: 200,
            task_evaluations: 2_000,
        }
    }

    /// Runs to budget exhaustion; returns the Pareto archive of every
    /// improved solution seen by the master.
    ///
    /// # Errors
    /// Propagates the worker pool's failure — a panicked improvement task
    /// ([`PoolError::WorkerPanicked`]) or a fully retired pool
    /// ([`PoolError::Disconnected`]) — instead of aborting the process,
    /// matching the error style of [`deme::MasterWorker`].
    pub fn run(&self, inst: &Arc<Instance>) -> Result<TsmoOutcome, PoolError> {
        let clock = RunClock::start();
        let cfg = &self.cfg;
        let budget = EvaluationBudget::new(cfg.max_evaluations);
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed ^ 0xADA7);
        let mut memory = AdaptiveMemory::new(self.pool_capacity);
        let mut archive = Archive::new(cfg.archive_capacity);
        let mut iterations = 0usize;

        // Seed the memory with randomized I1 constructions (one evaluation
        // each, like every other variant's initialization).
        let seeds = self.processors.clamp(2, 8);
        for _ in 0..seeds {
            if budget.try_consume(1) == 0 {
                break;
            }
            let s = randomized_i1(inst, &mut rng);
            let o = s.evaluate(inst);
            archive.insert(FrontEntry::new(s.clone(), o));
            memory.absorb(&s, scalarize(o));
        }

        let worker_cfg = cfg.clone();
        let pool = (self.processors > 1).then(|| {
            let inst = Arc::clone(inst);
            MasterWorker::<Task, (Solution, Objectives)>::spawn(self.processors - 1, move |_, t| {
                improve(&inst, t.start, t.seed, t.evals, &worker_cfg)
            })
        });
        let n_workers = pool.as_ref().map_or(0, |p| p.n_workers());
        let mut outstanding = 0usize;

        let absorb = |memory: &mut AdaptiveMemory,
                      archive: &mut Archive<FrontEntry>,
                      s: Solution,
                      o: Objectives| {
            archive.insert(FrontEntry::new(s.clone(), o));
            memory.absorb(&s, scalarize(o));
        };

        loop {
            // Collect finished improvements.
            if let Some(p) = &pool {
                loop {
                    match p.try_recv() {
                        Ok(Some((_, (s, o)))) => {
                            outstanding -= 1;
                            iterations += 1;
                            absorb(&mut memory, &mut archive, s, o);
                        }
                        Ok(None) => break,
                        Err(e) => return Err(e),
                    }
                }
            }
            if budget.exhausted() {
                break;
            }
            // Keep all workers fed.
            if let Some(p) = &pool {
                while outstanding < n_workers {
                    let granted = budget.try_consume(self.task_evaluations as u64) as usize;
                    if granted == 0 {
                        break;
                    }
                    let start = memory.sample_solution(inst, &mut rng);
                    p.send(
                        outstanding % n_workers,
                        Task {
                            start,
                            seed: rng.next_u64(),
                            evals: granted,
                        },
                    );
                    outstanding += 1;
                }
            }
            // The master improves one assembly itself.
            let granted = budget.try_consume(self.task_evaluations as u64) as usize;
            if granted > 0 {
                let start = memory.sample_solution(inst, &mut rng);
                let (s, o) = improve(inst, start, rng.next_u64(), granted, cfg);
                iterations += 1;
                absorb(&mut memory, &mut archive, s, o);
            } else if outstanding == 0 {
                break;
            }
        }
        // Drain stragglers so their work is not wasted.
        if let Some(p) = &pool {
            while outstanding > 0 {
                let (_, (s, o)) = p.recv()?;
                outstanding -= 1;
                iterations += 1;
                absorb(&mut memory, &mut archive, s, o);
            }
        }
        if let Some(p) = pool {
            p.shutdown();
        }
        Ok(TsmoOutcome {
            archive: archive.into_items(),
            evaluations: budget.consumed(),
            iterations,
            runtime_seconds: clock.seconds(),
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto::non_dominated_indices;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn cfg(evals: u64) -> TsmoConfig {
        TsmoConfig {
            max_evaluations: evals,
            neighborhood_size: 50,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn memory_absorbs_and_truncates_by_quality() {
        let inst = GeneratorConfig::new(InstanceClass::R2, 20, 1).build();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut mem = AdaptiveMemory::new(5);
        let good = randomized_i1(&inst, &mut rng);
        let bad = Solution::one_customer_per_route(&inst);
        mem.absorb(&bad, 1_000.0);
        mem.absorb(&good, 1.0);
        assert_eq!(mem.len(), 5);
        // The best-tagged (good) routes displaced the bad ones.
        // All retained tags should be 1.0 if `good` has >= 5 routes;
        // otherwise a mix — assert the best tag survives at the front.
        assert_eq!(mem.routes[0].1, 1.0);
    }

    #[test]
    fn sampled_solutions_are_always_complete_and_valid() {
        let inst = GeneratorConfig::new(InstanceClass::RC1, 40, 5).build();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut mem = AdaptiveMemory::new(60);
        for _ in 0..4 {
            let s = randomized_i1(&inst, &mut rng);
            let v = scalarize(s.evaluate(&inst));
            mem.absorb(&s, v);
        }
        for _ in 0..20 {
            let s = mem.sample_solution(&inst, &mut rng);
            assert!(s.check(&inst).is_empty());
        }
    }

    #[test]
    fn runs_to_budget_with_valid_archive() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 7).build());
        let mut ts = AdaptiveMemoryTs::new(cfg(6_000), 3);
        ts.task_evaluations = 500;
        let out = ts.run(&inst).expect("worker pool");
        assert_eq!(out.evaluations, 6_000);
        assert!(out.iterations > 0);
        assert!(!out.archive.is_empty());
        assert_eq!(non_dominated_indices(&out.archive).len(), out.archive.len());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn single_processor_works() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 25, 2).build());
        let mut ts = AdaptiveMemoryTs::new(cfg(2_000), 1);
        ts.task_evaluations = 400;
        let out = ts.run(&inst).expect("worker pool");
        assert_eq!(out.evaluations, 2_000);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn improves_over_its_seeds() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 50, 11).build());
        // Reference: quality of a single I1 construction.
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg(0).seed ^ 0xADA7);
        let seed_quality = scalarize(randomized_i1(&inst, &mut rng).evaluate(&inst));
        let mut ts = AdaptiveMemoryTs::new(cfg(10_000), 3);
        ts.task_evaluations = 1_000;
        let out = ts.run(&inst).expect("worker pool");
        let best = out
            .archive
            .iter()
            .map(|e| scalarize(e.objectives))
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < seed_quality,
            "adaptive memory best {best} should beat a raw I1 seed {seed_quality}"
        );
    }
}
