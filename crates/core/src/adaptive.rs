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
use crate::outcome::{FrontEntry, TsmoOutcome};
use crate::scalarized::{scalar, tabu_search};
use deme::{EvaluationBudget, MasterWorker, PoolError, RunClock};
use detrand::{RandomSource, Rng, Xoshiro256StarStar};
use pareto::Archive;
use std::sync::Arc;
use vrptw::{evaluate_route, Instance, Objectives, SiteId, Solution};
use vrptw_construct::randomized_i1;

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

/// The weights of [`scalarize`] on `(distance, vehicles, tardiness)`.
const WEIGHTS: [f64; 3] = [1.0, 100.0, 10.0];

/// Route-pool capacity.
const POOL_CAPACITY: usize = 200;

/// Scalarization used for route quality tags and the inner tabu search
/// (also the elite-ranking key of the dynamic warm-start pool).
pub fn scalarize(o: Objectives) -> f64 {
    scalar(&WEIGHTS, o)
}

/// The adaptive-memory parallel tabu search.
pub struct AdaptiveMemoryTs {
    cfg: TsmoConfig,
    processors: usize,
}

/// One improvement task: a short weighted-sum tabu search of `start`,
/// spending up to `evals` evaluations from its own seed. This is the "tabu
/// searchers that solve subproblems" role of Badeau et al.'s architecture.
struct Task {
    start: Solution,
    seed: u64,
    evals: u64,
}

impl Task {
    /// Runs the task under `cfg`, whose stagnation limit of `usize::MAX`
    /// keeps the search from ever restarting.
    fn run(self, inst: &Instance, cfg: &TsmoConfig) -> FrontEntry {
        let rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        tabu_search(inst, cfg, &WEIGHTS, self.start, rng, self.evals).best
    }
}

impl AdaptiveMemoryTs {
    /// Creates the runner with `processors` CPUs (one master + workers).
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    pub fn new(cfg: TsmoConfig, processors: usize) -> Self {
        assert!(processors > 0, "need at least the master processor");
        Self { cfg, processors }
    }

    /// Runs to budget exhaustion; returns the Pareto archive of every
    /// improved solution seen by the master. Each improvement task spends
    /// a tenth of the budget, at least 200 evaluations, and never restarts.
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
        let task_evaluations = (cfg.max_evaluations / 10).max(200);
        let task_cfg = TsmoConfig {
            stagnation_limit: usize::MAX,
            ..cfg.clone()
        };
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed ^ 0xADA7);
        let mut memory = AdaptiveMemory::new(POOL_CAPACITY);
        let mut archive = Archive::new(cfg.archive_capacity);
        let mut iterations = 0usize;

        let absorb =
            |memory: &mut AdaptiveMemory, archive: &mut Archive<FrontEntry>, entry: FrontEntry| {
                memory.absorb(&entry.solution, scalarize(entry.objectives));
                archive.insert(entry);
            };

        // Seed the memory with randomized I1 constructions (one evaluation
        // each, like every other variant's initialization).
        let seeds = self.processors.clamp(2, 8);
        for _ in 0..seeds {
            if budget.try_consume(1) == 0 {
                break;
            }
            let s = randomized_i1(inst, &mut rng);
            let o = s.evaluate(inst);
            absorb(&mut memory, &mut archive, FrontEntry::new(s, o));
        }

        let pool = (self.processors > 1).then(|| {
            let inst = Arc::clone(inst);
            let task_cfg = task_cfg.clone();
            MasterWorker::spawn(self.processors - 1, move |_, t: Task| {
                t.run(&inst, &task_cfg)
            })
        });
        // Workers with no task in flight: a reply frees the worker that
        // sent it.
        let mut idle: Vec<usize> = pool
            .as_ref()
            .map_or(Vec::new(), |p| (0..p.n_workers()).rev().collect());
        let n_workers = idle.len();

        loop {
            // Collect finished improvements.
            if let Some(p) = &pool {
                while let Some((w, entry)) = p.try_recv()? {
                    idle.push(w);
                    iterations += 1;
                    absorb(&mut memory, &mut archive, entry);
                }
            }
            if budget.exhausted() {
                break;
            }
            // Keep all workers fed.
            if let Some(p) = &pool {
                while let Some(&w) = idle.last() {
                    let granted = budget.try_consume(task_evaluations);
                    if granted == 0 {
                        break;
                    }
                    idle.pop();
                    let start = memory.sample_solution(inst, &mut rng);
                    p.send(
                        w,
                        Task {
                            start,
                            seed: rng.next_u64(),
                            evals: granted,
                        },
                    );
                }
            }
            // The master improves one assembly itself.
            let granted = budget.try_consume(task_evaluations);
            if granted > 0 {
                let start = memory.sample_solution(inst, &mut rng);
                let task = Task {
                    start,
                    seed: rng.next_u64(),
                    evals: granted,
                };
                iterations += 1;
                absorb(&mut memory, &mut archive, task.run(inst, &task_cfg));
            } else if idle.len() == n_workers {
                break;
            }
        }
        // Drain stragglers so their work is not wasted.
        if let Some(p) = pool {
            while idle.len() < n_workers {
                let (w, entry) = p.recv()?;
                idle.push(w);
                iterations += 1;
                absorb(&mut memory, &mut archive, entry);
            }
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
    use crate::outcome::verify_front;
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
        let out = AdaptiveMemoryTs::new(cfg(6_000), 3)
            .run(&inst)
            .expect("worker pool");
        assert_eq!(out.evaluations, 6_000);
        assert!(out.iterations > 0);
        assert!(!out.archive.is_empty());
        assert_eq!(verify_front(&inst, &out.archive), Ok(()));
    }

    #[test]
    fn single_processor_works() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 25, 2).build());
        let out = AdaptiveMemoryTs::new(cfg(2_000), 1)
            .run(&inst)
            .expect("worker pool");
        assert_eq!(out.evaluations, 2_000);
        assert!(!out.archive.is_empty());
    }

    /// One processor has no worker pool, so a seeded run is reproducible.
    #[test]
    fn single_processor_is_deterministic() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 4).build());
        let run = || {
            let out = AdaptiveMemoryTs::new(cfg(3_000).with_seed(5), 1)
                .run(&inst)
                .expect("no worker pool");
            let pairs: Vec<(Solution, Objectives)> = out
                .archive
                .into_iter()
                .map(|e| (e.solution, e.objectives))
                .collect();
            (pairs, out.iterations)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn improves_over_its_seeds() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 50, 11).build());
        // Reference: quality of a single I1 construction.
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg(0).seed ^ 0xADA7);
        let seed_quality = scalarize(randomized_i1(&inst, &mut rng).evaluate(&inst));
        let out = AdaptiveMemoryTs::new(cfg(10_000), 3)
            .run(&inst)
            .expect("worker pool");
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
