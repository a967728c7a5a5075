//! PAES — the Pareto Archived Evolution Strategy (Knowles & Corne 2000),
//! cited by the paper alongside NSGA-II and SPEA2 (§III.A, reference [13]).
//!
//! PAES is the minimal MO metaheuristic: a (1+1) evolution strategy whose
//! only population is the *archive*, maintained with an **adaptive
//! hypergrid** instead of crowding distances. It is an interesting
//! comparator for TSMO precisely because both are trajectory methods: one
//! solution walks through the space, and an archive of non-dominated
//! solutions is the result — PAES without tabu memory, TSMO without the
//! grid.

use crate::variation::mutate;
use deme::{EvaluationBudget, RunClock};
use detrand::Xoshiro256StarStar;
use pareto::{compare, DomRelation};
use std::sync::Arc;
use tsmo_core::{CancelToken, FrontEntry, TsmoOutcome};
use vrptw::{Instance, Solution};
use vrptw_construct::randomized_i1;

/// PAES parameters.
#[derive(Debug, Clone)]
pub struct PaesConfig {
    /// Archive capacity.
    pub archive: usize,
    /// Grid subdivisions per objective are `2^depth`.
    pub depth: u32,
    /// Total evaluation budget.
    pub max_evaluations: u64,
    /// Master seed.
    pub seed: u64,
    /// Solutions seeding the archive (resume/racing): the first becomes
    /// the walking solution, the rest (up to the archive capacity) are
    /// inserted, each consuming one evaluation. Empty leaves the cold
    /// start byte-identical.
    pub warm_start: Vec<Solution>,
}

impl Default for PaesConfig {
    fn default() -> Self {
        Self {
            archive: 30,
            depth: 4,
            max_evaluations: 100_000,
            seed: 0,
            warm_start: Vec::new(),
        }
    }
}

/// The adaptive hypergrid archive of PAES.
///
/// Objective space is bracketed by the archive's current bounding box and
/// divided into `2^depth` cells per dimension; cell population counts
/// drive both the replacement policy (evict from the most crowded cell)
/// and the acceptance rule (prefer solutions in less crowded cells).
#[derive(Debug)]
struct GridArchive {
    members: Vec<FrontEntry>,
    capacity: usize,
    depth: u32,
}

impl GridArchive {
    fn new(capacity: usize, depth: u32) -> Self {
        Self {
            members: Vec::with_capacity(capacity + 1),
            capacity,
            depth,
        }
    }

    /// The grid cell of `v` under the current bounds.
    fn region(&self, v: &[f64; 3]) -> [u32; 3] {
        let divisions = 1u32 << self.depth;
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for m in &self.members {
            for d in 0..3 {
                lo[d] = lo[d].min(m.vector()[d]);
                hi[d] = hi[d].max(m.vector()[d]);
            }
        }
        let mut cell = [0u32; 3];
        for d in 0..3 {
            let span = (hi[d] - lo[d]).max(1e-12);
            let x = ((v[d] - lo[d]) / span).clamp(0.0, 1.0);
            cell[d] = ((x * divisions as f64) as u32).min(divisions - 1);
        }
        cell
    }

    /// Number of members sharing `v`'s cell.
    fn crowding(&self, v: &[f64; 3]) -> usize {
        let cell = self.region(v);
        self.members
            .iter()
            .filter(|m| self.region(m.vector()) == cell)
            .count()
    }

    /// Tries to insert a non-dominated candidate; evicts a member of the
    /// most crowded cell when full. Returns whether the candidate stayed.
    fn insert(&mut self, member: FrontEntry) -> bool {
        // Dominance maintenance.
        let mut i = 0;
        while i < self.members.len() {
            match compare(self.members[i].vector(), member.vector()) {
                DomRelation::Dominates | DomRelation::Equal => return false,
                DomRelation::DominatedBy => {
                    self.members.swap_remove(i);
                }
                DomRelation::Incomparable => i += 1,
            }
        }
        self.members.push(member);
        if self.members.len() > self.capacity {
            // Evict from the most crowded cell (never the newcomer if it
            // sits in a less crowded cell).
            let crowds: Vec<usize> = self
                .members
                .iter()
                .map(|m| self.crowding(m.vector()))
                .collect();
            let max_crowd = *crowds.iter().max().expect("non-empty");
            let victim = self
                .members
                .iter()
                .enumerate()
                .position(|(i, _)| crowds[i] == max_crowd)
                .expect("a most-crowded member exists");
            let evicted_newcomer = victim == self.members.len() - 1;
            self.members.swap_remove(victim);
            return !evicted_newcomer;
        }
        true
    }
}

/// The (1+1)-PAES runner.
pub struct Paes {
    cfg: PaesConfig,
}

impl Paes {
    /// Creates the runner.
    ///
    /// # Panics
    /// Panics if the archive capacity is zero.
    pub fn new(cfg: PaesConfig) -> Self {
        assert!(cfg.archive > 0, "archive capacity must be positive");
        Self { cfg }
    }

    /// Runs until the budget is exhausted or the token stops the run;
    /// `iterations` counts accepted moves (the trajectory length), and
    /// `archive` is the final grid archive.
    ///
    /// The token is checked at the top of each (1+1) step, before the
    /// mutation randomness is drawn, so a truncated trajectory is a
    /// byte-identical prefix of the unstopped one (the
    /// `tsmo_core::CancelToken` contract).
    pub fn run(&self, inst: &Arc<Instance>, cancel: &CancelToken) -> TsmoOutcome {
        let clock = RunClock::start();
        let cfg = &self.cfg;
        let budget = EvaluationBudget::new(cfg.max_evaluations);
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);

        budget.try_consume(1);
        let mut current = if let Some(first) = cfg.warm_start.first() {
            FrontEntry::evaluated(first.clone(), inst)
        } else {
            FrontEntry::evaluated(randomized_i1(inst, &mut rng), inst)
        };
        let mut archive = GridArchive::new(cfg.archive, cfg.depth);
        archive.insert(current.clone());
        for seed in cfg.warm_start.iter().skip(1).take(cfg.archive) {
            if budget.try_consume(1) == 0 {
                break;
            }
            archive.insert(FrontEntry::evaluated(seed.clone(), inst));
        }
        let mut accepted = 0;

        let mut steps = 0usize;
        while !cancel.should_stop(steps) && budget.try_consume(1) == 1 {
            steps += 1;
            let candidate = FrontEntry::evaluated(mutate(inst, &current.solution, &mut rng), inst);
            match compare(current.vector(), candidate.vector()) {
                DomRelation::Dominates | DomRelation::Equal => continue, // reject
                DomRelation::DominatedBy => {
                    archive.insert(candidate.clone());
                    current = candidate;
                    accepted += 1;
                }
                DomRelation::Incomparable => {
                    // Archive-mediated acceptance: accept if the candidate
                    // lands in a less crowded region than the current.
                    let went_in = archive.insert(candidate.clone());
                    if went_in
                        && archive.crowding(candidate.vector())
                            <= archive.crowding(current.vector())
                    {
                        current = candidate;
                        accepted += 1;
                    }
                }
            }
        }

        TsmoOutcome {
            archive: archive.members,
            evaluations: budget.consumed(),
            iterations: accepted,
            runtime_seconds: clock.seconds(),
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};
    use vrptw::Objectives;

    fn small() -> PaesConfig {
        PaesConfig {
            archive: 10,
            max_evaluations: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn runs_to_budget_with_valid_front() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 3).build());
        let out = Paes::new(small()).run(&inst, &CancelToken::never());
        assert_eq!(out.evaluations, 2_000);
        assert!(!out.archive.is_empty());
        assert!(out.archive.len() <= 10);
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
        assert!(out.iterations > 0, "a (1+1)-ES that never moves is broken");
    }

    #[test]
    fn front_passes_verification() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 30, 6).build());
        let out = Paes::new(small()).run(&inst, &CancelToken::never());
        assert_eq!(tsmo_core::verify_front(&inst, &out.archive), Ok(()));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 25, 9).build());
        let a = Paes::new(PaesConfig { seed: 7, ..small() }).run(&inst, &CancelToken::never());
        let b = Paes::new(PaesConfig { seed: 7, ..small() }).run(&inst, &CancelToken::never());
        assert_eq!(a.feasible_vectors(), b.feasible_vectors());
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn grid_archive_dominance_maintenance() {
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
        let mut g = GridArchive::new(5, 3);
        assert!(g.insert(mk([5.0, 5.0, 5.0])));
        assert!(g.insert(mk([3.0, 6.0, 5.0])));
        assert!(!g.insert(mk([6.0, 6.0, 6.0]))); // dominated
        assert!(g.insert(mk([1.0, 1.0, 1.0]))); // dominates everything
        assert_eq!(g.members.len(), 1);
    }

    #[test]
    fn grid_archive_respects_capacity_via_crowding() {
        let mk = |x: f64| {
            FrontEntry::new(
                Solution::from_routes(vec![vec![1]]),
                Objectives {
                    distance: x,
                    vehicles: 1,
                    tardiness: 100.0 - x,
                },
            )
        };
        let mut g = GridArchive::new(4, 2);
        for x in [0.0, 10.0, 11.0, 12.0, 90.0, 100.0] {
            g.insert(mk(x));
        }
        assert_eq!(g.members.len(), 4);
        // Unlike crowding-distance truncation, PAES eviction only targets
        // the most crowded *cell*; the low-end cluster {0,10,11,12} shares
        // one cell and must lose members, while the sparse high end
        // {90, 100} survives untouched.
        assert!(g.members.iter().any(|m| m.vector()[0] == 90.0));
        assert!(g.members.iter().any(|m| m.vector()[0] == 100.0));
        let low_cluster = g.members.iter().filter(|m| m.vector()[0] <= 12.0).count();
        assert_eq!(low_cluster, 2, "two evictions must hit the crowded cell");
    }

    #[test]
    fn region_is_stable_for_identical_vectors() {
        let mk = |x: f64| {
            FrontEntry::new(
                Solution::from_routes(vec![vec![1]]),
                Objectives {
                    distance: x,
                    vehicles: 1,
                    tardiness: 0.0,
                },
            )
        };
        let mut g = GridArchive::new(8, 3);
        g.insert(mk(0.0));
        g.insert(mk(100.0));
        let r1 = g.region(&[50.0, 1.0, 0.0]);
        let r2 = g.region(&[50.0, 1.0, 0.0]);
        assert_eq!(r1, r2);
        assert_ne!(g.region(&[0.0, 1.0, 0.0]), g.region(&[100.0, 1.0, 0.0]));
    }
}
