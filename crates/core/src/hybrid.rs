//! The hybrid variant the paper proposes as future work (§V): "combining
//! the multisearch TS with the asynchronous TS to get the best of both
//! worlds and probably an algorithm that delivers both good solutions and
//! runtime performance".
//!
//! `P` collaborative searchers run concurrently, each of them the
//! asynchronous master–worker loop of
//! [`ParallelVariant::Asynchronous`](crate::ParallelVariant) with its own
//! small worker pool. Searchers exchange archive-improving solutions over
//! the rotating communication list with the same [`Migration`] policy as
//! the collaborative variant.

use crate::asynchronous::{run_async, AsyncSearcher, Collaboration};
use crate::cancel::CancelToken;
use crate::collaborative::{merge_searchers, on_threads};
use crate::config::TsmoConfig;
use crate::core_search::{SearchCore, StepReport};
use crate::exec::Threads;
use crate::outcome::{FrontEntry, TsmoOutcome};
use crate::searcher::Migration;
use deme::multisearch::Endpoint;
use deme::RunClock;
use std::sync::Arc;
use vrptw::Instance;
use vrptw_operators::SampleParams;

/// Collaborative multisearch of asynchronous master–worker searchers.
pub struct HybridTsmo {
    cfg: TsmoConfig,
    searchers: usize,
    procs_per_searcher: usize,
}

/// A hybrid searcher's side of the exchange protocol.
struct Peer {
    endpoint: Endpoint<FrontEntry>,
    migration: Migration,
}

impl Collaboration for Peer {
    fn receive(&mut self, core: &mut SearchCore) {
        for entry in self.endpoint.drain() {
            core.offer_to_nondom(entry);
        }
    }

    fn after_step(&mut self, report: StepReport) {
        if let Some(entry) = self.migration.offer(report.improved_archive) {
            self.endpoint.send_next(entry);
        }
    }
}

impl HybridTsmo {
    /// `searchers` collaborative searchers, each commanding
    /// `procs_per_searcher` processors (its master plus workers).
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(cfg: TsmoConfig, searchers: usize, procs_per_searcher: usize) -> Self {
        assert!(searchers > 0, "need at least one searcher");
        assert!(
            procs_per_searcher > 0,
            "each searcher needs its master processor"
        );
        Self {
            cfg,
            searchers,
            procs_per_searcher,
        }
    }

    /// Runs all searchers to their budgets and merges the fronts.
    pub fn run(&self, inst: &Arc<Instance>) -> TsmoOutcome {
        let clock = RunClock::start();
        let recorder = tsmo_obs::noop();
        let params = SampleParams {
            feasibility: self.cfg.feasibility_criterion,
        };
        let results = on_threads(&self.cfg, self.searchers, |id, endpoint, cfg, rng| {
            let procs = self.procs_per_searcher;
            let exec = Threads::new(inst, params, procs, &recorder, tsmo_faults::none());
            let mut peer = Peer {
                migration: Migration::new(&cfg),
                endpoint,
            };
            let searcher = AsyncSearcher {
                inst,
                cfg,
                rng,
                recorder: &recorder,
                id: id as u32,
            };
            run_async(exec, searcher, &CancelToken::never(), &mut peer)
        });
        merge_searchers(
            self.cfg.archive_capacity,
            results
                .into_iter()
                .map(|o| (o.archive, o.evaluations, o.iterations)),
            clock.seconds(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelVariant;
    use pareto::non_dominated_indices;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 1_500,
            neighborhood_size: 50,
            stagnation_limit: 10,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn hybrid_runs_and_merges() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
        let out = HybridTsmo::new(cfg(), 2, 2).run(&inst);
        assert_eq!(out.evaluations, 2 * 1_500);
        assert!(!out.archive.is_empty());
        assert!(out.archive.len() <= cfg().archive_capacity);
        assert_eq!(non_dominated_indices(&out.archive).len(), out.archive.len());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn hybrid_with_single_searcher_behaves_like_async() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 25, 3).build());
        let out = HybridTsmo::new(cfg(), 1, 3).run(&inst);
        assert_eq!(out.evaluations, 1_500);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn hybrid_with_single_proc_per_searcher_behaves_like_collaborative() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 9).build());
        let out = HybridTsmo::new(cfg(), 3, 1).run(&inst);
        assert_eq!(out.evaluations, 3 * 1_500);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn hybrid_front_quality_is_at_least_collaboratives_ballpark() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 21).build());
        let coll = ParallelVariant::Collaborative(2).run(&inst, &cfg().with_seed(4));
        let hybrid = HybridTsmo::new(cfg().with_seed(4), 2, 2).run(&inst);
        let (c, h) = (
            coll.best_distance().expect("feasible"),
            hybrid.best_distance().expect("feasible"),
        );
        assert!(
            h < c * 1.3,
            "hybrid best {h} should be near collaborative best {c}"
        );
    }
}
