//! The sequential TSMO algorithm (Algorithm 1): the synchronous loop
//! with no workers (see [`sync`](crate::sync)).

use crate::config::TsmoConfig;
use crate::outcome::TsmoOutcome;
use crate::ParallelVariant;
use std::sync::Arc;
use tsmo_obs::Recorder;
use vrptw::Instance;

/// Single-threaded TSMO.
///
/// The neighborhood is generated in `cfg.chunks` seed-derived chunks so
/// that [`ParallelVariant::Synchronous`] with the same chunk count
/// reproduces this algorithm exactly (see the crate docs).
pub struct SequentialTsmo {
    cfg: TsmoConfig,
}

impl SequentialTsmo {
    /// Creates the runner.
    pub fn new(cfg: TsmoConfig) -> Self {
        Self { cfg }
    }

    /// Runs the search to budget exhaustion.
    pub fn run(&self, inst: &Arc<Instance>) -> TsmoOutcome {
        self.run_with(inst, tsmo_obs::noop())
    }

    /// Runs the search with a telemetry sink attached (see `tsmo-obs`).
    pub fn run_with(&self, inst: &Arc<Instance>, recorder: Arc<dyn Recorder>) -> TsmoOutcome {
        ParallelVariant::Sequential.run_with(inst, &self.cfg, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto::non_dominated_indices;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn small_cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 3_000,
            neighborhood_size: 50,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn consumes_exactly_the_budget() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 1).build());
        let out = SequentialTsmo::new(small_cfg()).run(&inst);
        assert_eq!(out.evaluations, 3_000);
        assert!(out.iterations >= 3_000 / 50);
        assert!(out.runtime_seconds > 0.0);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 40, 2).build());
        let a = SequentialTsmo::new(small_cfg().with_seed(9)).run(&inst);
        let b = SequentialTsmo::new(small_cfg().with_seed(9)).run(&inst);
        let mut va = a.feasible_vectors();
        let mut vb = b.feasible_vectors();
        let key = |v: &[f64; 3]| (v[0] * 1e6) as i64;
        va.sort_by_key(key);
        vb.sort_by_key(key);
        assert_eq!(va, vb, "same seed must give the same front");
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 40, 2).build());
        let a = SequentialTsmo::new(small_cfg().with_seed(1)).run(&inst);
        let b = SequentialTsmo::new(small_cfg().with_seed(2)).run(&inst);
        assert_ne!(a.feasible_vectors(), b.feasible_vectors());
    }

    #[test]
    fn archive_is_non_dominated_and_valid() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::RC2, 40, 5).build());
        let out = SequentialTsmo::new(small_cfg()).run(&inst);
        let nd = non_dominated_indices(&out.archive);
        assert_eq!(nd.len(), out.archive.len());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn improves_over_the_construction_heuristic() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 60, 4).build());
        let cfg = TsmoConfig {
            max_evaluations: 8_000,
            neighborhood_size: 80,
            ..TsmoConfig::default()
        };
        let out = SequentialTsmo::new(cfg).run(&inst);
        // I1 with default parameters as the reference.
        let start =
            vrptw_construct::i1(&inst, &vrptw_construct::I1Config::default()).evaluate(&inst);
        let best = out.best_distance().expect("feasible solutions exist on R2");
        assert!(
            best < start.distance,
            "search best {best} should beat I1 start {}",
            start.distance
        );
    }

    #[test]
    fn chunked_generation_changes_stream_but_stays_deterministic() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 30, 8).build());
        let cfg1 = TsmoConfig {
            chunks: 1,
            ..small_cfg()
        };
        let cfg3 = TsmoConfig {
            chunks: 3,
            ..small_cfg()
        };
        let a = SequentialTsmo::new(cfg3.clone()).run(&inst);
        let b = SequentialTsmo::new(cfg3).run(&inst);
        assert_eq!(a.feasible_vectors(), b.feasible_vectors());
        let c = SequentialTsmo::new(cfg1).run(&inst);
        // chunks=1 and chunks=3 are different (but individually valid) runs.
        let _ = c;
    }
}
