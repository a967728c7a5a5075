//! Epoch driver for dynamic re-optimization jobs.
//!
//! Runs a [`ScenarioScript`] as a sequence of searches: each epoch solves
//! the script's instance for that epoch with the configured variant and
//! per-epoch evaluation budget. With warm-starting enabled the previous
//! epoch's front is carried over: every elite is repaired against the
//! mutated instance ([`crate::repair()`]), the repaired pool feeds a
//! [`tsmo_core::AdaptiveMemory`] route pool (§I refs \[8\]\[9\]) whose
//! rank-weighted samples add recombined seeds, and the result becomes
//! [`TsmoConfig::warm_start`] for the next search. Cold runs take the
//! identical code path with an empty pool, so warm-vs-cold comparisons at
//! equal budget differ *only* in the starting solutions — the study
//! `dynbench` records into `BENCH_dynamic.json`.

use crate::repair::repair;
use crate::script::ScenarioScript;
use detrand::Xoshiro256StarStar;
use std::sync::Arc;
use tsmo_core::{
    scalarize, AdaptiveMemory, CancelToken, ParallelVariant, RunOptions, TsmoConfig, TsmoOutcome,
};
use vrptw::{evaluate_route, Instance, Solution};

/// How a dynamic job runs its epochs.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Search variant used for every epoch.
    pub variant: ParallelVariant,
    /// Per-epoch search configuration; `max_evaluations` is the budget of
    /// *each* epoch and `seed` the base the per-epoch seeds derive from.
    pub cfg: TsmoConfig,
    /// Warm-start from the previous epoch's repaired front (`false` =
    /// cold construction every epoch, the control arm).
    pub warm: bool,
}

/// Elites carried between epochs (best by the adaptive-memory
/// scalarization after repair).
const ELITES: usize = 8;
/// Route-pool capacity of the adaptive memory.
const POOL_CAPACITY: usize = 100;
/// Recombined solutions sampled from the adaptive memory and added to the
/// warm-start pool on top of the repaired elites.
const SAMPLES: usize = 4;

impl DynamicConfig {
    /// A warm-starting dynamic configuration. Each epoch after the first
    /// starts from up to 8 repaired elites of the previous front plus up
    /// to 4 solutions recombined from a 100-route adaptive memory.
    pub fn new(variant: ParallelVariant, cfg: TsmoConfig) -> Self {
        Self {
            variant,
            cfg,
            warm: true,
        }
    }
}

/// One epoch's result.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Epoch index (0 = base instance).
    pub epoch: usize,
    /// Mutations applied before this epoch.
    pub mutations: usize,
    /// Warm-start solutions this epoch's searchers were seeded with.
    pub warm_seeds: usize,
    /// Customers of this epoch's instance.
    pub customers: usize,
    /// The search outcome (archive, evaluations, runtime).
    pub outcome: TsmoOutcome,
}

/// The seed epoch `epoch` searches with, derived from the job seed so
/// warm and cold arms of a comparison draw identical randomness.
pub fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `script` on `base` as re-optimization epochs (see module docs).
///
/// `initial_pool` seeds epoch 0's warm start (the server passes the
/// cached front of the same instance content-hash when one exists; pass
/// an empty vec for a fresh start). The cancel token is checked between
/// epochs and inside every search, so a cancelled job returns the epochs
/// finished so far plus one truncated search.
pub fn run_dynamic(
    base: &Instance,
    script: &ScenarioScript,
    dc: &DynamicConfig,
    initial_pool: Vec<Solution>,
    recorder: Arc<dyn tsmo_obs::Recorder>,
    cancel: CancelToken,
) -> Vec<EpochOutcome> {
    let instances = script.instances(base);
    let mut pool = initial_pool;
    let mut out = Vec::with_capacity(instances.len());
    for (epoch, inst) in instances.iter().enumerate() {
        if cancel.cause().is_some() {
            break;
        }
        let mut cfg = dc.cfg.clone();
        cfg.seed = epoch_seed(dc.cfg.seed, epoch);
        if dc.warm {
            cfg.warm_start = warm_pool(&pool, inst, cfg.seed);
        }
        let warm_seeds = cfg.warm_start.len();
        let inst_arc = Arc::new(inst.clone());
        let opts = RunOptions {
            recorder: Arc::clone(&recorder),
            cancel: cancel.clone(),
            ..RunOptions::default()
        };
        let outcome = dc.variant.run_opts(&inst_arc, &cfg, opts);
        pool = outcome.archive.iter().map(|e| e.solution.clone()).collect();
        let mutations = if epoch == 0 {
            0
        } else {
            script.batches[epoch - 1].mutations.len()
        };
        out.push(EpochOutcome {
            epoch,
            mutations,
            warm_seeds,
            customers: inst.n_customers(),
            outcome,
        });
    }
    out
}

/// Builds the warm-start pool for one epoch: repaired elites ranked by
/// the adaptive-memory scalarization, plus recombined samples drawn from
/// an [`AdaptiveMemory`] absorbing them.
fn warm_pool(pool: &[Solution], inst: &Instance, seed: u64) -> Vec<Solution> {
    let mut repaired: Vec<(Solution, f64)> = pool
        .iter()
        .filter_map(|s| repair(s, inst))
        .map(|s| {
            let v = scalarize(s.evaluate(inst));
            (s, v)
        })
        .collect();
    repaired.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("scalarizations are not NaN"));
    repaired.truncate(ELITES);
    let mut warm: Vec<Solution> = repaired.iter().map(|(s, _)| s.clone()).collect();
    if !warm.is_empty() {
        let mut memory = AdaptiveMemory::new(POOL_CAPACITY);
        for (s, v) in &repaired {
            memory.absorb(s, *v);
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xADA7_5EED);
        for _ in 0..SAMPLES {
            let s = memory.sample_solution(inst, &mut rng);
            // The sampler's last-resort insertion may overload a route;
            // warm starts must be capacity-feasible members of the space.
            let feasible = s
                .routes()
                .iter()
                .all(|r| evaluate_route(inst, r).load <= inst.capacity() + 1e-9);
            if feasible && s.check(inst).is_empty() {
                warm.push(s);
            }
        }
    }
    warm
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn small_cfg(seed: u64) -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 800,
            neighborhood_size: 40,
            seed,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn runs_every_epoch_with_valid_fronts() {
        let base = GeneratorConfig::new(InstanceClass::R1, 30, 13).build();
        let script = ScenarioScript::generate(&base, 17, 3, 4);
        let dc = DynamicConfig::new(ParallelVariant::Sequential, small_cfg(5));
        let out = run_dynamic(
            &base,
            &script,
            &dc,
            Vec::new(),
            tsmo_obs::noop(),
            CancelToken::never(),
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].warm_seeds, 0, "no pool yet at epoch 0");
        for e in &out[1..] {
            assert!(e.warm_seeds > 0, "epoch {} should be warm-started", e.epoch);
        }
        let seq = script.instances(&base);
        for (e, inst) in out.iter().zip(&seq) {
            assert_eq!(e.outcome.evaluations, 800);
            assert!(!e.outcome.archive.is_empty());
            for entry in &e.outcome.archive {
                assert!(entry.solution.check(inst).is_empty(), "epoch {}", e.epoch);
            }
        }
    }

    #[test]
    fn cold_runs_are_deterministic_and_ignore_the_pool_flag() {
        let base = GeneratorConfig::new(InstanceClass::C2, 25, 3).build();
        let script = ScenarioScript::generate(&base, 9, 2, 3);
        let mut dc = DynamicConfig::new(ParallelVariant::Sequential, small_cfg(7));
        dc.warm = false;
        let a = run_dynamic(
            &base,
            &script,
            &dc,
            Vec::new(),
            tsmo_obs::noop(),
            CancelToken::never(),
        );
        let b = run_dynamic(
            &base,
            &script,
            &dc,
            Vec::new(),
            tsmo_obs::noop(),
            CancelToken::never(),
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.outcome.evaluations, y.outcome.evaluations);
            assert_eq!(x.outcome.archive.len(), y.outcome.archive.len());
            for (ea, eb) in x.outcome.archive.iter().zip(&y.outcome.archive) {
                assert_eq!(ea.solution, eb.solution);
            }
            assert_eq!(x.warm_seeds, 0);
        }
    }

    #[test]
    fn warm_and_cold_spend_the_same_budget() {
        let base = GeneratorConfig::new(InstanceClass::RC2, 25, 8).build();
        let script = ScenarioScript::generate(&base, 4, 3, 3);
        let warm = DynamicConfig::new(ParallelVariant::Sequential, small_cfg(2));
        let mut cold = warm.clone();
        cold.warm = false;
        let w = run_dynamic(
            &base,
            &script,
            &warm,
            Vec::new(),
            tsmo_obs::noop(),
            CancelToken::never(),
        );
        let c = run_dynamic(
            &base,
            &script,
            &cold,
            Vec::new(),
            tsmo_obs::noop(),
            CancelToken::never(),
        );
        for (x, y) in w.iter().zip(&c) {
            assert_eq!(x.outcome.evaluations, y.outcome.evaluations);
        }
    }

    #[test]
    fn cancellation_truncates_the_epoch_sequence() {
        let base = GeneratorConfig::new(InstanceClass::R2, 25, 6).build();
        let script = ScenarioScript::generate(&base, 3, 4, 3);
        let dc = DynamicConfig::new(ParallelVariant::Sequential, small_cfg(1));
        let cancel = CancelToken::never();
        cancel.cancel();
        let out = run_dynamic(&base, &script, &dc, Vec::new(), tsmo_obs::noop(), cancel);
        assert!(out.is_empty());
    }
}
