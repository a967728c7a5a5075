//! Behavioral tests of search-policy knobs: selection, tabu tenure,
//! restarts, and tracing semantics across variants.

use std::sync::Arc;
use tsmo_core::{Clock, ParallelVariant, RunOptions, TsmoConfig, TsmoOutcome};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

fn inst(class: InstanceClass, n: usize, seed: u64) -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(class, n, seed).build())
}

fn on_virtual_clock(
    variant: ParallelVariant,
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
) -> TsmoOutcome {
    let opts = RunOptions {
        clock: Clock::Virtual { speeds: None },
        ..RunOptions::default()
    };
    variant.run_opts(inst, cfg, opts)
}

fn cfg(evals: u64) -> TsmoConfig {
    TsmoConfig {
        max_evaluations: evals,
        neighborhood_size: 60,
        ..TsmoConfig::default()
    }
}

#[test]
fn prefer_dominating_selection_intensifies() {
    use tsmo_core::SelectionRule;
    let inst = inst(InstanceClass::R2, 50, 14);
    let evals = 6_000;
    let random = ParallelVariant::Sequential.run(
        &inst,
        &TsmoConfig {
            selection: SelectionRule::RandomNonDominated,
            ..cfg(evals).with_seed(2)
        },
    );
    let greedy = ParallelVariant::Sequential.run(
        &inst,
        &TsmoConfig {
            selection: SelectionRule::PreferDominating,
            ..cfg(evals).with_seed(2)
        },
    );
    let (r, g) = (
        random.best_distance().expect("feasible"),
        greedy.best_distance().expect("feasible"),
    );
    // A single seed is noisy; assert the greedy rule is at least not much
    // worse — its intensification advantage is established statistically in
    // `ablation -- selection`.
    assert!(
        g < r * 1.1,
        "prefer-dominating {g} should be competitive with random {r}"
    );
}

#[test]
fn zero_tenure_still_searches() {
    let inst = inst(InstanceClass::R2, 30, 6);
    let out = ParallelVariant::Sequential.run(
        &inst,
        &TsmoConfig {
            tabu_tenure: 0,
            ..cfg(2_000)
        },
    );
    assert_eq!(out.evaluations, 2_000);
    assert!(!out.archive.is_empty());
}

#[test]
fn huge_tenure_forces_frequent_restarts_but_completes() {
    let inst = inst(InstanceClass::R2, 30, 6);
    // With an enormous tenure almost everything becomes tabu quickly; the
    // restart path must keep the search alive.
    let out = ParallelVariant::Sequential.run(
        &inst,
        &TsmoConfig {
            tabu_tenure: 10_000,
            stagnation_limit: 5,
            ..cfg(2_000)
        },
    );
    assert_eq!(out.evaluations, 2_000);
    assert!(!out.archive.is_empty());
}

#[test]
fn sequential_trace_has_zero_staleness_and_full_coverage() {
    let inst = inst(InstanceClass::C2, 30, 7);
    let out = ParallelVariant::Sequential.run(
        &inst,
        &TsmoConfig {
            trace: true,
            ..cfg(1_200)
        },
    );
    let trace = out.trace.expect("tracing on");
    assert_eq!(
        trace.max_staleness(),
        0,
        "sequential neighbors are never stale"
    );
    // Every iteration selects at most one current.
    assert!(trace.trajectory().len() <= out.iterations);
    assert!(!trace.is_empty());
}

#[test]
fn async_thread_and_sim_agree_on_quality_ballpark() {
    let inst = inst(InstanceClass::R2, 40, 8);
    let threaded = ParallelVariant::Asynchronous(3).run(&inst, &cfg(4_000).with_seed(3));
    let simulated = on_virtual_clock(
        ParallelVariant::Asynchronous(3),
        &inst,
        &cfg(4_000).with_seed(3),
    );
    let (t, s) = (
        threaded.best_distance().expect("feasible"),
        simulated.best_distance().expect("feasible"),
    );
    assert!(
        (t - s).abs() / t < 0.3,
        "thread async {t} and simulated async {s} should land in the same region"
    );
}

#[test]
fn sim_collaborative_searchers_use_distinct_parameters() {
    // Indirect check: with several searchers the merged archive should not
    // be identical to a single searcher's run (the perturbation and
    // exchange change the search).
    let inst = inst(InstanceClass::R2, 35, 9);
    let one = on_virtual_clock(
        ParallelVariant::Collaborative(1),
        &inst,
        &cfg(2_000).with_seed(4),
    );
    let four = on_virtual_clock(
        ParallelVariant::Collaborative(4),
        &inst,
        &cfg(2_000).with_seed(4),
    );
    let vectors = |out: &TsmoOutcome| -> Vec<[f64; 3]> {
        out.archive
            .iter()
            .map(|e| e.objectives.to_vector())
            .collect()
    };
    assert_ne!(
        vectors(&one),
        vectors(&four),
        "4 perturbed searchers must explore differently from 1"
    );
    assert_eq!(four.evaluations, 4 * 2_000);
}

#[test]
fn virtual_speedup_is_monotone_in_processors_for_sync() {
    let inst = inst(InstanceClass::R1, 60, 10);
    let c = TsmoConfig {
        max_evaluations: 5_000,
        neighborhood_size: 120,
        sim_comm_latency: 0.0002,
        ..TsmoConfig::default()
    };
    let c = c.with_seed(1);
    let t2 = on_virtual_clock(ParallelVariant::Synchronous(2), &inst, &c).runtime_seconds;
    let t6 = on_virtual_clock(ParallelVariant::Synchronous(6), &inst, &c).runtime_seconds;
    assert!(
        t6 < t2 * 1.05,
        "with negligible latency, 6 virtual processors ({t6:.3}s) should not lose to 2 ({t2:.3}s)"
    );
}

#[test]
fn budgets_below_one_neighborhood_still_terminate() {
    let inst = inst(InstanceClass::C1, 25, 11);
    for evals in [1u64, 7, 59] {
        let out = ParallelVariant::Sequential.run(
            &inst,
            &TsmoConfig {
                max_evaluations: evals,
                neighborhood_size: 60,
                ..TsmoConfig::default()
            },
        );
        assert_eq!(out.evaluations, evals);
        assert!(
            !out.archive.is_empty(),
            "initial solution always seeds the archive"
        );
    }
}
