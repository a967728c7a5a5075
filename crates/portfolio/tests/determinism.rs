//! The portfolio's reproducibility and quality contracts:
//!
//! * Equal `(seed, instance, algos)` replays the round-by-round budget
//!   ledger **byte for byte**, including a round where a contender is
//!   retired at the budget floor.
//! * The stage-two merged front is mutually non-dominated and is never
//!   covered (Zitzler C-metric = 1) by any individual algorithm given the
//!   same *total* evaluation budget in one standalone run.

use std::sync::Arc;
use tsmo_core::{verify_front, CancelToken};
use tsmo_portfolio::{contender, Portfolio, PortfolioConfig, RaceParams};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

fn instance() -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 7).build())
}

fn params() -> RaceParams {
    RaceParams {
        neighborhood_size: 25,
        population: 12,
        ..RaceParams::default()
    }
}

fn build(names: &[&str]) -> Vec<Box<dyn tsmo_portfolio::RacedAlgorithm>> {
    names
        .iter()
        .map(|n| contender(n, &params()).expect(n))
        .collect()
}

/// A greedy race: high softmax temperature, low floor, no exploration,
/// one-round retirement patience — engineered so the weakest contender
/// decays to the floor and is retired mid-race.
fn greedy_cfg() -> PortfolioConfig {
    PortfolioConfig {
        rounds: 5,
        total_evaluations: 7_500,
        seed: 13,
        floor: 0.1,
        eta: 0.0,
        softmax_beta: 8.0,
        retire_after: 1,
    }
}

#[test]
fn the_budget_ledger_replays_byte_identically_through_a_retirement() {
    let inst = instance();
    let algos = ["tsmo-seq", "tsmo-collab", "paes"];
    let run = || {
        Portfolio::new(greedy_cfg()).run(
            &inst,
            build(&algos),
            tsmo_obs::noop(),
            CancelToken::never(),
        )
    };
    let first = run();
    // The engineered race must actually exercise the retirement path,
    // otherwise the replay check proves less than it claims.
    assert!(
        first.ledger.iter().any(|r| !r.retired.is_empty()),
        "no contender was retired; ledger:\n{}",
        first.ledger_jsonl()
    );
    let retired_at = first.ledger.iter().find(|r| !r.retired.is_empty()).unwrap();
    let gone = retired_at.retired[0];
    // A retired contender receives no further slices.
    for later in first.ledger.iter().filter(|r| r.round > retired_at.round) {
        assert!(
            later.entries.iter().all(|e| e.contender != gone),
            "retired contender {gone} re-entered round {}",
            later.round
        );
    }
    // The contender was pinned at the floor when it was retired.
    let live = retired_at.entries.len() as f64;
    let floor_share = greedy_cfg().floor / live;
    let row = retired_at
        .entries
        .iter()
        .find(|e| e.contender == gone)
        .expect("retired contender has a ledger row in its final round");
    assert!(
        row.weight <= floor_share * (1.0 + 1e-9) || row.weight <= 1.0 / live,
        "retired contender was not decaying: weight {}",
        row.weight
    );

    let second = run();
    assert_eq!(
        first.ledger_jsonl(),
        second.ledger_jsonl(),
        "equal (seed, instance, algos) must replay the ledger byte for byte"
    );
    assert_eq!(first.merged.len(), second.merged.len());
    for (a, b) in first.merged.iter().zip(&second.merged) {
        assert_eq!(
            pareto::Dominance::objectives(a),
            pareto::Dominance::objectives(b)
        );
        assert_eq!(a.solution, b.solution);
    }
}

#[test]
fn different_seeds_change_the_race_but_not_its_accounting() {
    let inst = instance();
    let mut cfg = greedy_cfg();
    cfg.seed = 14;
    let other = Portfolio::new(cfg).run(
        &inst,
        build(&["tsmo-seq", "tsmo-collab", "paes"]),
        tsmo_obs::noop(),
        CancelToken::never(),
    );
    // Budget conservation holds for every seed: each round's allocation
    // sums to the round budget, and every contender spends its slice
    // exactly — except tsmo-collab, which splits the slice across its
    // searchers and may strand a remainder smaller than the searcher
    // count.
    let searchers = params().processors as u64;
    let total = greedy_cfg().total_evaluations;
    assert!(other.evaluations <= total);
    assert!(
        total - other.evaluations < searchers * other.ledger.len() as u64,
        "unspent budget {} exceeds per-round collab rounding",
        total - other.evaluations
    );
    for round in &other.ledger {
        for e in &round.entries {
            assert!(e.spent <= e.allocated, "{} overspent", e.contender);
            if e.algo == "tsmo-collab" {
                assert!(e.allocated - e.spent < searchers);
            } else {
                assert_eq!(e.allocated, e.spent, "{} left budget unspent", e.contender);
            }
        }
    }
}

#[test]
fn the_merged_front_is_never_covered_by_a_standalone_arm_at_equal_budget() {
    let inst = instance();
    let algos = ["tsmo-seq", "nsga2", "spea2"];
    let cfg = PortfolioConfig {
        rounds: 3,
        total_evaluations: 6_000,
        seed: 5,
        ..PortfolioConfig::default()
    };
    let race = Portfolio::new(cfg.clone()).run(
        &inst,
        build(&algos),
        tsmo_obs::noop(),
        CancelToken::never(),
    );
    // Sanity: merged front valid, re-simulating exactly, and mutually
    // non-dominated.
    assert!(!race.merged.is_empty());
    assert_eq!(verify_front(&inst, &race.merged), Ok(()));
    // Each standalone arm gets the race's ENTIRE budget in one run —
    // strictly more than its share inside the race — and still must not
    // cover the merged front.
    for name in algos {
        let mut solo = contender(name, &params()).unwrap();
        solo.run_slice(
            &inst,
            cfg.total_evaluations,
            cfg.seed,
            &CancelToken::never(),
        );
        let covered = pareto::coverage(solo.front(), &race.merged);
        assert!(
            covered < 1.0,
            "standalone {name} covers the merged front (C = {covered})"
        );
        // And the merge holds its own: it covers each arm at least as
        // much as the arm covers it.
        let covers = pareto::coverage(&race.merged, solo.front());
        assert!(
            covers >= covered,
            "standalone {name} out-covers the merged front ({covers} < {covered})"
        );
    }
}
