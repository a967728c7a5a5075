//! Cancellation contract tests for the MOEAs, mirroring
//! `crates/core/tests/cancellation.rs`: a run stopped by a
//! [`CancelToken`] is a clean *prefix* of the unstopped run — the token is
//! checked before any randomness is drawn, so the truncated trajectory,
//! archive, and budget accounting depend only on where the run stopped,
//! never on the budget it would have had.

use moea::{Nsga2, Nsga2Config, Paes, PaesConfig, Spea2, Spea2Config};
use std::sync::Arc;
use tsmo_core::{verify_front, CancelToken, StopCause, TsmoOutcome};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::{Instance, Objectives, Solution};

fn inst() -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 7).build())
}

/// A front as `(solution, objectives)` pairs, in order.
fn pairs(out: &TsmoOutcome) -> Vec<(Solution, Objectives)> {
    out.archive
        .iter()
        .map(|e| (e.solution.clone(), e.objectives))
        .collect()
}

fn nsga2_cfg(max_evaluations: u64) -> Nsga2Config {
    Nsga2Config {
        population: 20,
        max_evaluations,
        ..Default::default()
    }
}

fn spea2_cfg(max_evaluations: u64) -> Spea2Config {
    Spea2Config {
        population: 20,
        archive: 10,
        max_evaluations,
        ..Default::default()
    }
}

fn paes_cfg(max_evaluations: u64) -> PaesConfig {
    PaesConfig {
        archive: 10,
        max_evaluations,
        ..Default::default()
    }
}

/// Every MOEA stops on a small iteration limit long before the budget and
/// latches the cause on the token, like the TSMO variants.
#[test]
fn every_algorithm_honors_the_iteration_limit() {
    let inst = inst();
    let budget = 1_000_000;

    let token = CancelToken::with_iteration_limit(3);
    let n = Nsga2::new(nsga2_cfg(budget)).run(&inst, &token);
    assert_eq!(token.cause(), Some(StopCause::IterationLimit), "nsga2");
    assert_eq!(n.iterations, 3);
    assert!(n.evaluations < budget);

    let token = CancelToken::with_iteration_limit(3);
    let s = Spea2::new(spea2_cfg(budget)).run(&inst, &token);
    assert_eq!(token.cause(), Some(StopCause::IterationLimit), "spea2");
    assert!(s.evaluations < budget);

    let token = CancelToken::with_iteration_limit(50);
    let p = Paes::new(paes_cfg(budget)).run(&inst, &token);
    assert_eq!(token.cause(), Some(StopCause::IterationLimit), "paes");
    assert!(p.evaluations < budget);
    assert!(!p.archive.is_empty());
}

/// The prefix property: the front a limited run returns depends only on
/// the iterations it ran, not on the budget it *would* have had — the
/// same limit under a 25x larger budget yields an identical front and
/// identical evaluation count.
#[test]
fn truncated_front_is_independent_of_the_remaining_budget() {
    let inst = inst();

    let token = CancelToken::with_iteration_limit(4);
    let small = Nsga2::new(nsga2_cfg(4_000)).run(&inst, &token);
    let token = CancelToken::with_iteration_limit(4);
    let big = Nsga2::new(nsga2_cfg(100_000)).run(&inst, &token);
    assert_eq!(small.evaluations, big.evaluations, "nsga2 budgets");
    assert_eq!(pairs(&small), pairs(&big), "nsga2 fronts");

    let token = CancelToken::with_iteration_limit(4);
    let small = Spea2::new(spea2_cfg(4_000)).run(&inst, &token);
    let token = CancelToken::with_iteration_limit(4);
    let big = Spea2::new(spea2_cfg(100_000)).run(&inst, &token);
    assert_eq!(small.evaluations, big.evaluations, "spea2 budgets");
    assert_eq!(pairs(&small), pairs(&big), "spea2 fronts");

    let token = CancelToken::with_iteration_limit(120);
    let small = Paes::new(paes_cfg(4_000)).run(&inst, &token);
    let token = CancelToken::with_iteration_limit(120);
    let big = Paes::new(paes_cfg(100_000)).run(&inst, &token);
    assert_eq!(small.evaluations, big.evaluations, "paes budgets");
    assert_eq!(pairs(&small), pairs(&big), "paes fronts");
    assert_eq!(small.iterations, big.iterations, "paes trajectories");
}

/// A truncated run returns only valid solutions (the front is usable as a
/// best-so-far result, exactly like a deadline-truncated TSMO job).
#[test]
fn truncated_fronts_are_valid() {
    let inst = inst();
    let token = CancelToken::with_iteration_limit(2);
    let out = Nsga2::new(nsga2_cfg(1_000_000)).run(&inst, &token);
    assert!(!out.archive.is_empty());
    assert_eq!(verify_front(&inst, &out.archive), Ok(()));
}

/// Explicit cancellation from another thread (the service's Cancel
/// endpoint, or the portfolio scheduler reclaiming a slice) stops a run
/// promptly and reports `Cancelled`.
#[test]
fn explicit_cancel_stops_a_running_algorithm() {
    let inst = inst();
    let token = CancelToken::never();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(60));
            token.cancel();
        })
    };
    let out = Nsga2::new(nsga2_cfg(1_000_000_000)).run(&inst, &token);
    canceller.join().expect("canceller thread");
    assert_eq!(token.cause(), Some(StopCause::Cancelled));
    assert!(out.evaluations < 1_000_000_000);
}

/// Warm-start parity: seeding from a previous front is deterministic and
/// spends exactly the budget a cold run spends, so raced resume slices
/// stay comparable at equal budgets.
#[test]
fn warm_start_is_deterministic_and_spends_equal_budget() {
    let inst = inst();
    let first = Nsga2::new(nsga2_cfg(800)).run(&inst, &CancelToken::never());
    let pool: Vec<_> = first.archive.iter().map(|e| e.solution.clone()).collect();
    assert!(!pool.is_empty());

    let warm_cfg = Nsga2Config {
        warm_start: pool.clone(),
        ..nsga2_cfg(800)
    };
    let a = Nsga2::new(warm_cfg.clone()).run(&inst, &CancelToken::never());
    let b = Nsga2::new(warm_cfg).run(&inst, &CancelToken::never());
    assert_eq!(
        pairs(&a),
        pairs(&b),
        "warm-started runs must be reproducible"
    );
    assert_eq!(
        a.evaluations, first.evaluations,
        "equal budget warm vs cold"
    );

    let warm = Spea2Config {
        warm_start: pool.clone(),
        ..spea2_cfg(800)
    };
    let a = Spea2::new(warm.clone()).run(&inst, &CancelToken::never());
    let b = Spea2::new(warm).run(&inst, &CancelToken::never());
    assert_eq!(pairs(&a), pairs(&b));

    let warm = PaesConfig {
        warm_start: pool,
        ..paes_cfg(800)
    };
    let a = Paes::new(warm.clone()).run(&inst, &CancelToken::never());
    let b = Paes::new(warm).run(&inst, &CancelToken::never());
    assert_eq!(pairs(&a), pairs(&b));
    assert_eq!(a.evaluations, b.evaluations);
}
