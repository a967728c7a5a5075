//! Cancellation contract tests: a run stopped by a [`CancelToken`] is a
//! clean *prefix* of the unstopped run — same trajectory, same telemetry,
//! same archive state, just truncated — and every stop cause is reported.

use std::sync::Arc;
use tsmo_core::{
    CancelToken, Clock, ParallelVariant, RunOptions, StopCause, TsmoConfig, TsmoOutcome,
};
use tsmo_obs::{MemoryRecorder, Recorder};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

fn inst() -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 7).build())
}

fn cfg() -> TsmoConfig {
    TsmoConfig {
        max_evaluations: 6_000,
        neighborhood_size: 60,
        stagnation_limit: 20,
        ..TsmoConfig::default()
    }
}

/// Runs `variant` under `cancel` on `clock` with `recorder` attached.
fn run_cancelled(
    variant: ParallelVariant,
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    recorder: Arc<dyn Recorder>,
    cancel: CancelToken,
    clock: Clock,
) -> TsmoOutcome {
    let opts = RunOptions {
        recorder,
        cancel,
        clock,
        ..RunOptions::default()
    };
    variant.run_opts(inst, cfg, opts)
}

fn fronts(out: &TsmoOutcome) -> Vec<[f64; 3]> {
    out.archive
        .iter()
        .map(|e| e.objectives.to_vector())
        .collect()
}

/// The headline determinism proof for the sequential variant: the token is
/// checked at the top of each iteration, before any randomness is drawn,
/// so an iteration-limited run emits a byte-identical prefix of the full
/// run's JSONL event stream (which pins its archive trajectory too). The
/// synchronous and asynchronous variants on the virtual clock, with a
/// fixed evaluation cost, keep the same promise.
#[test]
fn sequential_iteration_limited_run_is_a_byte_identical_prefix() {
    let inst = inst();
    let virtual_cfg = TsmoConfig {
        sim_eval_cost: Some(0.01),
        ..cfg()
    };
    for (variant, cfg, clock) in [
        (ParallelVariant::Sequential, cfg(), Clock::Wall),
        (
            ParallelVariant::Synchronous(3),
            virtual_cfg.clone(),
            Clock::Virtual { speeds: None },
        ),
        (
            ParallelVariant::Asynchronous(3),
            virtual_cfg,
            Clock::Virtual { speeds: None },
        ),
    ] {
        let full_rec = MemoryRecorder::shared();
        let full = run_cancelled(
            variant,
            &inst,
            &cfg,
            Arc::clone(&full_rec) as Arc<dyn Recorder>,
            CancelToken::never(),
            clock.clone(),
        );
        let k: usize = 10;
        assert!(
            full.iterations > k,
            "full run too short ({} iterations) for a prefix at {k}",
            full.iterations
        );

        let token = CancelToken::with_iteration_limit(k as u64);
        let lim_rec = MemoryRecorder::shared();
        let limited = run_cancelled(
            variant,
            &inst,
            &cfg,
            Arc::clone(&lim_rec) as Arc<dyn Recorder>,
            token.clone(),
            clock,
        );

        assert_eq!(limited.iterations, k, "stopped exactly at the limit");
        assert_eq!(token.cause(), Some(StopCause::IterationLimit));
        assert!(limited.evaluations < full.evaluations);

        let (full_jsonl, lim_jsonl) = (full_rec.events_jsonl(), lim_rec.events_jsonl());
        assert!(!lim_jsonl.is_empty(), "the truncated run emitted no events");
        assert!(
            full_jsonl.starts_with(&lim_jsonl),
            "{variant:?}: truncated event stream is not a byte prefix of the full stream"
        );
    }
}

/// The archive a cancelled run returns depends only on the iterations it
/// ran, not on the budget it *would* have had: the same limit under a 25x
/// larger evaluation budget yields a byte-identical front.
#[test]
fn truncated_front_is_independent_of_the_remaining_budget() {
    let inst = inst();
    let k: usize = 12;
    let limited = |cfg: TsmoConfig| {
        run_cancelled(
            ParallelVariant::Sequential,
            &inst,
            &cfg,
            tsmo_obs::noop(),
            CancelToken::with_iteration_limit(k as u64),
            Clock::Wall,
        )
    };
    let small = limited(cfg());
    let big = limited(TsmoConfig {
        max_evaluations: 150_000,
        ..cfg()
    });
    assert_eq!(small.iterations, k);
    assert_eq!(big.iterations, k);
    assert_eq!(small.evaluations, big.evaluations);
    assert_eq!(fronts(&small), fronts(&big));
}

/// Parallel prefix determinism: the synchronous variant is bit-identical
/// to the sequential algorithm with the same chunking, so cancelling it at
/// iteration `k` lands on exactly the sequential run cancelled at `k`.
/// (Its *event interleaving* follows thread timing, so the comparison is
/// on outcomes, not bytes of telemetry.)
#[test]
fn sync_cancelled_at_k_equals_sequential_cancelled_at_k() {
    let inst = inst();
    let k: usize = 8;
    let p = 3;
    let limited = |variant: ParallelVariant, cfg: TsmoConfig| {
        run_cancelled(
            variant,
            &inst,
            &cfg,
            tsmo_obs::noop(),
            CancelToken::with_iteration_limit(k as u64),
            Clock::Wall,
        )
    };
    let seq = limited(
        ParallelVariant::Sequential,
        TsmoConfig { chunks: p, ..cfg() },
    );
    let sync = limited(ParallelVariant::Synchronous(p), cfg());
    assert_eq!(seq.iterations, k);
    assert_eq!(sync.iterations, k);
    assert_eq!(seq.evaluations, sync.evaluations);
    assert_eq!(fronts(&seq), fronts(&sync));
}

/// A wall-clock deadline truncates a long run to a valid best-so-far
/// outcome and reports `DeadlineExceeded`.
#[test]
fn deadline_exceeded_truncates_to_a_valid_outcome() {
    let inst = inst();
    let cfg = TsmoConfig {
        max_evaluations: 100_000_000,
        ..cfg()
    };
    let token = CancelToken::with_deadline(std::time::Duration::from_millis(80));
    let out = run_cancelled(
        ParallelVariant::Sequential,
        &inst,
        &cfg,
        tsmo_obs::noop(),
        token.clone(),
        Clock::Wall,
    );
    assert_eq!(token.cause(), Some(StopCause::DeadlineExceeded));
    assert!(out.evaluations < cfg.max_evaluations);
    for entry in &out.archive {
        assert!(
            entry.solution.check(&inst).is_empty(),
            "truncated run returned an invalid solution"
        );
    }
}

/// Explicit cancellation from another thread (the service's Cancel
/// endpoint) stops a threaded parallel run promptly and cleanly.
#[test]
fn explicit_cancel_stops_a_threaded_parallel_run() {
    let inst = inst();
    let cfg = TsmoConfig {
        max_evaluations: 100_000_000,
        ..cfg()
    };
    let token = CancelToken::never();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(60));
            token.cancel();
        })
    };
    let out = run_cancelled(
        ParallelVariant::Asynchronous(3),
        &inst,
        &cfg,
        tsmo_obs::noop(),
        token.clone(),
        Clock::Wall,
    );
    canceller.join().expect("canceller thread");
    assert_eq!(token.cause(), Some(StopCause::Cancelled));
    assert!(out.evaluations < cfg.max_evaluations);
}

/// `run_opts` threads the token through every variant on both clocks: each
/// one stops on a small iteration limit long before the evaluation budget.
#[test]
fn every_variant_honors_the_iteration_limit() {
    let inst = inst();
    let cfg = TsmoConfig {
        max_evaluations: 10_000_000,
        ..cfg()
    };
    for clock in [Clock::Wall, Clock::Virtual { speeds: None }] {
        for variant in [
            ParallelVariant::Sequential,
            ParallelVariant::Synchronous(3),
            ParallelVariant::Asynchronous(3),
            ParallelVariant::Collaborative(3),
        ] {
            let token = CancelToken::with_iteration_limit(5);
            let out = run_cancelled(
                variant,
                &inst,
                &cfg,
                tsmo_obs::noop(),
                token.clone(),
                clock.clone(),
            );
            assert_eq!(
                token.cause(),
                Some(StopCause::IterationLimit),
                "{variant:?} on {clock:?} ignored the iteration limit"
            );
            assert!(
                out.evaluations < cfg.max_evaluations,
                "{variant:?} on {clock:?} ran to budget exhaustion despite the limit"
            );
        }
    }
}
