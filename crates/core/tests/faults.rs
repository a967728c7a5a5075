//! End-to-end fault-injection tests (see the `tsmo-faults` crate and
//! `deme::Supervisor`): a zero-rate plan is completely inert — the
//! telemetry event stream is byte-identical to a run without any fault
//! layer — while a chaotic plan is survived with a valid front and a
//! reproducible recovery trace.

use std::sync::Arc;
use tsmo_core::{Clock, ParallelVariant, RunOptions, TsmoConfig, TsmoOutcome};
use tsmo_faults::{FaultConfig, FaultHook, FaultPlan};
use tsmo_obs::{metrics::names, MemoryRecorder, Recorder};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

fn cfg() -> TsmoConfig {
    TsmoConfig {
        max_evaluations: 2_400,
        neighborhood_size: 60,
        // Pin the per-evaluation virtual cost so the virtual-clock
        // schedules (and hence the event streams) are byte-reproducible.
        sim_eval_cost: Some(1e-4),
        ..TsmoConfig::default()
    }
}

/// Runs `variant` with `recorder` and `faults` attached on `clock`.
fn run_faulted(
    variant: ParallelVariant,
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    recorder: Arc<dyn Recorder>,
    faults: Arc<dyn FaultHook>,
    clock: Clock,
) -> TsmoOutcome {
    let opts = RunOptions {
        recorder,
        faults,
        clock,
        ..RunOptions::default()
    };
    variant.run_opts(inst, cfg, opts)
}

fn virtual_clock() -> Clock {
    Clock::Virtual { speeds: None }
}

fn norm(mut v: Vec<[f64; 3]>) -> Vec<[f64; 3]> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("not NaN"));
    v
}

#[test]
fn zero_fault_plan_event_stream_is_byte_identical() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 40, 6).build());
    let zero = FaultPlan::shared(FaultConfig {
        seed: 99,
        ..FaultConfig::default()
    });
    assert!(zero.config().is_zero(), "default rates must all be zero");

    let bare_rec = MemoryRecorder::shared();
    let async3 = ParallelVariant::Asynchronous(3);
    let bare = async3.run_opts(
        &inst,
        &cfg().with_seed(11),
        RunOptions {
            recorder: bare_rec.clone(),
            clock: virtual_clock(),
            ..RunOptions::default()
        },
    );

    let planned_rec = MemoryRecorder::shared();
    let planned = run_faulted(
        async3,
        &inst,
        &cfg().with_seed(11),
        planned_rec.clone(),
        zero.clone(),
        virtual_clock(),
    );

    assert_eq!(
        bare_rec.events_jsonl(),
        planned_rec.events_jsonl(),
        "a zero-rate plan must not perturb the event stream by one byte"
    );
    assert_eq!(
        norm(bare.feasible_vectors()),
        norm(planned.feasible_vectors())
    );
    assert_eq!(bare.iterations, planned.iterations);
    assert_eq!(zero.stats().total(), 0, "nothing may be injected");
}

#[test]
fn sim_chaos_run_is_byte_reproducible_and_recovers() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 40, 4).build());
    let run = |_: usize| {
        let rec = MemoryRecorder::shared();
        let plan = FaultPlan::shared(FaultConfig::uniform(7, 0.25));
        let out = run_faulted(
            ParallelVariant::Asynchronous(4),
            &inst,
            &cfg().with_seed(3),
            rec.clone(),
            plan,
            virtual_clock(),
        );
        (rec, out)
    };
    let (rec_a, out_a) = run(0);
    let (rec_b, out_b) = run(1);
    // Same plan, same seed: the faulted run replays byte-for-byte.
    assert_eq!(rec_a.events_jsonl(), rec_b.events_jsonl());
    assert_eq!(
        norm(out_a.feasible_vectors()),
        norm(out_b.feasible_vectors())
    );
    let metrics = rec_a.metrics();
    assert!(
        metrics.counter(names::FAULTS_INJECTED) > 0,
        "a 25% fault rate must inject something"
    );
    assert!(
        metrics.counter(names::TASKS_RESENT) > 0,
        "injected panics must be retried"
    );
    assert!(!out_a.archive.is_empty());
    for e in &out_a.archive {
        assert!(e.solution.check(&inst).is_empty());
    }
}

#[test]
fn sim_collaborative_survives_exchange_faults_reproducibly() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
    let mut c = cfg().with_seed(5);
    c.stagnation_limit = 10;
    let run = |_: usize| {
        let rec = MemoryRecorder::shared();
        let plan = FaultPlan::shared(FaultConfig {
            seed: 13,
            exchange_drop_rate: 0.3,
            exchange_delay_rate: 0.3,
            ..FaultConfig::default()
        });
        let out = run_faulted(
            ParallelVariant::Collaborative(3),
            &inst,
            &c,
            rec.clone(),
            plan.clone(),
            virtual_clock(),
        );
        (rec, plan, out)
    };
    let (rec_a, plan_a, out_a) = run(0);
    let (rec_b, _, _) = run(1);
    assert_eq!(rec_a.events_jsonl(), rec_b.events_jsonl());
    assert!(
        plan_a.stats().total() > 0,
        "searchers exchange, so faults must fire"
    );
    assert!(!out_a.archive.is_empty());
    for e in &out_a.archive {
        assert!(e.solution.check(&inst).is_empty());
    }
}

#[test]
fn threaded_async_chaos_run_completes_with_valid_front() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 40, 6).build());
    let c = TsmoConfig {
        max_evaluations: 4_000,
        neighborhood_size: 60,
        ..TsmoConfig::default()
    }
    .with_seed(7);
    let rec = MemoryRecorder::shared();
    let plan = FaultPlan::shared(FaultConfig::uniform(7, 0.2));
    let out = run_faulted(
        ParallelVariant::Asynchronous(4),
        &inst,
        &c,
        rec.clone(),
        plan.clone(),
        Clock::Wall,
    );

    assert_eq!(out.evaluations, 4_000, "budget must be fully consumed");
    assert!(!out.archive.is_empty(), "chaos must not empty the front");
    let vectors: Vec<[f64; 3]> = out
        .archive
        .iter()
        .map(|e| e.objectives.to_vector())
        .collect();
    for (i, a) in vectors.iter().enumerate() {
        assert!(
            out.archive[i].solution.check(&inst).is_empty(),
            "archive entry {i} is not a valid solution"
        );
        for (j, b) in vectors.iter().enumerate() {
            if i != j {
                assert!(
                    !pareto::dominates(a, b),
                    "archive entries {i} and {j} are not mutually non-dominated"
                );
            }
        }
    }
    assert!(
        plan.stats().task_panics > 0,
        "a 20% fault rate over this budget must inject panics"
    );
    let metrics = rec.metrics();
    assert!(
        metrics.counter(names::TASKS_RESENT) > 0,
        "the supervisor must have resent panicked tasks"
    );
}
