//! Acceptance: a fixed-membership 3-node `--virtual-net` run produces a
//! merged front byte-identical to the verifying replay of its own network
//! recording.

use std::sync::Arc;
use tsmo_cluster::{front_fingerprint, replay_elastic, run_elastic, ElasticMeshConfig, NetRecord};
use tsmo_core::TsmoConfig;
use tsmo_faults::{FaultConfig, FaultPlan};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

fn instance() -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 7).build())
}

fn mesh_cfg(seed: u64) -> ElasticMeshConfig {
    ElasticMeshConfig::fixed(
        3,
        2,
        TsmoConfig {
            max_evaluations: 4_000,
            neighborhood_size: 40,
            stagnation_limit: 8,
            ..TsmoConfig::default()
        }
        .with_seed(seed),
    )
}

fn exchanges(log: &[NetRecord]) -> usize {
    log.iter()
        .filter(|r| matches!(r, NetRecord::Exchange(_)))
        .count()
}

#[test]
fn replay_of_a_three_node_run_is_byte_identical() {
    let inst = instance();
    let vm = mesh_cfg(11);
    let recorded = run_elastic(&inst, &vm, tsmo_obs::noop(), tsmo_faults::none());
    assert!(
        exchanges(&recorded.log) > 0,
        "the mesh must actually exchange solutions for this test to mean anything"
    );
    assert!(!recorded.front.is_empty());
    assert_eq!(recorded.node_fronts.len(), 3);

    let replayed = replay_elastic(
        &inst,
        &vm,
        tsmo_obs::noop(),
        tsmo_faults::none(),
        &recorded.log,
    )
    .expect("replay must follow the recording exactly");
    assert_eq!(
        front_fingerprint(&replayed.front),
        front_fingerprint(&recorded.front),
        "merged front must be byte-identical under replay"
    );
    assert_eq!(replayed.log, recorded.log);
    assert_eq!(replayed.evaluations, recorded.evaluations);
    assert_eq!(replayed.iterations, recorded.iterations);
    for (a, b) in recorded.node_fronts.iter().zip(&replayed.node_fronts) {
        assert_eq!(front_fingerprint(a), front_fingerprint(b));
    }
}

#[test]
fn replay_against_a_foreign_recording_reports_the_divergence() {
    let inst = instance();
    let recorded = run_elastic(&inst, &mesh_cfg(11), tsmo_obs::noop(), tsmo_faults::none());
    let err = replay_elastic(
        &inst,
        &mesh_cfg(12), // different seed ⇒ different exchange schedule
        tsmo_obs::noop(),
        tsmo_faults::none(),
        &recorded.log,
    )
    .expect_err("a different seed cannot reproduce the recording");
    assert!(err.contains("diverged") || err.contains("record"), "{err}");
}

#[test]
fn faulted_virtual_runs_replay_identically_too() {
    // Exchange drop/delay decisions are pure functions of (seed, sender,
    // seq), so a faulted mesh is as reproducible as a clean one.
    let inst = instance();
    let vm = mesh_cfg(21);
    let hook = || FaultPlan::shared(FaultConfig::exchange_only(5, 0.4));
    let recorded = run_elastic(&inst, &vm, tsmo_obs::noop(), hook());
    let replayed = replay_elastic(&inst, &vm, tsmo_obs::noop(), hook(), &recorded.log)
        .expect("faulted replay must match");
    assert_eq!(
        front_fingerprint(&replayed.front),
        front_fingerprint(&recorded.front)
    );
    // The faults really fired: a clean run delivers a different schedule.
    let clean = run_elastic(&inst, &vm, tsmo_obs::noop(), tsmo_faults::none());
    assert_ne!(clean.log, recorded.log, "the fault plan changed nothing");
}

/// Span profiling under `--virtual-net`: the verifying replay reproduces the
/// recording's span and timeline stream byte-for-byte — trace ids and
/// span ids included.
#[test]
fn virtual_replay_preserves_trace_and_span_ids_exactly() {
    use tsmo_obs::{MemoryRecorder, Recorder, SearchEvent};

    let inst = instance();
    let mut vm = mesh_cfg(11);
    let trace_id = tsmo_obs::trace_id_from_seed(11);
    vm.cfg.trace_id = Some(trace_id);
    vm.cfg.timeline_every = Some(500);
    let r1 = Arc::new(MemoryRecorder::new().with_span_events());
    let recorded = run_elastic(
        &inst,
        &vm,
        Arc::clone(&r1) as Arc<dyn Recorder>,
        tsmo_faults::none(),
    );
    let r2 = Arc::new(MemoryRecorder::new().with_span_events());
    let replayed = replay_elastic(
        &inst,
        &vm,
        Arc::clone(&r2) as Arc<dyn Recorder>,
        tsmo_faults::none(),
        &recorded.log,
    )
    .expect("replay must follow the recording exactly");
    assert_eq!(
        front_fingerprint(&replayed.front),
        front_fingerprint(&recorded.front)
    );
    let (jsonl1, jsonl2) = (r1.events_jsonl(), r2.events_jsonl());
    assert!(!jsonl1.is_empty());
    assert_eq!(
        jsonl1, jsonl2,
        "replay must preserve trace and span ids exactly"
    );
    let mut saw_span = false;
    for ev in &r1.events() {
        if let SearchEvent::SpanEnter { trace, .. } | SearchEvent::SpanExit { trace, .. } =
            &ev.event
        {
            saw_span = true;
            assert_eq!(*trace, trace_id);
        }
    }
    assert!(saw_span, "the virtual run recorded no spans");
}

#[test]
fn virtual_front_is_mutually_non_dominated_and_solutions_check() {
    let inst = instance();
    let out = run_elastic(&inst, &mesh_cfg(31), tsmo_obs::noop(), tsmo_faults::none());
    assert_eq!(
        pareto::non_dominated_indices(&out.front).len(),
        out.front.len()
    );
    for entry in &out.front {
        assert!(entry.solution.check(&inst).is_empty(), "invalid solution");
    }
    // 6 searchers, each with its own 4,000-evaluation budget.
    assert_eq!(out.evaluations, 24_000);
}
