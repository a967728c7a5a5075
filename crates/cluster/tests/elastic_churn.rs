//! Acceptance tests for the elastic virtual mesh: fixed-membership
//! equivalence with the retired static mesh runner, zero elite loss
//! through kill/recover, byte-identical churn replay, and late-joiner
//! admission.

use std::sync::Arc;
use tsmo_cluster::{
    fingerprint_hash, front_fingerprint, replay_elastic, run_elastic, ChurnEvent, ChurnKind,
    ElasticMeshConfig, ExchangeRecord, NetRecord,
};
use tsmo_core::TsmoConfig;
use tsmo_obs::{MemoryRecorder, Recorder};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

fn instance() -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 7).build())
}

fn cfg(seed: u64) -> TsmoConfig {
    TsmoConfig {
        max_evaluations: 3_000,
        neighborhood_size: 50,
        stagnation_limit: 8,
        seed,
        ..TsmoConfig::default()
    }
}

fn recorder() -> Arc<dyn Recorder> {
    Arc::new(MemoryRecorder::metrics_only())
}

fn hook() -> Arc<dyn tsmo_faults::FaultHook> {
    tsmo_faults::none()
}

fn exchanges(log: &[NetRecord]) -> Vec<&ExchangeRecord> {
    log.iter()
        .filter_map(|r| match r {
            NetRecord::Exchange(e) => Some(e),
            _ => None,
        })
        .collect()
}

/// What the static round-robin mesh runner (since folded into
/// `run_elastic`) produced for `ElasticMeshConfig::fixed(4, 2, cfg(7))` on
/// this instance: the FNV-1a hash of the merged front's fingerprint, of
/// each node front's, the delivered exchanges, and the evaluations.
const STATIC_FRONT_FP: u64 = 0xd111_b61a_8692_b15b;
const STATIC_NODE_FPS: [u64; 4] = [
    0x7e2b_c1c0_3888_5712,
    0xb746_1cf3_170c_b0c0,
    0xb736_dae4_d91b_a1d7,
    0x7375_826a_0a0f_0815,
];
const STATIC_EXCHANGES: usize = 157;
const STATIC_EVALUATIONS: u64 = 24_000;

#[test]
fn fixed_membership_elastic_run_matches_static_virtual_mesh() {
    let inst = instance();
    let em = ElasticMeshConfig::fixed(4, 2, cfg(7));
    let elastic = run_elastic(&inst, &em, recorder(), hook());
    assert_eq!(
        fingerprint_hash(&elastic.front),
        STATIC_FRONT_FP,
        "fixed membership must reproduce the static mesh front"
    );
    for (node, front) in elastic.node_fronts.iter().enumerate() {
        assert_eq!(
            fingerprint_hash(front),
            STATIC_NODE_FPS[node],
            "node {node} front diverged"
        );
    }
    assert_eq!(elastic.evaluations, STATIC_EVALUATIONS);
    assert_eq!(
        exchanges(&elastic.log).len(),
        STATIC_EXCHANGES,
        "exchange sequence diverged"
    );
    // Replication changes nothing about the search itself: checkpoints
    // only read archives.
    let replicated = ElasticMeshConfig {
        replication_every: 10,
        ..em
    };
    let rep = run_elastic(&inst, &replicated, recorder(), hook());
    assert_eq!(
        front_fingerprint(&rep.front),
        front_fingerprint(&elastic.front)
    );
    assert_eq!(exchanges(&rep.log), exchanges(&elastic.log));
    assert!(
        rep.log
            .iter()
            .any(|r| matches!(r, NetRecord::Checkpoint { .. })),
        "replication must record checkpoints"
    );
}

#[test]
fn killed_node_costs_no_elites_with_replication() {
    let inst = instance();
    let base = ElasticMeshConfig {
        replication_every: 10,
        ..ElasticMeshConfig::fixed(4, 2, cfg(3))
    };
    let clean = run_elastic(&inst, &base, recorder(), hook());
    // Kill node 2 after it has contributed everything it ever will: one
    // round past the clean run's natural end. Without replication its
    // whole front would vanish; the replica on its ring successor must
    // restore it exactly.
    let killed = ElasticMeshConfig {
        churn: vec![ChurnEvent {
            round: clean.rounds + 1,
            node: 2,
            kind: ChurnKind::Kill,
        }],
        ..base.clone()
    };
    let out = run_elastic(&inst, &killed, recorder(), hook());
    assert_eq!(
        front_fingerprint(&out.front),
        front_fingerprint(&clean.front),
        "kill-and-recover must equal the no-kill front byte for byte"
    );
    assert_eq!(
        front_fingerprint(&out.node_fronts[2]),
        front_fingerprint(&clean.node_fronts[2]),
        "the dead node's front must be restored from its replica"
    );
    assert!(out.recovered_nodes.contains(&2));
    // Every entry the dead node contributed to the global front came
    // through the replica.
    let from_node2 = clean
        .front
        .iter()
        .filter(|e| {
            clean.node_fronts[2]
                .iter()
                .any(|n| n.objectives.to_vector() == e.objectives.to_vector())
        })
        .count();
    assert_eq!(out.recovered_in_front, from_node2);
    assert!(
        from_node2 > 0,
        "node 2 contributed nothing; test is vacuous"
    );
    // Recovery from the replica is free: the replicated budgets prove the
    // work was done, so nothing is re-executed.
    assert_eq!(out.evaluations, clean.evaluations);

    // Contrast: without replication nothing proves the dead node's work
    // happened. The rebalancer re-runs its whole slice on the survivors —
    // the full budget is paid again — and without the mid-run exchanges
    // the originals received, the recomputed front is a different one.
    let unreplicated = ElasticMeshConfig {
        replication_every: 0,
        churn: killed.churn.clone(),
        ..base
    };
    let lost = run_elastic(&inst, &unreplicated, recorder(), hook());
    assert_eq!(
        lost.evaluations,
        clean.evaluations + 2 * 3_000,
        "the killed slice is fully re-executed"
    );
    assert!(lost.recovered_nodes.is_empty());
    assert_ne!(
        front_fingerprint(&lost.node_fronts[2]),
        front_fingerprint(&clean.node_fronts[2]),
        "recomputation is not recovery: the original front is lost"
    );
}

#[test]
fn eight_node_churn_scenario_replays_byte_identically() {
    let inst = instance();
    let em = ElasticMeshConfig {
        replication_every: 10,
        churn: vec![
            ChurnEvent {
                round: 20,
                node: 2,
                kind: ChurnKind::Kill,
            },
            ChurnEvent {
                round: 30,
                node: 5,
                kind: ChurnKind::Kill,
            },
            ChurnEvent {
                round: 42,
                node: 2,
                kind: ChurnKind::Join,
            },
        ],
        ..ElasticMeshConfig::fixed(8, 2, cfg(5))
    };
    let first = run_elastic(&inst, &em, recorder(), hook());
    assert_eq!(first.final_epoch, 3, "kill, kill, join");
    assert!(first
        .log
        .iter()
        .any(|r| matches!(r, NetRecord::Left { node: 2, .. })));
    assert!(first
        .log
        .iter()
        .any(|r| matches!(r, NetRecord::Left { node: 5, .. })));
    assert!(first
        .log
        .iter()
        .any(|r| matches!(r, NetRecord::Joined { node: 2, .. })));
    assert!(
        first
            .log
            .iter()
            .filter(|r| matches!(r, NetRecord::Rebalanced { .. }))
            .count()
            >= 4,
        "initial placement plus one per transition"
    );
    // The merged front is a valid mutually non-dominated set.
    assert!(!first.front.is_empty());
    let vectors: Vec<Vec<f64>> = first
        .front
        .iter()
        .map(|e| e.objectives.to_vector().to_vec())
        .collect();
    assert_eq!(
        pareto::non_dominated_indices(&vectors).len(),
        vectors.len(),
        "merged front must be mutually non-dominated"
    );
    for e in &first.front {
        assert!(e.solution.check(&inst).is_empty(), "infeasible solution");
    }
    // Node 5 stayed dead: its front must come from a surviving replica.
    assert!(first.recovered_nodes.contains(&5));
    assert!(!first.node_fronts[5].is_empty());

    // Byte-identical replay: every network record verified in order, and
    // the outcome fingerprints match.
    let replayed =
        replay_elastic(&inst, &em, recorder(), hook(), &first.log).expect("replay verifies");
    assert_eq!(
        front_fingerprint(&replayed.front),
        front_fingerprint(&first.front)
    );
    assert_eq!(replayed.log, first.log);
    assert_eq!(replayed.rounds, first.rounds);

    // A divergent log is rejected with a pinpointed record.
    let mut tampered = first.log.clone();
    if let Some(NetRecord::Exchange(e)) = tampered
        .iter_mut()
        .find(|r| matches!(r, NetRecord::Exchange(_)))
    {
        e.objectives[0] += 1.0;
    }
    let err = replay_elastic(&inst, &em, recorder(), hook(), &tampered)
        .expect_err("tampered log must diverge");
    assert!(err.contains("diverged"), "unexpected error: {err}");
}

#[test]
fn deferred_node_joins_late_and_takes_over_its_slice() {
    let inst = instance();
    let em = ElasticMeshConfig {
        replication_every: 5,
        deferred: vec![2],
        churn: vec![ChurnEvent {
            round: 15,
            node: 2,
            kind: ChurnKind::Join,
        }],
        ..ElasticMeshConfig::fixed(3, 2, cfg(11))
    };
    let out = run_elastic(&inst, &em, recorder(), hook());
    assert!(out
        .log
        .iter()
        .any(|r| matches!(r, NetRecord::Joined { node: 2, .. })));
    // Graceful migrations conserve the budget exactly: every searcher id
    // still consumes its full allocation, no more, no less.
    assert_eq!(out.evaluations, 6 * 3_000);
    assert!(
        !out.node_fronts[2].is_empty(),
        "the late joiner's slice still produces a front"
    );
    let replayed =
        replay_elastic(&inst, &em, recorder(), hook(), &out.log).expect("replay verifies");
    assert_eq!(
        front_fingerprint(&replayed.front),
        front_fingerprint(&out.front)
    );
}
