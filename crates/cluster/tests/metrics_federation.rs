//! Acceptance: cluster-wide metric federation. A 3-node mesh answers
//! `MetricsFetch` with mergeable registries; folding them with a
//! `node="k"` label per peer (exactly what `clusterctl metrics-merge`
//! does) yields one exposition whose per-node evaluation counters sum to
//! the same total a single-process collaborative run with the same seed
//! and searcher count consumes — the federated view loses nothing.

use std::sync::Arc;
use std::time::Duration;
use tsmo_cluster::mesh::{self, MeshClient};
use tsmo_cluster::{MeshJob, NodeConfig, Noded};
use tsmo_core::{ParallelVariant, TsmoConfig};
use tsmo_obs::metrics::names;
use tsmo_obs::{MemoryRecorder, MetricsRegistry, Recorder};
use vrptw::generator::{GeneratorConfig, InstanceClass};

const NET_TIMEOUT: Duration = Duration::from_secs(2);
const OPERATORS: [&str; 5] = ["relocate", "exchange", "two_opt", "two_opt_star", "or_opt"];

#[test]
fn federated_mesh_metrics_match_single_process_totals() {
    let inst = GeneratorConfig::new(InstanceClass::R1, 25, 3).build();
    let instance_text = vrptw::solomon::write(&inst);
    let nodes: Vec<Noded> = (0..3)
        .map(|_| Noded::start(NodeConfig::default()).expect("bind node"))
        .collect();
    let peers: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();

    let job = MeshJob {
        instance_text,
        node_index: 0,
        peers: peers.clone(),
        searchers_per_node: 2,
        seed: 5,
        max_evaluations: 2_000,
        neighborhood_size: 30,
        stagnation_limit: 8,
        ..MeshJob::default()
    };
    let outcome =
        mesh::run_mesh(&job, NET_TIMEOUT, Duration::from_secs(120)).expect("mesh run finishes");
    assert!(!outcome.front.is_empty());

    // Federate exactly like `clusterctl metrics-merge`.
    let mut federated = MetricsRegistry::new();
    let mut node_evaluations = 0u64;
    for (k, peer) in peers.iter().enumerate() {
        let registry = MeshClient::new(peer.clone(), NET_TIMEOUT)
            .metrics_registry()
            .expect("metrics fetch");
        let evals = registry.counter(names::EVALUATIONS);
        assert!(evals > 0, "node {k} recorded no evaluations");
        node_evaluations += evals;
        // Operator attribution made it through the node's searchers.
        let proposed: u64 = OPERATORS
            .iter()
            .map(|op| registry.counter(&names::operator_counter(names::OPERATOR_PROPOSED, op)))
            .sum();
        assert!(proposed > 0, "node {k} has no per-operator attribution");
        let node = k.to_string();
        federated.merge(&registry.with_label("node", &node));
        federated.gauge_set(&names::node_up(&node), 1.0);
    }

    // The same seed and searcher count in one process consumes the same
    // evaluation total — the per-searcher budget is deterministic.
    let single = Arc::new(MemoryRecorder::metrics_only());
    let cfg = TsmoConfig {
        max_evaluations: job.max_evaluations,
        neighborhood_size: job.neighborhood_size,
        stagnation_limit: job.stagnation_limit,
        ..TsmoConfig::default()
    }
    .with_seed(job.seed);
    ParallelVariant::Collaborative(job.total_searchers()).run_with(
        &Arc::new(inst),
        &cfg,
        Arc::clone(&single) as Arc<dyn Recorder>,
    );
    assert_eq!(
        node_evaluations,
        single.metrics().counter(names::EVALUATIONS),
        "federated per-node evaluation counters must sum to the \
         single-process total for the same seed"
    );

    // The exposition carries every node's labeled series plus liveness.
    let exposition = federated.to_prometheus();
    for k in 0..peers.len() {
        assert!(
            exposition.contains(&format!("{}{{node=\"{k}\"}}", names::EVALUATIONS)),
            "missing node {k} evaluations in:\n{exposition}"
        );
        assert!(
            exposition.contains(&format!("tsmo_node_up{{node=\"{k}\"}} 1")),
            "missing node {k} liveness in:\n{exposition}"
        );
    }
    assert!(
        exposition.contains("tsmo_operator_proposed_total{node=\"0\",operator="),
        "federated exposition lost operator attribution:\n{exposition}"
    );

    for node in nodes {
        node.halt();
    }
}
