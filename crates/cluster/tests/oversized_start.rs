//! A `Start` frame sizes a node's per-searcher allocations: an inbox
//! channel per local searcher id and an RNG stream per global id. A
//! hostile frame asking for an enormous mesh must be refused with an
//! `Error` before anything is allocated, and the node must keep serving.

use std::time::Duration;
use tsmo_cluster::{MeshJob, NodeConfig, NodeMsg, Noded, PeerConn};
use vrptw::generator::{GeneratorConfig, InstanceClass};

#[test]
fn oversized_start_is_refused_and_the_node_keeps_serving() {
    let node = Noded::start(NodeConfig::default()).expect("bind node");
    let addr = node.local_addr().to_string();
    let conn = PeerConn::new(addr.clone(), Duration::from_secs(5));
    // A valid instance, so nothing but the searcher count can refuse it.
    let instance_text =
        vrptw::solomon::write(&GeneratorConfig::new(InstanceClass::R1, 10, 1).build());
    let peers = vec![addr, "127.0.0.1:9".to_string()];
    // Unbounded allocation, then `(node_index + 1) * s` and
    // `peers.len() * s` overflowing.
    for (node_index, searchers_per_node) in
        [(0, 1usize << 40), (1, usize::MAX / 2 + 1), (0, usize::MAX)]
    {
        let job = MeshJob {
            instance_text: instance_text.clone(),
            node_index,
            peers: peers.clone(),
            searchers_per_node,
            ..MeshJob::default()
        };
        match conn.call(&NodeMsg::Start { job }).expect("node answers") {
            NodeMsg::Error { message } => assert!(message.contains("searchers"), "{message}"),
            other => panic!("expected an Error for {searchers_per_node} searchers, got {other:?}"),
        }
    }
    match conn
        .call(&NodeMsg::Hello { node: 0 })
        .expect("node still answers")
    {
        NodeMsg::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    node.halt();
}
