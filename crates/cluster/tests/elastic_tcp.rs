//! Acceptance for the elastic TCP path: bounded peer handshakes, archive
//! checkpoints replicated to the ring successor, replica-based front
//! recovery in the mesh gather, and a replacement node joining mid-run to
//! take over a retired slot with a warm-started archive.

use std::io::Read as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tsmo_cluster::mesh::{merge_node_fronts, prometheus_counter, MeshClient};
use tsmo_cluster::{run_mesh, MeshJob, NodeConfig, Noded};
use tsmo_core::FrontEntry;
use tsmo_obs::metrics::names;
use vrptw::generator::{GeneratorConfig, InstanceClass};

const NET_TIMEOUT: Duration = Duration::from_secs(2);

fn start_node() -> Noded {
    Noded::start(NodeConfig::default()).expect("bind node")
}

fn instance_text() -> String {
    vrptw::solomon::write(&GeneratorConfig::new(InstanceClass::R2, 30, 7).build())
}

fn job(peers: Vec<String>, evals: u64, replication_ms: u64) -> MeshJob {
    MeshJob {
        instance_text: instance_text(),
        node_index: 0,
        peers,
        searchers_per_node: 2,
        seed: 3,
        max_evaluations: evals,
        neighborhood_size: 50,
        stagnation_limit: 5,
        replication_ms,
        ..MeshJob::default()
    }
}

/// Order-insensitive front comparison: the live archive and a gathered
/// merge can hold the same set in different insertion orders.
fn sorted_front(front: &[FrontEntry]) -> Vec<String> {
    let mut keys: Vec<String> = front
        .iter()
        .map(|e| format!("{:?}", e.objectives.to_vector()))
        .collect();
    keys.sort();
    keys
}

/// Exchanges `client`'s node has taken delivery of so far, summed over
/// the per-peer counters its `Exchange` handler records as each one
/// arrives. (The unlabeled total is folded into the node's registry only
/// when its job ends, so it cannot show a mesh that is still running.)
fn exchanges_received_live(client: &MeshClient, searchers: usize) -> u64 {
    client
        .metrics()
        .map(|p| {
            (0..searchers)
                .map(|peer| prometheus_counter(&p, &names::exchanges_received_from_peer(peer)))
                .sum()
        })
        .unwrap_or(0)
}

fn wait_done(client: &MeshClient, deadline: Instant) {
    loop {
        match client.status().expect("node answers").as_str() {
            "done" => return,
            _ => {
                assert!(Instant::now() < deadline, "node did not finish in time");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[test]
fn silent_connection_is_dropped_after_peer_timeout() {
    let node = Noded::start(NodeConfig {
        peer_timeout: Duration::from_millis(150),
        ..NodeConfig::default()
    })
    .expect("bind node");
    let addr = node.local_addr();

    // Connect and say nothing: the serve thread must hang up on us.
    let mut silent = TcpStream::connect(addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let started = Instant::now();
    let mut sink = [0u8; 16];
    let n = silent.read(&mut sink).unwrap_or(0);
    assert_eq!(n, 0, "server should close a silent connection, not reply");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "silent connection outlived the peer timeout"
    );

    // A peer that does speak is served normally, with no timeout once the
    // first frame has landed.
    let client = MeshClient::new(addr.to_string(), NET_TIMEOUT);
    client.wait_ready(NET_TIMEOUT).expect("node still serves");
    node.halt();
}

#[test]
fn final_checkpoint_leaves_the_complete_front_on_the_ring_successor() {
    let nodes: Vec<Noded> = (0..2).map(|_| start_node()).collect();
    let peers: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let clients: Vec<MeshClient> = peers
        .iter()
        .map(|p| MeshClient::new(p.clone(), NET_TIMEOUT))
        .collect();
    let job = job(peers, 3_000, 20);
    for (k, client) in clients.iter().enumerate() {
        client.wait_ready(NET_TIMEOUT).expect("ready");
        let mut node_job = job.clone();
        node_job.node_index = k;
        client.start(node_job).expect("dispatch");
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    for client in &clients {
        wait_done(client, deadline);
    }
    // Node 1 is node 0's ring successor: it must hold node 0's replica,
    // and the *final* checkpoint must carry node 0's complete front — a
    // node killed even after its budget is spent loses nothing.
    let report = clients[0].front().expect("node 0 front");
    let (evals, entries) = clients[1]
        .replica(0)
        .expect("fetch")
        .expect("node 1 holds node 0's replica");
    assert_eq!(evals, report.evaluations, "replica evaluations match");
    let replica_front: Vec<FrontEntry> = entries.iter().map(|e| e.to_front()).collect();
    let report_front: Vec<FrontEntry> = report.front.iter().map(|e| e.to_front()).collect();
    assert_eq!(
        sorted_front(&replica_front),
        sorted_front(&report_front),
        "final checkpoint equals the node's final front"
    );
    // And symmetrically, node 0 holds node 1's.
    assert!(clients[0].replica(1).expect("fetch").is_some());
    // The replica counter moved on the holder.
    let prom = clients[1].metrics().expect("metrics");
    assert!(prometheus_counter(&prom, names::ARCHIVES_REPLICATED) > 0);
    for node in nodes {
        node.halt();
    }
}

#[test]
fn mesh_gather_recovers_a_dead_nodes_front_from_its_replica() {
    let nodes: Vec<Noded> = (0..3).map(|_| start_node()).collect();
    let peers: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let job = job(peers.clone(), 120_000, 20);

    // Kill node 2 once the mesh is provably collaborating; run_mesh in
    // the main thread dispatches, polls, and gathers around the death.
    let killer = {
        let peers = peers.clone();
        let searchers = peers.len() * job.searchers_per_node;
        let mut nodes = nodes;
        std::thread::spawn(move || {
            let c0 = MeshClient::new(peers[0].clone(), NET_TIMEOUT);
            let c2 = MeshClient::new(peers[2].clone(), NET_TIMEOUT);
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                let running = matches!(c2.status().as_deref(), Ok("running"));
                let exchanged = exchanges_received_live(&c0, searchers) > 0;
                if running && exchanged {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "mesh never started collaborating"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            let victim = nodes.remove(2);
            victim.halt();
            nodes
        })
    };

    let outcome = run_mesh(&job, NET_TIMEOUT, Duration::from_secs(120)).expect("mesh run");
    let survivors = killer.join().expect("killer thread");

    assert_eq!(
        outcome.recovered_nodes,
        vec![2],
        "the dead node's front must be recovered from a replica"
    );
    assert!(outcome.nodes[2].recovered);
    let recovered = outcome.nodes[2]
        .report
        .as_ref()
        .expect("recovered report present");
    assert!(!recovered.front.is_empty(), "recovered front is empty");
    assert!(recovered.evaluations > 0, "replica proves work was done");
    assert!(!outcome.front.is_empty());
    assert_eq!(
        pareto::non_dominated_indices(&outcome.front).len(),
        outcome.front.len(),
        "merged front must be mutually non-dominated"
    );
    for node in survivors {
        node.halt();
    }
}

#[test]
fn replacement_node_joins_mid_run_and_takes_over_the_retired_slot() {
    let nodes: Vec<Noded> = (0..3).map(|_| start_node()).collect();
    let peers: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let clients: Vec<MeshClient> = peers
        .iter()
        .map(|p| MeshClient::new(p.clone(), NET_TIMEOUT))
        .collect();
    let job = job(peers.clone(), 20_000, 20);
    for (k, client) in clients.iter().enumerate() {
        client.wait_ready(NET_TIMEOUT).expect("ready");
        let mut node_job = job.clone();
        node_job.node_index = k;
        client.start(node_job).expect("dispatch");
    }

    // Let the mesh collaborate, then lose node 1.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let prom = clients[0].metrics().expect("metrics");
        if prometheus_counter(&prom, names::EXCHANGES_RECEIVED) > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "mesh never collaborated");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut nodes = nodes;
    let victim = nodes.remove(1);
    victim.halt();

    // Coordinator-mediated churn: retire the dead slot, admit a fresh
    // node, and hand it the slot's job warm-started from the
    // coordinator's current front.
    let epoch = clients[0].leave(1).expect("leave");
    assert_eq!(epoch, 1, "first transition");
    let replacement = start_node();
    let new_addr = replacement.local_addr().to_string();
    let (epoch, slot, members, warm) = clients[0].join(&new_addr).expect("join");
    assert_eq!(epoch, 2, "leave then join");
    assert_eq!(slot, 1, "the dead slot is taken over");
    assert_eq!(members[1].addr, new_addr);
    assert!(members[1].live);
    assert!(
        !warm.is_empty(),
        "the coordinator had a live front to warm-start from"
    );
    // The broadcast reached the other survivor synchronously.
    let (peer_epoch, peer_members) = clients[2].members().expect("members");
    assert_eq!(peer_epoch, 2);
    assert_eq!(peer_members[1].addr, new_addr);

    // Dispatch slot 1's share of the job to the replacement.
    let mut node_job = job.clone();
    node_job.node_index = slot;
    node_job.peers = members.iter().map(|m| m.addr.clone()).collect();
    node_job.epoch = epoch;
    node_job.warm = warm.clone();
    let new_client = MeshClient::new(new_addr, NET_TIMEOUT);
    new_client
        .wait_ready(NET_TIMEOUT)
        .expect("replacement ready");
    new_client.start(node_job).expect("dispatch replacement");

    let deadline = Instant::now() + Duration::from_secs(120);
    wait_done(&clients[0], deadline);
    wait_done(&clients[2], deadline);
    wait_done(&new_client, deadline);

    // The replacement produced the retired slot's front, and the warm
    // handover lost no elites: every warm entry is in its front or
    // dominated by something better it found.
    let report = new_client.front().expect("replacement front");
    assert!(!report.front.is_empty());
    let front: Vec<FrontEntry> = report.front.iter().map(|e| e.to_front()).collect();
    for entry in &warm {
        let w = entry.to_front();
        let held = front.iter().any(|f| {
            f.objectives.to_vector() == w.objectives.to_vector()
                || pareto::dominates(&f.objectives.to_vector(), &w.objectives.to_vector())
        });
        assert!(held, "warm elite lost in the handover");
    }
    // Global gather across the post-churn mesh is a valid front.
    let mut node_fronts = vec![front];
    for client in [&clients[0], &clients[2]] {
        let report = client.front().expect("survivor front");
        node_fronts.push(report.front.iter().map(|e| e.to_front()).collect());
    }
    let merged = merge_node_fronts(&node_fronts, 20);
    assert!(!merged.is_empty());
    assert_eq!(
        pareto::non_dominated_indices(&merged).len(),
        merged.len(),
        "post-churn merged front must be mutually non-dominated"
    );

    replacement.halt();
    for node in nodes {
        node.halt();
    }
}
