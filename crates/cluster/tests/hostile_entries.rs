//! A node checks every front entry a peer hands it — exchanges,
//! checkpoints, warm starts — against the job's instance before any of it
//! reaches a searcher or a replica. Entries that visit a site the instance
//! does not have, or whose objectives do not re-simulate, are answered with
//! an `Error`; the node keeps serving, and its front holds no forgery.

use std::time::{Duration, Instant};
use tsmo_cluster::{ExchangeEntry, MeshClient, MeshJob, NodeConfig, NodeMsg, Noded};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Solution;

const TIMEOUT: Duration = Duration::from_secs(5);

fn expect_error(client: &MeshClient, msg: NodeMsg, what: &str) {
    match client.call(&msg).expect("node answers") {
        NodeMsg::Error { message } => assert!(message.contains("bad"), "{what}: {message}"),
        other => panic!("{what}: expected Error, got {other:?}"),
    }
}

#[test]
fn forged_entries_are_refused_and_never_reach_the_front() {
    let text = vrptw::solomon::write(&GeneratorConfig::new(InstanceClass::R1, 25, 2).build());
    let inst = vrptw::solomon::parse(&text).expect("round trip");
    // One route through every customer: a valid solution, honestly scored.
    let tour: Vec<u16> = inst.customers().collect();
    let honest = ExchangeEntry {
        objectives: Solution::from_routes(vec![tour.clone()])
            .evaluate(&inst)
            .to_vector(),
        routes: vec![tour.clone()],
    };
    let mut off_map = tour.clone();
    off_map.push(10_000);
    let forgeries = [
        ExchangeEntry {
            routes: vec![off_map],
            ..honest.clone()
        },
        ExchangeEntry {
            objectives: [0.0, 0.0, 0.0],
            ..honest.clone()
        },
    ];

    let node = Noded::start(NodeConfig::default()).expect("bind node");
    let addr = node.local_addr().to_string();
    let client = MeshClient::new(addr.clone(), TIMEOUT);
    client.wait_ready(TIMEOUT).expect("ready");
    let job = MeshJob {
        instance_text: text,
        peers: vec![addr],
        searchers_per_node: 2,
        seed: 5,
        max_evaluations: 50_000_000,
        stagnation_limit: 10,
        ..MeshJob::default()
    };
    // A warm start is checked before the job starts.
    for forged in &forgeries {
        let start = NodeMsg::Start {
            job: MeshJob {
                warm: vec![forged.clone()],
                ..job.clone()
            },
        };
        expect_error(&client, start, "forged warm entry");
    }
    client.start(job).expect("dispatch");
    assert_eq!(client.status().expect("status"), "running");

    // An honest exchange is delivered, so the refusals below are the
    // entry check and not a closed inbox.
    let honest_exchange = NodeMsg::Exchange {
        from: 7,
        to: 0,
        entry: honest.clone(),
    };
    match client.call(&honest_exchange).expect("node answers") {
        NodeMsg::ExchangeAck => {}
        other => panic!("expected ExchangeAck, got {other:?}"),
    }
    for forged in &forgeries {
        let exchange = NodeMsg::Exchange {
            from: 7,
            to: 0,
            entry: forged.clone(),
        };
        expect_error(&client, exchange, "forged exchange");
        let checkpoint = NodeMsg::Checkpoint {
            from: 1,
            epoch: 0,
            evaluations: 1,
            entries: vec![honest.clone(), forged.clone()],
        };
        expect_error(&client, checkpoint, "forged checkpoint");
    }
    assert!(
        client.replica(1).expect("fetch").is_none(),
        "a refused checkpoint stores nothing"
    );
    assert_eq!(
        client.status().expect("status"),
        "running",
        "the job ran throughout, so its inboxes were open"
    );
    match client.call(&NodeMsg::Hello { node: 0 }).expect("answers") {
        NodeMsg::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    client.stop().expect("stop");
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.status().expect("status") != "done" {
        assert!(Instant::now() < deadline, "job did not stop");
        std::thread::sleep(Duration::from_millis(20));
    }
    let front = client.front().expect("front").front;
    assert!(!front.is_empty());
    for entry in &front {
        let solution = entry.to_front().solution;
        assert_eq!(
            solution.verify(&inst, entry.objectives),
            Ok(()),
            "{entry:?}"
        );
        assert!(
            !forgeries.contains(entry),
            "a forged entry reached the front"
        );
    }
    node.halt();
}
