//! `Wait` blocks on a node until its job leaves `running`: an idle node
//! answers at once, a running one once its searchers finish, after which
//! the front is ready to gather.

use std::time::{Duration, Instant};
use tsmo_cluster::{MeshClient, MeshJob, NodeConfig, Noded};
use vrptw::generator::{GeneratorConfig, InstanceClass};

const TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn wait_answers_idle_at_once_and_done_when_the_job_finishes() {
    let node = Noded::start(NodeConfig::default()).expect("bind node");
    let addr = node.local_addr().to_string();
    let client = MeshClient::new(addr.clone(), TIMEOUT);
    client.wait_ready(TIMEOUT).expect("ready");

    let asked = Instant::now();
    assert_eq!(client.wait(Duration::from_secs(4)).expect("wait"), "idle");
    assert!(
        asked.elapsed() < Duration::from_secs(2),
        "an idle node must not hold the request"
    );

    let job = MeshJob {
        instance_text: vrptw::solomon::write(
            &GeneratorConfig::new(InstanceClass::R2, 20, 3).build(),
        ),
        peers: vec![addr],
        searchers_per_node: 2,
        seed: 7,
        max_evaluations: 3_000,
        neighborhood_size: 20,
        stagnation_limit: 10,
        ..MeshJob::default()
    };
    client.start(job).expect("start");
    let deadline = Instant::now() + Duration::from_secs(60);
    let state = loop {
        let state = client.wait(Duration::from_secs(4)).expect("wait");
        if state != "running" || Instant::now() >= deadline {
            break state;
        }
    };
    assert_eq!(state, "done");
    let report = client.front().expect("front after done");
    assert!(!report.front.is_empty());
    assert!(report.evaluations > 0);
    node.halt();
}
