//! A node serving many short connections keeps only the live ones: each
//! ended connection's thread is joined and its socket closed, so neither
//! threads nor file descriptors grow with the number of connections
//! served. One test in its own file, so no other test's threads or
//! sockets share the process while it counts them.

use std::time::{Duration, Instant};
use tsmo_cluster::{MeshClient, NodeConfig, NodeMsg, Noded};

const CYCLES: usize = 300;
/// Threads or descriptors a node may still hold for connections that are
/// ending as the count is taken.
const SLACK: usize = 8;

fn count(dir: &str) -> usize {
    std::fs::read_dir(dir).expect("procfs is mounted").count()
}

#[test]
fn connect_hello_close_cycles_leak_no_threads_or_sockets() {
    let node = Noded::start(NodeConfig::default()).expect("bind node");
    let addr = node.local_addr().to_string();
    let timeout = Duration::from_secs(5);
    MeshClient::new(addr.clone(), timeout)
        .wait_ready(timeout)
        .expect("ready");
    let (tasks, fds) = (count("/proc/self/task"), count("/proc/self/fd"));

    for _ in 0..CYCLES {
        // Each client owns one connection, closed when it drops.
        let client = MeshClient::new(addr.clone(), timeout);
        match client.call(&NodeMsg::Hello { node: 0 }).expect("hello") {
            NodeMsg::HelloAck { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }

    // The last connections' threads may still be seeing EOF; give them a
    // moment, then compare.
    let settle = Instant::now() + Duration::from_secs(10);
    let settled = loop {
        let now = (count("/proc/self/task"), count("/proc/self/fd"));
        if (now.0 <= tasks + SLACK && now.1 <= fds + SLACK) || Instant::now() >= settle {
            break now;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        settled.0 <= tasks + SLACK,
        "threads grew from {tasks} to {} over {CYCLES} connections",
        settled.0
    );
    assert!(
        settled.1 <= fds + SLACK,
        "file descriptors grew from {fds} to {} over {CYCLES} connections",
        settled.1
    );
    node.halt();
}
