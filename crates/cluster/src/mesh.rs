//! Mesh orchestration: bootstrap, dispatch, gather, merge.
//!
//! A mesh is a static peer list — one `host:port` per node. The controller
//! ([`run_mesh`], wrapped by `clusterctl`) greets every node, sends each
//! its [`MeshJob`] (identical except for `node_index`), waits until the
//! nodes report `done`, gathers the per-node fronts, and merges them into
//! one global non-dominated archive. Nodes that die mid-run are simply
//! absent from the gather: the merged front is built from the survivors,
//! mirroring how a searcher's rotation routes around dead peers.

use crate::membership::{newest_replica, ReplicaStamp};
use crate::node::NodeReport;
use crate::proto::{ExchangeEntry, MeshJob, NodeMsg};
use crate::transport::PeerConn;
use pareto::Archive;
use std::io;
use std::time::{Duration, Instant};
use tsmo_core::FrontEntry;
use tsmo_obs::metrics::names;

/// A controller's connection to one node.
pub struct MeshClient {
    conn: PeerConn,
}

impl MeshClient {
    /// A lazily-connected client for the node at `addr`.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Self {
        Self {
            conn: PeerConn::new(addr, timeout),
        }
    }

    /// One request/response round trip.
    pub fn call(&self, req: &NodeMsg) -> io::Result<NodeMsg> {
        self.conn.call(req)
    }

    /// Waits until the node answers a `Hello`, retrying for `timeout`.
    pub fn wait_ready(&self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.call(&NodeMsg::Hello { node: 0 }) {
                Ok(NodeMsg::HelloAck { .. }) => return Ok(()),
                Ok(other) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected hello reply: {}", other.to_json()),
                    ))
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Dispatches this node's share of the job.
    pub fn start(&self, job: MeshJob) -> io::Result<()> {
        match self.call(&NodeMsg::Start { job })? {
            NodeMsg::Started => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// The node's lifecycle state (`idle`, `running`, `done`).
    pub fn status(&self) -> io::Result<String> {
        match self.call(&NodeMsg::Status)? {
            NodeMsg::NodeStatus { state } => Ok(state),
            other => Err(unexpected(other)),
        }
    }

    /// Blocks until the node's job leaves `running` or `timeout` runs out,
    /// and returns the node's state then. Keep `timeout` well inside the
    /// client's own read timeout, or the call itself times out.
    pub fn wait(&self, timeout: Duration) -> io::Result<String> {
        let timeout_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        match self.call(&NodeMsg::Wait { timeout_ms })? {
            NodeMsg::NodeStatus { state } => Ok(state),
            other => Err(unexpected(other)),
        }
    }

    /// The node's merged front and counters (valid once `done`).
    pub fn front(&self) -> io::Result<NodeReport> {
        match self.call(&NodeMsg::Front)? {
            NodeMsg::FrontReply {
                entries,
                evaluations,
                iterations,
            } => Ok(NodeReport {
                front: entries,
                evaluations,
                iterations,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// The node's recorded span/timeline trace for its last finished job
    /// (JSONL; empty when the node has not finished a job yet).
    pub fn trace(&self) -> io::Result<String> {
        match self.call(&NodeMsg::Trace)? {
            NodeMsg::TraceReply { jsonl } => Ok(jsonl),
            other => Err(unexpected(other)),
        }
    }

    /// The node's Prometheus exposition.
    pub fn metrics(&self) -> io::Result<String> {
        match self.call(&NodeMsg::Metrics)? {
            NodeMsg::MetricsReply { prometheus } => Ok(prometheus),
            other => Err(unexpected(other)),
        }
    }

    /// The node's metrics registry in mergeable form. Unlike
    /// [`MeshClient::metrics`] (a render-only exposition), the returned
    /// registry can be re-labeled and folded into a federated view with
    /// [`tsmo_obs::MetricsRegistry::merge`].
    pub fn metrics_registry(&self) -> io::Result<tsmo_obs::MetricsRegistry> {
        match self.call(&NodeMsg::MetricsFetch)? {
            NodeMsg::MetricsFetchReply { registry } => {
                tsmo_obs::MetricsRegistry::from_json(&registry)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            }
            other => Err(unexpected(other)),
        }
    }

    /// Requests cooperative cancellation of the node's job.
    pub fn stop(&self) -> io::Result<()> {
        match self.call(&NodeMsg::Stop)? {
            NodeMsg::Stopped => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Stops the node daemon.
    pub fn shutdown(&self) -> io::Result<()> {
        match self.call(&NodeMsg::Shutdown)? {
            NodeMsg::ShutdownOk => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// The node's membership view (epoch and member list).
    pub fn members(&self) -> io::Result<(u64, Vec<crate::membership::Member>)> {
        match self.call(&NodeMsg::Members)? {
            NodeMsg::MembersReply { epoch, members } => Ok((epoch, members)),
            other => Err(unexpected(other)),
        }
    }

    /// Asks this node (as coordinator) to admit `addr` into the mesh.
    /// Returns the admission epoch, the assigned slot, the full member
    /// list, and the warm-start front.
    #[allow(clippy::type_complexity)]
    pub fn join(
        &self,
        addr: &str,
    ) -> io::Result<(
        u64,
        usize,
        Vec<crate::membership::Member>,
        Vec<ExchangeEntry>,
    )> {
        let req = NodeMsg::Join {
            addr: addr.to_string(),
        };
        match self.call(&req)? {
            NodeMsg::JoinAck {
                epoch,
                slot,
                members,
                warm,
            } => Ok((epoch, slot as usize, members, warm)),
            other => Err(unexpected(other)),
        }
    }

    /// Asks this node (as coordinator) to retire slot `node` from the
    /// mesh. Returns the epoch after the transition.
    pub fn leave(&self, node: usize) -> io::Result<u64> {
        match self.call(&NodeMsg::Leave { node: node as u64 })? {
            NodeMsg::LeaveAck { epoch } => Ok(epoch),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the replica this node holds of slot `node`, if any, as
    /// `(evaluations, entries)`.
    pub fn replica(&self, node: usize) -> io::Result<Option<(u64, Vec<ExchangeEntry>)>> {
        Ok(self
            .stamped_replica(node)?
            .map(|(stamp, entries)| (stamp.evaluations, entries)))
    }

    /// [`Self::replica`] with the replica's full stamp.
    fn stamped_replica(
        &self,
        node: usize,
    ) -> io::Result<Option<(ReplicaStamp, Vec<ExchangeEntry>)>> {
        match self.call(&NodeMsg::ReplicaFetch { node: node as u64 })? {
            NodeMsg::ReplicaReply {
                found: true,
                epoch,
                evaluations,
                entries,
                ..
            } => Ok(Some((ReplicaStamp { epoch, evaluations }, entries))),
            NodeMsg::ReplicaReply { .. } => Ok(None),
            other => Err(unexpected(other)),
        }
    }
}

/// Fetches every peer's metrics registry and folds it into `into` under a
/// `node="k"` label (counters sum, gauges keep the maximum, histogram
/// buckets add), with a `tsmo_node_up{node="k"}` liveness gauge per peer —
/// `0` for a peer that did not answer. Returns the failed fetches by node.
pub fn federate_metrics(
    peers: &[String],
    timeout: Duration,
    into: &mut tsmo_obs::MetricsRegistry,
) -> Vec<(usize, io::Error)> {
    let mut failed = Vec::new();
    for (k, peer) in peers.iter().enumerate() {
        let node = k.to_string();
        match MeshClient::new(peer.clone(), timeout).metrics_registry() {
            Ok(registry) => {
                into.merge(&registry.with_label("node", &node));
                into.gauge_set(&names::node_up(&node), 1.0);
            }
            Err(e) => {
                into.gauge_set(&names::node_up(&node), 0.0);
                failed.push((k, e));
            }
        }
    }
    failed
}

/// The error for a reply other than the one asked for: the node's own
/// message when it answered `Error`.
fn unexpected(msg: NodeMsg) -> io::Error {
    match msg {
        NodeMsg::Error { message } => io::Error::other(message),
        other => io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected node reply: {}", other.to_json()),
        ),
    }
}

/// What one node contributed to a finished mesh run (`report` is `None`
/// for a node that died or never finished).
#[derive(Debug)]
pub struct NodeOutcome {
    /// The node's address.
    pub addr: String,
    /// The node's report, if it was gathered.
    pub report: Option<NodeReport>,
    /// `true` when the node itself was unreachable and its report was
    /// reconstructed from an archive replica held by a surviving peer.
    pub recovered: bool,
}

/// A finished distributed run.
#[derive(Debug)]
pub struct MeshOutcome {
    /// Global non-dominated merge of the surviving nodes' fronts.
    pub front: Vec<FrontEntry>,
    /// Evaluations summed over reporting nodes.
    pub evaluations: u64,
    /// Iterations summed over reporting nodes.
    pub iterations: u64,
    /// Per-node results, in peer-list order.
    pub nodes: Vec<NodeOutcome>,
    /// Slots whose fronts were recovered from replicas instead of gathered
    /// from the node itself.
    pub recovered_nodes: Vec<usize>,
}

/// Merges per-node fronts (already non-dominated within each node) into
/// the global archive, in node order — the same two-stage merge the
/// virtual network applies, so gather order is never a source of
/// divergence.
pub fn merge_node_fronts(node_fronts: &[Vec<FrontEntry>], capacity: usize) -> Vec<FrontEntry> {
    let mut merged = Archive::new(capacity);
    for front in node_fronts {
        for entry in front {
            merged.insert(entry.clone());
        }
    }
    merged.into_items()
}

/// Runs `job` across the mesh described by `job.peers`: greet, dispatch,
/// wait until every node is done (bounded by `wait`), gather, merge.
/// `job.node_index` is overwritten per node. Fails only when *no* node can
/// be dispatched or none reports a front; individual node deaths degrade
/// the merge instead of failing it.
pub fn run_mesh(job: &MeshJob, timeout: Duration, wait: Duration) -> io::Result<MeshOutcome> {
    if job.peers.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "mesh needs at least one peer",
        ));
    }
    let clients: Vec<MeshClient> = job
        .peers
        .iter()
        .map(|p| MeshClient::new(p.clone(), timeout))
        .collect();
    for client in &clients {
        client.wait_ready(timeout)?;
    }
    let mut started = vec![false; clients.len()];
    for (k, client) in clients.iter().enumerate() {
        let mut node_job = job.clone();
        node_job.node_index = k;
        match client.start(node_job) {
            Ok(()) => started[k] = true,
            Err(e) => eprintln!("mesh: node {k} ({}) rejected start: {e}", job.peers[k]),
        }
    }
    if !started.iter().any(|&s| s) {
        return Err(io::Error::other("no node accepted the job"));
    }

    // Block on each dispatched node in turn until it is done; a node that
    // dies mid-run fails its call and drops out of the wait. Each request
    // holds the node for at most half the connection's read timeout, so
    // the call itself never times out.
    let deadline = Instant::now() + wait;
    let slice = timeout / 2;
    for (k, client) in clients.iter().enumerate().filter(|&(k, _)| started[k]) {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match client.wait(left.min(slice)) {
                Ok(state) if state == "running" => {}
                _ => break,
            }
            if left.is_zero() {
                for client in &clients {
                    let _ = client.stop();
                }
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("node {k} still running after {wait:?}"),
                ));
            }
        }
    }

    let mut nodes = Vec::with_capacity(clients.len());
    let mut node_fronts = Vec::new();
    let mut evaluations = 0;
    let mut iterations = 0;
    let mut recovered_nodes = Vec::new();
    for (k, client) in clients.iter().enumerate() {
        let mut report = client.front().ok();
        let mut recovered = false;
        // A dead node's front is not gone: its ring successor holds a
        // replicated checkpoint (when the job enabled replication). Ask
        // the survivors and keep the newest replica.
        if report.is_none() {
            let held = clients.iter().enumerate().filter(|&(j, _)| j != k);
            let replicas = held.filter_map(|(j, client)| {
                let (stamp, entries) = client.stamped_replica(k).ok()??;
                Some((j, stamp, (stamp.evaluations, entries)))
            });
            if let Some((evals, entries)) = newest_replica(replicas) {
                report = Some(NodeReport {
                    front: entries,
                    evaluations: evals,
                    iterations: 0, // iteration counts are not replicated
                });
                recovered = true;
                recovered_nodes.push(k);
            }
        }
        if let Some(report) = &report {
            evaluations += report.evaluations;
            iterations += report.iterations;
            node_fronts.push(report.front.iter().map(|e| e.to_front()).collect());
        }
        nodes.push(NodeOutcome {
            addr: job.peers[k].clone(),
            report,
            recovered,
        });
    }
    if node_fronts.is_empty() {
        return Err(io::Error::other("no node reported a front"));
    }
    // The node jobs all derive the archive capacity from the default
    // configuration, as does the merge.
    let capacity = tsmo_core::TsmoConfig::default().archive_capacity;
    let front = merge_node_fronts(&node_fronts, capacity);
    Ok(MeshOutcome {
        front,
        evaluations,
        iterations,
        nodes,
        recovered_nodes,
    })
}

/// Reads an unlabeled counter out of a Prometheus exposition (`name value`
/// lines; labeled series are skipped). `0` when absent.
pub fn prometheus_counter(prometheus: &str, name: &str) -> u64 {
    prometheus
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            let rest = rest.strip_prefix(' ')?;
            rest.trim().parse::<f64>().ok()
        })
        .next()
        .unwrap_or(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::{Objectives, Solution};

    fn entry(d: f64, v: usize) -> FrontEntry {
        FrontEntry::new(
            Solution::from_routes(vec![vec![1]]),
            Objectives {
                distance: d,
                vehicles: v,
                tardiness: 0.0,
            },
        )
    }

    #[test]
    fn merge_keeps_only_mutually_non_dominated_entries() {
        let fronts = vec![
            vec![entry(100.0, 2), entry(90.0, 3)],
            vec![entry(100.0, 3)], // dominated by (100, 2) and (90, 3)
            vec![entry(80.0, 4)],
        ];
        let merged = merge_node_fronts(&fronts, 20);
        let mut dists: Vec<f64> = merged.iter().map(|e| e.objectives.distance).collect();
        dists.sort_by(f64::total_cmp);
        assert_eq!(dists, vec![80.0, 90.0, 100.0]);
        assert_eq!(
            pareto::non_dominated_indices(&merged).len(),
            merged.len(),
            "merge result must be mutually non-dominated"
        );
    }

    #[test]
    fn prometheus_counter_skips_labeled_series() {
        let text = "tsmo_exchanges_received_total{peer=\"3\"} 9\ntsmo_exchanges_received_total 4\n";
        assert_eq!(prometheus_counter(text, "tsmo_exchanges_received_total"), 4);
        assert_eq!(prometheus_counter(text, "tsmo_absent_total"), 0);
    }

    #[test]
    fn empty_mesh_is_rejected() {
        let err = run_mesh(
            &MeshJob::default(),
            Duration::from_millis(10),
            Duration::from_millis(10),
        )
        .expect_err("no peers");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
