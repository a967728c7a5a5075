//! The node-to-node wire vocabulary.
//!
//! Same envelope as the solver service (`tsmo_serve::wire`): length-prefixed
//! UTF-8 JSON frames ([`tsmo_obs::frame`]), one request frame answered by
//! exactly one response frame, fixed field order so equal messages encode
//! byte-identically. The vocabulary covers the whole node lifecycle — mesh
//! bootstrap (`Hello`), job dispatch (`Start`), the exchange hot path
//! (`Exchange`/`ExchangeAck`), and result gathering (`Front`, `Metrics`).
//!
//! [`NodeMsg`] is one [`tsmo_obs::wire_enum!`] table: each row is a
//! message with its wire `type` string and its fields in frame order, and
//! the writer and reader are generated from it. The nested payloads
//! ([`ExchangeEntry`], [`MeshJob`], [`Member`]) keep hand-written codecs;
//! `MeshJob`'s carries the defaults older controllers rely on.

use crate::membership::Member;
use std::fmt::Write as _;
use tsmo_core::FrontEntry;
use tsmo_obs::json::{self, field, routes_from, Field, Json};
use vrptw::{Objectives, Solution};

/// One archive entry in transit: the objective vector plus the routes
/// realizing it. This is all a receiver needs — objectives feed dominance
/// checks directly and the routes rebuild the [`Solution`] for `M_nondom`.
/// The solver service returns its result fronts as the same type
/// (`tsmo_serve::FrontPoint`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeEntry {
    /// Minimization vector `[distance, vehicles, tardiness]`.
    pub objectives: [f64; 3],
    /// The deployed routes (customer ids, depot omitted).
    pub routes: Vec<Vec<u16>>,
}

impl ExchangeEntry {
    /// Flattens a front entry for the wire.
    pub fn from_front(entry: &FrontEntry) -> Self {
        Self {
            objectives: entry.objectives.to_vector(),
            routes: entry
                .solution
                .routes()
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| r.to_vec())
                .collect(),
        }
    }

    /// Rebuilds the front entry. The objectives are taken as sent; a node
    /// checks a peer's entries with [`Solution::verify`] first.
    pub fn to_front(&self) -> FrontEntry {
        let objectives = Objectives {
            distance: self.objectives[0],
            vehicles: self.objectives[1].round() as usize,
            tardiness: self.objectives[2],
        };
        FrontEntry::new(Solution::from_routes(self.routes.clone()), objectives)
    }
}

impl Field for ExchangeEntry {
    fn write_field(&self, out: &mut String) {
        out.push_str("{\"objectives\":");
        json::write_f64s(out, &self.objectives);
        out.push_str(",\"routes\":");
        json::write_routes(out, &self.routes);
        out.push('}');
    }

    fn read_field(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            objectives: field(doc, "objectives")?,
            routes: routes_from(doc.get("routes").ok_or("missing 'routes'")?)?,
        })
    }
}

/// What one node needs to run its share of a distributed collaborative
/// search. Every node of the mesh receives the same job, differing only in
/// `node_index`; together with the shared `seed` that pins the node's
/// global searcher ids, RNG streams, communication lists, and parameter
/// perturbations — the exact values the in-process run would use.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshJob {
    /// The instance, as Solomon-format text.
    pub instance_text: String,
    /// This node's index into `peers`.
    pub node_index: usize,
    /// One `host:port` per node, in global node order.
    pub peers: Vec<String>,
    /// Searchers hosted by every node; node `k` runs the global searcher
    /// ids `k*s .. (k+1)*s`.
    pub searchers_per_node: usize,
    /// Master seed shared by the whole mesh.
    pub seed: u64,
    /// Evaluation budget per searcher.
    pub max_evaluations: u64,
    /// Neighborhood size per iteration.
    pub neighborhood_size: usize,
    /// Iterations without archive improvement before restart (also ends
    /// the initial no-exchange phase).
    pub stagnation_limit: usize,
    /// Deterministic exchange fault injection
    /// (`tsmo_faults::FaultConfig::exchange_only(seed, rate)`); a zero
    /// rate runs the unfaulted path.
    pub fault_seed: u64,
    /// Exchange fault rate in `[0, 1]`.
    pub fault_rate: f64,
    /// Trace id every node stamps on its profiling spans (48-bit so it
    /// survives the f64-backed JSON layer exactly). `0` means "derive
    /// from `seed`" — which yields the same shared id on every node.
    pub trace_id: u64,
    /// Migration interval: offer only every k-th post-initial-phase
    /// archive improvement to the rotation (1 = every improvement).
    pub exchange_interval: usize,
    /// Milliseconds between archive checkpoints shipped to the node's
    /// ring successor (`0` disables replication).
    pub replication_ms: u64,
    /// Membership epoch this job was dispatched under (0 for the initial
    /// full mesh; a joiner admitted mid-run gets the current epoch).
    pub epoch: u64,
    /// Warm-start entries injected into every local searcher inbox before
    /// the first iteration — a joiner receives the mesh's current merged
    /// front here. Empty for a cold start.
    pub warm: Vec<ExchangeEntry>,
}

impl Default for MeshJob {
    fn default() -> Self {
        Self {
            instance_text: String::new(),
            node_index: 0,
            peers: Vec::new(),
            searchers_per_node: 2,
            seed: 0,
            max_evaluations: 10_000,
            neighborhood_size: 50,
            stagnation_limit: 100,
            fault_seed: 0,
            fault_rate: 0.0,
            trace_id: 0,
            exchange_interval: 1,
            replication_ms: 0,
            epoch: 0,
            warm: Vec::new(),
        }
    }
}

impl MeshJob {
    /// Total searchers across the mesh.
    pub fn total_searchers(&self) -> usize {
        self.peers.len() * self.searchers_per_node
    }
}

impl Field for MeshJob {
    fn write_field(&self, out: &mut String) {
        out.push_str("{\"instance\":");
        json::write_str(out, &self.instance_text);
        let _ = write!(out, ",\"node_index\":{},\"peers\":", self.node_index);
        self.peers.write_field(out);
        let _ = write!(
            out,
            ",\"searchers_per_node\":{},\"seed\":{},\"max_evaluations\":{},\"neighborhood_size\":{},\"stagnation_limit\":{},\"fault_seed\":{},\"fault_rate\":",
            self.searchers_per_node,
            self.seed,
            self.max_evaluations,
            self.neighborhood_size,
            self.stagnation_limit,
            self.fault_seed
        );
        json::write_f64(out, self.fault_rate);
        let _ = write!(
            out,
            ",\"trace_id\":{},\"exchange_interval\":{},\"replication_ms\":{},\"epoch\":{},\"warm\":",
            self.trace_id, self.exchange_interval, self.replication_ms, self.epoch
        );
        self.warm.write_field(out);
        out.push('}');
    }

    fn read_field(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            instance_text: field(doc, "instance")?,
            node_index: field(doc, "node_index")?,
            peers: field(doc, "peers")?,
            searchers_per_node: field(doc, "searchers_per_node")?,
            seed: field(doc, "seed")?,
            max_evaluations: field(doc, "max_evaluations")?,
            neighborhood_size: field(doc, "neighborhood_size")?,
            stagnation_limit: field(doc, "stagnation_limit")?,
            fault_seed: field(doc, "fault_seed")?,
            fault_rate: field(doc, "fault_rate")?,
            // Lenient for compatibility with pre-trace controllers.
            trace_id: field::<Option<u64>>(doc, "trace_id")?.unwrap_or(0),
            // Lenient for controllers predating the elastic mesh.
            exchange_interval: field::<Option<usize>>(doc, "exchange_interval")?.unwrap_or(1),
            replication_ms: field::<Option<u64>>(doc, "replication_ms")?.unwrap_or(0),
            epoch: field::<Option<u64>>(doc, "epoch")?.unwrap_or(0),
            warm: field::<Option<_>>(doc, "warm")?.unwrap_or_default(),
        })
    }
}

impl Field for Member {
    fn write_field(&self, out: &mut String) {
        out.push_str("{\"addr\":");
        json::write_str(out, &self.addr);
        let _ = write!(out, ",\"live\":{}}}", self.live);
    }

    fn read_field(doc: &Json) -> Result<Self, String> {
        Ok(Member {
            addr: field(doc, "addr")?,
            live: field(doc, "live")?,
        })
    }
}

tsmo_obs::wire_enum! {
    /// A node-protocol message. Requests and responses share one enum: the
    /// exchange hot path and the control plane use the same framed
    /// connection, so a single parser handles everything a node can read.
    #[derive(Debug, Clone, PartialEq)]
    pub enum NodeMsg {
        /// Liveness probe / bootstrap handshake; `node` is the sender's node
        /// index (or `0` from a controller).
        Hello = "hello" {
            /// Sender's node index.
            node: u64,
        },
        /// Answer to `Hello`; `node` is the responder's node index
        /// (`u64::MAX` while idle, before any job assigned an index).
        HelloAck = "hello_ack" {
            /// Responder's node index.
            node: u64,
        },
        /// An archive improvement from global searcher `from` addressed to
        /// global searcher `to` (hosted by the receiving node).
        Exchange = "exchange" {
            /// Sending searcher's global id.
            from: u64,
            /// Receiving searcher's global id.
            to: u64,
            /// The solution in transit.
            entry: ExchangeEntry,
        },
        /// The exchange was delivered to the target searcher's inbox.
        ExchangeAck = "exchange_ack",
        /// Run this node's share of a distributed search.
        Start = "start" {
            /// The node's job.
            job: MeshJob,
        },
        /// The job was admitted and its searchers are running.
        Started = "started",
        /// Query the node's lifecycle state.
        Status = "status",
        /// Answer to `Status`: `idle`, `running`, or `done`.
        NodeStatus = "node_status" {
            /// Current lifecycle state.
            state: String,
        },
        /// Block until the node's job leaves `running`, for at most
        /// `timeout_ms`; answered with `NodeStatus` either way.
        Wait = "wait" {
            /// Longest the node holds the request, in milliseconds.
            timeout_ms: u64,
        },
        /// Fetch the node's merged front (answered once `done`).
        Front = "front",
        /// The node's merged front plus its summed counters.
        FrontReply = "front_reply" {
            /// Non-dominated merge of the node's searcher archives.
            entries: Vec<ExchangeEntry>,
            /// Evaluations consumed across the node's searchers.
            evaluations: u64,
            /// Iterations performed across the node's searchers.
            iterations: u64,
        },
        /// Prometheus exposition of the node's telemetry.
        Metrics = "metrics",
        /// Answer to `Metrics`.
        MetricsReply = "metrics_reply" {
            /// The exposition body.
            prometheus: String,
        },
        /// Fetch the node's telemetry in mergeable JSON form (see
        /// `MetricsRegistry::to_json`). Unlike `Metrics`, whose prometheus
        /// exposition is render-only, this reply can be re-parsed and folded
        /// into a federated registry by a controller.
        MetricsFetch = "metrics_fetch",
        /// Answer to `MetricsFetch`.
        MetricsFetchReply = "metrics_fetch_reply" {
            /// The node's `MetricsRegistry` serialized as JSON.
            registry: String,
        },
        /// Fetch the last job's recorded trace (span/timeline JSONL).
        Trace = "trace",
        /// Answer to `Trace`: the node's event stream for its last job.
        TraceReply = "trace_reply" {
            /// JSONL event lines (empty when no job recorded a trace).
            jsonl: String,
        },
        /// A node at `addr` asks the coordinator (member 0 of the original
        /// mesh) to be admitted into the membership view.
        Join = "join" {
            /// The joiner's listen address.
            addr: String,
        },
        /// Admission granted: the joiner's slot, the epoch it joined at, the
        /// full member list, and the coordinator's current merged front for
        /// warm-starting.
        JoinAck = "join_ack" {
            /// Membership epoch after admission.
            epoch: u64,
            /// The slot the joiner occupies (its `node_index`).
            slot: u64,
            /// The complete membership view.
            members: Vec<Member>,
            /// The coordinator's current merged front (may be empty).
            warm: Vec<ExchangeEntry>,
        },
        /// Announce that slot `node` left the mesh (controller- or
        /// peer-initiated).
        Leave = "leave" {
            /// The departing slot.
            node: u64,
        },
        /// The leave was recorded.
        LeaveAck = "leave_ack" {
            /// Membership epoch after the departure.
            epoch: u64,
        },
        /// Broadcast of a new membership view to a live member.
        MemberUpdate = "member_update" {
            /// Epoch of the view; receivers ignore stale (≤ current) epochs.
            epoch: u64,
            /// The complete member list in slot order.
            members: Vec<Member>,
        },
        /// The view was applied (or ignored as stale).
        MemberUpdateAck = "member_update_ack" {
            /// The receiver's epoch after processing.
            epoch: u64,
        },
        /// An archive checkpoint shipped to the sender's ring successor.
        Checkpoint = "checkpoint" {
            /// The checkpointing node's slot.
            from: u64,
            /// Membership epoch the checkpoint was cut under.
            epoch: u64,
            /// Evaluations the node had consumed at the checkpoint.
            evaluations: u64,
            /// The node's merged front at the checkpoint.
            entries: Vec<ExchangeEntry>,
        },
        /// The checkpoint replica was stored.
        CheckpointAck = "checkpoint_ack",
        /// Ask a node for the newest replica it holds of slot `node`.
        ReplicaFetch = "replica_fetch" {
            /// The subject slot.
            node: u64,
        },
        /// Answer to `ReplicaFetch`; `found == false` means no replica of that
        /// slot is held and the other fields are zero/empty.
        ReplicaReply = "replica_reply" {
            /// The subject slot.
            node: u64,
            /// Epoch of the stored checkpoint.
            epoch: u64,
            /// Evaluations recorded in the checkpoint.
            evaluations: u64,
            /// The replicated front.
            entries: Vec<ExchangeEntry>,
            /// Whether a replica was held.
            found: bool,
        },
        /// Query a node's membership view.
        Members = "members",
        /// Answer to `Members`.
        MembersReply = "members_reply" {
            /// The responder's membership epoch.
            epoch: u64,
            /// The responder's member list.
            members: Vec<Member>,
        },
        /// Cooperatively cancel the running job.
        Stop = "stop",
        /// Cancellation was requested.
        Stopped = "stopped",
        /// Stop the daemon after this response.
        Shutdown = "shutdown",
        /// The daemon stops now.
        ShutdownOk = "shutdown_ok",
        /// The request could not be served.
        Error = "error" {
            /// Human-readable reason.
            message: String,
        },
    }
}

impl NodeMsg {
    /// An `Error` reply carrying `message`.
    pub fn error(message: impl Into<String>) -> Self {
        NodeMsg::Error {
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> ExchangeEntry {
        ExchangeEntry {
            objectives: [512.25, 4.0, 0.0],
            routes: vec![vec![1, 3, 2], vec![4], vec![5, 6]],
        }
    }

    #[test]
    fn pre_elastic_jobs_parse_with_defaults() {
        // A controller predating the elastic mesh omits the new fields.
        let legacy = "{\"type\":\"start\",\"job\":{\"instance\":\"R101\",\"node_index\":0,\
\"peers\":[\"a\"],\"searchers_per_node\":2,\"seed\":1,\"max_evaluations\":100,\
\"neighborhood_size\":10,\"stagnation_limit\":5,\"fault_seed\":0,\"fault_rate\":0}}";
        match NodeMsg::parse(legacy).expect("lenient parse") {
            NodeMsg::Start { job } => {
                assert_eq!(job.exchange_interval, 1);
                assert_eq!(job.replication_ms, 0);
                assert_eq!(job.epoch, 0);
                assert!(job.warm.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exchange_entry_converts_to_and_from_front_entries() {
        let entry = sample_entry();
        let front = entry.to_front();
        assert_eq!(front.objectives.to_vector(), entry.objectives);
        assert_eq!(ExchangeEntry::from_front(&front), entry);
    }

    #[test]
    fn total_searchers_multiplies_nodes_by_share() {
        let job = MeshJob {
            peers: vec!["a".into(), "b".into(), "c".into()],
            searchers_per_node: 4,
            ..MeshJob::default()
        };
        assert_eq!(job.total_searchers(), 12);
    }
}
