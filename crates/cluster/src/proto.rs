//! The node-to-node wire vocabulary.
//!
//! Same envelope as the solver service (`tsmo_serve::wire`): length-prefixed
//! UTF-8 JSON frames ([`tsmo_obs::frame`]), one request frame answered by
//! exactly one response frame, fixed field order so equal messages encode
//! byte-identically. The vocabulary covers the whole node lifecycle — mesh
//! bootstrap (`Hello`), job dispatch (`Start`), the exchange hot path
//! (`Exchange`/`ExchangeAck`), and result gathering (`Front`, `Metrics`).

use crate::membership::Member;
use std::fmt::Write as _;
use tsmo_core::FrontEntry;
use tsmo_obs::json::{
    self, objective_vector, opt_array, opt_u64, req_array, req_bool, req_f64, req_str, req_u64,
    routes_from, write_array, Json,
};
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

    /// Rebuilds the front entry. The objectives are trusted as sent —
    /// sender and receiver run the same evaluator on the same instance.
    pub fn to_front(&self) -> FrontEntry {
        let objectives = Objectives {
            distance: self.objectives[0],
            vehicles: self.objectives[1].round() as usize,
            tardiness: self.objectives[2],
        };
        FrontEntry::new(Solution::from_routes(self.routes.clone()), objectives)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"objectives\":");
        json::write_f64s(out, &self.objectives);
        out.push_str(",\"routes\":");
        json::write_routes(out, &self.routes);
        out.push('}');
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            objectives: objective_vector(doc.get("objectives").ok_or("missing 'objectives'")?)?,
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

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"instance\":");
        json::write_str(out, &self.instance_text);
        let _ = write!(out, ",\"node_index\":{},\"peers\":", self.node_index);
        write_array(out, &self.peers, |out, p| json::write_str(out, p));
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
        write_entries(out, &self.warm);
        out.push('}');
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            instance_text: req_str(doc, "instance")?.to_string(),
            node_index: req_u64(doc, "node_index")? as usize,
            peers: req_array(doc, "peers", |p| {
                p.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "bad peer address".to_string())
            })?,
            searchers_per_node: req_u64(doc, "searchers_per_node")? as usize,
            seed: req_u64(doc, "seed")?,
            max_evaluations: req_u64(doc, "max_evaluations")?,
            neighborhood_size: req_u64(doc, "neighborhood_size")? as usize,
            stagnation_limit: req_u64(doc, "stagnation_limit")? as usize,
            fault_seed: req_u64(doc, "fault_seed")?,
            fault_rate: req_f64(doc, "fault_rate")?,
            // Lenient for compatibility with pre-trace controllers.
            trace_id: opt_u64(doc, "trace_id")?.unwrap_or(0),
            // Lenient for controllers predating the elastic mesh.
            exchange_interval: opt_u64(doc, "exchange_interval")?.unwrap_or(1) as usize,
            replication_ms: opt_u64(doc, "replication_ms")?.unwrap_or(0),
            epoch: opt_u64(doc, "epoch")?.unwrap_or(0),
            warm: opt_array(doc, "warm", ExchangeEntry::from_json)?,
        })
    }
}

/// A node-protocol message. Requests and responses share one enum: the
/// exchange hot path and the control plane use the same framed connection,
/// so a single parser handles everything a node can read.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMsg {
    /// Liveness probe / bootstrap handshake; `node` is the sender's node
    /// index (or `0` from a controller).
    Hello {
        /// Sender's node index.
        node: u64,
    },
    /// Answer to `Hello`; `node` is the responder's node index
    /// (`u64::MAX` while idle, before any job assigned an index).
    HelloAck {
        /// Responder's node index.
        node: u64,
    },
    /// An archive improvement from global searcher `from` addressed to
    /// global searcher `to` (hosted by the receiving node).
    Exchange {
        /// Sending searcher's global id.
        from: u64,
        /// Receiving searcher's global id.
        to: u64,
        /// The solution in transit.
        entry: ExchangeEntry,
    },
    /// The exchange was delivered to the target searcher's inbox.
    ExchangeAck,
    /// Run this node's share of a distributed search.
    Start {
        /// The node's job.
        job: MeshJob,
    },
    /// The job was admitted and its searchers are running.
    Started,
    /// Query the node's lifecycle state.
    Status,
    /// Answer to `Status`: `idle`, `running`, or `done`.
    NodeStatus {
        /// Current lifecycle state.
        state: String,
    },
    /// Fetch the node's merged front (answered once `done`).
    Front,
    /// The node's merged front plus its summed counters.
    FrontReply {
        /// Non-dominated merge of the node's searcher archives.
        entries: Vec<ExchangeEntry>,
        /// Evaluations consumed across the node's searchers.
        evaluations: u64,
        /// Iterations performed across the node's searchers.
        iterations: u64,
    },
    /// Prometheus exposition of the node's telemetry.
    Metrics,
    /// Answer to `Metrics`.
    MetricsReply {
        /// The exposition body.
        prometheus: String,
    },
    /// Fetch the node's telemetry in mergeable JSON form (see
    /// `MetricsRegistry::to_json`). Unlike `Metrics`, whose prometheus
    /// exposition is render-only, this reply can be re-parsed and folded
    /// into a federated registry by a controller.
    MetricsFetch,
    /// Answer to `MetricsFetch`.
    MetricsFetchReply {
        /// The node's `MetricsRegistry` serialized as JSON.
        registry: String,
    },
    /// Fetch the last job's recorded trace (span/timeline JSONL).
    Trace,
    /// Answer to `Trace`: the node's event stream for its last job.
    TraceReply {
        /// JSONL event lines (empty when no job recorded a trace).
        jsonl: String,
    },
    /// A node at `addr` asks the coordinator (member 0 of the original
    /// mesh) to be admitted into the membership view.
    Join {
        /// The joiner's listen address.
        addr: String,
    },
    /// Admission granted: the joiner's slot, the epoch it joined at, the
    /// full member list, and the coordinator's current merged front for
    /// warm-starting.
    JoinAck {
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
    Leave {
        /// The departing slot.
        node: u64,
    },
    /// The leave was recorded.
    LeaveAck {
        /// Membership epoch after the departure.
        epoch: u64,
    },
    /// Broadcast of a new membership view to a live member.
    MemberUpdate {
        /// Epoch of the view; receivers ignore stale (≤ current) epochs.
        epoch: u64,
        /// The complete member list in slot order.
        members: Vec<Member>,
    },
    /// The view was applied (or ignored as stale).
    MemberUpdateAck {
        /// The receiver's epoch after processing.
        epoch: u64,
    },
    /// An archive checkpoint shipped to the sender's ring successor.
    Checkpoint {
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
    CheckpointAck,
    /// Ask a node for the newest replica it holds of slot `node`.
    ReplicaFetch {
        /// The subject slot.
        node: u64,
    },
    /// Answer to `ReplicaFetch`; `found == false` means no replica of that
    /// slot is held and the other fields are zero/empty.
    ReplicaReply {
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
    Members,
    /// Answer to `Members`.
    MembersReply {
        /// The responder's membership epoch.
        epoch: u64,
        /// The responder's member list.
        members: Vec<Member>,
    },
    /// Cooperatively cancel the running job.
    Stop,
    /// Cancellation was requested.
    Stopped,
    /// Stop the daemon after this response.
    Shutdown,
    /// The daemon stops now.
    ShutdownOk,
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl NodeMsg {
    /// An `Error` reply carrying `message`.
    pub fn error(message: impl Into<String>) -> Self {
        NodeMsg::Error {
            message: message.into(),
        }
    }

    /// Encodes the message as one JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        match self {
            NodeMsg::Hello { node } => {
                let _ = write!(s, "{{\"type\":\"hello\",\"node\":{node}}}");
            }
            NodeMsg::HelloAck { node } => {
                let _ = write!(s, "{{\"type\":\"hello_ack\",\"node\":{node}}}");
            }
            NodeMsg::Exchange { from, to, entry } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"exchange\",\"from\":{from},\"to\":{to},\"entry\":"
                );
                entry.write_json(&mut s);
                s.push('}');
            }
            NodeMsg::ExchangeAck => s.push_str("{\"type\":\"exchange_ack\"}"),
            NodeMsg::Start { job } => {
                s.push_str("{\"type\":\"start\",\"job\":");
                job.write_json(&mut s);
                s.push('}');
            }
            NodeMsg::Started => s.push_str("{\"type\":\"started\"}"),
            NodeMsg::Status => s.push_str("{\"type\":\"status\"}"),
            NodeMsg::NodeStatus { state } => {
                s.push_str("{\"type\":\"node_status\",\"state\":");
                json::write_str(&mut s, state);
                s.push('}');
            }
            NodeMsg::Front => s.push_str("{\"type\":\"front\"}"),
            NodeMsg::FrontReply {
                entries,
                evaluations,
                iterations,
            } => {
                s.push_str("{\"type\":\"front_reply\",\"entries\":");
                write_entries(&mut s, entries);
                let _ = write!(
                    s,
                    ",\"evaluations\":{evaluations},\"iterations\":{iterations}}}"
                );
            }
            NodeMsg::Metrics => s.push_str("{\"type\":\"metrics\"}"),
            NodeMsg::MetricsReply { prometheus } => {
                s.push_str("{\"type\":\"metrics_reply\",\"prometheus\":");
                json::write_str(&mut s, prometheus);
                s.push('}');
            }
            NodeMsg::MetricsFetch => s.push_str("{\"type\":\"metrics_fetch\"}"),
            NodeMsg::MetricsFetchReply { registry } => {
                s.push_str("{\"type\":\"metrics_fetch_reply\",\"registry\":");
                json::write_str(&mut s, registry);
                s.push('}');
            }
            NodeMsg::Trace => s.push_str("{\"type\":\"trace\"}"),
            NodeMsg::TraceReply { jsonl } => {
                s.push_str("{\"type\":\"trace_reply\",\"jsonl\":");
                json::write_str(&mut s, jsonl);
                s.push('}');
            }
            NodeMsg::Join { addr } => {
                s.push_str("{\"type\":\"join\",\"addr\":");
                json::write_str(&mut s, addr);
                s.push('}');
            }
            NodeMsg::JoinAck {
                epoch,
                slot,
                members,
                warm,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"join_ack\",\"epoch\":{epoch},\"slot\":{slot},\"members\":"
                );
                write_members(&mut s, members);
                s.push_str(",\"warm\":");
                write_entries(&mut s, warm);
                s.push('}');
            }
            NodeMsg::Leave { node } => {
                let _ = write!(s, "{{\"type\":\"leave\",\"node\":{node}}}");
            }
            NodeMsg::LeaveAck { epoch } => {
                let _ = write!(s, "{{\"type\":\"leave_ack\",\"epoch\":{epoch}}}");
            }
            NodeMsg::MemberUpdate { epoch, members } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"member_update\",\"epoch\":{epoch},\"members\":"
                );
                write_members(&mut s, members);
                s.push('}');
            }
            NodeMsg::MemberUpdateAck { epoch } => {
                let _ = write!(s, "{{\"type\":\"member_update_ack\",\"epoch\":{epoch}}}");
            }
            NodeMsg::Checkpoint {
                from,
                epoch,
                evaluations,
                entries,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"checkpoint\",\"from\":{from},\"epoch\":{epoch},\"evaluations\":{evaluations},\"entries\":"
                );
                write_entries(&mut s, entries);
                s.push('}');
            }
            NodeMsg::CheckpointAck => s.push_str("{\"type\":\"checkpoint_ack\"}"),
            NodeMsg::ReplicaFetch { node } => {
                let _ = write!(s, "{{\"type\":\"replica_fetch\",\"node\":{node}}}");
            }
            NodeMsg::ReplicaReply {
                node,
                epoch,
                evaluations,
                entries,
                found,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"replica_reply\",\"node\":{node},\"epoch\":{epoch},\"evaluations\":{evaluations},\"entries\":"
                );
                write_entries(&mut s, entries);
                let _ = write!(s, ",\"found\":{found}}}");
            }
            NodeMsg::Members => s.push_str("{\"type\":\"members\"}"),
            NodeMsg::MembersReply { epoch, members } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"members_reply\",\"epoch\":{epoch},\"members\":"
                );
                write_members(&mut s, members);
                s.push('}');
            }
            NodeMsg::Stop => s.push_str("{\"type\":\"stop\"}"),
            NodeMsg::Stopped => s.push_str("{\"type\":\"stopped\"}"),
            NodeMsg::Shutdown => s.push_str("{\"type\":\"shutdown\"}"),
            NodeMsg::ShutdownOk => s.push_str("{\"type\":\"shutdown_ok\"}"),
            NodeMsg::Error { message } => {
                s.push_str("{\"type\":\"error\",\"message\":");
                json::write_str(&mut s, message);
                s.push('}');
            }
        }
        s
    }

    /// Parses a message document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match req_str(&doc, "type")? {
            "hello" => Ok(NodeMsg::Hello {
                node: req_u64(&doc, "node")?,
            }),
            "hello_ack" => Ok(NodeMsg::HelloAck {
                node: req_u64(&doc, "node")?,
            }),
            "exchange" => Ok(NodeMsg::Exchange {
                from: req_u64(&doc, "from")?,
                to: req_u64(&doc, "to")?,
                entry: ExchangeEntry::from_json(doc.get("entry").ok_or("missing 'entry'")?)?,
            }),
            "exchange_ack" => Ok(NodeMsg::ExchangeAck),
            "start" => Ok(NodeMsg::Start {
                job: MeshJob::from_json(doc.get("job").ok_or("missing 'job'")?)?,
            }),
            "started" => Ok(NodeMsg::Started),
            "status" => Ok(NodeMsg::Status),
            "node_status" => Ok(NodeMsg::NodeStatus {
                state: req_str(&doc, "state")?.to_string(),
            }),
            "front" => Ok(NodeMsg::Front),
            "front_reply" => Ok(NodeMsg::FrontReply {
                entries: entries_from(&doc, "entries")?,
                evaluations: req_u64(&doc, "evaluations")?,
                iterations: req_u64(&doc, "iterations")?,
            }),
            "metrics" => Ok(NodeMsg::Metrics),
            "metrics_reply" => Ok(NodeMsg::MetricsReply {
                prometheus: req_str(&doc, "prometheus")?.to_string(),
            }),
            "metrics_fetch" => Ok(NodeMsg::MetricsFetch),
            "metrics_fetch_reply" => Ok(NodeMsg::MetricsFetchReply {
                registry: req_str(&doc, "registry")?.to_string(),
            }),
            "trace" => Ok(NodeMsg::Trace),
            "trace_reply" => Ok(NodeMsg::TraceReply {
                jsonl: req_str(&doc, "jsonl")?.to_string(),
            }),
            "join" => Ok(NodeMsg::Join {
                addr: req_str(&doc, "addr")?.to_string(),
            }),
            "join_ack" => Ok(NodeMsg::JoinAck {
                epoch: req_u64(&doc, "epoch")?,
                slot: req_u64(&doc, "slot")?,
                members: members_from(&doc)?,
                warm: entries_from(&doc, "warm")?,
            }),
            "leave" => Ok(NodeMsg::Leave {
                node: req_u64(&doc, "node")?,
            }),
            "leave_ack" => Ok(NodeMsg::LeaveAck {
                epoch: req_u64(&doc, "epoch")?,
            }),
            "member_update" => Ok(NodeMsg::MemberUpdate {
                epoch: req_u64(&doc, "epoch")?,
                members: members_from(&doc)?,
            }),
            "member_update_ack" => Ok(NodeMsg::MemberUpdateAck {
                epoch: req_u64(&doc, "epoch")?,
            }),
            "checkpoint" => Ok(NodeMsg::Checkpoint {
                from: req_u64(&doc, "from")?,
                epoch: req_u64(&doc, "epoch")?,
                evaluations: req_u64(&doc, "evaluations")?,
                entries: entries_from(&doc, "entries")?,
            }),
            "checkpoint_ack" => Ok(NodeMsg::CheckpointAck),
            "replica_fetch" => Ok(NodeMsg::ReplicaFetch {
                node: req_u64(&doc, "node")?,
            }),
            "replica_reply" => Ok(NodeMsg::ReplicaReply {
                node: req_u64(&doc, "node")?,
                epoch: req_u64(&doc, "epoch")?,
                evaluations: req_u64(&doc, "evaluations")?,
                entries: entries_from(&doc, "entries")?,
                found: req_bool(&doc, "found")?,
            }),
            "members" => Ok(NodeMsg::Members),
            "members_reply" => Ok(NodeMsg::MembersReply {
                epoch: req_u64(&doc, "epoch")?,
                members: members_from(&doc)?,
            }),
            "stop" => Ok(NodeMsg::Stop),
            "stopped" => Ok(NodeMsg::Stopped),
            "shutdown" => Ok(NodeMsg::Shutdown),
            "shutdown_ok" => Ok(NodeMsg::ShutdownOk),
            "error" => Ok(NodeMsg::Error {
                message: req_str(&doc, "message")?.to_string(),
            }),
            other => Err(format!("unknown node message type '{other}'")),
        }
    }
}

fn write_members(out: &mut String, members: &[Member]) {
    write_array(out, members, |out, m| {
        out.push_str("{\"addr\":");
        json::write_str(out, &m.addr);
        let _ = write!(out, ",\"live\":{}}}", m.live);
    });
}

fn members_from(doc: &Json) -> Result<Vec<Member>, String> {
    req_array(doc, "members", |m| {
        Ok(Member {
            addr: req_str(m, "addr")?.to_string(),
            live: req_bool(m, "live")?,
        })
    })
}

fn write_entries(out: &mut String, entries: &[ExchangeEntry]) {
    write_array(out, entries, |out, e| e.write_json(out));
}

fn entries_from(doc: &Json, key: &str) -> Result<Vec<ExchangeEntry>, String> {
    req_array(doc, key, ExchangeEntry::from_json)
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
