//! The node protocol codec, one sample of every message paired with its
//! exact encoded frame: each encodes to those bytes, round-trips through
//! `to_json`/`parse`, and re-encodes unchanged. The pinned frames are the
//! wire contract between nodes of different builds. The same samples then feed the hostile-input checks — `NodeMsg::parse` runs on
//! every frame a peer or controller sends a `noded`, so every truncation
//! and every single-bit flip of a valid encoding, and random bytes, must
//! decode to `Ok` or `Err`, never panic.

use proptest::prelude::*;
use tsmo_cluster::{ExchangeEntry, Member, MeshJob, NodeMsg};

fn sample_entry() -> ExchangeEntry {
    ExchangeEntry {
        objectives: [512.25, 4.0, 0.0],
        routes: vec![vec![1, 3, 2], vec![4], vec![5, 6]],
    }
}

fn sample_members() -> Vec<Member> {
    vec![
        Member {
            addr: "127.0.0.1:4001".to_string(),
            live: true,
        },
        Member {
            addr: "127.0.0.1:4002".to_string(),
            live: false,
        },
    ]
}

fn messages() -> Vec<(NodeMsg, &'static str)> {
    vec![
        (NodeMsg::Hello { node: 2 }, r#"{"type":"hello","node":2}"#),
        (
            NodeMsg::HelloAck { node: u64::MAX },
            r#"{"type":"hello_ack","node":18446744073709551615}"#,
        ),
        (
            NodeMsg::Exchange {
                from: 5,
                to: 1,
                entry: sample_entry(),
            },
            r#"{"type":"exchange","from":5,"to":1,"entry":{"objectives":[512.25,4,0],"routes":[[1,3,2],[4],[5,6]]}}"#,
        ),
        (NodeMsg::ExchangeAck, r#"{"type":"exchange_ack"}"#),
        (
            NodeMsg::Start {
                job: MeshJob {
                    instance_text: "R101\nline two\t\"quoted\"".to_string(),
                    node_index: 1,
                    peers: vec!["127.0.0.1:4001".to_string(), "127.0.0.1:4002".to_string()],
                    searchers_per_node: 3,
                    seed: 42,
                    max_evaluations: 20_000,
                    neighborhood_size: 80,
                    stagnation_limit: 25,
                    fault_seed: 7,
                    fault_rate: 0.125,
                    trace_id: 0xFFFF_FFFF_FFFF,
                    exchange_interval: 4,
                    replication_ms: 250,
                    epoch: 3,
                    warm: vec![sample_entry()],
                },
            },
            r#"{"type":"start","job":{"instance":"R101\nline two\t\"quoted\"","node_index":1,"peers":["127.0.0.1:4001","127.0.0.1:4002"],"searchers_per_node":3,"seed":42,"max_evaluations":20000,"neighborhood_size":80,"stagnation_limit":25,"fault_seed":7,"fault_rate":0.125,"trace_id":281474976710655,"exchange_interval":4,"replication_ms":250,"epoch":3,"warm":[{"objectives":[512.25,4,0],"routes":[[1,3,2],[4],[5,6]]}]}}"#,
        ),
        (
            NodeMsg::Start {
                job: MeshJob::default(),
            },
            r#"{"type":"start","job":{"instance":"","node_index":0,"peers":[],"searchers_per_node":2,"seed":0,"max_evaluations":10000,"neighborhood_size":50,"stagnation_limit":100,"fault_seed":0,"fault_rate":0,"trace_id":0,"exchange_interval":1,"replication_ms":0,"epoch":0,"warm":[]}}"#,
        ),
        (NodeMsg::Started, r#"{"type":"started"}"#),
        (NodeMsg::Status, r#"{"type":"status"}"#),
        (
            NodeMsg::NodeStatus {
                state: "running".to_string(),
            },
            r#"{"type":"node_status","state":"running"}"#,
        ),
        (
            NodeMsg::Wait { timeout_ms: 1_000 },
            r#"{"type":"wait","timeout_ms":1000}"#,
        ),
        (NodeMsg::Front, r#"{"type":"front"}"#),
        (
            NodeMsg::FrontReply {
                entries: vec![sample_entry()],
                evaluations: 40_000,
                iterations: 800,
            },
            r#"{"type":"front_reply","entries":[{"objectives":[512.25,4,0],"routes":[[1,3,2],[4],[5,6]]}],"evaluations":40000,"iterations":800}"#,
        ),
        (NodeMsg::Metrics, r#"{"type":"metrics"}"#),
        (
            NodeMsg::MetricsReply {
                prometheus: "tsmo_exchanges_received_total 3\n".to_string(),
            },
            r#"{"type":"metrics_reply","prometheus":"tsmo_exchanges_received_total 3\n"}"#,
        ),
        (NodeMsg::MetricsFetch, r#"{"type":"metrics_fetch"}"#),
        (
            NodeMsg::MetricsFetchReply {
                registry:
                    "{\"counters\":{\"tsmo_evaluations_total\":10},\"gauges\":{},\"histograms\":{}}"
                        .to_string(),
            },
            r#"{"type":"metrics_fetch_reply","registry":"{\"counters\":{\"tsmo_evaluations_total\":10},\"gauges\":{},\"histograms\":{}}"}"#,
        ),
        (NodeMsg::Trace, r#"{"type":"trace"}"#),
        (
            NodeMsg::TraceReply {
                jsonl: "{\"seq\":0,\"type\":\"span_enter\",\"name\":\"search\"}\n".to_string(),
            },
            r#"{"type":"trace_reply","jsonl":"{\"seq\":0,\"type\":\"span_enter\",\"name\":\"search\"}\n"}"#,
        ),
        (
            NodeMsg::Join {
                addr: "127.0.0.1:4009".to_string(),
            },
            r#"{"type":"join","addr":"127.0.0.1:4009"}"#,
        ),
        (
            NodeMsg::JoinAck {
                epoch: 5,
                slot: 2,
                members: sample_members(),
                warm: vec![sample_entry()],
            },
            r#"{"type":"join_ack","epoch":5,"slot":2,"members":[{"addr":"127.0.0.1:4001","live":true},{"addr":"127.0.0.1:4002","live":false}],"warm":[{"objectives":[512.25,4,0],"routes":[[1,3,2],[4],[5,6]]}]}"#,
        ),
        (NodeMsg::Leave { node: 3 }, r#"{"type":"leave","node":3}"#),
        (
            NodeMsg::LeaveAck { epoch: 6 },
            r#"{"type":"leave_ack","epoch":6}"#,
        ),
        (
            NodeMsg::MemberUpdate {
                epoch: 6,
                members: sample_members(),
            },
            r#"{"type":"member_update","epoch":6,"members":[{"addr":"127.0.0.1:4001","live":true},{"addr":"127.0.0.1:4002","live":false}]}"#,
        ),
        (
            NodeMsg::MemberUpdateAck { epoch: 6 },
            r#"{"type":"member_update_ack","epoch":6}"#,
        ),
        (
            NodeMsg::Checkpoint {
                from: 1,
                epoch: 6,
                evaluations: 12_345,
                entries: vec![sample_entry()],
            },
            r#"{"type":"checkpoint","from":1,"epoch":6,"evaluations":12345,"entries":[{"objectives":[512.25,4,0],"routes":[[1,3,2],[4],[5,6]]}]}"#,
        ),
        (NodeMsg::CheckpointAck, r#"{"type":"checkpoint_ack"}"#),
        (
            NodeMsg::ReplicaFetch { node: 1 },
            r#"{"type":"replica_fetch","node":1}"#,
        ),
        (
            NodeMsg::ReplicaReply {
                node: 1,
                epoch: 6,
                evaluations: 12_345,
                entries: vec![sample_entry()],
                found: true,
            },
            r#"{"type":"replica_reply","node":1,"epoch":6,"evaluations":12345,"entries":[{"objectives":[512.25,4,0],"routes":[[1,3,2],[4],[5,6]]}],"found":true}"#,
        ),
        (
            NodeMsg::ReplicaReply {
                node: 4,
                epoch: 0,
                evaluations: 0,
                entries: Vec::new(),
                found: false,
            },
            r#"{"type":"replica_reply","node":4,"epoch":0,"evaluations":0,"entries":[],"found":false}"#,
        ),
        (NodeMsg::Members, r#"{"type":"members"}"#),
        (
            NodeMsg::MembersReply {
                epoch: 6,
                members: sample_members(),
            },
            r#"{"type":"members_reply","epoch":6,"members":[{"addr":"127.0.0.1:4001","live":true},{"addr":"127.0.0.1:4002","live":false}]}"#,
        ),
        (NodeMsg::Stop, r#"{"type":"stop"}"#),
        (NodeMsg::Stopped, r#"{"type":"stopped"}"#),
        (NodeMsg::Shutdown, r#"{"type":"shutdown"}"#),
        (NodeMsg::ShutdownOk, r#"{"type":"shutdown_ok"}"#),
        (
            NodeMsg::Error {
                message: "no \"job\" running".to_string(),
            },
            r#"{"type":"error","message":"no \"job\" running"}"#,
        ),
    ]
}

#[test]
fn messages_round_trip() {
    for (msg, pinned) in messages() {
        let text = msg.to_json();
        assert_eq!(text, pinned, "encoding drifted for {msg:?}");
        let parsed = NodeMsg::parse(&text).expect("parse back");
        assert_eq!(parsed, msg, "mismatch for {text}");
        assert_eq!(parsed.to_json(), text, "re-encode must be stable");
    }
}

#[test]
fn truncated_and_bit_flipped_messages_never_panic() {
    for (_, encoded) in messages() {
        let bytes = encoded.as_bytes();
        for end in 0..bytes.len() {
            let _ = NodeMsg::parse(&String::from_utf8_lossy(&bytes[..end]));
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                let _ = NodeMsg::parse(&String::from_utf8_lossy(&flipped));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn random_bytes_never_panic_the_node_decoder(
        bytes in prop::collection::vec(0u16..256, 0..256)
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = NodeMsg::parse(&String::from_utf8_lossy(&bytes));
    }
}
