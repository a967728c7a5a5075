//! The node protocol codec, one sample of every message: each round-trips
//! through `to_json`/`parse` and re-encodes to the same bytes. The same
//! samples then feed the hostile-input checks — `NodeMsg::parse` runs on
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

fn messages() -> Vec<NodeMsg> {
    vec![
        NodeMsg::Hello { node: 2 },
        NodeMsg::HelloAck { node: u64::MAX },
        NodeMsg::Exchange {
            from: 5,
            to: 1,
            entry: sample_entry(),
        },
        NodeMsg::ExchangeAck,
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
        NodeMsg::Start {
            job: MeshJob::default(),
        },
        NodeMsg::Started,
        NodeMsg::Status,
        NodeMsg::NodeStatus {
            state: "running".to_string(),
        },
        NodeMsg::Front,
        NodeMsg::FrontReply {
            entries: vec![sample_entry()],
            evaluations: 40_000,
            iterations: 800,
        },
        NodeMsg::Metrics,
        NodeMsg::MetricsReply {
            prometheus: "tsmo_exchanges_received_total 3\n".to_string(),
        },
        NodeMsg::MetricsFetch,
        NodeMsg::MetricsFetchReply {
            registry:
                "{\"counters\":{\"tsmo_evaluations_total\":10},\"gauges\":{},\"histograms\":{}}"
                    .to_string(),
        },
        NodeMsg::Trace,
        NodeMsg::TraceReply {
            jsonl: "{\"seq\":0,\"type\":\"span_enter\",\"name\":\"search\"}\n".to_string(),
        },
        NodeMsg::Join {
            addr: "127.0.0.1:4009".to_string(),
        },
        NodeMsg::JoinAck {
            epoch: 5,
            slot: 2,
            members: sample_members(),
            warm: vec![sample_entry()],
        },
        NodeMsg::Leave { node: 3 },
        NodeMsg::LeaveAck { epoch: 6 },
        NodeMsg::MemberUpdate {
            epoch: 6,
            members: sample_members(),
        },
        NodeMsg::MemberUpdateAck { epoch: 6 },
        NodeMsg::Checkpoint {
            from: 1,
            epoch: 6,
            evaluations: 12_345,
            entries: vec![sample_entry()],
        },
        NodeMsg::CheckpointAck,
        NodeMsg::ReplicaFetch { node: 1 },
        NodeMsg::ReplicaReply {
            node: 1,
            epoch: 6,
            evaluations: 12_345,
            entries: vec![sample_entry()],
            found: true,
        },
        NodeMsg::ReplicaReply {
            node: 4,
            epoch: 0,
            evaluations: 0,
            entries: Vec::new(),
            found: false,
        },
        NodeMsg::Members,
        NodeMsg::MembersReply {
            epoch: 6,
            members: sample_members(),
        },
        NodeMsg::Stop,
        NodeMsg::Stopped,
        NodeMsg::Shutdown,
        NodeMsg::ShutdownOk,
        NodeMsg::Error {
            message: "no \"job\" running".to_string(),
        },
    ]
}

#[test]
fn messages_round_trip() {
    for msg in messages() {
        let text = msg.to_json();
        let parsed = NodeMsg::parse(&text).expect("parse back");
        assert_eq!(parsed, msg, "mismatch for {text}");
        assert_eq!(parsed.to_json(), text, "re-encode must be stable");
    }
}

#[test]
fn truncated_and_bit_flipped_messages_never_panic() {
    for msg in messages() {
        let bytes = msg.to_json().into_bytes();
        for end in 0..bytes.len() {
            let _ = NodeMsg::parse(&String::from_utf8_lossy(&bytes[..end]));
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
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
