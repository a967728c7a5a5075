//! The event JSONL codec, one sample of every `SearchEvent` shape paired
//! with its exact encoded line: each encodes to those bytes, parses back
//! to the same event, and re-encodes unchanged. The same samples then feed
//! the hostile-input checks — `parse_events_jsonl` reads peer-supplied
//! JSONL in `clusterctl trace-merge`, so every truncation and every
//! single-bit flip of a valid line, and random bytes, must decode to `Ok`
//! or `Err`, never panic.

use proptest::prelude::*;
use tsmo_obs::{
    parse_events_jsonl, ExchangeDirection, FaultKind, RestartReason, SearchEvent, TimedEvent,
};

/// Every event shape with its line when recorded at sequence number =
/// its index in this list.
fn samples() -> Vec<(SearchEvent, &'static str)> {
    vec![
        (
            SearchEvent::Iteration {
                searcher: 0,
                iteration: 12,
                pool: 60,
                admissible: 58,
                chosen: Some([1234.5, 11.0, 0.0]),
            },
            r#"{"seq":0,"type":"iteration","searcher":0,"iteration":12,"pool":60,"admissible":58,"chosen":[1234.5,11,0]}"#,
        ),
        (
            SearchEvent::Iteration {
                searcher: 2,
                iteration: 13,
                pool: 60,
                admissible: 0,
                chosen: None,
            },
            r#"{"seq":1,"type":"iteration","searcher":2,"iteration":13,"pool":60,"admissible":0,"chosen":null}"#,
        ),
        (
            SearchEvent::Restart {
                searcher: 1,
                iteration: 40,
                reason: RestartReason::Stagnation,
            },
            r#"{"seq":2,"type":"restart","searcher":1,"iteration":40,"reason":"stagnation"}"#,
        ),
        (
            SearchEvent::Restart {
                searcher: 0,
                iteration: 3,
                reason: RestartReason::EmptyPool,
            },
            r#"{"seq":3,"type":"restart","searcher":0,"iteration":3,"reason":"empty_pool"}"#,
        ),
        (
            SearchEvent::ArchiveInsert {
                searcher: 0,
                iteration: 7,
                objectives: [987.25, 10.0, 3.5],
            },
            r#"{"seq":4,"type":"archive_insert","searcher":0,"iteration":7,"objectives":[987.25,10,3.5]}"#,
        ),
        (
            SearchEvent::SearchStagnated {
                searcher: 1,
                iteration: 39,
                streak: 25,
            },
            r#"{"seq":5,"type":"search_stagnated","searcher":1,"iteration":39,"streak":25}"#,
        ),
        (
            SearchEvent::TabuHit {
                searcher: 0,
                iteration: 9,
            },
            r#"{"seq":6,"type":"tabu_hit","searcher":0,"iteration":9}"#,
        ),
        (
            SearchEvent::Exchange {
                searcher: 3,
                peer: 1,
                direction: ExchangeDirection::Sent,
                objectives: [500.0, 9.0, 0.0],
            },
            r#"{"seq":7,"type":"exchange","searcher":3,"peer":1,"direction":"sent","objectives":[500,9,0]}"#,
        ),
        (
            SearchEvent::WorkerTask {
                worker: 4,
                iteration: 100,
                count: 15,
            },
            r#"{"seq":8,"type":"worker_task","worker":4,"iteration":100,"count":15}"#,
        ),
        (
            SearchEvent::WorkerResult {
                worker: 4,
                iteration: 100,
                neighbors: 15,
            },
            r#"{"seq":9,"type":"worker_result","worker":4,"iteration":100,"neighbors":15}"#,
        ),
        (
            SearchEvent::Staleness {
                searcher: 0,
                iteration: 101,
                max_staleness: 3,
                stale: 12,
            },
            r#"{"seq":10,"type":"staleness","searcher":0,"iteration":101,"max_staleness":3,"stale":12}"#,
        ),
        (
            SearchEvent::FaultInjected {
                site: 2,
                fault_seq: 45,
                kind: FaultKind::TaskPanic,
            },
            r#"{"seq":11,"type":"fault_injected","site":2,"fault_seq":45,"kind":"task_panic"}"#,
        ),
        (
            SearchEvent::FaultInjected {
                site: 0,
                fault_seq: 3,
                kind: FaultKind::ExchangeDelay,
            },
            r#"{"seq":12,"type":"fault_injected","site":0,"fault_seq":3,"kind":"exchange_delay"}"#,
        ),
        (
            SearchEvent::TaskResent {
                worker: 1,
                iteration: 17,
                attempt: 2,
            },
            r#"{"seq":13,"type":"task_resent","worker":1,"iteration":17,"attempt":2}"#,
        ),
        (
            SearchEvent::WorkerQuarantined {
                worker: 3,
                iteration: 30,
            },
            r#"{"seq":14,"type":"worker_quarantined","worker":3,"iteration":30}"#,
        ),
        (
            SearchEvent::WorkerRespawned {
                worker: 3,
                iteration: 31,
            },
            r#"{"seq":15,"type":"worker_respawned","worker":3,"iteration":31}"#,
        ),
        (
            SearchEvent::DegradedMode {
                iteration: 55,
                live_workers: 1,
            },
            r#"{"seq":16,"type":"degraded_mode","iteration":55,"live_workers":1}"#,
        ),
        (
            SearchEvent::PeerDead {
                searcher: 2,
                peer: 5,
            },
            r#"{"seq":17,"type":"peer_dead","searcher":2,"peer":5}"#,
        ),
        (
            SearchEvent::PeerReadmitted {
                searcher: 2,
                peer: 5,
            },
            r#"{"seq":18,"type":"peer_readmitted","searcher":2,"peer":5}"#,
        ),
        (
            SearchEvent::MemberJoined { node: 4, epoch: 3 },
            r#"{"seq":19,"type":"member_joined","node":4,"epoch":3}"#,
        ),
        (
            SearchEvent::MemberLeft { node: 2, epoch: 4 },
            r#"{"seq":20,"type":"member_left","node":2,"epoch":4}"#,
        ),
        (
            SearchEvent::SliceRebalanced {
                epoch: 4,
                node: 1,
                start: 6,
                len: 3,
            },
            r#"{"seq":21,"type":"slice_rebalanced","epoch":4,"node":1,"start":6,"len":3}"#,
        ),
        (
            SearchEvent::ArchiveReplicated {
                node: 2,
                holder: 3,
                entries: 17,
            },
            r#"{"seq":22,"type":"archive_replicated","node":2,"holder":3,"entries":17}"#,
        ),
        (
            SearchEvent::JobAdmitted { job: 7, depth: 3 },
            r#"{"seq":23,"type":"job_admitted","job":7,"depth":3}"#,
        ),
        (
            SearchEvent::JobRejected { job: 8, depth: 4 },
            r#"{"seq":24,"type":"job_rejected","job":8,"depth":4}"#,
        ),
        (
            SearchEvent::JobCancelled { job: 7 },
            r#"{"seq":25,"type":"job_cancelled","job":7}"#,
        ),
        (
            SearchEvent::JobDeadlineExceeded { job: 6 },
            r#"{"seq":26,"type":"job_deadline_exceeded","job":6}"#,
        ),
        (
            SearchEvent::JobCompleted {
                job: 7,
                iterations: 250,
                truncated: true,
            },
            r#"{"seq":27,"type":"job_completed","job":7,"iterations":250,"truncated":true}"#,
        ),
        (
            SearchEvent::SpanEnter {
                trace: 0xFFFF_FFFF_FFFF,
                span: 2,
                parent: 1,
                name: "evaluate".to_string(),
            },
            r#"{"seq":28,"type":"span_enter","trace":281474976710655,"span":2,"parent":1,"name":"evaluate"}"#,
        ),
        (
            SearchEvent::SpanExit {
                trace: 0xFFFF_FFFF_FFFF,
                span: 2,
                name: "evaluate".to_string(),
            },
            r#"{"seq":29,"type":"span_exit","trace":281474976710655,"span":2,"name":"evaluate"}"#,
        ),
        (
            SearchEvent::FrontSample {
                searcher: 1,
                iteration: 42,
                evaluations: 2000,
                size: 9,
                hypervolume: 1234.5,
                coverage: 0.75,
            },
            r#"{"seq":30,"type":"front_sample","searcher":1,"iteration":42,"evaluations":2000,"size":9,"hypervolume":1234.5,"coverage":0.75}"#,
        ),
        (
            SearchEvent::RoundScored {
                round: 2,
                contender: 1,
                coverage: 0.625,
                hypervolume: 9876.5,
            },
            r#"{"seq":31,"type":"round_scored","round":2,"contender":1,"coverage":0.625,"hypervolume":9876.5}"#,
        ),
        (
            SearchEvent::BudgetReallocated {
                round: 3,
                contender: 0,
                evaluations: 4500,
            },
            r#"{"seq":32,"type":"budget_reallocated","round":3,"contender":0,"evaluations":4500}"#,
        ),
        (
            SearchEvent::ContenderRetired {
                round: 3,
                contender: 2,
            },
            r#"{"seq":33,"type":"contender_retired","round":3,"contender":2}"#,
        ),
    ]
}

/// Feeds `decode` every prefix of `encoded` and every single-bit flip of
/// it. Only panics fail; `Ok` and `Err` both pass.
fn mangle<T>(encoded: &str, decode: impl Fn(&str) -> Result<T, String>) {
    let bytes = encoded.as_bytes();
    for end in 0..bytes.len() {
        let _ = decode(&String::from_utf8_lossy(&bytes[..end]));
    }
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            let _ = decode(&String::from_utf8_lossy(&flipped));
        }
    }
}

#[test]
fn every_variant_round_trips() {
    for (seq, (event, pinned)) in samples().into_iter().enumerate() {
        let timed = TimedEvent {
            seq: seq as u64,
            event,
        };
        let line = timed.to_json_line();
        assert_eq!(line, pinned, "encoding drifted for {timed:?}");
        let parsed = TimedEvent::parse_json_line(&line).expect("parse back");
        assert_eq!(parsed, timed, "mismatch for {line}");
        // Re-encoding the parsed event reproduces the bytes exactly.
        assert_eq!(parsed.to_json_line(), line);
    }
}

#[test]
fn stream_parse_reports_line_numbers() {
    let good = TimedEvent {
        seq: 0,
        event: SearchEvent::TabuHit {
            searcher: 0,
            iteration: 1,
        },
    };
    let input = format!("{}\n\nnot json\n", good.to_json_line());
    let err = parse_events_jsonl(&input).unwrap_err();
    assert!(err.starts_with("line 3:"), "unexpected error: {err}");
    let ok = parse_events_jsonl(&format!("{}\n", good.to_json_line())).unwrap();
    assert_eq!(ok.len(), 1);
}

#[test]
fn tabu_hit_lines_with_the_dropped_aspired_field_still_parse() {
    // Streams written while `tabu_hit` still carried `aspired` load as the
    // new event; the stale field is ignored.
    let old = r#"{"seq":6,"type":"tabu_hit","searcher":0,"iteration":9,"aspired":false}"#;
    let parsed = TimedEvent::parse_json_line(old).expect("old line parses");
    assert_eq!(
        parsed,
        TimedEvent {
            seq: 6,
            event: SearchEvent::TabuHit {
                searcher: 0,
                iteration: 9,
            },
        }
    );
}

#[test]
fn unknown_type_is_rejected() {
    let err = TimedEvent::parse_json_line(r#"{"seq":0,"type":"mystery"}"#).unwrap_err();
    assert!(err.contains("mystery"));
}

#[test]
fn truncated_and_bit_flipped_lines_never_panic() {
    for (_, line) in samples() {
        mangle(line, parse_events_jsonl);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn random_bytes_never_panic_the_event_decoder(
        bytes in prop::collection::vec(0u16..256, 0..256)
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = parse_events_jsonl(&String::from_utf8_lossy(&bytes));
    }
}
