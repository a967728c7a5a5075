//! The service wire codec, one sample of every request and response shape
//! paired with its exact encoded frame: each encodes to those bytes,
//! round-trips through `to_json`/`parse`, and re-encodes unchanged. The
//! pinned frames are the wire contract old clients and daemons rely on.
//! The same samples then feed the hostile-input checks —
//! `Request::parse` runs on every frame a client sends and
//! `Response::parse` on every frame a client receives, so every truncation
//! and every single-bit flip of a valid encoding, and random bytes, must
//! decode to `Ok` or `Err`, never panic.

use proptest::prelude::*;
use tsmo_serve::{
    DynamicParams, EpochInfo, FrontPoint, JobMode, JobResult, JobSpec, PortfolioParams, Request,
    Response, RoundInfo,
};

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Submit {
                spec: JobSpec {
                    instance_text: "R101\nline two\t\"quoted\"".to_string(),
                    variant: "asynchronous".to_string(),
                    processors: 4,
                    max_evaluations: 20_000,
                    neighborhood_size: 80,
                    seed: 42,
                    deadline_ms: Some(250),
                    max_iterations: Some(9),
                    record_events: true,
                    mode: JobMode::Search,
                },
            },
            r#"{"type":"submit","spec":{"instance":"R101\nline two\t\"quoted\"","variant":"asynchronous","processors":4,"max_evaluations":20000,"neighborhood_size":80,"seed":42,"deadline_ms":250,"max_iterations":9,"record_events":true}}"#,
        ),
        (
            Request::Submit {
                spec: JobSpec::default(),
            },
            r#"{"type":"submit","spec":{"instance":"","variant":"sequential","processors":1,"max_evaluations":10000,"neighborhood_size":50,"seed":0,"deadline_ms":null,"max_iterations":null,"record_events":false}}"#,
        ),
        (
            Request::Submit {
                spec: JobSpec {
                    instance_text: "R101 base".to_string(),
                    mode: JobMode::Dynamic(DynamicParams {
                        script_seed: 11,
                        epochs: 4,
                        mutations_per_epoch: 2,
                        warm: false,
                    }),
                    ..JobSpec::default()
                },
            },
            r#"{"type":"submit","spec":{"instance":"R101 base","variant":"sequential","processors":1,"max_evaluations":10000,"neighborhood_size":50,"seed":0,"deadline_ms":null,"max_iterations":null,"record_events":false,"dynamic":{"script_seed":11,"epochs":4,"mutations_per_epoch":2,"warm":false}}}"#,
        ),
        (
            Request::Submit {
                spec: JobSpec {
                    mode: JobMode::Dynamic(DynamicParams::default()),
                    ..JobSpec::default()
                },
            },
            r#"{"type":"submit","spec":{"instance":"","variant":"sequential","processors":1,"max_evaluations":10000,"neighborhood_size":50,"seed":0,"deadline_ms":null,"max_iterations":null,"record_events":false,"dynamic":{"script_seed":0,"epochs":3,"mutations_per_epoch":4,"warm":true}}}"#,
        ),
        (
            Request::Submit {
                spec: JobSpec {
                    instance_text: "R101 base".to_string(),
                    max_evaluations: 9_000,
                    mode: JobMode::Portfolio(PortfolioParams {
                        algos: vec!["tsmo-seq".to_string(), "nsga2".to_string()],
                        rounds: 3,
                        floor: 0.2,
                        eta: 0.05,
                        softmax_beta: 2.0,
                        retire_after: 0,
                    }),
                    ..JobSpec::default()
                },
            },
            r#"{"type":"submit","spec":{"instance":"R101 base","variant":"sequential","processors":1,"max_evaluations":9000,"neighborhood_size":50,"seed":0,"deadline_ms":null,"max_iterations":null,"record_events":false,"portfolio":{"algos":["tsmo-seq","nsga2"],"rounds":3,"floor":0.2,"eta":0.05,"softmax_beta":2,"retire_after":0}}}"#,
        ),
        (
            Request::Submit {
                spec: JobSpec {
                    mode: JobMode::Portfolio(PortfolioParams::default()),
                    ..JobSpec::default()
                },
            },
            r#"{"type":"submit","spec":{"instance":"","variant":"sequential","processors":1,"max_evaluations":10000,"neighborhood_size":50,"seed":0,"deadline_ms":null,"max_iterations":null,"record_events":false,"portfolio":{"algos":["tsmo-collab","nsga2","spea2"],"rounds":4,"floor":0.25,"eta":0.1,"softmax_beta":4,"retire_after":2}}}"#,
        ),
        (Request::Status { job: 7 }, r#"{"type":"status","job":7}"#),
        (Request::Cancel { job: 7 }, r#"{"type":"cancel","job":7}"#),
        (Request::Result { job: 9 }, r#"{"type":"result","job":9}"#),
        (
            Request::Wait {
                job: 9,
                timeout_ms: 250,
            },
            r#"{"type":"wait","job":9,"timeout_ms":250}"#,
        ),
        (Request::Tail { job: 9 }, r#"{"type":"tail","job":9}"#),
        (Request::Health, r#"{"type":"health"}"#),
        (Request::Metrics, r#"{"type":"metrics"}"#),
        (Request::MetricsJson, r#"{"type":"metrics_json"}"#),
        (Request::Shutdown, r#"{"type":"shutdown"}"#),
    ]
}

fn search_result() -> JobResult {
    JobResult {
        evaluations: 5_000,
        iterations: 100,
        truncated: true,
        stop_cause: Some("deadline_exceeded".to_string()),
        front: vec![
            FrontPoint {
                objectives: [512.25, 4.0, 0.0],
                routes: vec![vec![1, 3, 2], vec![4], vec![5, 6]],
            },
            FrontPoint {
                objectives: [600.0, 3.0, 0.0],
                routes: vec![vec![1, 2, 3, 4], vec![5, 6]],
            },
        ],
        epochs: Vec::new(),
        rounds: Vec::new(),
    }
}

fn responses() -> Vec<(Response, &'static str)> {
    let dynamic = JobResult {
        epochs: vec![
            EpochInfo {
                epoch: 0,
                mutations: 0,
                customers: 6,
                warm_seeds: 0,
                evaluations: 2_500,
                front_size: 2,
                best_distance: 512.25,
            },
            EpochInfo {
                epoch: 1,
                mutations: 3,
                customers: 7,
                warm_seeds: 9,
                evaluations: 2_500,
                front_size: 1,
                best_distance: 498.5,
            },
        ],
        ..search_result()
    };
    let portfolio = JobResult {
        rounds: vec![
            RoundInfo {
                round: 0,
                winner: 2,
                winner_algo: "spea2".to_string(),
                allocated: 2_500,
                spent: 2_500,
                retired: 0,
                best_coverage: 0.75,
            },
            RoundInfo {
                round: 1,
                winner: 0,
                winner_algo: "tsmo-collab".to_string(),
                allocated: 2_500,
                spent: 2_500,
                retired: 1,
                best_coverage: 0.5,
            },
        ],
        ..search_result()
    };
    vec![
        (
            Response::Submitted { job: 3, depth: 2 },
            r#"{"type":"submitted","job":3,"depth":2}"#,
        ),
        (
            Response::QueueFull { capacity: 8 },
            r#"{"type":"queue_full","capacity":8}"#,
        ),
        (
            Response::JobStatus {
                job: 3,
                state: "running".to_string(),
            },
            r#"{"type":"job_status","job":3,"state":"running"}"#,
        ),
        (
            Response::CancelAccepted { job: 3 },
            r#"{"type":"cancel_accepted","job":3}"#,
        ),
        (
            Response::JobResult {
                job: 3,
                result: search_result(),
            },
            r#"{"type":"job_result","job":3,"result":{"evaluations":5000,"iterations":100,"truncated":true,"stop_cause":"deadline_exceeded","front":[[512.25,4,0],[600,3,0]],"routes":[[[1,3,2],[4],[5,6]],[[1,2,3,4],[5,6]]],"epochs":[],"rounds":[]}}"#,
        ),
        (
            Response::JobResult {
                job: 4,
                result: dynamic,
            },
            r#"{"type":"job_result","job":4,"result":{"evaluations":5000,"iterations":100,"truncated":true,"stop_cause":"deadline_exceeded","front":[[512.25,4,0],[600,3,0]],"routes":[[[1,3,2],[4],[5,6]],[[1,2,3,4],[5,6]]],"epochs":[{"epoch":0,"mutations":0,"customers":6,"warm_seeds":0,"evaluations":2500,"front_size":2,"best_distance":512.25},{"epoch":1,"mutations":3,"customers":7,"warm_seeds":9,"evaluations":2500,"front_size":1,"best_distance":498.5}],"rounds":[]}}"#,
        ),
        (
            Response::JobResult {
                job: 5,
                result: portfolio,
            },
            r#"{"type":"job_result","job":5,"result":{"evaluations":5000,"iterations":100,"truncated":true,"stop_cause":"deadline_exceeded","front":[[512.25,4,0],[600,3,0]],"routes":[[[1,3,2],[4],[5,6]],[[1,2,3,4],[5,6]]],"epochs":[],"rounds":[{"round":0,"winner":2,"winner_algo":"spea2","allocated":2500,"spent":2500,"retired":0,"best_coverage":0.75},{"round":1,"winner":0,"winner_algo":"tsmo-collab","allocated":2500,"spent":2500,"retired":1,"best_coverage":0.5}]}}"#,
        ),
        (
            Response::Health {
                status: "ok".to_string(),
                queued: 2,
                running: 1,
                workers: 4,
            },
            r#"{"type":"health","status":"ok","queued":2,"running":1,"workers":4}"#,
        ),
        (
            Response::Metrics {
                prometheus: "# TYPE tsmo_jobs_admitted_total counter\ntsmo_jobs_admitted_total 4\n"
                    .to_string(),
            },
            r##"{"type":"metrics","prometheus":"# TYPE tsmo_jobs_admitted_total counter\ntsmo_jobs_admitted_total 4\n"}"##,
        ),
        (
            Response::MetricsJson {
                registry: "{\"counters\":{\"tsmo_evaluations_total\":9}}".to_string(),
            },
            r#"{"type":"metrics_json","registry":"{\"counters\":{\"tsmo_evaluations_total\":9}}"}"#,
        ),
        (
            Response::ShutdownComplete { jobs_completed: 12 },
            r#"{"type":"shutdown_complete","jobs_completed":12}"#,
        ),
        (
            Response::TailEvent {
                job: 3,
                line: "{\"seq\":0,\"type\":\"span_enter\",\"name\":\"search\"}".to_string(),
            },
            r#"{"type":"tail_event","job":3,"line":"{\"seq\":0,\"type\":\"span_enter\",\"name\":\"search\"}"}"#,
        ),
        (
            Response::TailDone { job: 3, events: 41 },
            r#"{"type":"tail_done","job":3,"events":41}"#,
        ),
        (
            Response::NotFound { job: 99 },
            r#"{"type":"not_found","job":99}"#,
        ),
        (
            Response::Error {
                message: "bad \"variant\"".to_string(),
            },
            r#"{"type":"error","message":"bad \"variant\""}"#,
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
fn requests_round_trip() {
    for (req, pinned) in requests() {
        let text = req.to_json();
        assert_eq!(text, pinned, "encoding drifted for {req:?}");
        let parsed = Request::parse(&text).expect("parse back");
        assert_eq!(parsed, req, "mismatch for {text}");
        assert_eq!(parsed.to_json(), text, "re-encode must be stable");
    }
}

#[test]
fn responses_round_trip() {
    for (resp, pinned) in responses() {
        let text = resp.to_json();
        assert_eq!(text, pinned, "encoding drifted for {resp:?}");
        let parsed = Response::parse(&text).expect("parse back");
        assert_eq!(parsed, resp, "mismatch for {text}");
        assert_eq!(parsed.to_json(), text, "re-encode must be stable");
    }
}

#[test]
fn truncated_and_bit_flipped_requests_never_panic() {
    for (_, encoded) in requests() {
        mangle(encoded, Request::parse);
    }
}

#[test]
fn truncated_and_bit_flipped_responses_never_panic() {
    for (_, encoded) in responses() {
        mangle(encoded, Response::parse);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn random_bytes_never_panic_the_wire_decoders(
        bytes in prop::collection::vec(0u16..256, 0..256)
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = Request::parse(&text);
        let _ = Response::parse(&text);
    }
}

/// A `u32` field beyond `u32::MAX` is an error, not a silent wrap: the
/// old reader cast the `u64` down, so `"depth":4294967296` decoded as 0.
#[test]
fn out_of_range_u32_fields_are_errors() {
    for frame in [
        r#"{"type":"submitted","job":3,"depth":4294967296}"#,
        r#"{"type":"queue_full","capacity":4294967296}"#,
        r#"{"type":"health","status":"ok","queued":4294967296,"running":1,"workers":4}"#,
        r#"{"type":"health","status":"ok","queued":2,"running":4294967296,"workers":4}"#,
        r#"{"type":"health","status":"ok","queued":2,"running":1,"workers":4294967296}"#,
    ] {
        assert!(Response::parse(frame).is_err(), "accepted {frame}");
    }
    assert_eq!(
        Response::parse(r#"{"type":"submitted","job":3,"depth":4294967295}"#),
        Ok(Response::Submitted {
            job: 3,
            depth: u32::MAX
        })
    );
}
