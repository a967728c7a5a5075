//! The service wire codec, one sample of every request and response shape:
//! each round-trips through `to_json`/`parse` and re-encodes to the same
//! bytes. The same samples then feed the hostile-input checks —
//! `Request::parse` runs on every frame a client sends and
//! `Response::parse` on every frame a client receives, so every truncation
//! and every single-bit flip of a valid encoding, and random bytes, must
//! decode to `Ok` or `Err`, never panic.

use proptest::prelude::*;
use tsmo_serve::{
    DynamicParams, EpochInfo, FrontPoint, JobMode, JobResult, JobSpec, PortfolioParams, Request,
    Response, RoundInfo,
};

fn requests() -> Vec<Request> {
    vec![
        Request::Submit(JobSpec {
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
        }),
        Request::Submit(JobSpec::default()),
        Request::Submit(JobSpec {
            instance_text: "R101 base".to_string(),
            mode: JobMode::Dynamic(DynamicParams {
                script_seed: 11,
                epochs: 4,
                mutations_per_epoch: 2,
                warm: false,
            }),
            ..JobSpec::default()
        }),
        Request::Submit(JobSpec {
            mode: JobMode::Dynamic(DynamicParams::default()),
            ..JobSpec::default()
        }),
        Request::Submit(JobSpec {
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
        }),
        Request::Submit(JobSpec {
            mode: JobMode::Portfolio(PortfolioParams::default()),
            ..JobSpec::default()
        }),
        Request::Status { job: 7 },
        Request::Cancel { job: 7 },
        Request::Result { job: 9 },
        Request::Tail { job: 9 },
        Request::Health,
        Request::Metrics,
        Request::MetricsJson,
        Request::Shutdown,
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

fn responses() -> Vec<Response> {
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
        Response::Submitted { job: 3, depth: 2 },
        Response::QueueFull { capacity: 8 },
        Response::JobStatus {
            job: 3,
            state: "running".to_string(),
        },
        Response::CancelAccepted { job: 3 },
        Response::JobResult {
            job: 3,
            result: search_result(),
        },
        Response::JobResult {
            job: 4,
            result: dynamic,
        },
        Response::JobResult {
            job: 5,
            result: portfolio,
        },
        Response::Health {
            status: "ok".to_string(),
            queued: 2,
            running: 1,
            workers: 4,
        },
        Response::Metrics {
            prometheus: "# TYPE tsmo_jobs_admitted_total counter\ntsmo_jobs_admitted_total 4\n"
                .to_string(),
        },
        Response::MetricsJson {
            registry: "{\"counters\":{\"tsmo_evaluations_total\":9}}".to_string(),
        },
        Response::ShutdownComplete { jobs_completed: 12 },
        Response::TailEvent {
            job: 3,
            line: "{\"seq\":0,\"type\":\"span_enter\",\"name\":\"search\"}".to_string(),
        },
        Response::TailDone { job: 3, events: 41 },
        Response::NotFound { job: 99 },
        Response::Error {
            message: "bad \"variant\"".to_string(),
        },
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
    for req in requests() {
        let text = req.to_json();
        let parsed = Request::parse(&text).expect("parse back");
        assert_eq!(parsed, req, "mismatch for {text}");
        assert_eq!(parsed.to_json(), text, "re-encode must be stable");
    }
}

#[test]
fn responses_round_trip() {
    for resp in responses() {
        let text = resp.to_json();
        let parsed = Response::parse(&text).expect("parse back");
        assert_eq!(parsed, resp, "mismatch for {text}");
        assert_eq!(parsed.to_json(), text, "re-encode must be stable");
    }
}

#[test]
fn truncated_and_bit_flipped_requests_never_panic() {
    for req in requests() {
        mangle(&req.to_json(), Request::parse);
    }
}

#[test]
fn truncated_and_bit_flipped_responses_never_panic() {
    for resp in responses() {
        mangle(&resp.to_json(), Response::parse);
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
