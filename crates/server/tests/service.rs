//! End-to-end tests of the solver daemon over real TCP connections:
//! concurrent submission, deadlines, cancellation, backpressure with
//! recovery, instance-cache sharing, HTTP endpoints, and the
//! drain-then-stop shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tsmo_serve::{
    Client, DynamicParams, JobMode, JobSpec, PortfolioParams, Request, Response, Server,
    ServerConfig,
};
use vrptw::generator::{GeneratorConfig, InstanceClass};

fn instance_text(customers: usize, seed: u64) -> String {
    // R2: wide time windows, so short runs still end with feasible fronts.
    vrptw::solomon::write(&GeneratorConfig::new(InstanceClass::R2, customers, seed).build())
}

fn quick_spec(text: &str, seed: u64) -> JobSpec {
    JobSpec {
        instance_text: text.to_string(),
        variant: "sequential".to_string(),
        max_evaluations: 4_000,
        neighborhood_size: 40,
        seed,
        ..JobSpec::default()
    }
}

/// A job that runs until cancelled (with a generous deadline safety net
/// so a failed test cannot wedge the drain).
fn long_spec(text: &str, seed: u64) -> JobSpec {
    JobSpec {
        instance_text: text.to_string(),
        variant: "sequential".to_string(),
        max_evaluations: u64::MAX / 2,
        neighborhood_size: 40,
        seed,
        deadline_ms: Some(30_000),
        ..JobSpec::default()
    }
}

fn start(workers: usize, queue: usize) -> Server {
    Server::start(ServerConfig {
        workers,
        queue_capacity: queue,
        drain_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    })
    .expect("start daemon")
}

#[test]
fn eight_concurrent_submissions_all_complete_with_valid_fronts() {
    let server = start(4, 16);
    let addr = server.local_addr();
    let text = Arc::new(instance_text(12, 3));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let text = Arc::clone(&text);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let job = client
                    .submit(quick_spec(&text, i))
                    .expect("submit")
                    .expect("admitted");
                let result = client
                    .wait_result(job, Duration::from_secs(60))
                    .expect("result");
                (job, result)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut ids: Vec<u64> = results.iter().map(|(job, _)| *job).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 8, "every submission got a distinct job id");
    for (job, result) in &results {
        assert!(!result.truncated, "job {job} should run to budget");
        assert_eq!(result.evaluations, 4_000);
        assert!(
            !result.front.is_empty(),
            "job {job} returned an empty front"
        );
        for point in &result.front {
            assert!(point.objectives.iter().all(|x| x.is_finite()));
            assert!(!point.routes.is_empty());
        }
    }
    let prom = server.prometheus();
    assert!(
        prom.contains("tsmo_jobs_admitted_total 8"),
        "admission counter wrong:\n{prom}"
    );
    assert!(prom.contains("tsmo_jobs_completed_total 8"));
    server.shutdown();
}

#[test]
fn deadlines_truncate_and_are_counted() {
    let server = start(1, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(12, 4);
    let spec = JobSpec {
        deadline_ms: Some(60),
        ..long_spec(&text, 9)
    };
    let job = client.submit(spec).unwrap().unwrap();
    let result = client.wait_result(job, Duration::from_secs(30)).unwrap();
    assert!(result.truncated);
    assert_eq!(result.stop_cause.as_deref(), Some("deadline_exceeded"));
    assert!(
        result.iterations > 0,
        "the run should get some iterations in before the 60ms deadline"
    );
    let prom = client.metrics().unwrap();
    assert!(
        prom.contains("tsmo_jobs_deadline_exceeded_total 1"),
        "deadline counter missing:\n{prom}"
    );
    server.shutdown();
}

#[test]
fn cancel_truncates_a_running_job_to_a_valid_result() {
    let server = start(1, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(12, 5);
    let job = client.submit(long_spec(&text, 1)).unwrap().unwrap();
    // Wait until it is actually on the worker, then cancel mid-run.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.status(job).unwrap() != "running" {
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(30));
    client.cancel(job).unwrap();
    let result = client.wait_result(job, Duration::from_secs(30)).unwrap();
    assert!(result.truncated);
    assert_eq!(result.stop_cause.as_deref(), Some("cancelled"));
    assert!(result.iterations > 0, "cancel mid-run keeps best-so-far");
    assert!(!result.front.is_empty());
    let prom = client.metrics().unwrap();
    assert!(prom.contains("tsmo_jobs_cancelled_total 1"));
    server.shutdown();
}

#[test]
fn cancelling_a_queued_job_still_yields_a_terminal_result() {
    let server = start(1, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(10, 6);
    let blocker = client.submit(long_spec(&text, 1)).unwrap().unwrap();
    let queued = client.submit(long_spec(&text, 2)).unwrap().unwrap();
    client.cancel(queued).unwrap();
    client.cancel(blocker).unwrap();
    let result = client.wait_result(queued, Duration::from_secs(30)).unwrap();
    assert!(result.truncated);
    assert_eq!(result.stop_cause.as_deref(), Some("cancelled"));
    server.shutdown();
}

#[test]
fn backpressure_rejects_then_recovers_after_drain() {
    let server = start(1, 2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(10, 7);
    // Occupy the single worker...
    let running = client.submit(long_spec(&text, 1)).unwrap().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.status(running).unwrap() != "running" {
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    // ...fill the queue...
    let queued_a = client.submit(long_spec(&text, 2)).unwrap().unwrap();
    let queued_b = client.submit(long_spec(&text, 3)).unwrap().unwrap();
    // ...and the next submission bounces with explicit backpressure.
    match client.submit(long_spec(&text, 4)).unwrap() {
        Err(capacity) => assert_eq!(capacity, 2),
        Ok(job) => panic!("expected QueueFull, got admission as job {job}"),
    }
    let prom = client.metrics().unwrap();
    assert!(
        prom.contains("tsmo_jobs_rejected_total 1"),
        "rejection counter missing:\n{prom}"
    );
    // Drain: cancel everything, wait for terminal states.
    for job in [running, queued_a, queued_b] {
        client.cancel(job).unwrap();
        client.wait_result(job, Duration::from_secs(30)).unwrap();
    }
    // Recovery: the queue has space again.
    let after = client
        .submit(quick_spec(&text, 5))
        .unwrap()
        .expect("submission after drain must be admitted");
    client.wait_result(after, Duration::from_secs(60)).unwrap();
    let (status, queued, _, _) = client.health().unwrap();
    assert_eq!(status, "ok");
    assert_eq!(queued, 0);
    server.shutdown();
}

#[test]
fn identical_instances_share_one_cached_parse() {
    let server = start(2, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(12, 8);
    let other = instance_text(12, 9);
    let a = client.submit(quick_spec(&text, 1)).unwrap().unwrap();
    let b = client.submit(quick_spec(&text, 2)).unwrap().unwrap();
    let c = client.submit(quick_spec(&other, 3)).unwrap().unwrap();
    for job in [a, b, c] {
        client.wait_result(job, Duration::from_secs(60)).unwrap();
    }
    assert_eq!(
        server.cached_instances(),
        2,
        "two distinct texts, three submissions"
    );
    let prom = client.metrics().unwrap();
    assert!(prom.contains("tsmo_instance_cache_hits_total 1"), "{prom}");
    assert!(
        prom.contains("tsmo_instance_cache_misses_total 2"),
        "{prom}"
    );
    server.shutdown();
}

#[test]
fn http_healthz_and_metrics_share_the_wire_port() {
    let server = start(1, 4);
    let addr = server.local_addr();
    let http_get = |path: &str| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    };
    let health = http_get("/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    let metrics = http_get("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(metrics.contains("tsmo_queue_depth"), "{metrics}");
    // Prometheus scrapers key on the exposition-format content type.
    assert!(
        metrics.contains("Content-Type: text/plain; version=0.0.4"),
        "{metrics}"
    );
    let missing = http_get("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    server.shutdown();
}

/// tsmo-trace over the service: a `record_events` job can be tailed live
/// over the wire — span and timeline events stream as JSON lines until
/// the job is terminal — and the job's span profile lands in the
/// daemon's metrics.
#[test]
fn tail_streams_a_recorded_jobs_span_events() {
    let server = start(1, 4);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let text = instance_text(10, 4);
    let spec = JobSpec {
        record_events: true,
        ..quick_spec(&text, 4)
    };
    let job = client.submit(spec).unwrap().unwrap();

    // Tail on a second connection while the job runs on the first.
    let mut tailer = Client::connect(addr).unwrap();
    let mut lines = Vec::new();
    let events = tailer
        .tail(job, |line| lines.push(line.to_string()))
        .unwrap();
    assert_eq!(events as usize, lines.len());
    assert!(!lines.is_empty(), "tail streamed nothing");
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"span_enter\"")),
        "no span events in the tail"
    );
    // The tail drained a terminal job, so the result is ready.
    let result = client.result(job).unwrap();
    assert!(!result.front.is_empty());
    // The job's span profile folded into the daemon's shared metrics.
    let prom = client.metrics().unwrap();
    assert!(
        prom.contains("tsmo_span_seconds_total{span=\"evaluate\"}"),
        "{prom}"
    );

    // A job submitted without record_events has nothing to tail.
    let plain = client.submit(quick_spec(&text, 5)).unwrap().unwrap();
    let err = tailer.tail(plain, |_| {}).unwrap_err();
    assert!(err.to_string().contains("record"), "{err}");
    server.shutdown();
}

#[test]
fn wire_shutdown_drains_then_stops() {
    let mut server = start(2, 8);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let text = instance_text(10, 10);
    let a = client.submit(quick_spec(&text, 1)).unwrap().unwrap();
    let b = client.submit(quick_spec(&text, 2)).unwrap().unwrap();
    let completed = client.shutdown().expect("shutdown response after drain");
    assert!(
        completed >= 2,
        "both admitted jobs finished before the daemon stopped (got {completed})"
    );
    // Results of drained jobs are still fetchable on a new connection
    // only if the daemon were alive — it is not: every thread has exited.
    server.wait();
    // The audit trail recorded the full lifecycle.
    let events = server.events_jsonl();
    let parsed = tsmo_obs::parse_events_jsonl(&events).expect("valid JSONL audit trail");
    let completed_events = parsed
        .iter()
        .filter(|e| matches!(e.event, tsmo_obs::SearchEvent::JobCompleted { .. }))
        .count();
    assert_eq!(completed_events, 2, "one JobCompleted per job: {events}");
    assert!(events.contains(&format!("\"type\":\"job_admitted\",\"job\":{a}")));
    assert!(events.contains(&format!("\"type\":\"job_admitted\",\"job\":{b}")));
    // New submissions are refused (connection refused or error response).
    if let Ok(mut late) = Client::connect(addr) {
        assert!(late.submit(quick_spec(&text, 3)).is_err());
    }
}

#[test]
fn parallel_variants_run_through_the_service() {
    let server = start(2, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(12, 11);
    for (variant, processors) in [
        ("synchronous", 3),
        ("asynchronous", 3),
        ("collaborative", 2),
    ] {
        let spec = JobSpec {
            variant: variant.to_string(),
            processors,
            ..quick_spec(&text, 21)
        };
        let job = client.submit(spec).unwrap().unwrap();
        let result = client.wait_result(job, Duration::from_secs(120)).unwrap();
        assert!(!result.front.is_empty(), "{variant} returned nothing");
    }
    server.shutdown();
}

#[test]
fn bad_submissions_are_rejected_with_errors() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Unknown variant.
    let bad_variant = JobSpec {
        variant: "simulated-annealing".to_string(),
        ..quick_spec(&instance_text(10, 12), 1)
    };
    assert!(client.submit(bad_variant).is_err());
    // Unparsable instance.
    assert!(client
        .submit(quick_spec("this is not an instance", 1))
        .is_err());
    // Unknown job ids.
    assert!(client.status(404).is_err());
    assert!(client.cancel(404).is_err());
    assert!(client.result(404).is_err());
    // Malformed frame payload gets an error response, not a hang.
    match client.request(&Request::Health).unwrap() {
        Response::Health { status, .. } => assert_eq!(status, "ok"),
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

#[test]
fn dynamic_jobs_run_every_epoch_and_warm_start_between_them() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(15, 9);
    let spec = JobSpec {
        max_evaluations: 1_500,
        ..quick_spec(&text, 4)
    };
    let dynamic = DynamicParams {
        script_seed: 31,
        epochs: 3,
        mutations_per_epoch: 2,
        warm: true,
    };
    let job = client
        .submit(JobSpec {
            mode: JobMode::Dynamic(dynamic),
            ..spec
        })
        .expect("submit")
        .expect("admitted");
    let result = client.wait_result(job, Duration::from_secs(120)).unwrap();
    assert_eq!(result.epochs.len(), 3, "one summary per epoch");
    assert_eq!(
        result.evaluations,
        result.epochs.iter().map(|e| e.evaluations).sum::<u64>(),
        "totals are the epoch sums"
    );
    assert!(!result.front.is_empty(), "final epoch front comes back");
    assert_eq!(result.epochs[0].epoch, 0);
    assert_eq!(result.epochs[0].mutations, 0, "epoch 0 is the base");
    for e in &result.epochs[1..] {
        assert!(e.mutations > 0, "epoch {} applied mutations", e.epoch);
        assert!(e.warm_seeds > 0, "epoch {} was warm-started", e.epoch);
        assert!(e.best_distance.is_finite());
    }
    server.shutdown();
}

#[test]
fn a_previous_front_warm_starts_the_next_dynamic_job() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(12, 5);
    // A plain job deposits its front in the daemon's solution pool...
    let plain = client.submit(quick_spec(&text, 2)).unwrap().unwrap();
    client.wait_result(plain, Duration::from_secs(60)).unwrap();
    // ...which the dynamic job's *first* epoch then warm-starts from.
    let spec = JobSpec {
        max_evaluations: 1_000,
        ..quick_spec(&text, 3)
    };
    let dynamic = DynamicParams {
        script_seed: 7,
        epochs: 2,
        mutations_per_epoch: 1,
        warm: true,
    };
    let job = client
        .submit(JobSpec {
            mode: JobMode::Dynamic(dynamic),
            ..spec
        })
        .unwrap()
        .unwrap();
    let result = client.wait_result(job, Duration::from_secs(120)).unwrap();
    assert!(
        result.epochs[0].warm_seeds > 0,
        "epoch 0 reused the plain job's pooled front"
    );
    server.shutdown();
}

#[test]
fn cold_dynamic_jobs_never_warm_start_and_bad_epochs_are_rejected() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(12, 6);
    let spec = JobSpec {
        max_evaluations: 1_000,
        ..quick_spec(&text, 8)
    };
    let dynamic = DynamicParams {
        script_seed: 5,
        epochs: 2,
        mutations_per_epoch: 1,
        warm: false,
    };
    let job = client
        .submit(JobSpec {
            mode: JobMode::Dynamic(dynamic),
            ..spec.clone()
        })
        .unwrap()
        .unwrap();
    let result = client.wait_result(job, Duration::from_secs(120)).unwrap();
    assert!(result.epochs.iter().all(|e| e.warm_seeds == 0));
    // Zero epochs is a request error, not a failed job.
    let zero = DynamicParams {
        epochs: 0,
        ..DynamicParams::default()
    };
    assert!(client
        .submit(JobSpec {
            mode: JobMode::Dynamic(zero),
            ..spec
        })
        .is_err());
    server.shutdown();
}

#[test]
fn portfolio_jobs_race_contenders_and_return_a_merged_front() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(15, 11);
    let spec = JobSpec {
        max_evaluations: 4_500,
        ..quick_spec(&text, 21)
    };
    let portfolio = PortfolioParams {
        algos: vec![
            "tsmo-seq".to_string(),
            "nsga2".to_string(),
            "spea2".to_string(),
        ],
        rounds: 3,
        retire_after: 0,
        ..PortfolioParams::default()
    };
    let job = client
        .submit(JobSpec {
            mode: JobMode::Portfolio(portfolio),
            ..spec
        })
        .expect("submit")
        .expect("admitted");
    let result = client.wait_result(job, Duration::from_secs(120)).unwrap();
    assert_eq!(result.rounds.len(), 3, "one summary per round");
    assert_eq!(
        result.evaluations,
        result.rounds.iter().map(|r| r.spent).sum::<u64>(),
        "totals are the round sums"
    );
    assert_eq!(result.evaluations, 4_500, "the race spends the full budget");
    assert!(!result.front.is_empty(), "the merged front comes back");
    // The merged front is mutually non-dominated.
    let vectors: Vec<Vec<f64>> = result.front.iter().map(|p| p.objectives.to_vec()).collect();
    assert_eq!(
        pareto::non_dominated_indices(&vectors).len(),
        vectors.len(),
        "merged front has a dominated point"
    );
    for round in &result.rounds {
        assert_eq!(
            round.spent, round.allocated,
            "uncancelled rounds spend exactly"
        );
        assert!(!round.winner_algo.is_empty());
    }
    server.shutdown();
}

#[test]
fn bad_portfolio_submissions_are_rejected_at_the_wire() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(10, 2);
    let spec = quick_spec(&text, 1);
    let unknown = PortfolioParams {
        algos: vec!["simulated-annealing".to_string()],
        ..PortfolioParams::default()
    };
    assert!(client
        .submit(JobSpec {
            mode: JobMode::Portfolio(unknown),
            ..spec.clone()
        })
        .is_err());
    let empty = PortfolioParams {
        algos: Vec::new(),
        ..PortfolioParams::default()
    };
    assert!(client
        .submit(JobSpec {
            mode: JobMode::Portfolio(empty),
            ..spec.clone()
        })
        .is_err());
    let zero_rounds = PortfolioParams {
        rounds: 0,
        ..PortfolioParams::default()
    };
    assert!(client
        .submit(JobSpec {
            mode: JobMode::Portfolio(zero_rounds),
            ..spec
        })
        .is_err());
    server.shutdown();
}

#[test]
fn the_cache_byte_budget_evicts_old_instances() {
    let text_a = instance_text(12, 1);
    let text_b = instance_text(12, 2);
    // Fits one instance text (plus its pool), never two.
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        drain_timeout: Duration::from_secs(60),
        cache_budget: Some(text_a.len() * 2),
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let a = client.submit(quick_spec(&text_a, 1)).unwrap().unwrap();
    client.wait_result(a, Duration::from_secs(60)).unwrap();
    let b = client.submit(quick_spec(&text_b, 2)).unwrap().unwrap();
    client.wait_result(b, Duration::from_secs(60)).unwrap();
    assert!(
        server.cached_instances() <= 2,
        "the byte budget keeps the cache bounded"
    );
    // The evicted instance readmits cleanly.
    let again = client.submit(quick_spec(&text_a, 3)).unwrap().unwrap();
    let result = client.wait_result(again, Duration::from_secs(60)).unwrap();
    assert!(!result.front.is_empty());
    server.shutdown();
}

#[test]
fn metrics_json_round_trips_to_the_prometheus_exposition() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(12, 7);
    let job = client.submit(quick_spec(&text, 7)).unwrap().unwrap();
    client.wait_result(job, Duration::from_secs(60)).unwrap();

    // With no running jobs the registry is quiescent, so the JSON
    // snapshot and the prometheus scrape observe the same state: the
    // parsed registry must re-render to the exact exposition.
    let registry =
        tsmo_obs::MetricsRegistry::from_json(&client.metrics_json().unwrap()).expect("parse back");
    let prom = client.metrics().unwrap();
    assert_eq!(
        registry.to_prometheus(),
        prom,
        "JSON registry must round-trip to the prometheus exposition"
    );
    // And the mergeable form carries real search metrics, not a stub.
    use tsmo_obs::metrics::names;
    assert!(registry.counter(names::EVALUATIONS) > 0);
    assert_eq!(registry.counter(names::JOBS_COMPLETED), 1);
    assert!(
        registry.counter(&names::operator_counter(
            names::OPERATOR_PROPOSED,
            "relocate"
        )) > 0,
        "operator attribution missing from the JSON registry"
    );
    server.shutdown();
}

#[test]
fn wait_on_a_finished_job_answers_its_result() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(12, 8);
    let job = client.submit(quick_spec(&text, 8)).unwrap().unwrap();
    let waited = client
        .request(&Request::Wait {
            job,
            timeout_ms: 60_000,
        })
        .unwrap();
    let Response::JobResult { result, .. } = &waited else {
        panic!("expected a result, got {waited:?}");
    };
    assert!(!result.front.is_empty());
    assert_eq!(waited, client.request(&Request::Result { job }).unwrap());
    // A finished job waits no further.
    let again = client
        .request(&Request::Wait { job, timeout_ms: 0 })
        .unwrap();
    assert_eq!(again, waited);
    // The worker split the job's latency into its queue wait and run.
    let prom = client.metrics().unwrap();
    assert!(
        prom.contains("\ntsmo_job_queue_wait_ms_count 1\n"),
        "{prom}"
    );
    assert!(prom.contains("\ntsmo_job_run_ms_count 1\n"), "{prom}");
    server.shutdown();
}

#[test]
fn wait_times_out_on_a_queued_job_with_its_state() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = instance_text(10, 9);
    let blocker = client.submit(long_spec(&text, 1)).unwrap().unwrap();
    let queued = client.submit(long_spec(&text, 2)).unwrap().unwrap();
    let started = std::time::Instant::now();
    let waited = client
        .request(&Request::Wait {
            job: queued,
            timeout_ms: 50,
        })
        .unwrap();
    assert!(started.elapsed() >= Duration::from_millis(50));
    assert_eq!(
        waited,
        Response::JobStatus {
            job: queued,
            state: "queued".to_string(),
        }
    );
    client.cancel(queued).unwrap();
    client.cancel(blocker).unwrap();
    server.shutdown();
}

#[test]
fn wait_on_an_unknown_job_is_not_found() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        client
            .request(&Request::Wait {
                job: 404,
                timeout_ms: 1_000,
            })
            .unwrap(),
        Response::NotFound { job: 404 }
    );
    server.shutdown();
}
