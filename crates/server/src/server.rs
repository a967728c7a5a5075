//! The daemon: accept loop, worker pool, dispatch, and shutdown.
//!
//! Architecture: one accept thread spawns a handler thread per
//! connection; handlers only touch the job table and the bounded queue,
//! so a slow client never blocks the solvers. A fixed pool of worker
//! threads pops job ids off the queue and runs them through
//! [`ParallelVariant::run_opts`], which threads each job's
//! [`CancelToken`] into the search loop — deadlines and cancel requests
//! truncate a run at an iteration boundary and its best-so-far front
//! comes back as a valid result.
//!
//! Two recorders split the telemetry: a **metrics-only** recorder is
//! attached to every search run (bounded memory regardless of uptime),
//! and a small event recorder keeps the job-lifecycle audit trail
//! (admitted / rejected / completed — a handful of events per job).
//! Both serve the same Prometheus exposition.
//!
//! The listening port also answers plain HTTP `GET /healthz` and
//! `GET /metrics` — the first bytes of a connection distinguish an HTTP
//! request from a length-prefixed frame.

use crate::cache::InstanceCache;
use crate::job::{JobState, JobTable};
use crate::queue::JobQueue;
use crate::wire::{
    self, DynamicParams, EpochInfo, FrontPoint, JobResult, JobSpec, PortfolioParams, Request,
    Response, RoundInfo,
};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tsmo_core::{
    CancelToken, Clock, ParallelVariant, RunOptions, StopCause, TsmoConfig, TsmoOutcome,
};
use tsmo_obs::metrics::names;
use tsmo_obs::{MemoryRecorder, Recorder, SearchEvent};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads running jobs.
    pub workers: usize,
    /// Bounded queue capacity (admitted-but-not-started jobs).
    pub queue_capacity: usize,
    /// Upper bound on the shutdown drain.
    pub drain_timeout: Duration,
    /// Optional deterministic fault injection for the parallel variants
    /// (`(seed, rate)` as in `tsmo_faults::FaultConfig::uniform`).
    pub faults: Option<(u64, f64)>,
    /// Optional node mesh (`host:port` peer list of running `noded`
    /// daemons). When set, `collaborative` jobs are dispatched across the
    /// mesh via `tsmo_cluster::run_mesh` instead of running in-process:
    /// `processors` is split evenly over the nodes (at least one searcher
    /// each) and the merged multi-node front comes back as the job result.
    /// Deadlines bound the mesh wait, but cancellation does not propagate
    /// to remote nodes mid-run.
    pub mesh: Option<Vec<String>>,
    /// Byte budget of the instance/solution-pool cache (`served
    /// --cache-mb`); least-recently-used entries are evicted past it.
    /// `None` keeps the cache unbounded.
    pub cache_budget: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            drain_timeout: Duration::from_secs(120),
            faults: None,
            mesh: None,
            cache_budget: None,
        }
    }
}

struct Shared {
    queue: JobQueue,
    jobs: JobTable,
    cache: InstanceCache,
    /// Attached to every search run; drops events, keeps metrics.
    metrics: Arc<MemoryRecorder>,
    /// Job-lifecycle audit trail (a few events per job).
    events: Arc<MemoryRecorder>,
    draining: AtomicBool,
    stopping: AtomicBool,
    workers: usize,
    faults: Arc<dyn tsmo_faults::FaultHook>,
    /// Raw fault `(seed, rate)` — forwarded to mesh nodes, which build
    /// their own exchange-fault plans from it.
    fault_cfg: Option<(u64, f64)>,
    /// Peer list for distributed `collaborative` dispatch, when present.
    mesh: Option<Vec<String>>,
    drain_timeout: Duration,
}

impl Shared {
    fn health(&self) -> Response {
        Response::Health {
            status: if self.draining.load(Ordering::Acquire) {
                "draining".to_string()
            } else {
                "ok".to_string()
            },
            queued: self.queue.len() as u32,
            running: self.jobs.running_count(),
            workers: self.workers as u32,
        }
    }

    fn prometheus(&self) -> String {
        self.registry().to_prometheus()
    }

    /// The daemon's merged metrics registry: search metrics from the runs,
    /// lifecycle metrics from the service layer, and — when a node mesh is
    /// configured — every reachable node's registry folded in under a
    /// `node="k"` label, with a `tsmo_node_up{node="k"}` liveness gauge
    /// per peer. One `/metrics` scrape therefore observes the whole
    /// cluster.
    fn registry(&self) -> tsmo_obs::MetricsRegistry {
        let mut merged = self.metrics.metrics();
        merged.merge(&self.events.metrics());
        if let Some(peers) = &self.mesh {
            for (k, peer) in peers.iter().enumerate() {
                let node = k.to_string();
                let fetched = tsmo_cluster::mesh::MeshClient::new(
                    peer.clone(),
                    tsmo_cluster::DEFAULT_NET_TIMEOUT,
                )
                .metrics_registry();
                match fetched {
                    Ok(registry) => {
                        merged.merge(&registry.with_label("node", &node));
                        merged.gauge_set(&names::node_up(&node), 1.0);
                    }
                    Err(_) => merged.gauge_set(&names::node_up(&node), 0.0),
                }
            }
        }
        merged
    }
}

/// Recorder attached to a `record_events` job: the full event stream
/// (spans and timeline samples included) goes to the per-job recorder for
/// tailing, metrics go to the daemon's bounded shared registry, and every
/// closed span folds its wall time into both profiles.
struct TeeRecorder {
    events: Arc<MemoryRecorder>,
    metrics: Arc<MemoryRecorder>,
}

impl Recorder for TeeRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: SearchEvent) {
        self.events.event(event);
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    fn gauge_max(&self, name: &str, value: f64) {
        self.metrics.gauge_max(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.metrics.observe(name, value);
    }

    fn profiling(&self) -> bool {
        true
    }

    fn span_start(&self, name: &'static str, trace: u64, parent: u64) -> u64 {
        self.events.span_start(name, trace, parent)
    }

    fn span_end(&self, name: &'static str, trace: u64, span: u64, wall_seconds: f64) {
        self.events.span_end(name, trace, span, wall_seconds);
        // Span id 0: the shared registry only folds the profile.
        self.metrics.span_end(name, trace, 0, wall_seconds);
    }
}

/// Maps the wire variant name onto the core enum.
fn parse_variant(name: &str, processors: usize) -> Result<ParallelVariant, String> {
    let p = processors.max(1);
    match name {
        "sequential" => Ok(ParallelVariant::Sequential),
        "synchronous" => Ok(ParallelVariant::Synchronous(p)),
        "asynchronous" => Ok(ParallelVariant::Asynchronous(p)),
        "collaborative" => Ok(ParallelVariant::Collaborative(p)),
        other => Err(format!(
            "unknown variant '{other}' (expected sequential|synchronous|asynchronous|collaborative)"
        )),
    }
}

/// Extracts the wire-level result payload from a finished run. The front
/// is the full non-dominated archive: time windows are *soft* (tardiness
/// is the third objective, not a constraint), so callers that need
/// hard-feasible solutions filter on `objectives[2] == 0` client-side.
fn job_result(outcome: &TsmoOutcome, cause: Option<StopCause>) -> JobResult {
    JobResult {
        evaluations: outcome.evaluations,
        iterations: outcome.iterations as u64,
        truncated: cause.is_some(),
        stop_cause: cause.map(|c| c.as_str().to_string()),
        front: front_points(&outcome.archive),
        epochs: Vec::new(),
        rounds: Vec::new(),
    }
}

/// Shapes a dynamic job's epoch sequence as a wire result: the final
/// epoch's front plus one [`EpochInfo`] per epoch, with the evaluation
/// and iteration totals summed across epochs.
fn dynamic_job_result(
    epochs: &[tsmo_scenario::EpochOutcome],
    cause: Option<StopCause>,
) -> JobResult {
    JobResult {
        evaluations: epochs.iter().map(|e| e.outcome.evaluations).sum(),
        iterations: epochs.iter().map(|e| e.outcome.iterations as u64).sum(),
        truncated: cause.is_some(),
        stop_cause: cause.map(|c| c.as_str().to_string()),
        front: epochs
            .last()
            .map(|e| front_points(&e.outcome.archive))
            .unwrap_or_default(),
        epochs: epochs
            .iter()
            .map(|e| EpochInfo {
                epoch: e.epoch as u64,
                mutations: e.mutations as u64,
                customers: e.customers as u64,
                warm_seeds: e.warm_seeds as u64,
                evaluations: e.outcome.evaluations,
                front_size: e.outcome.archive.len() as u64,
                best_distance: e
                    .outcome
                    .archive
                    .iter()
                    .map(|en| en.objectives.to_vector()[0])
                    .fold(f64::INFINITY, f64::min)
                    .min(f64::MAX), // empty archive stays JSON-finite
            })
            .collect(),
        rounds: Vec::new(),
    }
}

/// Shapes a portfolio race as a wire result: the stage-two merged front
/// plus one [`RoundInfo`] per scored round. Portfolio jobs track no
/// master-iteration count, so `iterations` reports completed rounds.
fn portfolio_job_result(
    outcome: &tsmo_portfolio::PortfolioOutcome,
    cause: Option<StopCause>,
) -> JobResult {
    JobResult {
        evaluations: outcome.evaluations,
        iterations: outcome.ledger.len() as u64,
        truncated: cause.is_some(),
        stop_cause: cause.map(|c| c.as_str().to_string()),
        front: front_points(&outcome.merged),
        epochs: Vec::new(),
        rounds: outcome
            .ledger
            .iter()
            .map(|round| RoundInfo {
                round: u64::from(round.round),
                winner: u64::from(round.winner),
                winner_algo: outcome
                    .contenders
                    .get(round.winner as usize)
                    .map(|c| c.name.clone())
                    .unwrap_or_default(),
                allocated: round.entries.iter().map(|e| e.allocated).sum(),
                spent: round.entries.iter().map(|e| e.spent).sum(),
                retired: round.retired.len() as u64,
                best_coverage: round
                    .entries
                    .iter()
                    .find(|e| e.contender == round.winner)
                    .map_or(0.0, |e| e.coverage),
            })
            .collect(),
    }
}

fn front_points(front: &[tsmo_core::FrontEntry]) -> Vec<FrontPoint> {
    front
        .iter()
        .map(|e| FrontPoint {
            objectives: e.objectives.to_vector(),
            routes: e
                .solution
                .routes()
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| r.to_vec())
                .collect(),
        })
        .collect()
}

/// Runs a `collaborative` job across the configured node mesh and shapes
/// the merged multi-node outcome as a wire result. `processors` is split
/// evenly over the nodes, each node getting at least one searcher. The
/// deadline (when given) bounds the mesh wait; cancellation cannot reach
/// remote nodes mid-run, so a cancelled mesh job fails instead of
/// truncating.
fn run_mesh_job(
    peers: &[String],
    fault_cfg: Option<(u64, f64)>,
    spec: &JobSpec,
    instance: &vrptw::Instance,
    wait_cap: Duration,
) -> Result<JobResult, String> {
    let searchers_per_node = spec.processors.max(1).div_ceil(peers.len()).max(1);
    let job = tsmo_cluster::MeshJob {
        // The job table drops its instance-text copy at admission (the
        // parsed instance is what jobs run on), so re-serialize it for
        // the remote nodes.
        instance_text: vrptw::solomon::write(instance),
        node_index: 0,
        peers: peers.to_vec(),
        searchers_per_node,
        seed: spec.seed,
        max_evaluations: spec.max_evaluations,
        neighborhood_size: spec.neighborhood_size.max(2),
        stagnation_limit: TsmoConfig::default().stagnation_limit,
        fault_seed: fault_cfg.map_or(0, |(seed, _)| seed),
        fault_rate: fault_cfg.map_or(0.0, |(_, rate)| rate),
        // Every node stamps its spans with the one id derived from the
        // job seed, so `clusterctl trace-merge` can assemble one trace.
        trace_id: tsmo_obs::trace_id_from_seed(spec.seed),
        // Ring-replicate each node's archive once a second: the mesh
        // tolerates a node dying mid-run (its front is recovered from the
        // successor's replica at gather) at negligible steady-state cost.
        replication_ms: 1_000,
        ..tsmo_cluster::MeshJob::default()
    };
    let wait = spec.deadline_ms.map_or(wait_cap, Duration::from_millis);
    let outcome = tsmo_cluster::run_mesh(&job, tsmo_cluster::DEFAULT_NET_TIMEOUT, wait)
        .map_err(|e| format!("mesh dispatch failed: {e}"))?;
    Ok(JobResult {
        evaluations: outcome.evaluations,
        iterations: outcome.iterations,
        truncated: false,
        stop_cause: None,
        front: front_points(&outcome.front),
        epochs: Vec::new(),
        rounds: Vec::new(),
    })
}

/// A running solver daemon. Dropping the handle does *not* stop it; call
/// [`shutdown`](Server::shutdown) (drain-then-stop) or send the wire
/// `Shutdown` request.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let faults: Arc<dyn tsmo_faults::FaultHook> = match config.faults {
            Some((seed, rate)) => {
                tsmo_faults::FaultPlan::shared(tsmo_faults::FaultConfig::uniform(seed, rate))
            }
            None => tsmo_faults::none(),
        };
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            jobs: JobTable::new(),
            cache: InstanceCache::with_budget(config.cache_budget),
            metrics: Arc::new(MemoryRecorder::metrics_only()),
            events: Arc::new(MemoryRecorder::new()),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            workers: config.workers.max(1),
            faults,
            fault_cfg: config.faults,
            mesh: config.mesh.filter(|peers| !peers.is_empty()),
            drain_timeout: config.drain_timeout,
        });
        // Register the depth gauge up front so a fresh daemon's /metrics
        // already exposes it.
        shared.metrics.gauge_set(names::QUEUE_DEPTH, 0.0);
        let workers = (0..shared.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tsmo-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tsmo-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Prometheus exposition of the daemon's merged metrics.
    pub fn prometheus(&self) -> String {
        self.shared.prometheus()
    }

    /// The job-lifecycle audit trail as JSONL (admission, rejection,
    /// completion events).
    pub fn events_jsonl(&self) -> String {
        self.shared.events.events_jsonl()
    }

    /// Number of distinct instances in the parse cache.
    pub fn cached_instances(&self) -> usize {
        self.shared.cache.len()
    }

    /// Blocks until the daemon has been shut down (by the wire `Shutdown`
    /// request or [`shutdown`](Server::shutdown) from another thread).
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Drains the queue (running jobs finish, queued jobs run, new
    /// submissions are rejected), stops the workers and the accept loop,
    /// and joins every thread.
    pub fn shutdown(mut self) {
        drain(&self.shared);
        stop_accepting(&self.shared, self.local_addr);
        self.wait();
    }
}

/// Phase one of shutdown: reject new work, let the backlog finish.
fn drain(shared: &Shared) {
    shared.draining.store(true, Ordering::Release);
    shared.queue.close();
    // A timed-out drain still proceeds to stop — per-job deadlines bound
    // how long a stuck job can hold the daemon.
    let _ = shared.jobs.wait_all_terminal(shared.drain_timeout);
}

/// Phase two: break the accept loop (self-connect to wake it).
fn stop_accepting(shared: &Shared, addr: std::net::SocketAddr) {
    shared.stopping.store(true, Ordering::Release);
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Handler threads are detached: they exit at client EOF, and
        // shutdown responses are written before the daemon stops.
        let _ = std::thread::Builder::new()
            .name("tsmo-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut probe = [0u8; 4];
    let Ok(n) = stream.peek(&mut probe) else {
        return;
    };
    if &probe[..n] == b"GET " {
        handle_http(stream, shared);
        return;
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone TCP stream"));
    let mut writer = BufWriter::new(stream);
    while let Ok(Some(payload)) = wire::read_frame(&mut reader) {
        let (response, shutdown_after) = match Request::parse(&payload) {
            // Tail breaks the one-request-one-response contract: it
            // streams TailEvent frames until the job is terminal and
            // drained, then closes with TailDone.
            Ok(Request::Tail { job }) => {
                if tail_job(shared, job, &mut writer) {
                    continue;
                }
                return;
            }
            Ok(req) => handle_request(shared, req),
            Err(e) => (
                Response::Error {
                    message: format!("bad request: {e}"),
                },
                false,
            ),
        };
        if wire::write_frame(&mut writer, &response.to_json()).is_err() {
            return;
        }
        if shutdown_after {
            // Drain already ran inside handle_request; now break the
            // accept loop. This connection ends with the flush above.
            if let Ok(addr) = writer.get_ref().local_addr() {
                stop_accepting(shared, addr);
            }
            return;
        }
    }
}

/// Streams a tailed job's events to the client. Returns `false` when the
/// connection broke mid-stream (the caller then drops it).
fn tail_job(shared: &Arc<Shared>, job: u64, writer: &mut BufWriter<TcpStream>) -> bool {
    let Some(recorder) = shared.jobs.events_recorder(job) else {
        let response = match shared.jobs.state_name(job) {
            Some(_) => Response::Error {
                message: format!("job {job} does not record events (submit with record_events)"),
            },
            None => Response::NotFound { job },
        };
        return wire::write_frame(writer, &response.to_json()).is_ok();
    };
    let mut sent: u64 = 0;
    loop {
        let batch = recorder.events_since(sent);
        for ev in &batch {
            let frame = Response::TailEvent {
                job,
                line: ev.to_json_line(),
            }
            .to_json();
            if wire::write_frame(writer, &frame).is_err() {
                return false;
            }
        }
        sent += batch.len() as u64;
        if writer.flush().is_err() {
            return false;
        }
        // Done when the job is terminal and nothing arrived after the
        // last drain; a removed job (rejected submit) counts as terminal.
        let terminal = shared
            .jobs
            .with_job(job, |j| j.state.is_terminal())
            .unwrap_or(true);
        if terminal && recorder.events_since(sent).is_empty() {
            break;
        }
        if batch.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let done = Response::TailDone { job, events: sent }.to_json();
    wire::write_frame(writer, &done).is_ok() && writer.flush().is_ok()
}

/// Serves the two HTTP endpoints on the shared port.
fn handle_http(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone TCP stream"));
    let mut request_line = String::new();
    let mut byte = [0u8; 1];
    // Read up to the first CRLF; the request line is all we route on.
    while request_line.len() < 1024 && reader.read_exact(&mut byte).is_ok() {
        if byte[0] == b'\n' {
            break;
        }
        request_line.push(byte[0] as char);
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/healthz" => {
            let Response::Health {
                status,
                queued,
                running,
                workers,
            } = shared.health()
            else {
                unreachable!("health() returns Response::Health");
            };
            (
                "200 OK",
                "application/json",
                format!(
                    "{{\"status\":\"{status}\",\"queued\":{queued},\"running\":{running},\"workers\":{workers}}}\n"
                ),
            )
        }
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", shared.prometheus()),
        _ => (
            "404 Not Found",
            "text/plain",
            "only /healthz and /metrics live here\n".to_string(),
        ),
    };
    let mut out = BufWriter::new(stream);
    let _ = write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = out.flush();
}

/// Serves one request. The bool asks the connection loop to stop the
/// daemon after responding (wire shutdown).
fn handle_request(shared: &Arc<Shared>, req: Request) -> (Response, bool) {
    match req {
        Request::Submit(spec) => (handle_submit(shared, spec, None, None), false),
        Request::SubmitDynamic { spec, dynamic } => {
            let response = if dynamic.epochs == 0 {
                Response::Error {
                    message: "dynamic jobs need at least one epoch".to_string(),
                }
            } else if dynamic.epochs > 64 {
                Response::Error {
                    message: "dynamic jobs are capped at 64 epochs".to_string(),
                }
            } else {
                handle_submit(shared, spec, Some(dynamic), None)
            };
            (response, false)
        }
        Request::SubmitPortfolio { spec, portfolio } => {
            let response = if let Err(e) = validate_portfolio(&portfolio) {
                Response::Error { message: e }
            } else {
                handle_submit(shared, spec, None, Some(portfolio))
            };
            (response, false)
        }
        Request::Status { job } => (
            match shared.jobs.state_name(job) {
                Some(state) => Response::JobStatus {
                    job,
                    state: state.to_string(),
                },
                None => Response::NotFound { job },
            },
            false,
        ),
        Request::Cancel { job } => (
            match shared.jobs.with_job(job, |j| j.cancel.cancel()) {
                Some(()) => {
                    shared.events.event(SearchEvent::JobCancelled { job });
                    Response::CancelAccepted { job }
                }
                None => Response::NotFound { job },
            },
            false,
        ),
        Request::Result { job } => (
            match shared.jobs.result(job) {
                None => Response::NotFound { job },
                Some(None) => Response::Error {
                    message: format!(
                        "job {job} is not done (state: {})",
                        shared.jobs.state_name(job).unwrap_or("unknown")
                    ),
                },
                Some(Some(result)) => Response::JobResult { job, result },
            },
            false,
        ),
        // Tail never reaches here: the connection loop intercepts it to
        // stream multiple frames. Answer defensively anyway.
        Request::Tail { job } => (Response::NotFound { job }, false),
        Request::Health => (shared.health(), false),
        Request::Metrics => (
            Response::Metrics {
                prometheus: shared.prometheus(),
            },
            false,
        ),
        Request::MetricsJson => (
            Response::MetricsJson {
                registry: shared.registry().to_json(),
            },
            false,
        ),
        Request::Shutdown => {
            drain(shared);
            (
                Response::ShutdownComplete {
                    jobs_completed: shared.jobs.terminal_count(),
                },
                true,
            )
        }
    }
}

/// Rejects a portfolio submission the worker could not run.
fn validate_portfolio(portfolio: &PortfolioParams) -> Result<(), String> {
    if portfolio.algos.is_empty() {
        return Err("portfolio jobs need at least one contender".to_string());
    }
    if portfolio.rounds == 0 {
        return Err("portfolio jobs need at least one round".to_string());
    }
    if portfolio.rounds > 64 {
        return Err("portfolio jobs are capped at 64 rounds".to_string());
    }
    let params = tsmo_portfolio::RaceParams::default();
    for name in &portfolio.algos {
        if tsmo_portfolio::contender(name, &params).is_none() {
            return Err(format!(
                "unknown portfolio algorithm '{}' (expected one of {})",
                name,
                tsmo_portfolio::KNOWN_ALGORITHMS.join("|")
            ));
        }
    }
    Ok(())
}

fn handle_submit(
    shared: &Shared,
    spec: JobSpec,
    dynamic: Option<DynamicParams>,
    portfolio: Option<PortfolioParams>,
) -> Response {
    if shared.draining.load(Ordering::Acquire) {
        return Response::Error {
            message: "daemon is draining; not accepting jobs".to_string(),
        };
    }
    if let Err(e) = parse_variant(&spec.variant, spec.processors) {
        return Response::Error { message: e };
    }
    let (instance, hit) = match shared.cache.get_or_parse(&spec.instance_text) {
        Ok(pair) => pair,
        Err(e) => return Response::Error { message: e },
    };
    shared.metrics.counter_add(
        if hit {
            names::INSTANCE_CACHE_HITS
        } else {
            names::INSTANCE_CACHE_MISSES
        },
        1,
    );
    let cancel = CancelToken::with_limits(
        spec.deadline_ms.map(Duration::from_millis),
        spec.max_iterations,
    );
    let job = shared
        .jobs
        .admit(spec, dynamic, portfolio, instance, cancel);
    match shared.queue.push(job) {
        Ok(depth) => {
            shared.metrics.counter_add(names::JOBS_ADMITTED, 1);
            shared.metrics.gauge_set(names::QUEUE_DEPTH, depth as f64);
            shared.events.event(SearchEvent::JobAdmitted {
                job,
                depth: depth as u32,
            });
            Response::Submitted {
                job,
                depth: depth as u32,
            }
        }
        Err(full) => {
            shared.jobs.remove(job);
            shared.metrics.counter_add(names::JOBS_REJECTED, 1);
            shared.events.event(SearchEvent::JobRejected {
                job,
                depth: full.capacity as u32,
            });
            Response::QueueFull {
                capacity: full.capacity as u32,
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.queue.pop() {
        shared
            .metrics
            .gauge_set(names::QUEUE_DEPTH, shared.queue.len() as f64);
        let Some((spec, dynamic, portfolio, instance, cancel, submitted, job_events)) =
            shared.jobs.with_job(id, |j| {
                j.state = JobState::Running;
                (
                    j.spec.clone(),
                    j.dynamic.clone(),
                    j.portfolio.clone(),
                    Arc::clone(&j.instance),
                    j.cancel.clone(),
                    j.submitted,
                    j.events.clone(),
                )
            })
        else {
            continue; // job was removed (rejected submit); nothing to run
        };
        let variant = match parse_variant(&spec.variant, spec.processors) {
            Ok(v) => v,
            Err(e) => {
                // Validated at submit; defensive for future wire changes.
                shared.jobs.with_job(id, |j| j.state = JobState::Failed(e));
                continue;
            }
        };
        let cfg = TsmoConfig {
            max_evaluations: spec.max_evaluations,
            neighborhood_size: spec.neighborhood_size.max(2),
            // Tailing jobs also stream the convergence timeline: one
            // front sample per ~10 iterations' worth of evaluations.
            timeline_every: spec
                .record_events
                .then(|| spec.neighborhood_size.max(2) as u64 * 10),
            ..TsmoConfig::default()
        }
        .with_seed(spec.seed);
        let recorder: Arc<dyn Recorder> = match &job_events {
            Some(events) => Arc::new(TeeRecorder {
                events: Arc::clone(events),
                metrics: Arc::clone(&shared.metrics),
            }),
            None => Arc::clone(&shared.metrics) as Arc<dyn Recorder>,
        };
        if let Some(pp) = &portfolio {
            // Portfolio races run in-process; the race is about budget
            // shares, not thread-level parallelism.
            run_portfolio_job(
                shared, id, pp, &spec, &instance, recorder, &cancel, submitted,
            );
            continue;
        }
        if let Some(dp) = &dynamic {
            // Dynamic jobs run their epochs in-process (no mesh dispatch).
            run_dynamic_job(
                shared, id, dp, variant, cfg, &instance, recorder, &cancel, submitted,
            );
            continue;
        }
        if let (ParallelVariant::Collaborative(_), Some(peers)) = (&variant, shared.mesh.as_ref()) {
            // Distributed dispatch: the mesh nodes run the searchers; this
            // worker only waits, gathers, and records the outcome.
            match run_mesh_job(
                peers,
                shared.fault_cfg,
                &spec,
                &instance,
                shared.drain_timeout,
            ) {
                Ok(result) => {
                    shared.metrics.counter_add(names::JOBS_COMPLETED, 1);
                    shared.metrics.observe(
                        names::JOB_LATENCY_MS,
                        submitted.elapsed().as_secs_f64() * 1000.0,
                    );
                    shared.events.event(SearchEvent::JobCompleted {
                        job: id,
                        iterations: result.iterations,
                        truncated: result.truncated,
                    });
                    shared
                        .jobs
                        .with_job(id, |j| j.state = JobState::Done(result));
                }
                Err(e) => {
                    shared.jobs.with_job(id, |j| j.state = JobState::Failed(e));
                }
            }
            continue;
        }
        let opts = RunOptions {
            recorder,
            faults: Arc::clone(&shared.faults),
            cancel: cancel.clone(),
            clock: Clock::Wall,
        };
        let outcome = variant.run_opts(&instance, &cfg, opts);
        let cause = cancel.cause();
        match cause {
            Some(StopCause::Cancelled) => shared.metrics.counter_add(names::JOBS_CANCELLED, 1),
            Some(StopCause::DeadlineExceeded) => {
                shared.metrics.counter_add(names::JOBS_DEADLINE_EXCEEDED, 1);
                shared
                    .events
                    .event(SearchEvent::JobDeadlineExceeded { job: id });
            }
            Some(StopCause::IterationLimit) | None => {}
        }
        // Deposit the front as the instance's solution pool (keyed by its
        // canonical serialization) so a later dynamic job on the same
        // content warm-starts from it instead of constructing cold.
        let pool: Vec<vrptw::Solution> =
            outcome.archive.iter().map(|e| e.solution.clone()).collect();
        if !pool.is_empty() {
            shared
                .cache
                .pool_put(&vrptw::solomon::write(&instance), pool);
        }
        let result = job_result(&outcome, cause);
        shared.metrics.counter_add(names::JOBS_COMPLETED, 1);
        shared.metrics.observe(
            names::JOB_LATENCY_MS,
            submitted.elapsed().as_secs_f64() * 1000.0,
        );
        shared.events.event(SearchEvent::JobCompleted {
            job: id,
            iterations: result.iterations,
            truncated: result.truncated,
        });
        shared
            .jobs
            .with_job(id, |j| j.state = JobState::Done(result));
    }
}

/// Runs one portfolio race: builds the named contenders with the spec's
/// sizing, races them on slices of `spec.max_evaluations` under the job's
/// cancel token, and deposits the stage-two merged front as the
/// instance's solution pool (a later dynamic or portfolio job on the same
/// content warm-starts from it). The race's events and counters flow
/// through the job's recorder, so a `record_events` portfolio job can be
/// tailed round by round.
#[allow(clippy::too_many_arguments)]
fn run_portfolio_job(
    shared: &Shared,
    id: u64,
    pp: &PortfolioParams,
    spec: &JobSpec,
    instance: &Arc<vrptw::Instance>,
    recorder: Arc<dyn Recorder>,
    cancel: &CancelToken,
    submitted: std::time::Instant,
) {
    let params = tsmo_portfolio::RaceParams {
        neighborhood_size: spec.neighborhood_size.max(2),
        processors: spec.processors.max(1),
        ..tsmo_portfolio::RaceParams::default()
    };
    let contenders: Vec<_> = pp
        .algos
        .iter()
        .filter_map(|name| tsmo_portfolio::contender(name, &params))
        .collect();
    if contenders.len() != pp.algos.len() {
        // Validated at submit; defensive for future wire changes.
        shared.jobs.with_job(id, |j| {
            j.state = JobState::Failed("unknown portfolio algorithm".to_string());
        });
        return;
    }
    let cfg = tsmo_portfolio::PortfolioConfig {
        rounds: pp.rounds,
        total_evaluations: spec.max_evaluations,
        seed: spec.seed,
        floor: pp.floor,
        eta: pp.eta,
        softmax_beta: pp.softmax_beta,
        retire_after: pp.retire_after,
        ..tsmo_portfolio::PortfolioConfig::default()
    };
    let outcome =
        tsmo_portfolio::Portfolio::new(cfg).run(instance, contenders, recorder, cancel.clone());
    let pool: Vec<vrptw::Solution> = outcome.merged.iter().map(|e| e.solution.clone()).collect();
    if !pool.is_empty() {
        shared
            .cache
            .pool_put(&vrptw::solomon::write(instance), pool);
    }
    let cause = cancel.cause();
    match cause {
        Some(StopCause::Cancelled) => shared.metrics.counter_add(names::JOBS_CANCELLED, 1),
        Some(StopCause::DeadlineExceeded) => {
            shared.metrics.counter_add(names::JOBS_DEADLINE_EXCEEDED, 1);
            shared
                .events
                .event(SearchEvent::JobDeadlineExceeded { job: id });
        }
        Some(StopCause::IterationLimit) | None => {}
    }
    let result = portfolio_job_result(&outcome, cause);
    shared.metrics.counter_add(names::JOBS_COMPLETED, 1);
    shared.metrics.observe(
        names::JOB_LATENCY_MS,
        submitted.elapsed().as_secs_f64() * 1000.0,
    );
    shared.events.event(SearchEvent::JobCompleted {
        job: id,
        iterations: result.iterations,
        truncated: result.truncated,
    });
    shared
        .jobs
        .with_job(id, |j| j.state = JobState::Done(result));
}

/// Runs one dynamic re-optimization job: regenerates the scenario script
/// from `(instance, script_seed)`, reads the cache's solution pool for
/// the base instance (epoch 0's warm start, when warm), runs the epochs
/// via [`tsmo_scenario::run_dynamic`], and deposits every epoch's front
/// back into the cache under the mutated instance's canonical text.
#[allow(clippy::too_many_arguments)]
fn run_dynamic_job(
    shared: &Shared,
    id: u64,
    dp: &DynamicParams,
    variant: ParallelVariant,
    cfg: TsmoConfig,
    instance: &Arc<vrptw::Instance>,
    recorder: Arc<dyn Recorder>,
    cancel: &CancelToken,
    submitted: std::time::Instant,
) {
    let script = tsmo_scenario::ScenarioScript::generate(
        instance,
        dp.script_seed,
        dp.epochs,
        dp.mutations_per_epoch.max(1),
    );
    let initial_pool = if dp.warm {
        shared.cache.pool_get(&vrptw::solomon::write(instance))
    } else {
        Vec::new()
    };
    let mut dc = tsmo_scenario::DynamicConfig::new(variant, cfg);
    dc.warm = dp.warm;
    let epochs = tsmo_scenario::run_dynamic(
        instance,
        &script,
        &dc,
        initial_pool,
        recorder,
        cancel.clone(),
    );
    for (e, inst) in epochs.iter().zip(script.instances(instance).iter()) {
        let pool: Vec<vrptw::Solution> = e
            .outcome
            .archive
            .iter()
            .map(|en| en.solution.clone())
            .collect();
        if !pool.is_empty() {
            shared.cache.pool_put(&vrptw::solomon::write(inst), pool);
        }
    }
    let cause = cancel.cause();
    match cause {
        Some(StopCause::Cancelled) => shared.metrics.counter_add(names::JOBS_CANCELLED, 1),
        Some(StopCause::DeadlineExceeded) => {
            shared.metrics.counter_add(names::JOBS_DEADLINE_EXCEEDED, 1);
            shared
                .events
                .event(SearchEvent::JobDeadlineExceeded { job: id });
        }
        Some(StopCause::IterationLimit) | None => {}
    }
    let result = dynamic_job_result(&epochs, cause);
    shared.metrics.counter_add(names::JOBS_COMPLETED, 1);
    shared.metrics.observe(
        names::JOB_LATENCY_MS,
        submitted.elapsed().as_secs_f64() * 1000.0,
    );
    shared.events.event(SearchEvent::JobCompleted {
        job: id,
        iterations: result.iterations,
        truncated: result.truncated,
    });
    shared
        .jobs
        .with_job(id, |j| j.state = JobState::Done(result));
}
