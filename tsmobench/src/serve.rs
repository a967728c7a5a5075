//! The serve workloads: two closed-loop clients, each on its own
//! connection, submitting jobs to an in-process `Server` and blocking on
//! each result before the next submission.

use crate::report::{median, percentile, ratio, sorted, Report};
use crate::search::probe;
use crate::verify::{check_front, from_entries, from_points, Tally};
use crate::workload::{derive, inputs, GenerationTimes, Input, Workload};
use crate::{end_to_end, layer_metrics, repeated_setup, Layers, Options, REPLAYED};
use std::time::{Duration, Instant};
use tsmo_cluster::{NodeConfig, Noded};
use tsmo_core::{ParallelVariant, TsmoConfig};
use tsmo_obs::metrics::names;
use tsmo_obs::MetricsRegistry;
use tsmo_serve::{Client, JobSpec, Server, ServerConfig};

/// Concurrent clients (and connections): the host has 2 cores.
pub const CLIENTS: usize = 2;
/// Server queue capacity.
const QUEUE: usize = 8;
/// Longest a single job may take before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Status polling interval of a traced job.
const POLL: Duration = Duration::from_millis(1);
/// In-process collaborative runs the mesh overhead is measured against.
const MESH_REFERENCE_RUNS: usize = 10;

/// What jobs a serve workload submits and what serves them.
struct Shape {
    variant: &'static str,
    processors: usize,
    evaluations: u64,
    neighborhood: usize,
    workers: usize,
    nodes: usize,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        Workload::ServeMesh => Shape {
            variant: "collaborative",
            processors: 2,
            // Each searcher finishes well inside the mesh runner's first
            // 50 ms completion poll, so a job costs the mesh's fixed
            // overhead; longer searches straddle poll boundaries and their
            // latency jumps by whole intervals with machine speed.
            evaluations: 600,
            neighborhood: 50,
            // Mesh jobs hold every node; a second worker would only race.
            workers: 1,
            nodes: 2,
        },
        _ => Shape {
            variant: "sequential",
            processors: 1,
            evaluations: 1_000,
            neighborhood: 50,
            workers: 2,
            nodes: 0,
        },
    }
}

impl Shape {
    fn spec(&self, input: &Input, seed: u64) -> JobSpec {
        JobSpec {
            instance_text: input.text.clone(),
            variant: self.variant.to_string(),
            processors: self.processors,
            max_evaluations: self.evaluations,
            neighborhood_size: self.neighborhood,
            seed,
            ..JobSpec::default()
        }
    }

    /// Evaluations a job must consume: every searcher has its own budget.
    fn budget(&self) -> u64 {
        let searchers = match (self.variant, self.nodes) {
            ("sequential", _) => 1,
            (_, 0) => self.processors,
            (_, nodes) => self.processors.div_ceil(nodes).max(1) * nodes,
        };
        self.evaluations * searchers as u64
    }

    /// One searcher's configuration, as the server builds it.
    fn config(&self, seed: u64) -> TsmoConfig {
        TsmoConfig {
            max_evaluations: self.evaluations,
            neighborhood_size: self.neighborhood,
            ..TsmoConfig::default()
        }
        .with_seed(seed)
    }
}

/// The spec of client `client`'s `job`-th job, and its input. Clients
/// rotate over the workload's instances, so after set-up every admission
/// hits the cache.
pub fn job_spec(
    workload: Workload,
    inputs: &[Input],
    seed: u64,
    client: usize,
    job: usize,
) -> (JobSpec, &Input) {
    let input = &inputs[(client + job) % inputs.len()];
    let seed = derive(seed, 1_000 * (client as u64 + 1) + job as u64);
    (shape(workload).spec(input, seed), input)
}

/// The daemons of one set-up.
struct Daemon {
    server: Server,
    nodes: Vec<Noded>,
}

impl Daemon {
    fn start(shape: &Shape) -> Result<Daemon, String> {
        let mut nodes = Vec::with_capacity(shape.nodes);
        for _ in 0..shape.nodes {
            match Noded::start(NodeConfig::default()) {
                Ok(node) => nodes.push(node),
                Err(e) => {
                    nodes.into_iter().for_each(Noded::halt);
                    return Err(format!("start node: {e}"));
                }
            }
        }
        let mesh =
            (!nodes.is_empty()).then(|| nodes.iter().map(|n| n.local_addr().to_string()).collect());
        match Server::start(ServerConfig {
            workers: shape.workers,
            queue_capacity: QUEUE,
            mesh,
            ..ServerConfig::default()
        }) {
            Ok(server) => Ok(Daemon { server, nodes }),
            Err(e) => {
                nodes.into_iter().for_each(Noded::halt);
                Err(format!("start server: {e}"))
            }
        }
    }

    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Drains the server, then stops the nodes; joins their threads.
    fn stop(self) {
        self.server.shutdown();
        self.nodes.into_iter().for_each(Noded::halt);
    }
}

/// Submit-to-result phases of one traced job, in ms.
#[derive(Debug, Clone, Copy)]
struct Phases {
    submit: f64,
    queue_wait: f64,
    run: f64,
    result: f64,
    polls: u64,
}

/// One completed, verified job.
struct Job {
    latency_ms: f64,
    evaluations: u64,
    hypervolume: f64,
    phases: Option<Phases>,
}

enum JobError {
    /// No output: refused, failed, timed out, or a transport error.
    Refused(String),
    /// An output that did not verify.
    Wrong(String),
}

fn refused(what: &str) -> impl Fn(std::io::Error) -> JobError + '_ {
    move |e| JobError::Refused(format!("{what}: {e}"))
}

/// Submits one job and blocks until its result: through
/// `Client::wait_result`, or, traced, by polling `status` every
/// millisecond to timestamp the queued → running → done transitions.
fn one_job(
    client: &mut Client,
    spec: JobSpec,
    input: &Input,
    budget: u64,
    traced: bool,
) -> Result<Job, JobError> {
    let started = Instant::now();
    let id = match client.submit(spec).map_err(refused("submit"))? {
        Ok(id) => id,
        Err(capacity) => return Err(JobError::Refused(format!("queue full ({capacity})"))),
    };
    let submitted = Instant::now();
    let (result, phases) = if traced {
        let mut polls = 0;
        let mut running = None;
        let done = loop {
            let state = client.status(id).map_err(refused("status"))?;
            polls += 1;
            let now = Instant::now();
            match state.as_str() {
                "done" => break now,
                "failed" => return Err(JobError::Refused(format!("job {id} failed"))),
                "running" => {
                    running.get_or_insert(now);
                }
                _ => {}
            }
            if now - submitted > JOB_TIMEOUT {
                return Err(JobError::Refused(format!("job {id} timed out")));
            }
            std::thread::sleep(POLL);
        };
        let result = client.result(id).map_err(refused("result"))?;
        let running = running.unwrap_or(done);
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        let phases = Phases {
            submit: ms(started, submitted),
            queue_wait: ms(submitted, running),
            run: ms(running, done),
            result: ms(done, Instant::now()),
            polls,
        };
        (result, Some(phases))
    } else {
        let result = client
            .wait_result(id, JOB_TIMEOUT)
            .map_err(refused("wait"))?;
        (result, None)
    };
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let front = from_points(&result.front);
    check_front(&input.inst, &front, result.evaluations, budget).map_err(JobError::Wrong)?;
    let vectors: Vec<[f64; 3]> = front.iter().map(|m| m.objectives).collect();
    Ok(Job {
        latency_ms,
        evaluations: result.evaluations,
        hypervolume: input.normalized_hypervolume(&vectors),
        phases,
    })
}

/// Jobs of one load phase, all clients joined.
#[derive(Default)]
struct Load {
    tally: Tally,
    jobs: Vec<Job>,
    wall: f64,
}

impl Load {
    fn evals_per_s(&self) -> f64 {
        ratio(
            self.jobs.iter().map(|j| j.evaluations as f64).sum(),
            self.wall,
        )
    }

    fn phase(&self, pick: impl Fn(&Phases) -> f64) -> Vec<f64> {
        sorted(
            &self
                .jobs
                .iter()
                .filter_map(|j| j.phases.as_ref().map(&pick))
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs the closed loop of every client until `deadline`.
fn load(
    addr: &str,
    workload: Workload,
    inputs: &[Input],
    seed: u64,
    deadline: Instant,
    traced: bool,
) -> Load {
    let budget = shape(workload).budget();
    let started = Instant::now();
    let per_client: Vec<(Tally, Vec<Job>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut jobs = Vec::new();
                    let mut client: Option<Client> = None;
                    let mut j = 0;
                    while Instant::now() < deadline {
                        let (spec, input) = job_spec(workload, inputs, seed, c, j);
                        j += 1;
                        if client.is_none() {
                            match Client::connect(addr) {
                                Ok(conn) => client = Some(conn),
                                Err(e) => {
                                    tally.refused(format!("connect: {e}"));
                                    continue;
                                }
                            }
                        }
                        let conn = client.as_mut().expect("connected above");
                        match one_job(conn, spec, input, budget, traced) {
                            Ok(job) => {
                                tally.verified(Ok(()));
                                jobs.push(job);
                            }
                            Err(JobError::Wrong(m)) => tally.verified(Err(m)),
                            Err(JobError::Refused(m)) => {
                                tally.refused(m);
                                client = None;
                            }
                        }
                    }
                    (tally, jobs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let mut out = Load {
        wall: started.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for (tally, jobs) in per_client {
        out.tally.merge(tally);
        out.jobs.extend(jobs);
    }
    out
}

/// Generates the inputs, starts the daemons, and runs one job per input
/// so the instance cache holds every instance before timing starts.
fn set_up(workload: Workload, seed: u64) -> Result<(Vec<Input>, GenerationTimes, Daemon), String> {
    let s = shape(workload);
    let (inputs, generation) = inputs(workload, seed);
    let daemon = Daemon::start(&s)?;
    let warm = Client::connect(daemon.addr())
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut client| {
            for (k, input) in inputs.iter().enumerate() {
                let spec = s.spec(input, derive(seed, 50 + k as u64));
                match one_job(&mut client, spec, input, s.budget(), false) {
                    Ok(_) => {}
                    Err(JobError::Refused(m) | JobError::Wrong(m)) => {
                        return Err(format!("warm-up job: {m}"))
                    }
                }
            }
            Ok(())
        });
    match warm {
        Ok(()) => Ok((inputs, generation, daemon)),
        Err(e) => {
            daemon.stop();
            Err(e)
        }
    }
}

/// Runs a serve workload.
pub fn run(workload: Workload, opts: &Options) -> Result<Report, String> {
    let ((inputs, generation, daemon), setup_s) =
        repeated_setup(|| set_up(workload, opts.seed), |(_, _, d)| d.stop())?;
    let addr = daemon.addr();
    let started = Instant::now();
    let at = |share: f64| started + Duration::from_secs_f64(opts.seconds * share);
    let report = if opts.trace {
        traced(
            workload,
            opts,
            &inputs,
            generation,
            &addr,
            at(0.4),
            at(0.8),
            at(1.0),
        )
    } else {
        let l = load(&addr, workload, &inputs, opts.seed, at(1.0), false);
        let latencies: Vec<f64> = l.jobs.iter().map(|j| j.latency_ms).collect();
        let hv = l.jobs.iter().map(|j| j.hypervolume).sum::<f64>() / l.jobs.len().max(1) as f64;
        Report {
            correct: l.tally.wrong == 0,
            metrics: end_to_end(setup_s, l.evals_per_s(), hv, &latencies),
            notes: vec![format!(
                "{} jobs ({:.1}/s) from {CLIENTS} closed-loop clients in {:.1} s; the tail \
                 averages the slowest {}",
                l.jobs.len(),
                ratio(l.jobs.len() as f64, l.wall),
                l.wall,
                l.jobs.len().div_ceil(10)
            )],
            tally: l.tally,
        }
    };
    daemon.stop();
    Ok(report)
}

/// The traced run: an untraced load phase until `untraced_end`, a polled
/// one until `traced_end`, then the outside-in driver on the jobs' search
/// until `end` (and, on the mesh, the in-process reference runs).
#[allow(clippy::too_many_arguments)]
fn traced(
    workload: Workload,
    opts: &Options,
    inputs: &[Input],
    generation: GenerationTimes,
    addr: &str,
    untraced_end: Instant,
    traced_end: Instant,
    end: Instant,
) -> Report {
    let s = shape(workload);
    let plain = load(addr, workload, inputs, opts.seed, untraced_end, false);
    let polled = load(addr, workload, inputs, opts.seed, traced_end, true);
    let mut tally = plain.tally.clone();
    tally.merge(polled.tally.clone());
    let mut notes = vec![format!(
        "{} untraced then {} polled jobs; server.* from the polled ones",
        plain.jobs.len(),
        polled.jobs.len()
    )];
    let queue_wait = polled.phase(|p| p.queue_wait);
    let mut layers = Layers {
        overhead_pct: 100.0 * (1.0 - ratio(polled.evals_per_s(), plain.evals_per_s())),
        submit_ms_p50: median(&polled.phase(|p| p.submit)),
        result_ms_p50: median(&polled.phase(|p| p.result)),
        queue_wait_ms_p50: percentile(&queue_wait, 50.0),
        queue_wait_ms_p90: percentile(&queue_wait, 90.0),
        run_ms_p50: median(&polled.phase(|p| p.run)),
        status_polls_per_job: ratio(
            polled.phase(|p| p.polls as f64).iter().sum(),
            polled.jobs.len() as f64,
        ),
        ..Layers::default()
    };
    match Client::connect(addr).and_then(|mut c| c.metrics_json()) {
        Ok(text) => match MetricsRegistry::from_json(&text) {
            Ok(m) => registry_layers(&m, s.nodes, &mut layers),
            Err(e) => tally.refused(format!("metrics: {e}")),
        },
        Err(e) => tally.refused(format!("metrics: {e}")),
    }
    if s.nodes > 0 {
        // The same specs run in-process with the collaborative variant.
        let v = ParallelVariant::Collaborative(s.processors);
        let mut ms = Vec::with_capacity(MESH_REFERENCE_RUNS);
        for j in 0..MESH_REFERENCE_RUNS {
            let input = &inputs[j % inputs.len()];
            let cfg = s.config(derive(opts.seed, 1_000 + j as u64));
            let t = Instant::now();
            let out = v.run(&input.inst, &cfg);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.verified(check_front(
                &input.inst,
                &from_entries(&out.archive),
                out.evaluations,
                s.budget(),
            ));
        }
        layers.run_overhead_ms_p50 = layers.run_ms_p50 - median(&ms);
        notes.push(format!(
            "cluster.run_overhead_ms_p50 against {MESH_REFERENCE_RUNS} in-process {:?} runs",
            v
        ));
    }
    let p = probe(
        inputs,
        |i| s.config(derive(opts.seed, 2_000 + i as u64)),
        end,
        inputs.len(),
        &mut tally,
    );
    notes.push(format!(
        "{} driven solves of one searcher's job configuration",
        p.solves
    ));
    notes.push(REPLAYED.to_string());
    if let Some(m) = &p.mismatch {
        tally.messages.push(m.clone());
    }
    Report {
        correct: tally.wrong == 0 && p.mismatch.is_none(),
        metrics: layer_metrics(&p, generation, inputs.len(), &layers),
        notes,
        tally,
    }
}

/// Reads the cache, refusal and (federated) mesh counters of the server's
/// `/metrics` registry.
fn registry_layers(m: &MetricsRegistry, nodes: usize, layers: &mut Layers) {
    let hits = m.counter(names::INSTANCE_CACHE_HITS) as f64;
    let misses = m.counter(names::INSTANCE_CACHE_MISSES) as f64;
    layers.cache_hit_ratio = ratio(hits, hits + misses);
    layers.jobs_rejected = m.counter(names::JOBS_REJECTED) as f64;
    let node = |name: &str, k: usize| format!("{name}{{node=\"{k}\"}}");
    let sent: u64 = (0..nodes)
        .map(|k| m.counter(&node(names::EXCHANGES_SENT, k)))
        .sum();
    layers.exchanges_per_job = ratio(sent as f64, m.counter(names::JOBS_COMPLETED) as f64);
    let (sum, count) = (0..nodes)
        .filter_map(|k| m.histogram(&node(names::PEER_RTT_MS, k)))
        .fold((0.0, 0u64), |(s, c), h| (s + h.sum, c + h.count));
    layers.peer_rtt_ms_mean = ratio(sum, count as f64);
}
