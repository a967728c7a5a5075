//! tsmobench: one benchmark for the TSMO suite's search, serving and mesh
//! paths, with an outside-in per-layer trace.
//!
//! Every workload generates its inputs from one seed, runs closed-loop
//! operations against the library's public API for a fixed time, verifies
//! every front it gets back, and reports end-to-end metrics. A traced run
//! (`--trace 1`) reports per-layer metrics instead, measured by timing
//! calls into each layer from outside; no library code is instrumented
//! for it. See `README.md` for the workloads, metrics and the map between
//! them.

pub mod alloc;
pub mod driver;
pub mod report;
pub mod search;
pub mod serve;
pub mod verify;
pub mod workload;

use report::{median, metric, peak_rss_mb, percentile, ratio, sorted, tail_mean, Metric, Report};
use search::Probe;
use std::time::Instant;
use workload::{GenerationTimes, Workload};

/// Command-line settings shared by all workloads.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Runs one workload in this process.
pub fn run(workload: Workload, opts: &Options) -> Result<Report, String> {
    match workload {
        Workload::SearchR1 | Workload::SearchC2 | Workload::SearchAsyncC2 => {
            search::run(workload, opts)
        }
        Workload::ServeSmall | Workload::ServeMesh => serve::run(workload, opts),
    }
}

/// How often set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Sets up `SETUP_REPEATS` times, tearing down all but the last state, and
/// returns that state with the median set-up time in seconds.
pub fn repeated_setup<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = state.take() {
            tear_down(previous);
        }
        let started = Instant::now();
        state = Some(set_up()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((state.expect("set up at least once"), median(&times)))
}

/// The end-to-end metrics, in `BENCHMARK.json` order. A job is one
/// request a user waits for: a whole solve on the search workloads, a
/// submitted job on the serve workloads. The tail is the mean of the
/// slowest tenth of the jobs: job latencies are multimodal (whole mesh
/// poll intervals, delayed-ACK stalls), and a percentile jumps between
/// modes from run to run where the tail mean moves with the share of
/// slow jobs.
pub fn end_to_end(
    setup_s: f64,
    evals_per_s: f64,
    front_hv: f64,
    latencies_ms: &[f64],
) -> Vec<Metric> {
    let lat = sorted(latencies_ms);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("evals_per_s", evals_per_s, "1/s"),
        metric("front_hv", front_hv, "ratio"),
        metric("job_p50_ms", percentile(&lat, 50.0), "ms"),
        metric("job_tail_ms", tail_mean(&lat), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Per-layer values that only some workloads produce; a workload that
/// bypasses a layer reports 0 for it.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Traced against untraced evaluations per second, in percent.
    pub overhead_pct: f64,
    /// `deme`: mean busy fraction of the asynchronous worker.
    pub worker_busy_fraction: f64,
    /// `deme`: neighbors considered after their iteration / all considered.
    pub stale_neighbor_ratio: f64,
    /// `deme`: tasks the supervisor resent.
    pub tasks_resent: f64,
    /// `server`: submit round trip, p50, ms.
    pub submit_ms_p50: f64,
    /// `server`: result fetch round trip, p50, ms.
    pub result_ms_p50: f64,
    /// `server`: submit answered to first seen running, p50, ms.
    pub queue_wait_ms_p50: f64,
    /// `server`: as above, p90.
    pub queue_wait_ms_p90: f64,
    /// `server`: first seen running to first seen done, p50, ms.
    pub run_ms_p50: f64,
    /// `server`: status requests per job.
    pub status_polls_per_job: f64,
    /// `server`: instance-cache hits / admissions.
    pub cache_hit_ratio: f64,
    /// `server`: `QueueFull` refusals.
    pub jobs_rejected: f64,
    /// `cluster`: mesh run p50 minus in-process collaborative p50, ms.
    pub run_overhead_ms_p50: f64,
    /// `cluster`: exchanges sent per completed job.
    pub exchanges_per_job: f64,
    /// `cluster`: mean peer round trip, ms.
    pub peer_rtt_ms_mean: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(
    p: &Probe,
    generation: GenerationTimes,
    instances: usize,
    l: &Layers,
) -> Vec<Metric> {
    let c = &p.counts;
    let t = &p.times;
    let neighbors = c.neighbors as f64;
    let solves = p.solves as f64;
    let per_instance_ms = |s: f64| 1e3 * s / instances as f64;
    vec![
        metric(
            "operators.draws_per_neighbor",
            ratio(c.draws as f64, neighbors),
            "count",
        ),
        metric(
            "operators.draw_fail_ratio",
            ratio(c.failed_draws as f64, c.draws as f64),
            "ratio",
        ),
        metric(
            "operators.sample_ns_per_draw",
            1e9 * ratio(t.sample, c.draws as f64),
            "ns",
        ),
        metric(
            "operators.sample_share",
            ratio(t.sample, t.total - t.replay),
            "ratio",
        ),
        metric(
            "operators.arc_delta_ns",
            1e9 * ratio(t.replay_arc_delta, neighbors),
            "ns",
        ),
        metric(
            "vrptw.expand_ns",
            1e9 * ratio(t.replay_expand, neighbors),
            "ns",
        ),
        metric(
            "vrptw.preview_ns",
            1e9 * ratio(t.replay_preview, neighbors),
            "ns",
        ),
        metric(
            "vrptw.sites_resimulated_per_neighbor",
            ratio(c.sites_resimulated as f64, neighbors),
            "count",
        ),
        metric(
            "core.materialize_ns_per_neighbor",
            1e9 * ratio(t.materialize, neighbors),
            "ns",
        ),
        metric(
            "core.materialized_sites_per_neighbor",
            ratio(c.materialized_sites as f64, neighbors),
            "count",
        ),
        metric(
            "core.neighbor_arcs_ns_per_neighbor",
            1e9 * ratio(t.neighbor_arcs, neighbors),
            "ns",
        ),
        metric(
            "core.allocs_per_neighbor",
            ratio(c.allocations as f64, neighbors),
            "count",
        ),
        metric(
            "core.step_us_per_iter",
            1e6 * ratio(t.step, c.iterations as f64),
            "us",
        ),
        metric("core.step.tabu_s", ratio(t.step_tabu, solves), "s"),
        metric("core.step.select_s", ratio(t.step_select, solves), "s"),
        metric("core.step.archive_s", ratio(t.step_archive, solves), "s"),
        metric(
            "core.iterations",
            ratio(c.iterations as f64, solves),
            "count",
        ),
        metric("core.restarts", ratio(c.restarts as f64, solves), "count"),
        metric("construct.i1_ms", per_instance_ms(generation.i1_s), "ms"),
        metric(
            "scenario.generate_ms",
            per_instance_ms(generation.generate_s),
            "ms",
        ),
        metric("trace.overhead_pct", l.overhead_pct, "%"),
        metric("deme.worker_busy_fraction", l.worker_busy_fraction, "ratio"),
        metric("deme.stale_neighbor_ratio", l.stale_neighbor_ratio, "ratio"),
        metric("deme.tasks_resent", l.tasks_resent, "count"),
        metric("server.submit_ms_p50", l.submit_ms_p50, "ms"),
        metric("server.result_ms_p50", l.result_ms_p50, "ms"),
        metric("server.queue_wait_ms_p50", l.queue_wait_ms_p50, "ms"),
        metric("server.queue_wait_ms_p90", l.queue_wait_ms_p90, "ms"),
        metric("server.run_ms_p50", l.run_ms_p50, "ms"),
        metric(
            "server.status_polls_per_job",
            l.status_polls_per_job,
            "count",
        ),
        metric("server.cache_hit_ratio", l.cache_hit_ratio, "ratio"),
        metric("server.jobs_rejected", l.jobs_rejected, "count"),
        metric("cluster.run_overhead_ms_p50", l.run_overhead_ms_p50, "ms"),
        metric("cluster.exchanges_per_job", l.exchanges_per_job, "count"),
        metric("cluster.peer_rtt_ms_mean", l.peer_rtt_ms_mean, "ms"),
    ]
}

/// The replayed metrics, named in every traced report.
pub const REPLAYED: &str = "operators.arc_delta_ns, vrptw.expand_ns and vrptw.preview_ns are \
                            replayed: timed by a second call on each accepted candidate";
