//! Command-line client for the solver daemon.
//!
//! ```text
//! servectl --addr HOST:PORT health
//! servectl --addr HOST:PORT metrics [--json]
//! servectl --addr HOST:PORT top [--interval-ms MS] [--iterations N]
//! servectl --addr HOST:PORT submit FILE [--variant V] [--processors P]
//!          [--evals N] [--neighborhood N] [--seed S]
//!          [--deadline-ms D] [--max-iters I] [--record-events] [--wait SECONDS]
//! servectl --addr HOST:PORT submit-dynamic FILE [submit opts]
//!          [--script-seed S] [--epochs N] [--mutations M] [--cold]
//! servectl --addr HOST:PORT submit-portfolio FILE [submit opts]
//!          [--algos A,B,C] [--rounds R] [--floor F] [--eta E]
//!          [--beta B] [--retire-after K]
//! servectl --addr HOST:PORT status JOB
//! servectl --addr HOST:PORT cancel JOB
//! servectl --addr HOST:PORT result JOB
//! servectl --addr HOST:PORT tail JOB
//! servectl --addr HOST:PORT shutdown
//! ```
//!
//! The three submit subcommands send the same `Submit` request and differ
//! only in the job's mode: one search, dynamic re-optimization epochs, or
//! a portfolio race. Each prints the assigned job id; with `--wait` it
//! polls until the job is terminal and prints the result front. Exit code
//! 2 signals `QueueFull` backpressure so scripts can retry; a malformed
//! flag value prints the usage text and exits 1. `tail` streams a
//! `--record-events` job's span/timeline events live, one JSON line
//! each, until the job is terminal and the stream has drained.
//!
//! `metrics --json` prints the registry as mergeable JSON instead of the
//! prometheus exposition. `top` polls the registry and renders a live
//! summary — throughput, queue depth, per-operator acceptance rates, and
//! (against a mesh-fronting daemon) per-node liveness — every
//! `--interval-ms` until `--iterations` ticks have printed (0 = forever).

use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};
use tsmo_obs::metrics::names;
use tsmo_obs::MetricsRegistry;
use tsmo_serve::{Client, DynamicParams, JobMode, JobResult, JobSpec, PortfolioParams};

fn usage() -> ExitCode {
    eprintln!(
        "usage: servectl --addr HOST:PORT [--connect-timeout-ms MS] \
         (health | metrics [--json] | top [--interval-ms MS] [--iterations N] | \
         submit FILE [opts] | submit-dynamic FILE [opts] | \
         submit-portfolio FILE [opts] | status JOB | cancel JOB | result JOB | tail JOB | \
         shutdown)\n\
         submit opts: --variant sequential|synchronous|asynchronous|collaborative \
         --processors P --evals N --neighborhood N --seed S --deadline-ms D --max-iters I \
         --record-events --wait SECONDS\n\
         submit-dynamic opts: submit opts plus --script-seed S --epochs N --mutations M \
         --cold (cold-start every epoch; default warm-starts from the previous front)\n\
         submit-portfolio opts: submit opts plus --algos A,B,C (tsmo-seq|tsmo-sync|tsmo-async|\
         tsmo-collab|nsga2|spea2|paes) --rounds R --floor F --eta E --beta B --retire-after K"
    );
    ExitCode::FAILURE
}

fn print_result(job: u64, r: &JobResult) {
    println!(
        "job {job}: evaluations={} iterations={} truncated={} cause={}",
        r.evaluations,
        r.iterations,
        r.truncated,
        r.stop_cause.as_deref().unwrap_or("-")
    );
    for round in &r.rounds {
        println!(
            "  round {}: winner={} ({}) allocated={} spent={} retired={} coverage={:.3}",
            round.round,
            round.winner,
            round.winner_algo,
            round.allocated,
            round.spent,
            round.retired,
            round.best_coverage
        );
    }
    for e in &r.epochs {
        println!(
            "  epoch {}: customers={} mutations={} warm_seeds={} evaluations={} \
             front={} best_distance={:.2}",
            e.epoch,
            e.customers,
            e.mutations,
            e.warm_seeds,
            e.evaluations,
            e.front_size,
            e.best_distance
        );
    }
    for p in &r.front {
        println!(
            "  distance={:.2} vehicles={} tardiness={:.2} routes={}",
            p.objectives[0],
            p.objectives[1] as u64,
            p.objectives[2],
            p.routes.len()
        );
    }
}

/// Extracts the value of `label` from a sample name's label block, e.g.
/// `label_value("x{node=\"2\",operator=\"relocate\"}", "operator")` →
/// `Some("relocate")`.
fn label_value<'a>(name: &'a str, label: &str) -> Option<&'a str> {
    let needle = format!("{label}=\"");
    let start = name.find(&needle)? + needle.len();
    let end = name[start..].find('"')?;
    Some(&name[start..start + end])
}

/// Sums every counter of `family` that carries `operator="op"`,
/// collapsing any node labels a federated registry adds.
fn operator_total(registry: &MetricsRegistry, family: &str, op: &str) -> u64 {
    registry
        .counters()
        .filter(|(name, _)| name.starts_with(family) && label_value(name, "operator") == Some(op))
        .map(|(_, v)| v)
        .sum()
}

/// One rendered `top` tick. `prev` is the previous tick's completed-job
/// count and timestamp, for the jobs/s rate.
fn render_top(registry: &MetricsRegistry, prev: Option<(u64, Instant)>) -> (u64, Instant) {
    let completed = registry.counter(names::JOBS_COMPLETED);
    let now = Instant::now();
    let rate = match prev {
        Some((before, at)) => {
            let secs = now.duration_since(at).as_secs_f64();
            if secs > 0.0 {
                format!("{:.2}", (completed.saturating_sub(before)) as f64 / secs)
            } else {
                "-".to_string()
            }
        }
        None => "-".to_string(),
    };
    let depth = registry.gauge(names::QUEUE_DEPTH).unwrap_or(0.0);
    println!(
        "jobs completed={completed} rate={rate}/s queue_depth={depth:.0} evaluations={}",
        registry.counter(names::EVALUATIONS)
    );

    // Operators present anywhere in the registry (labeled samples may
    // also carry a node label in a federated view; collapse over it).
    let mut operators: Vec<String> = registry
        .counters()
        .filter(|(name, _)| name.starts_with(names::OPERATOR_PROPOSED))
        .filter_map(|(name, _)| label_value(name, "operator").map(str::to_string))
        .collect();
    operators.sort();
    operators.dedup();
    for op in &operators {
        let proposed = operator_total(registry, names::OPERATOR_PROPOSED, op);
        let feasible = operator_total(registry, names::OPERATOR_FEASIBLE, op);
        let accepted = operator_total(registry, names::OPERATOR_ACCEPTED, op);
        let improving = operator_total(registry, names::OPERATOR_IMPROVING, op);
        let acceptance = if proposed > 0 {
            format!("{:.1}%", 100.0 * accepted as f64 / proposed as f64)
        } else {
            "-".to_string()
        };
        println!(
            "  op {op:<12} proposed={proposed} feasible={feasible} accepted={accepted} \
             improving={improving} acceptance={acceptance}"
        );
    }

    // Per-node liveness gauges appear when the daemon fronts a mesh.
    for (name, value) in registry.gauges() {
        if name.starts_with("tsmo_node_up{") {
            if let Some(node) = label_value(name, "node") {
                let state = if value >= 1.0 { "up" } else { "DOWN" };
                println!("  node {node}: {state}");
            }
        }
    }
    (completed, now)
}

/// The `top` loop: poll, render, sleep. `iterations == 0` runs until
/// the process is killed or the daemon goes away.
fn top(client: &mut Client, interval: Duration, iterations: u64) -> std::io::Result<()> {
    let mut prev = None;
    let mut tick = 0u64;
    loop {
        let registry = MetricsRegistry::from_json(&client.metrics_json()?)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        println!("--- tick {tick} ---");
        prev = Some(render_top(&registry, prev));
        tick += 1;
        if iterations > 0 && tick >= iterations {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// The command line, with typed flag lookup: a flag whose value does not
/// parse is an error the caller reports with the usage text, not a panic.
struct Flags(Vec<String>);

impl Flags {
    /// Flags that take no value.
    const SWITCHES: [&'static str; 3] = ["--record-events", "--cold", "--json"];

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The value of `flag` parsed as `T`; `None` when the flag is absent.
    fn parse<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for {flag}"))
            })
            .transpose()
    }

    /// The arguments that are neither flags nor flag values.
    fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.0.len() {
            let arg = self.0[i].as_str();
            if arg.starts_with("--") {
                i += if Self::SWITCHES.contains(&arg) { 1 } else { 2 };
            } else {
                out.push(arg);
                i += 1;
            }
        }
        out
    }
}

/// The job the submit options describe (the instance text is filled in
/// once the file is read). The subcommand picks the [`JobMode`].
fn submit_spec(command: &str, flags: &Flags) -> Result<JobSpec, String> {
    let mode = match command {
        "submit-dynamic" => {
            let d = DynamicParams::default();
            JobMode::Dynamic(DynamicParams {
                script_seed: flags.parse("--script-seed")?.unwrap_or(d.script_seed),
                epochs: flags.parse("--epochs")?.unwrap_or(d.epochs),
                mutations_per_epoch: flags.parse("--mutations")?.unwrap_or(d.mutations_per_epoch),
                warm: !flags.has("--cold"),
            })
        }
        "submit-portfolio" => {
            let p = PortfolioParams::default();
            JobMode::Portfolio(PortfolioParams {
                algos: flags
                    .get("--algos")
                    .map_or(p.algos, |v| v.split(',').map(str::to_string).collect()),
                rounds: flags.parse("--rounds")?.unwrap_or(p.rounds),
                floor: flags.parse("--floor")?.unwrap_or(p.floor),
                eta: flags.parse("--eta")?.unwrap_or(p.eta),
                softmax_beta: flags.parse("--beta")?.unwrap_or(p.softmax_beta),
                retire_after: flags.parse("--retire-after")?.unwrap_or(p.retire_after),
            })
        }
        _ => JobMode::Search,
    };
    let d = JobSpec::default();
    Ok(JobSpec {
        instance_text: String::new(),
        variant: flags.get("--variant").map_or(d.variant, str::to_string),
        processors: flags.parse("--processors")?.unwrap_or(d.processors),
        max_evaluations: flags.parse("--evals")?.unwrap_or(d.max_evaluations),
        neighborhood_size: flags
            .parse("--neighborhood")?
            .unwrap_or(d.neighborhood_size),
        seed: flags.parse("--seed")?.unwrap_or(d.seed),
        deadline_ms: flags.parse("--deadline-ms")?,
        max_iterations: flags.parse("--max-iters")?,
        record_events: flags.has("--record-events"),
        mode,
    })
}

fn main() -> ExitCode {
    let flags = Flags(std::env::args().skip(1).collect());
    let Some(addr) = flags.get("--addr") else {
        return usage();
    };
    let positional = flags.positional();
    let Some(&command) = positional.first() else {
        return usage();
    };
    // Every flag value is parsed before connecting, so a malformed one
    // fails fast with the usage text.
    let parsed = (|| -> Result<_, String> {
        Ok((
            flags.parse("--connect-timeout-ms")?.unwrap_or(2_000),
            flags.parse("--interval-ms")?.unwrap_or(1_000),
            flags.parse("--iterations")?.unwrap_or(0),
            flags.parse::<u64>("--wait")?,
            submit_spec(command, &flags)?,
        ))
    })();
    let (connect_timeout_ms, interval_ms, iterations, wait_secs, spec) = match parsed {
        Ok(values) => values,
        Err(e) => {
            eprintln!("servectl: {e}");
            return usage();
        }
    };

    // A bounded connect (2 s default) so a downed daemon fails the command
    // promptly instead of hanging in the OS connect.
    let mut client = match Client::connect_timeout(addr, Duration::from_millis(connect_timeout_ms))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let job_arg = || -> Option<u64> { positional.get(1).and_then(|s| s.parse().ok()) };

    let outcome: std::io::Result<ExitCode> = (|| match command {
        "health" => {
            let (status, queued, running, workers) = client.health()?;
            println!("status={status} queued={queued} running={running} workers={workers}");
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            if flags.has("--json") {
                println!("{}", client.metrics_json()?);
            } else {
                print!("{}", client.metrics()?);
            }
            Ok(ExitCode::SUCCESS)
        }
        "top" => {
            top(&mut client, Duration::from_millis(interval_ms), iterations)?;
            Ok(ExitCode::SUCCESS)
        }
        "submit" | "submit-dynamic" | "submit-portfolio" => {
            let Some(file) = positional.get(1) else {
                return Ok(usage());
            };
            let instance_text = std::fs::read_to_string(file)
                .map_err(|e| std::io::Error::new(e.kind(), format!("cannot read {file:?}: {e}")))?;
            match client.submit(JobSpec {
                instance_text,
                ..spec
            })? {
                Ok(job) => {
                    println!("submitted job {job}");
                    if let Some(secs) = wait_secs {
                        let r = client.wait_result(job, Duration::from_secs(secs))?;
                        print_result(job, &r);
                    }
                    Ok(ExitCode::SUCCESS)
                }
                Err(capacity) => {
                    eprintln!("queue full (capacity {capacity}); retry later");
                    Ok(ExitCode::from(2))
                }
            }
        }
        "status" => {
            let Some(job) = job_arg() else {
                return Ok(usage());
            };
            println!("job {job}: {}", client.status(job)?);
            Ok(ExitCode::SUCCESS)
        }
        "cancel" => {
            let Some(job) = job_arg() else {
                return Ok(usage());
            };
            client.cancel(job)?;
            println!("cancel requested for job {job}");
            Ok(ExitCode::SUCCESS)
        }
        "result" => {
            let Some(job) = job_arg() else {
                return Ok(usage());
            };
            let r = client.result(job)?;
            print_result(job, &r);
            Ok(ExitCode::SUCCESS)
        }
        "tail" => {
            let Some(job) = job_arg() else {
                return Ok(usage());
            };
            let events = client.tail(job, |line| println!("{line}"))?;
            eprintln!("job {job}: {events} events streamed");
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            let completed = client.shutdown()?;
            println!("daemon drained and stopped after {completed} jobs");
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    })();

    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{command} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
