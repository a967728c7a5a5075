//! `clusterctl` — bootstrap a mesh, run a distributed search, merge fronts.
//!
//! ```text
//! # distributed, against running noded daemons:
//! clusterctl INSTANCE.txt --peers 127.0.0.1:4001,127.0.0.1:4002,127.0.0.1:4003 \
//!     [--searchers 2] [--evals 20000] [--neighborhood 50] [--stagnation 100] \
//!     [--seed 1] [--fault-rate 0] [--fault-seed 7] [--connect-timeout-ms 2000] \
//!     [--wait-ms 300000] [--require-exchanges] [--shutdown]
//!
//! # deterministic single-process virtual mesh (record, then verifying
//! # replay), optionally with scripted churn and ring replication:
//! clusterctl INSTANCE.txt --virtual-net 3 [--searchers 2] [...] \
//!     [--churn kill:2@20,join:2@42] [--replication-every N]
//!
//! # assemble one causally-ordered trace from the nodes' last mesh job:
//! clusterctl trace-merge --peers 127.0.0.1:4001,127.0.0.1:4002,127.0.0.1:4003 \
//!     [--out trace.jsonl] [--connect-timeout-ms 2000]
//! ```
//!
//! Exits non-zero when the merged front is empty or fails
//! `tsmo_core::verify_front` (an invalid entry, an objective that does
//! not re-simulate, or a dominated entry), when `--require-exchanges`
//! finds a node with a zero `tsmo_exchanges_received_total`, when a
//! `--virtual-net` replay diverges from its recording, or when
//! `trace-merge` finds the nodes disagreeing on the run's trace id — so CI
//! can assert the distributed semantics by running this binary alone.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use tsmo_cluster::mesh::{self, prometheus_counter};
use tsmo_cluster::{
    front_fingerprint, replay_elastic, run_elastic, ElasticMeshConfig, MeshJob, NetRecord,
};
use tsmo_core::{verify_front, FrontEntry, TsmoConfig};
use tsmo_faults::{FaultConfig, FaultHook, FaultPlan};
use tsmo_obs::metrics::names;
use tsmo_obs::{parse_events_jsonl, MemoryRecorder, Recorder, SearchEvent, TimedEvent};
use vrptw::Instance;

fn usage() -> ExitCode {
    eprintln!(
        "usage: clusterctl INSTANCE.txt (--peers A,B,... | --virtual-net N) \
         [--searchers S] [--evals E] [--neighborhood H] [--stagnation L] [--seed S] \
         [--fault-rate R] [--fault-seed S] [--connect-timeout-ms MS] [--wait-ms MS] \
         [--require-exchanges] [--shutdown]\n\
         \x20      virtual-net only: [--churn kill:2@20,join:2@42] [--replication-every N] \
         [--events-out FILE] [--require-recovered]\n\
         \x20      clusterctl trace-merge --peers A,B,... [--out FILE] [--allow-partial] \
         [--connect-timeout-ms MS]\n\
         \x20      clusterctl metrics-merge --peers A,B,... [--out FILE] [--allow-partial] \
         [--connect-timeout-ms MS]\n\
         \x20      clusterctl members --peer ADDR\n\
         \x20      clusterctl join --peer COORD --addr NEW_NODE\n\
         \x20      clusterctl leave --peer COORD --node K"
    );
    ExitCode::FAILURE
}

/// The value following `flag`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The integer value of `flag` (`default` when absent); a malformed value
/// is reported and becomes the exit code.
fn num_flag(args: &[String], flag: &str, default: u64) -> Result<u64, ExitCode> {
    match flag_value(args, flag).map(|v| v.parse()) {
        Some(Ok(n)) => Ok(n),
        None => Ok(default),
        Some(Err(_)) => {
            eprintln!("clusterctl: {flag} expects an integer");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `--connect-timeout-ms`, 2 s by default.
fn connect_timeout(args: &[String]) -> Result<Duration, ExitCode> {
    num_flag(args, "--connect-timeout-ms", 2_000).map(Duration::from_millis)
}

/// The comma-separated `--peers` list.
fn peers_flag(args: &[String]) -> Option<Vec<String>> {
    let peers = flag_value(args, "--peers")?;
    Some(
        peers
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(str::to_string)
            .collect(),
    )
}

/// Membership operations against a running mesh: query a node's view,
/// admit a new node via the coordinator, or retire a slot. `join` prints
/// the assigned slot and the warm-front size so an operator (or script)
/// can dispatch the job to the joiner with `node_index = slot`.
fn membership_cmd(cmd: &str, args: &[String]) -> ExitCode {
    let get = |flag: &str| flag_value(args, flag);
    let Some(peer) = get("--peer") else {
        return usage();
    };
    let timeout = match connect_timeout(args) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let client = mesh::MeshClient::new(peer.clone(), timeout);
    let outcome = match cmd {
        "members" => client.members().map(|(epoch, members)| {
            println!("epoch {epoch}");
            for (slot, m) in members.iter().enumerate() {
                let state = if m.live { "live" } else { "dead" };
                println!("  slot {slot}: {} ({state})", m.addr);
            }
        }),
        "join" => {
            let Some(addr) = get("--addr") else {
                return usage();
            };
            client.join(&addr).map(|(epoch, slot, members, warm)| {
                println!(
                    "joined: slot {slot} at epoch {epoch}, {} member(s), \
                     {} warm-start entr(ies)",
                    members.len(),
                    warm.len()
                );
            })
        }
        "leave" => {
            let Some(node) = get("--node").and_then(|v| v.parse::<usize>().ok()) else {
                return usage();
            };
            client
                .leave(node)
                .map(|epoch| println!("left: slot {node}, epoch now {epoch}"))
        }
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("clusterctl: {cmd} against {peer} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fetches every node's metrics registry in mergeable JSON form, stamps
/// each sample with a `node="k"` label, folds them into one federated
/// registry (counters sum, gauges keep the maximum, histogram buckets
/// add), adds a `tsmo_node_up{node="k"}` liveness gauge per peer, and
/// renders the result as a single Prometheus exposition.
fn metrics_merge(args: &[String]) -> ExitCode {
    let get = |flag: &str| flag_value(args, flag);
    let Some(peers) = peers_flag(args) else {
        return usage();
    };
    let timeout = match connect_timeout(args) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let allow_partial = args.iter().any(|a| a == "--allow-partial");
    let mut federated = tsmo_obs::MetricsRegistry::new();
    let failed = mesh::federate_metrics(&peers, timeout, &mut federated);
    for (k, e) in &failed {
        let peer = &peers[*k];
        if allow_partial {
            eprintln!("clusterctl: node {k} ({peer}) unreachable, marked down: {e}");
        } else {
            eprintln!("clusterctl: node {k} ({peer}): metrics fetch failed: {e}");
        }
    }
    if !failed.is_empty() && !allow_partial {
        return ExitCode::FAILURE;
    }
    let reached = peers.len() - failed.len();
    if reached == 0 {
        eprintln!("clusterctl: no node contributed metrics");
        return ExitCode::FAILURE;
    }
    let exposition = federated.to_prometheus();
    println!("metrics-merge: {reached}/{} node(s) federated", peers.len());
    match get("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &exposition) {
                eprintln!("clusterctl: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("metrics-merge: wrote {path}");
            ExitCode::SUCCESS
        }
        None => {
            print!("{exposition}");
            ExitCode::SUCCESS
        }
    }
}

/// Fetches every node's recorded trace for its last mesh job, verifies
/// the nodes agree on one shared non-zero trace id, and merges the
/// per-node streams into one causally ordered trace: a stable merge by
/// (local sequence, node index) — the local sequence is the causal
/// order within a node, the node index breaks cross-node ties
/// deterministically — with span ids offset per node so they stay
/// unique, and the global sequence re-stamped.
fn trace_merge(args: &[String]) -> ExitCode {
    let get = |flag: &str| flag_value(args, flag);
    let Some(peers) = peers_flag(args) else {
        return usage();
    };
    let timeout = match connect_timeout(args) {
        Ok(t) => t,
        Err(code) => return code,
    };
    // With `--allow-partial`, an unreachable or trace-less node is
    // reported and skipped instead of failing the whole merge — the trace
    // of a churned mesh is assembled from whoever survived.
    let allow_partial = args.iter().any(|a| a == "--allow-partial");
    let mut per_node: Vec<(usize, Vec<TimedEvent>)> = Vec::with_capacity(peers.len());
    let mut skipped: Vec<usize> = Vec::new();
    for (k, peer) in peers.iter().enumerate() {
        let jsonl = match mesh::MeshClient::new(peer.clone(), timeout).trace() {
            Ok(jsonl) => jsonl,
            Err(e) if allow_partial => {
                eprintln!("clusterctl: node {k} ({peer}) unreachable, skipped: {e}");
                skipped.push(k);
                continue;
            }
            Err(e) => {
                eprintln!("clusterctl: node {k} ({peer}): trace fetch failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let events = match parse_events_jsonl(&jsonl) {
            Ok(events) => events,
            Err(e) => {
                eprintln!("clusterctl: node {k} ({peer}): bad trace: {e}");
                return ExitCode::FAILURE;
            }
        };
        if events.is_empty() {
            if allow_partial {
                eprintln!("clusterctl: node {k} ({peer}) has no recorded trace, skipped");
                skipped.push(k);
                continue;
            }
            eprintln!("clusterctl: node {k} ({peer}) has no recorded trace");
            return ExitCode::FAILURE;
        }
        per_node.push((k, events));
    }
    if per_node.is_empty() {
        eprintln!("clusterctl: no node contributed a trace");
        return ExitCode::FAILURE;
    }
    let mut ids = std::collections::BTreeSet::new();
    for (_, events) in &per_node {
        for ev in events {
            match &ev.event {
                SearchEvent::SpanEnter { trace, .. } | SearchEvent::SpanExit { trace, .. } => {
                    ids.insert(*trace);
                }
                _ => {}
            }
        }
    }
    if ids.len() != 1 || ids.contains(&0) {
        eprintln!(
            "clusterctl: traces disagree on the trace id: {ids:?} \
             (expected one shared non-zero id)"
        );
        return ExitCode::FAILURE;
    }
    let trace_id = ids.into_iter().next().unwrap_or(0);
    // Span ids are per-recorder counters, so two nodes both hand out
    // 1, 2, 3, ... Offset node k's ids past node k-1's maximum so the
    // merged trace keeps every span distinct (parent 0 = root stays 0).
    let mut offset = 0u64;
    for (_, events) in &mut per_node {
        let mut max_span = 0u64;
        for ev in events.iter_mut() {
            match &mut ev.event {
                SearchEvent::SpanEnter { span, parent, .. } => {
                    max_span = max_span.max(*span);
                    *span += offset;
                    if *parent != 0 {
                        *parent += offset;
                    }
                }
                SearchEvent::SpanExit { span, .. } => {
                    max_span = max_span.max(*span);
                    *span += offset;
                }
                _ => {}
            }
        }
        offset += max_span;
    }
    let mut merged: Vec<(u64, usize, TimedEvent)> = Vec::new();
    let contributors = per_node.len();
    for (k, events) in per_node {
        for ev in events {
            merged.push((ev.seq, k, ev));
        }
    }
    merged.sort_by_key(|entry| (entry.0, entry.1));
    let total = merged.len();
    let mut out = String::new();
    for (global, (_, _, mut ev)) in merged.into_iter().enumerate() {
        ev.seq = global as u64;
        out.push_str(&ev.to_json_line());
        out.push('\n');
    }
    println!("trace-merge: {total} events from {contributors} node(s), trace id {trace_id:#x}");
    if !skipped.is_empty() {
        let listed: Vec<String> = skipped
            .iter()
            .map(|k| format!("{k} ({})", peers[*k]))
            .collect();
        println!("trace-merge: skipped node(s): {}", listed.join(", "));
    }
    match get("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &out) {
                eprintln!("clusterctl: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("trace-merge: wrote {path}");
            ExitCode::SUCCESS
        }
        None => {
            print!("{out}");
            ExitCode::SUCCESS
        }
    }
}

/// Refuses an empty merged front or one that fails [`verify_front`];
/// otherwise prints a summary line and every entry.
fn report_front(inst: &Instance, front: &[FrontEntry]) -> bool {
    if front.is_empty() {
        eprintln!("clusterctl: merged front is empty");
        return false;
    }
    if let Err(e) = verify_front(inst, front) {
        eprintln!("clusterctl: merged front failed verification: {e}");
        return false;
    }
    println!(
        "merged front: {} verified entries (mutually non-dominated: true)",
        front.len()
    );
    for entry in front {
        let [d, v, t] = entry.objectives.to_vector();
        println!("  distance={d:.2} vehicles={v} tardiness={t:.2}");
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    if args[0] == "trace-merge" {
        return trace_merge(&args[1..]);
    }
    if args[0] == "metrics-merge" {
        return metrics_merge(&args[1..]);
    }
    if matches!(args[0].as_str(), "members" | "join" | "leave") {
        return membership_cmd(&args[0].clone(), &args[1..]);
    }
    let get = |flag: &str| flag_value(&args, flag);
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let num = |flag: &str, default: u64| num_flag(&args, flag, default);
    // The instance path is the first argument that is neither a flag nor
    // the value of the preceding value-taking flag.
    let instance_path = {
        let mut found = None;
        let mut skip = false;
        for arg in &args {
            if skip {
                skip = false;
                continue;
            }
            if arg.starts_with("--") {
                skip = !matches!(
                    arg.as_str(),
                    "--require-exchanges" | "--shutdown" | "--require-recovered"
                );
                continue;
            }
            found = Some(arg.clone());
            break;
        }
        match found {
            Some(path) => path,
            None => return usage(),
        }
    };
    let instance_path = &instance_path;
    let instance_text = match std::fs::read_to_string(instance_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("clusterctl: cannot read {instance_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (searchers, evals, neighborhood, stagnation, seed, fault_seed) = match (
        num("--searchers", 2),
        num("--evals", 20_000),
        num("--neighborhood", 50),
        num("--stagnation", 100),
        num("--seed", 1),
        num("--fault-seed", 7),
    ) {
        (Ok(a), Ok(b), Ok(c), Ok(d), Ok(e), Ok(f)) => (a, b, c, d, e, f),
        _ => return ExitCode::FAILURE,
    };
    let fault_rate: f64 = match get("--fault-rate").map(|v| v.parse()) {
        Some(Ok(r)) => r,
        None => 0.0,
        Some(Err(_)) => {
            eprintln!("clusterctl: --fault-rate expects a number");
            return ExitCode::FAILURE;
        }
    };
    let instance = match vrptw::solomon::parse(&instance_text) {
        Ok(inst) => Arc::new(inst),
        Err(e) => {
            eprintln!("clusterctl: bad instance: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(nodes) = get("--virtual-net") {
        let Ok(nodes) = nodes.parse::<usize>() else {
            eprintln!("clusterctl: --virtual-net expects a node count");
            return ExitCode::FAILURE;
        };
        let cfg = TsmoConfig {
            max_evaluations: evals,
            neighborhood_size: (neighborhood as usize).max(2),
            stagnation_limit: (stagnation as usize).max(1),
            ..TsmoConfig::default()
        }
        .with_seed(seed);
        let hook: Arc<dyn FaultHook> = if fault_rate > 0.0 {
            FaultPlan::shared(FaultConfig::exchange_only(fault_seed, fault_rate))
        } else {
            tsmo_faults::none()
        };
        let churn = match get("--churn").map(|s| tsmo_cluster::parse_churn(&s)) {
            Some(Ok(events)) => events,
            Some(Err(e)) => {
                eprintln!("clusterctl: bad --churn: {e}");
                return ExitCode::FAILURE;
            }
            None => Vec::new(),
        };
        let replication_every = match num("--replication-every", 0) {
            Ok(n) => n,
            Err(code) => return code,
        };
        // Churn or replication make the membership dynamic; without them
        // this is a fixed mesh. Either way the network log is recorded and
        // its verifying replay must be byte-identical.
        let em = ElasticMeshConfig {
            replication_every,
            churn,
            ..ElasticMeshConfig::fixed(nodes, searchers as usize, cfg)
        };
        let events = Arc::new(MemoryRecorder::new());
        let recorded = run_elastic(
            &instance,
            &em,
            Arc::clone(&events) as Arc<dyn Recorder>,
            Arc::clone(&hook),
        );
        let exchanges = recorded
            .log
            .iter()
            .filter(|r| matches!(r, NetRecord::Exchange(_)))
            .count();
        println!(
            "virtual mesh: {nodes} nodes x {searchers} searchers, {exchanges} exchanges \
             delivered, {} net records, {} evaluations, final epoch {}",
            recorded.log.len(),
            recorded.evaluations,
            recorded.final_epoch
        );
        if !recorded.recovered_nodes.is_empty() {
            println!(
                "recovered from replicas: node(s) {:?}, {} entr(ies) in the merged front",
                recorded.recovered_nodes, recorded.recovered_in_front
            );
        }
        let replayed = match replay_elastic(&instance, &em, tsmo_obs::noop(), hook, &recorded.log) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("clusterctl: replay diverged: {e}");
                return ExitCode::FAILURE;
            }
        };
        if front_fingerprint(&replayed.front) != front_fingerprint(&recorded.front) {
            eprintln!("clusterctl: replayed front differs from the recorded run");
            return ExitCode::FAILURE;
        }
        println!(
            "replay: byte-identical merged front over {} net records",
            replayed.log.len()
        );
        if let Some(path) = get("--events-out") {
            if let Err(e) = std::fs::write(&path, events.events_jsonl()) {
                eprintln!("clusterctl: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("events: wrote {path}");
        }
        if has("--require-recovered") && recorded.recovered_nodes.is_empty() {
            eprintln!("clusterctl: --require-recovered but no node front came from a replica");
            return ExitCode::FAILURE;
        }
        if !report_front(&instance, &recorded.front) {
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let Some(peers) = peers_flag(&args) else {
        return usage();
    };
    let (timeout, wait_ms) = match (connect_timeout(&args), num("--wait-ms", 300_000)) {
        (Ok(t), Ok(w)) => (t, w),
        _ => return ExitCode::FAILURE,
    };
    let job = MeshJob {
        instance_text,
        node_index: 0,
        peers: peers.clone(),
        searchers_per_node: searchers as usize,
        seed,
        max_evaluations: evals,
        neighborhood_size: neighborhood as usize,
        stagnation_limit: stagnation as usize,
        fault_seed,
        fault_rate,
        // One id for the whole mesh, derived from the seed, so every
        // node's spans land in the same trace and `trace-merge` can
        // verify they agree.
        trace_id: tsmo_obs::trace_id_from_seed(seed),
        ..MeshJob::default()
    };
    let outcome = match mesh::run_mesh(&job, timeout, Duration::from_millis(wait_ms)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("clusterctl: mesh run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (k, node) in outcome.nodes.iter().enumerate() {
        let client = mesh::MeshClient::new(node.addr.clone(), timeout);
        let received = client
            .metrics()
            .map(|prom| prometheus_counter(&prom, names::EXCHANGES_RECEIVED))
            .unwrap_or(0);
        match &node.report {
            Some(report) => println!(
                "node {k} at {}: front={} evaluations={} iterations={} exchanges_received={received}{}",
                node.addr,
                report.front.len(),
                report.evaluations,
                report.iterations,
                if node.recovered {
                    " (recovered from replica)"
                } else {
                    ""
                }
            ),
            None => println!("node {k} at {}: no report (dead or unreachable)", node.addr),
        }
        if has("--require-exchanges") && received == 0 {
            eprintln!("clusterctl: node {k} received no exchanges");
            ok = false;
        }
    }
    if !report_front(&instance, &outcome.front) {
        ok = false;
    }
    if has("--shutdown") {
        for node in &outcome.nodes {
            let _ = mesh::MeshClient::new(node.addr.clone(), timeout).shutdown();
        }
        println!("mesh: shutdown sent to {} node(s)", outcome.nodes.len());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
