//! Ablation studies over the design choices DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p bench --bin ablation -- <study> [--evals E]
//!     [--size N] [--runs R] [--seed S] [--fault-seed S]
//!
//! studies:
//!   tenure       tabu tenure sweep {5, 10, 20, 40}
//!   nbhd         neighborhood size sweep {50, 100, 200, 400}
//!   archive      archive capacity sweep {10, 20, 50}
//!   feasibility  local feasibility criterion on/off
//!   decision     async decision-function wait bound sweep
//!   comm         collaborative searcher count sweep {1, 2, 4, 8}
//!   moea         NSGA-II vs sequential TSMO on equal budgets
//!   hybrid       future-work hybrid (coll × async) vs its two parents
//!   selection    MO selection rule: random non-dominated vs prefer-dominating
//!   weights      §II.C: k weighted-sum TS runs vs one TSMO on equal budgets
//!   hetero       async vs sync speedup on a heterogeneous virtual machine
//!   polish       best-improvement descent as a front post-processor
//!   levels       §I's taxonomy: functional vs domain vs multisearch decomposition
//!   faults       fault-rate sweep on the self-healing async runtime (virtual time)
//!   migration    elastic mesh migration policy: exchange interval x elite
//!                count x replication period under a mid-run node kill
//!   all          run every study
//! ```

use moea::{Nsga2, Nsga2Config, Spea2, Spea2Config};
use pareto::coverage;
use runstats::Summary;
use std::sync::Arc;
use tsmo_core::{
    weighted_front, AdaptiveMemoryTs, CancelToken, Clock, HybridTsmo, ParallelVariant, RunOptions,
    TsmoConfig,
};
use tsmo_faults::{FaultConfig, FaultPlan};
use tsmo_obs::{metrics::names, MemoryRecorder};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;
use vrptw_operators::{descend, DescentConfig};

struct Opts {
    evals: u64,
    size: usize,
    runs: usize,
    seed: u64,
    fault_seed: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let study = args.first().cloned().unwrap_or_else(|| "all".to_string());
    let opts = Opts {
        evals: get("--evals").map_or(10_000, |s| s.parse().expect("--evals")),
        size: get("--size").map_or(80, |s| s.parse().expect("--size")),
        runs: get("--runs").map_or(3, |s| s.parse().expect("--runs")),
        seed: get("--seed").map_or(7, |s| s.parse().expect("--seed")),
        fault_seed: get("--fault-seed").map_or(7, |s| s.parse().expect("--fault-seed")),
    };
    match study.as_str() {
        "tenure" => tenure(&opts),
        "nbhd" => nbhd(&opts),
        "archive" => archive(&opts),
        "feasibility" => feasibility(&opts),
        "decision" => decision(&opts),
        "comm" => comm(&opts),
        "moea" => moea_cmp(&opts),
        "hybrid" => hybrid(&opts),
        "selection" => selection(&opts),
        "weights" => weights(&opts),
        "hetero" => hetero(&opts),
        "polish" => polish(&opts),
        "levels" => levels(&opts),
        "faults" => faults(&opts),
        "migration" => migration(&opts),
        "all" => {
            for f in [
                tenure,
                nbhd,
                archive,
                feasibility,
                decision,
                comm,
                moea_cmp,
                hybrid,
                selection,
                weights,
                hetero,
                polish,
                levels,
                faults,
                migration,
            ] {
                f(&opts);
                println!();
            }
        }
        other => panic!("unknown study {other:?} (see --help in the source header)"),
    }
}

fn instance(opts: &Opts) -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::R1, opts.size, opts.seed).build())
}

fn base_cfg(opts: &Opts) -> TsmoConfig {
    TsmoConfig {
        max_evaluations: opts.evals,
        neighborhood_size: 100,
        ..TsmoConfig::default()
    }
}

/// Runs the sequential algorithm `runs` times, returns best distances.
fn seq_best_distances(inst: &Arc<Instance>, cfg: &TsmoConfig, opts: &Opts) -> Vec<f64> {
    (0..opts.runs)
        .map(|r| {
            let out =
                ParallelVariant::Sequential.run(inst, &cfg.clone().with_seed(opts.seed + r as u64));
            out.best_distance().unwrap_or(f64::NAN)
        })
        .filter(|d| d.is_finite())
        .collect()
}

fn print_row(label: &str, xs: &[f64]) {
    if xs.is_empty() {
        println!("  {label:<28} (no feasible solutions)");
    } else {
        let s = Summary::of(xs);
        println!("  {label:<28} best distance {}", s.cell());
    }
}

fn tenure(opts: &Opts) {
    println!("Ablation: tabu tenure sweep (paper default 20)");
    let inst = instance(opts);
    for tenure in [5usize, 10, 20, 40] {
        let cfg = TsmoConfig {
            tabu_tenure: tenure,
            ..base_cfg(opts)
        };
        print_row(
            &format!("tenure = {tenure}"),
            &seq_best_distances(&inst, &cfg, opts),
        );
    }
}

fn nbhd(opts: &Opts) {
    println!("Ablation: neighborhood size sweep (paper default 200)");
    let inst = instance(opts);
    for size in [50usize, 100, 200, 400] {
        let cfg = TsmoConfig {
            neighborhood_size: size,
            ..base_cfg(opts)
        };
        print_row(
            &format!("neighborhood = {size}"),
            &seq_best_distances(&inst, &cfg, opts),
        );
    }
}

fn archive(opts: &Opts) {
    println!("Ablation: archive capacity sweep (paper default 20)");
    let inst = instance(opts);
    for cap in [10usize, 20, 50] {
        let cfg = TsmoConfig {
            archive_capacity: cap,
            ..base_cfg(opts)
        };
        print_row(
            &format!("archive = {cap}"),
            &seq_best_distances(&inst, &cfg, opts),
        );
    }
}

fn feasibility(opts: &Opts) {
    println!("Ablation: local feasibility criterion (paper: on)");
    let inst = instance(opts);
    for on in [true, false] {
        let cfg = TsmoConfig {
            feasibility_criterion: on,
            ..base_cfg(opts)
        };
        print_row(
            if on { "criterion on" } else { "criterion off" },
            &seq_best_distances(&inst, &cfg, opts),
        );
    }
}

fn decision(opts: &Opts) {
    println!("Ablation: async decision-function wait bound (c3)");
    let inst = instance(opts);
    for wait_ms in [0u64, 1, 20, 200] {
        let cfg = TsmoConfig {
            async_max_wait_ms: wait_ms,
            ..base_cfg(opts)
        };
        let mut dists = Vec::new();
        let mut times = Vec::new();
        for r in 0..opts.runs {
            let out = ParallelVariant::Asynchronous(4)
                .run(&inst, &cfg.clone().with_seed(opts.seed + r as u64));
            if let Some(d) = out.best_distance() {
                dists.push(d);
            }
            times.push(out.runtime_seconds);
        }
        let t = Summary::of(&times);
        if dists.is_empty() {
            println!(
                "  wait = {wait_ms:>3} ms: runtime {} (no feasible solutions)",
                t.cell()
            );
        } else {
            println!(
                "  wait = {wait_ms:>3} ms: best distance {} runtime {}",
                Summary::of(&dists).cell(),
                t.cell()
            );
        }
    }
}

fn comm(opts: &Opts) {
    println!("Ablation: collaborative searcher count (per-searcher budgets)");
    let inst = instance(opts);
    let reference = {
        let out =
            ParallelVariant::Sequential.run(&inst, &base_cfg(opts).with_seed(opts.seed ^ 0xF00));
        out.feasible_vectors()
    };
    for searchers in [1usize, 2, 4, 8] {
        let mut covs = Vec::new();
        let mut times = Vec::new();
        for r in 0..opts.runs {
            let cfg = base_cfg(opts).with_seed(opts.seed + r as u64);
            let out = ParallelVariant::Collaborative(searchers).run(&inst, &cfg);
            covs.push(coverage(&out.feasible_vectors(), &reference) * 100.0);
            times.push(out.runtime_seconds);
        }
        println!(
            "  searchers = {searchers}: coverage of reference {} runtime {}",
            Summary::of(&covs).cell(),
            Summary::of(&times).cell()
        );
    }
}

/// Per-algorithm measurements: label, per-run fronts, per-run wall times.
type LabeledRuns<'a> = Vec<(&'a str, Vec<Vec<[f64; 3]>>, Vec<f64>)>;

fn hybrid(opts: &Opts) {
    println!("Extension: hybrid (collaborative x async) vs its parents (paper future work)");
    let inst = instance(opts);
    let mut rows: LabeledRuns = Vec::new();
    for (label, runner) in [
        (
            "async (4 procs)",
            Box::new(|seed: u64| {
                ParallelVariant::Asynchronous(4).run(&inst, &base_cfg(opts).with_seed(seed))
            }) as Box<dyn Fn(u64) -> tsmo_core::TsmoOutcome>,
        ),
        (
            "collaborative (4)",
            Box::new(|seed: u64| {
                ParallelVariant::Collaborative(4).run(&inst, &base_cfg(opts).with_seed(seed))
            }),
        ),
        (
            "hybrid (2 x 2)",
            Box::new(|seed: u64| HybridTsmo::new(base_cfg(opts).with_seed(seed), 2, 2).run(&inst)),
        ),
    ] {
        let mut fronts = Vec::new();
        let mut times = Vec::new();
        for r in 0..opts.runs {
            let out = runner(opts.seed + r as u64);
            fronts.push(out.feasible_vectors());
            times.push(out.runtime_seconds);
        }
        rows.push((label, fronts, times));
    }
    // Pairwise coverage between the three.
    for (i, (label, fronts, times)) in rows.iter().enumerate() {
        let mut covs = Vec::new();
        for (j, (_, other_fronts, _)) in rows.iter().enumerate() {
            if i == j {
                continue;
            }
            for a in fronts {
                for b in other_fronts {
                    covs.push(coverage(a, b) * 100.0);
                }
            }
        }
        println!(
            "  {label:<20} covers others {} wall time {}",
            Summary::of(&covs).cell(),
            Summary::of(times).cell()
        );
    }
}

fn selection(opts: &Opts) {
    println!("Ablation: MO selection rule (the paper leaves it unspecified)");
    let inst = instance(opts);
    use tsmo_core::SelectionRule;
    for (label, rule) in [
        ("random non-dominated", SelectionRule::RandomNonDominated),
        ("prefer dominating", SelectionRule::PreferDominating),
    ] {
        let cfg = TsmoConfig {
            selection: rule,
            ..base_cfg(opts)
        };
        print_row(label, &seq_best_distances(&inst, &cfg, opts));
    }
}

fn weights(opts: &Opts) {
    println!("Ablation (§II.C): k weighted-sum TS runs vs one TSMO, equal total budget");
    let inst = instance(opts);
    // Compare the raw three-objective fronts (tardiness is a dimension, so
    // infeasible-but-interesting points still count).
    let mut ts_fronts = Vec::new();
    for r in 0..opts.runs {
        let out =
            ParallelVariant::Sequential.run(&inst, &base_cfg(opts).with_seed(opts.seed + r as u64));
        ts_fronts.push(
            out.archive
                .iter()
                .map(|e| e.objectives.to_vector())
                .collect::<Vec<_>>(),
        );
    }
    for k in [3usize, 5, 10] {
        let mut c_mo = Vec::new();
        let mut c_ws = Vec::new();
        for r in 0..opts.runs {
            let front = weighted_front(
                &inst,
                &base_cfg(opts).with_seed(opts.seed ^ (r as u64) << 8),
                k,
                opts.evals,
            );
            let ws: Vec<[f64; 3]> = front
                .items()
                .iter()
                .map(|e| e.objectives.to_vector())
                .collect();
            for mo in &ts_fronts {
                c_mo.push(coverage(mo, &ws) * 100.0);
                c_ws.push(coverage(&ws, mo) * 100.0);
            }
        }
        println!(
            "  k = {k:>2} weighted runs: C(TSMO, weighted) {}  C(weighted, TSMO) {}",
            Summary::of(&c_mo).cell(),
            Summary::of(&c_ws).cell()
        );
    }
}

fn hetero(opts: &Opts) {
    println!("Ablation: heterogeneous machine (half-speed workers), virtual time");
    println!("  the paper motivates async with heterogeneity: \"asynchronous algorithms …");
    println!("  should perform well on both homogenous and heterogenous systems\"");
    let inst = instance(opts);
    let p = 4usize;
    // Homogeneous reference vs a machine whose last two workers run at
    // half speed.
    let speeds_hetero = vec![1.0, 1.0, 0.5, 0.5];
    for (label, speeds) in [
        ("homogeneous", vec![1.0; p]),
        ("half-speed workers", speeds_hetero),
    ] {
        let mut sync_t = Vec::new();
        let mut async_t = Vec::new();
        for r in 0..opts.runs {
            let cfg = base_cfg(opts).with_seed(opts.seed + r as u64);
            let on = |variant: ParallelVariant| {
                let clock = Clock::Virtual {
                    speeds: Some(speeds.clone()),
                };
                variant.run_opts(
                    &inst,
                    &cfg,
                    RunOptions {
                        clock,
                        ..RunOptions::default()
                    },
                )
            };
            let s = on(ParallelVariant::Synchronous(p));
            let a = on(ParallelVariant::Asynchronous(p));
            sync_t.push(s.runtime_seconds);
            async_t.push(a.runtime_seconds);
        }
        println!(
            "  {label:<20} sync makespan {}  async makespan {}",
            Summary::of(&sync_t).cell(),
            Summary::of(&async_t).cell()
        );
    }
    println!("  (the sync barrier absorbs the slow workers' lag in waiting time;");
    println!("   async folds late chunks into later iterations instead)");
}

fn levels(opts: &Opts) {
    println!("Extension (§I's taxonomy): the three parallel-TS levels on equal budgets");
    println!("  functional decomposition = async master-worker (the paper's §III.D)");
    println!("  domain decomposition     = adaptive-memory TS (Taillard/Badeau, refs [8][9])");
    println!("  multisearch              = collaborative TS (the paper's §III.E)");
    let inst = instance(opts);
    let p = 4usize;
    let mut rows: Vec<(&str, Vec<Vec<[f64; 3]>>)> = Vec::new();
    for (label, runner) in [
        (
            "functional (async)",
            Box::new(|seed: u64| {
                ParallelVariant::Asynchronous(p).run(&inst, &base_cfg(opts).with_seed(seed))
            }) as Box<dyn Fn(u64) -> tsmo_core::TsmoOutcome>,
        ),
        (
            "domain (adaptive)",
            Box::new(|seed: u64| {
                AdaptiveMemoryTs::new(base_cfg(opts).with_seed(seed), p)
                    .run(&inst)
                    .expect("adaptive-memory worker pool failed")
            }),
        ),
        (
            "multisearch (coll)",
            Box::new(|seed: u64| {
                // Same *total* budget: divide by the searcher count since the
                // collaborative variant budgets per searcher.
                let mut cfg = base_cfg(opts).with_seed(seed);
                cfg.max_evaluations = (opts.evals / p as u64).max(1);
                ParallelVariant::Collaborative(p).run(&inst, &cfg)
            }),
        ),
    ] {
        let mut fronts = Vec::new();
        for r in 0..opts.runs {
            let out = runner(opts.seed + r as u64);
            fronts.push(
                out.archive
                    .iter()
                    .map(|e| e.objectives.to_vector())
                    .collect::<Vec<_>>(),
            );
        }
        rows.push((label, fronts));
    }
    for (i, (label, fronts)) in rows.iter().enumerate() {
        let mut covs = Vec::new();
        for (j, (_, other)) in rows.iter().enumerate() {
            if i == j {
                continue;
            }
            for a in fronts {
                for b in other {
                    covs.push(coverage(a, b) * 100.0);
                }
            }
        }
        println!(
            "  {label:<20} covers the other levels {}",
            Summary::of(&covs).cell()
        );
    }
}

fn polish(opts: &Opts) {
    println!("Extension: best-improvement descent as a front post-processor");
    let inst = instance(opts);
    let mut before = Vec::new();
    let mut after = Vec::new();
    let mut moves = Vec::new();
    for r in 0..opts.runs {
        let out =
            ParallelVariant::Sequential.run(&inst, &base_cfg(opts).with_seed(opts.seed + r as u64));
        for entry in &out.archive {
            let b = entry.objectives;
            let polished = descend(&inst, entry.solution.clone(), &DescentConfig::default());
            before.push(b.distance);
            after.push(polished.objectives.distance);
            moves.push(polished.moves_applied as f64);
        }
    }
    println!("  archive distances before {}", Summary::of(&before).cell());
    println!("  archive distances after  {}", Summary::of(&after).cell());
    println!("  improving moves applied  {}", Summary::of(&moves).cell());
}

fn faults(opts: &Opts) {
    println!("Robustness: fault-rate sweep on the self-healing async runtime (virtual time)");
    println!("  rates split evenly between worker panics and stalls; recovery is the");
    println!("  supervisor's resend/quarantine/respawn policy (see crates/faults, deme)");
    let inst = instance(opts);
    for rate in [0.0f64, 0.1, 0.2, 0.4] {
        let mut dists = Vec::new();
        let mut injected = Vec::new();
        let mut resent = Vec::new();
        let mut lost = Vec::new();
        for r in 0..opts.runs {
            let cfg = base_cfg(opts).with_seed(opts.seed + r as u64);
            let rec = MemoryRecorder::shared();
            let plan = FaultPlan::shared(FaultConfig::uniform(opts.fault_seed + r as u64, rate));
            let out = ParallelVariant::Asynchronous(4).run_opts(
                &inst,
                &cfg,
                RunOptions {
                    recorder: rec.clone(),
                    faults: plan.clone(),
                    clock: Clock::Virtual { speeds: None },
                    ..RunOptions::default()
                },
            );
            if let Some(d) = out.best_distance() {
                dists.push(d);
            }
            let m = rec.metrics();
            injected.push(plan.stats().total() as f64);
            resent.push(m.counter(names::TASKS_RESENT) as f64);
            lost.push(m.counter(names::TASKS_LOST) as f64);
        }
        let fmt = |xs: &[f64]| Summary::of(xs).cell();
        if dists.is_empty() {
            println!(
                "  rate = {rate:.1}: injected {} resent {} lost {} (no feasible solutions)",
                fmt(&injected),
                fmt(&resent),
                fmt(&lost)
            );
        } else {
            println!(
                "  rate = {rate:.1}: best distance {} injected {} resent {} lost {}",
                fmt(&dists),
                fmt(&injected),
                fmt(&resent),
                fmt(&lost)
            );
        }
    }
}

fn migration(opts: &Opts) {
    println!("Robustness: elastic-mesh migration policy under a mid-run node kill");
    println!("  4 node slots x 2 searchers on the virtual net; node 2 dies at round 20");
    println!("  and never rejoins — whatever its ring successor holds is all that");
    println!("  survives of its slice. Sweep: exchange interval x checkpoint elite");
    println!("  count x replication period.");
    use tsmo_cluster::{run_elastic, ChurnEvent, ChurnKind, ElasticMeshConfig};
    let inst = instance(opts);
    struct Cell {
        label: String,
        fronts: Vec<Vec<[f64; 3]>>,
        recovered: Vec<f64>,
        checkpoints: Vec<f64>,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for exchange_interval in [1usize, 4, 16] {
        for elite in [5usize, 20] {
            for replication in [0u64, 10, 40] {
                let mut cell = Cell {
                    label: format!(
                        "exch={exchange_interval:>2} elite={elite:>2} repl={replication:>2}"
                    ),
                    fronts: Vec::new(),
                    recovered: Vec::new(),
                    checkpoints: Vec::new(),
                };
                for r in 0..opts.runs {
                    let cfg = TsmoConfig {
                        exchange_interval,
                        // Small per-searcher budgets keep the 18-cell grid
                        // tractable; the kill lands mid-run regardless.
                        max_evaluations: (opts.evals / 8).max(500),
                        neighborhood_size: 50,
                        stagnation_limit: 8,
                        ..TsmoConfig::default()
                    }
                    .with_seed(opts.seed + r as u64);
                    let em = ElasticMeshConfig {
                        replication_every: replication,
                        elite_count: elite,
                        churn: vec![ChurnEvent {
                            round: 20,
                            node: 2,
                            kind: ChurnKind::Kill,
                        }],
                        ..ElasticMeshConfig::fixed(4, 2, cfg)
                    };
                    let out = run_elastic(
                        &inst,
                        &em,
                        Arc::new(MemoryRecorder::metrics_only()),
                        tsmo_faults::none(),
                    );
                    cell.fronts
                        .push(out.front.iter().map(|e| e.objectives.to_vector()).collect());
                    cell.recovered.push(out.recovered_in_front as f64);
                    let ckpts = out
                        .log
                        .iter()
                        .filter(|rec| matches!(rec, tsmo_cluster::NetRecord::Checkpoint { .. }))
                        .count();
                    cell.checkpoints.push(ckpts as f64);
                }
                cells.push(cell);
            }
        }
    }
    // One shared reference point so hypervolumes are comparable cell to cell.
    let mut reference = [0.0f64; 3];
    for v in cells.iter().flat_map(|c| c.fronts.iter().flatten()) {
        for (r, x) in reference.iter_mut().zip(*v) {
            *r = r.max(x * 1.05 + 1.0);
        }
    }
    for cell in &cells {
        let hvs: Vec<f64> = cell
            .fronts
            .iter()
            .map(|f| pareto::hypervolume_3d(f, reference))
            .collect();
        println!(
            "  {}: hv {} recovered-in-front {} checkpoints {}",
            cell.label,
            Summary::of(&hvs).cell(),
            Summary::of(&cell.recovered).cell(),
            Summary::of(&cell.checkpoints).cell()
        );
    }
    println!("  (repl=0 forfeits the dead slice; short periods buy recovery with");
    println!("   checkpoint traffic that scales inversely with the period)");
}

fn moea_cmp(opts: &Opts) {
    println!("Extension: NSGA-II & SPEA2 vs sequential TSMO on equal budgets (paper future work)");
    let inst = instance(opts);
    let mut fronts: Vec<(&str, Vec<Vec<[f64; 3]>>)> = vec![
        ("TSMO", Vec::new()),
        ("NSGA-II", Vec::new()),
        ("SPEA2", Vec::new()),
    ];
    let never = CancelToken::never();
    for r in 0..opts.runs {
        let seed = opts.seed + r as u64;
        let outs = [
            ParallelVariant::Sequential.run(&inst, &base_cfg(opts).with_seed(seed)),
            Nsga2::new(Nsga2Config {
                max_evaluations: opts.evals,
                seed,
                ..Nsga2Config::default()
            })
            .run(&inst, &never),
            Spea2::new(Spea2Config {
                max_evaluations: opts.evals,
                seed,
                ..Spea2Config::default()
            })
            .run(&inst, &never),
        ];
        for ((_, runs), out) in fronts.iter_mut().zip(outs) {
            runs.push(out.feasible_vectors());
        }
    }
    for i in 0..fronts.len() {
        for j in 0..fronts.len() {
            if i == j {
                continue;
            }
            let mut covs = Vec::new();
            for a in &fronts[i].1 {
                for b in &fronts[j].1 {
                    covs.push(coverage(a, b) * 100.0);
                }
            }
            println!(
                "  C({:<7}, {:<7}) = {}",
                fronts[i].0,
                fronts[j].0,
                Summary::of(&covs).cell()
            );
        }
    }
}
