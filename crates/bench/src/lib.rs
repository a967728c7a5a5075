//! Experiment harness: regenerates the paper's tables and figure.
//!
//! Tables I–IV report, for the sequential TSMO and for each of
//! {synchronous, asynchronous, collaborative} × {3, 6, 12} processors:
//! mean±std of total distance and vehicles (summed over the problems of the
//! set, averaged over repeated runs), mean±std runtime, the pairwise
//! set-coverage metric against all other algorithms, and speedup relative
//! to the sequential algorithm. This crate computes exactly those columns;
//! the `tables` binary prints them, and `EXPERIMENTS.md` records the
//! paper-vs-measured comparison.
//!
//! The problem sets are generated (see `vrptw::generator` and DESIGN.md —
//! the original Gehring–Homberger files are no longer hosted); `--full`
//! switches the harness to the paper's scale (400/600 customers, 100,000
//! evaluations, 30 runs).

use pareto::coverage;
use runstats::{speedup_percent, welch_t_test, Summary};
use std::sync::Arc;
use tsmo_core::{Clock, ParallelVariant, RunOptions, TsmoConfig, TsmoOutcome};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

pub mod diff;

/// Options of one table regeneration.
#[derive(Debug, Clone)]
pub struct TableOpts {
    /// Instance classes of the problem set (e.g. `[C1, R1]` for Table I).
    pub classes: Vec<InstanceClass>,
    /// Customers per instance (400 for Tables I/II, 600 for III/IV).
    pub size: usize,
    /// Instances generated per class.
    pub instances_per_class: usize,
    /// Repeated runs per algorithm per problem (paper: 30).
    pub runs: usize,
    /// Evaluation budget per run (paper: 100,000).
    pub evals: u64,
    /// Processor counts for the parallel variants (paper: 3, 6, 12).
    pub procs: Vec<usize>,
    /// Neighborhood size (paper: 200).
    pub neighborhood: usize,
    /// Base seed; instance generation and run seeds derive from it.
    pub seed: u64,
    /// How every variant's runtime is measured. `Clock::Wall` is only
    /// meaningful when the host has at least as many cores as the largest
    /// processor count in the lineup. The virtual clock (the default)
    /// charges counted work, not host time, so its tables are
    /// byte-identical on any host.
    pub timing: Clock,
}

impl TableOpts {
    /// Laptop-scale defaults preserving the paper's structure: the same
    /// classes and processor counts, smaller instances and budgets.
    pub fn quick(table: usize) -> Self {
        let (classes, size) = table_problem_set(table, false);
        Self {
            classes,
            size,
            instances_per_class: 1,
            runs: 3,
            evals: 20_000,
            procs: vec![3, 6, 12],
            neighborhood: 200,
            seed: 0xBE11A,
            timing: Clock::Virtual { speeds: None },
        }
    }

    /// The paper's settings (expect hours of runtime).
    pub fn full(table: usize) -> Self {
        let (classes, size) = table_problem_set(table, true);
        Self {
            classes,
            size,
            instances_per_class: 5,
            runs: 30,
            evals: 100_000,
            procs: vec![3, 6, 12],
            neighborhood: 200,
            seed: 0xBE11A,
            timing: Clock::Virtual { speeds: None },
        }
    }
}

/// The problem set of each paper table: I = 400-city small-TW (C1, R1),
/// II = 400-city large-TW (C2, R2), III = 600-city small-TW, IV = 600-city
/// large-TW. In quick mode the sizes shrink to 150/225 customers.
pub fn table_problem_set(table: usize, full: bool) -> (Vec<InstanceClass>, usize) {
    let classes = match table {
        1 | 3 => vec![InstanceClass::C1, InstanceClass::R1],
        2 | 4 => vec![InstanceClass::C2, InstanceClass::R2],
        _ => panic!("tables are numbered 1..=4"),
    };
    let size = match (table, full) {
        (1 | 2, true) => 400,
        (3 | 4, true) => 600,
        (1 | 2, false) => 150,
        (3 | 4, false) => 225,
        _ => unreachable!(),
    };
    (classes, size)
}

/// Per-run aggregate over the problem set (the paper sums the set).
#[derive(Debug, Clone, Copy)]
pub struct RunAggregate {
    /// Σ over problems of the feasible front's mean distance.
    pub distance: f64,
    /// Σ over problems of the feasible front's mean vehicle count.
    pub vehicles: f64,
    /// Σ over problems of runtime (seconds; virtual or wall, per
    /// [`TableOpts::timing`]).
    pub runtime: f64,
}

/// All measurements for one algorithm across the table's problem set.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    /// Display label.
    pub label: String,
    /// One aggregate per run index.
    pub per_run: Vec<RunAggregate>,
    /// Feasible fronts: `fronts[problem][run]` as objective vectors.
    pub fronts: Vec<Vec<Vec<[f64; 3]>>>,
}

impl AlgoResult {
    /// Column summaries `(distance, vehicles, runtime)`.
    pub fn summaries(&self) -> (Summary, Summary, Summary) {
        let d: Vec<f64> = self.per_run.iter().map(|r| r.distance).collect();
        let v: Vec<f64> = self.per_run.iter().map(|r| r.vehicles).collect();
        let t: Vec<f64> = self.per_run.iter().map(|r| r.runtime).collect();
        (Summary::of(&d), Summary::of(&v), Summary::of(&t))
    }
}

/// The algorithm lineup of every table: sequential, then
/// {sync, async, coll} for each processor count.
pub fn algorithm_lineup(procs: &[usize]) -> Vec<ParallelVariant> {
    let mut out = vec![ParallelVariant::Sequential];
    for &p in procs {
        out.push(ParallelVariant::Synchronous(p));
        out.push(ParallelVariant::Asynchronous(p));
        out.push(ParallelVariant::Collaborative(p));
    }
    out
}

/// Generates the problem set of a table.
pub fn problem_set(opts: &TableOpts) -> Vec<Arc<Instance>> {
    let mut out = Vec::new();
    for &class in &opts.classes {
        for k in 0..opts.instances_per_class {
            out.push(Arc::new(
                GeneratorConfig::new(class, opts.size, opts.seed ^ (k as u64 + 1)).build(),
            ));
        }
    }
    out
}

/// Extracts the per-problem measurement from one run's outcome: the
/// feasible front's mean distance and vehicle count (0 contribution when
/// the front is empty — matching the paper's exclusion of infeasible
/// solutions) plus the runtime.
fn measure(outcome: &TsmoOutcome) -> (f64, f64, f64) {
    (
        outcome.mean_distance().unwrap_or(0.0),
        outcome.mean_vehicles().unwrap_or(0.0),
        outcome.runtime_seconds,
    )
}

/// Runs the full lineup over the problem set. `progress` is invoked after
/// every `(algorithm, problem, run)` cell for live feedback. `recorder` is
/// a telemetry sink shared by every cell: counters (iterations,
/// evaluations, restarts, tabu hits, exchanges) accumulate over the whole
/// table, which is what the `tables` binary's `--metrics-out` flag
/// exposes; pass [`tsmo_obs::noop`] for none.
pub fn run_table_with(
    opts: &TableOpts,
    recorder: Arc<dyn tsmo_obs::Recorder>,
    mut progress: impl FnMut(&str, usize, usize),
) -> Vec<AlgoResult> {
    let problems = problem_set(opts);
    let lineup = algorithm_lineup(&opts.procs);
    let mut results = Vec::with_capacity(lineup.len());
    for variant in lineup {
        let label = variant.label();
        let mut per_run = vec![
            RunAggregate {
                distance: 0.0,
                vehicles: 0.0,
                runtime: 0.0
            };
            opts.runs
        ];
        let mut fronts: Vec<Vec<Vec<[f64; 3]>>> = vec![vec![Vec::new(); opts.runs]; problems.len()];
        for (pi, inst) in problems.iter().enumerate() {
            for run in 0..opts.runs {
                let cfg = TsmoConfig {
                    max_evaluations: opts.evals,
                    neighborhood_size: opts.neighborhood,
                    seed: opts.seed
                        ^ (run as u64).wrapping_mul(0x9E3779B97F4A7C15)
                        ^ (pi as u64) << 40,
                    ..TsmoConfig::default()
                };
                let out = variant.run_opts(
                    inst,
                    &cfg,
                    RunOptions {
                        recorder: Arc::clone(&recorder),
                        clock: opts.timing.clone(),
                        ..RunOptions::default()
                    },
                );
                let (d, v, t) = measure(&out);
                per_run[run].distance += d;
                per_run[run].vehicles += v;
                per_run[run].runtime += t;
                fronts[pi][run] = out.feasible_vectors();
                progress(&label, pi, run);
            }
        }
        results.push(AlgoResult {
            label,
            per_run,
            fronts,
        });
    }
    results
}

/// The paper's coverage column for algorithm `a`: the average of
/// `C(front_a, front_b)` over every other algorithm `b`, every problem, and
/// every ordered run pair — and the reverse direction. Returned as
/// `(covers_others, covered_by_others)` in percent.
pub fn coverage_pair(results: &[AlgoResult], a: usize) -> (f64, f64) {
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    for (b, other) in results.iter().enumerate() {
        if b == a {
            continue;
        }
        for (pi, mine_runs) in results[a].fronts.iter().enumerate() {
            for mine in mine_runs {
                for theirs in &other.fronts[pi] {
                    fwd.push(coverage(mine, theirs));
                    bwd.push(coverage(theirs, mine));
                }
            }
        }
    }
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (avg(&fwd) * 100.0, avg(&bwd) * 100.0)
}

/// Renders the table in the paper's layout.
pub fn render_table(title: &str, results: &[AlgoResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<22} {:>22} {:>16} {:>18} {:>20} {:>10}\n",
        "Algorithm", "distance", "vehicles", "runtime [s]", "coverage", "speedup"
    ));
    let seq_runtime = results
        .first()
        .map(|r| r.summaries().2.mean)
        .expect("lineup starts with the sequential algorithm");
    for (i, algo) in results.iter().enumerate() {
        let (d, v, t) = algo.summaries();
        let (fwd, bwd) = coverage_pair(results, i);
        let speedup = if i == 0 {
            String::new()
        } else {
            format!("{:+.2}%", speedup_percent(seq_runtime, t.mean))
        };
        out.push_str(&format!(
            "{:<22} {:>22} {:>16} {:>18} {:>9.2}% <> {:>6.2}% {:>10}\n",
            algo.label,
            d.cell(),
            v.cell(),
            t.cell(),
            fwd,
            bwd,
            speedup
        ));
    }
    out
}

/// The paper's significance analysis: collaborative vs. every other
/// algorithm, and synchronous vs. sequential, as Welch t-tests on the
/// per-run distance aggregates.
pub fn ttest_report(results: &[AlgoResult]) -> String {
    let mut out = String::from("Pairwise Welch t-tests on per-run total distance:\n");
    let dist = |r: &AlgoResult| -> Vec<f64> { r.per_run.iter().map(|x| x.distance).collect() };
    for a in results {
        for b in results {
            let is_coll_pair = a.label.contains("coll") && !b.label.contains("coll");
            let is_sync_seq = a.label.contains("sync") && b.label.starts_with("Sequential");
            if is_coll_pair || is_sync_seq {
                let r = welch_t_test(&dist(a), &dist(b));
                out.push_str(&format!(
                    "  {:<22} vs {:<22} p = {:.4}{}\n",
                    a.label,
                    b.label,
                    r.p_value,
                    if r.significant(0.05) {
                        "  (significant)"
                    } else {
                        ""
                    }
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> TableOpts {
        TableOpts {
            classes: vec![InstanceClass::R2],
            size: 25,
            instances_per_class: 1,
            runs: 2,
            evals: 800,
            procs: vec![2],
            neighborhood: 40,
            seed: 3,
            timing: Clock::Virtual { speeds: None },
        }
    }

    #[test]
    fn lineup_matches_paper_structure() {
        let lineup = algorithm_lineup(&[3, 6, 12]);
        assert_eq!(lineup.len(), 10); // sequential + 3 variants × 3 proc counts
        assert_eq!(lineup[0], ParallelVariant::Sequential);
        assert_eq!(lineup[1], ParallelVariant::Synchronous(3));
        assert_eq!(lineup[9], ParallelVariant::Collaborative(12));
    }

    #[test]
    fn table_problem_sets_match_paper() {
        assert_eq!(
            table_problem_set(1, true),
            (vec![InstanceClass::C1, InstanceClass::R1], 400)
        );
        assert_eq!(
            table_problem_set(2, true),
            (vec![InstanceClass::C2, InstanceClass::R2], 400)
        );
        assert_eq!(
            table_problem_set(3, true),
            (vec![InstanceClass::C1, InstanceClass::R1], 600)
        );
        assert_eq!(
            table_problem_set(4, true),
            (vec![InstanceClass::C2, InstanceClass::R2], 600)
        );
    }

    #[test]
    #[should_panic]
    fn table_numbers_are_validated() {
        table_problem_set(5, true);
    }

    #[test]
    fn run_table_produces_complete_results() {
        let opts = tiny_opts();
        let mut cells = 0;
        let results = run_table_with(&opts, tsmo_obs::noop(), |_, _, _| cells += 1);
        // 1 sequential + 3 parallel variants at 1 proc count = 4 algorithms.
        assert_eq!(results.len(), 4);
        assert_eq!(cells, 4 * 2);
        for r in &results {
            assert_eq!(r.per_run.len(), 2);
            assert!(r.per_run.iter().all(|a| a.runtime > 0.0));
        }
    }

    #[test]
    fn rendering_includes_all_columns() {
        let results = run_table_with(&tiny_opts(), tsmo_obs::noop(), |_, _, _| {});
        let table = render_table("Test table", &results);
        assert!(table.contains("Sequential TSMO"));
        assert!(table.contains("TSMO coll. (2)"));
        assert!(table.contains("<>"));
        assert!(table.contains('%'));
        let report = ttest_report(&results);
        assert!(report.contains("p = "));
    }

    #[test]
    fn coverage_pairs_are_percentages() {
        let results = run_table_with(&tiny_opts(), tsmo_obs::noop(), |_, _, _| {});
        for i in 0..results.len() {
            let (f, b) = coverage_pair(&results, i);
            assert!((0.0..=100.0).contains(&f));
            assert!((0.0..=100.0).contains(&b));
        }
    }
}
