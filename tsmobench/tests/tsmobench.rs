//! The outside-in driver, the front verifier, input determinism, and the
//! fit between the benchmark's outputs, `BENCHMARK.json` and `benchdiff`.

use bench::diff::{self, Tolerances};
use std::sync::Arc;
use tsmo_core::{ParallelVariant, TsmoConfig};
use tsmo_obs::json::{self, Json};
use tsmo_serve::FrontPoint;
use tsmobench::alloc::CountingAlloc;
use tsmobench::driver::{drive, same_archive};
use tsmobench::search::Probe;
use tsmobench::serve::{job_spec, CLIENTS};
use tsmobench::verify::{check_front, from_entries, from_points, Tally};
use tsmobench::workload::{inputs, GenerationTimes, Workload};
use tsmobench::{end_to_end, layer_metrics, Layers};
use vrptw::generator::InstanceClass;
use vrptw::{Instance, Solution};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn instance(class: InstanceClass, n: usize, seed: u64) -> Arc<Instance> {
    let text = tsmo_scenario::Generator::new(seed, class, n).text();
    Arc::new(vrptw::solomon::parse(&text).expect("generated text parses"))
}

/// A budget small enough for debug builds, large enough for restarts.
fn small(seed: u64) -> TsmoConfig {
    TsmoConfig {
        max_evaluations: 6_000,
        neighborhood_size: 60,
        stagnation_limit: 20,
        ..TsmoConfig::default()
    }
    .with_seed(seed)
}

#[test]
fn the_driver_reproduces_the_library_archive() {
    for class in [InstanceClass::R1, InstanceClass::C2] {
        for seed in 1..=3 {
            let inst = instance(class, 100, seed);
            let cfg = small(seed);
            let library = ParallelVariant::Sequential.run(&inst, &cfg);
            let run = drive(&inst, &cfg);
            if let Err(e) = same_archive(&run.archive, &library.archive) {
                panic!("{class:?} seed {seed}: {e}");
            }
            assert_eq!(run.evaluations, library.evaluations);
            assert_eq!(run.counts.iterations as usize, library.iterations);
        }
    }
}

#[test]
fn deterministic_counts_repeat_exactly() {
    let inst = instance(InstanceClass::R1, 100, 7);
    let a = drive(&inst, &small(7)).counts;
    let b = drive(&inst, &small(7)).counts;
    assert_eq!(a, b);
    assert!(a.allocations > 0, "the counting allocator is installed");
    assert!(a.draws > a.neighbors && a.sites_resimulated > 0);
    assert_eq!(a.materialized_sites, 100 * a.neighbors);
}

#[test]
fn equal_seeds_give_identical_inputs_and_job_specs() {
    for w in Workload::ALL {
        let (a, _) = inputs(w, 42);
        let (b, _) = inputs(w, 42);
        let (c, _) = inputs(w, 43);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.text, y.text, "{w:?}");
            assert_eq!(x.reference, y.reference, "{w:?}");
            assert_ne!(x.text, z.text, "{w:?}: seeds 42 and 43 must differ");
        }
        if matches!(w, Workload::ServeSmall | Workload::ServeMesh) {
            for client in 0..CLIENTS {
                for job in 0..5 {
                    assert_eq!(
                        job_spec(w, &a, 42, client, job).0,
                        job_spec(w, &b, 42, client, job).0
                    );
                }
            }
        }
    }
}

fn points(entries: &[tsmo_core::FrontEntry]) -> Vec<FrontPoint> {
    entries
        .iter()
        .map(|e| FrontPoint {
            objectives: e.objectives.to_vector(),
            routes: e.solution.routes().to_vec(),
        })
        .collect()
}

/// Route 1's first customer replaced by route 0's first: one customer
/// twice, another missing.
fn duplicate_customer(solution: &Solution) -> Solution {
    let mut routes = solution.routes().to_vec();
    routes[1][0] = routes[0][0];
    Solution::from_routes(routes)
}

#[test]
fn the_verifier_counts_tampered_fronts_as_failures() {
    let inst = instance(InstanceClass::C1, 100, 5);
    let cfg = small(5);
    let out = ParallelVariant::Sequential.run(&inst, &cfg);
    let budget = cfg.max_evaluations;
    let mut tally = Tally::default();

    tally.verified(check_front(
        &inst,
        &from_entries(&out.archive),
        out.evaluations,
        budget,
    ));
    tally.verified(check_front(
        &inst,
        &from_points(&points(&out.archive)),
        out.evaluations,
        budget,
    ));
    assert_eq!(
        (tally.attempted, tally.failed),
        (2, 0),
        "{:?}",
        tally.messages
    );

    let mut tampered = from_entries(&out.archive);
    tampered[0].objectives[0] += 1e-3;
    tally.verified(check_front(&inst, &tampered, out.evaluations, budget));

    let mut duplicated = from_entries(&out.archive);
    duplicated[0].solution = duplicate_customer(&duplicated[0].solution);
    tally.verified(check_front(&inst, &duplicated, out.evaluations, budget));

    let mut wire = points(&out.archive);
    wire[0].routes = duplicate_customer(&out.archive[0].solution)
        .routes()
        .to_vec();
    tally.verified(check_front(
        &inst,
        &from_points(&wire),
        out.evaluations,
        budget,
    ));

    tally.verified(check_front(
        &inst,
        &from_entries(&out.archive),
        budget - 1,
        budget,
    ));
    tally.refused("queue full".to_string());

    assert_eq!(tally.attempted, 7);
    assert_eq!(tally.failed, 5);
    assert_eq!(tally.wrong, 4);
    assert!(
        tally.messages[0].contains("objective 0"),
        "{:?}",
        tally.messages
    );
    assert!(
        tally.messages[1].contains("more than once"),
        "{:?}",
        tally.messages
    );
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(manifest: &Json, key: &str) -> Vec<String> {
    match manifest.get(key) {
        Some(Json::Array(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json lacks {key}"),
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let m = manifest();
    let e2e: Vec<String> = end_to_end(1.0, 1.0, 1.0, &[1.0])
        .iter()
        .map(|x| x.name.to_string())
        .collect();
    assert_eq!(names(&m, "end_to_end"), e2e);
    let layers: Vec<String> = layer_metrics(
        &Probe::default(),
        GenerationTimes::default(),
        1,
        &Layers::default(),
    )
    .iter()
    .map(|x| x.name.to_string())
    .collect();
    assert_eq!(names(&m, "per_layer"), layers);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names(&m, "workloads"), workloads);
}

fn metric_mut<'a>(doc: &'a mut Json, workload: &str, metric: &str) -> &'a mut Json {
    let mut node = doc;
    for key in ["workloads", workload, "metrics", metric] {
        node = match node {
            Json::Object(map) => map.get_mut(key).expect("path exists"),
            _ => panic!("{key}: not an object"),
        };
    }
    node
}

#[test]
fn the_committed_baseline_flattens_and_diffs_with_benchdiff() {
    let text = include_str!("../baselines/BENCH_tsmobench.json");
    let doc = json::parse(text).expect("baseline parses");
    let flat: Vec<String> = diff::flatten(&doc).into_iter().map(|(k, _)| k).collect();
    for w in Workload::ALL {
        for m in end_to_end(1.0, 1.0, 1.0, &[1.0]) {
            let path = format!("workloads.{}.metrics.{}", w.name(), m.name);
            assert!(flat.contains(&path), "{path} missing from the baseline");
        }
    }
    let same = diff::diff_texts(text, text, &Tolerances::default()).expect("diffable");
    assert!(!same.regressed(), "{}", same.render());

    let mut worse = doc.clone();
    let p50 = metric_mut(&mut worse, "serve-small", "job_p50_ms");
    *p50 = Json::Number(p50.as_f64().expect("number") * 2.0);
    let report = diff::diff(&doc, &worse, &Tolerances::default());
    assert!(report.regressed(), "{}", report.render());
    assert!(report.render().contains("REGRESSED"));
}
