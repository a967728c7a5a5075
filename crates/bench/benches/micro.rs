//! Criterion micro-benchmarks of the building blocks: evaluation,
//! operator sampling, neighborhood chunks, archive maintenance, and the
//! construction heuristics.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use detrand::Xoshiro256StarStar;
use pareto::Archive;
use std::hint::black_box;
use std::sync::Arc;
use tsmo_core::generate_chunk;
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::solution::EvaluatedSolution;
use vrptw::{evaluate_route, Instance};
use vrptw_construct::{i1, nearest_neighbor, savings, I1Config};
use vrptw_operators::{sample_move, SampleParams};

fn setup(size: usize) -> (Arc<Instance>, Arc<EvaluatedSolution>) {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, size, 1).build());
    let sol = i1(&inst, &I1Config::default());
    let ev = Arc::new(EvaluatedSolution::new(sol, &inst));
    (inst, ev)
}

fn bench_evaluation(c: &mut Criterion) {
    let mut g = c.benchmark_group("evaluation");
    for size in [100usize, 400, 600] {
        let (inst, ev) = setup(size);
        let longest = (0..ev.n_routes())
            .map(|i| ev.route(i).to_vec())
            .max_by_key(|r| r.len())
            .expect("routes exist");
        g.bench_with_input(BenchmarkId::new("route", size), &size, |b, _| {
            b.iter(|| evaluate_route(&inst, black_box(&longest)))
        });
        let sol = ev.solution().clone();
        g.bench_with_input(BenchmarkId::new("full_solution", size), &size, |b, _| {
            b.iter(|| black_box(&sol).evaluate(&inst))
        });
    }
    g.finish();
}

fn bench_operators(c: &mut Criterion) {
    let mut g = c.benchmark_group("operators");
    let (inst, ev) = setup(400);
    g.bench_function("sample_move_400", |b| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        b.iter(|| sample_move(&mut rng, &inst, &ev, SampleParams::default()))
    });
    g.bench_function("neighborhood_chunk_50_of_400", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            generate_chunk(&inst, &ev, seed, 50, SampleParams::default(), 0)
        })
    });
    g.finish();
}

fn bench_archive(c: &mut Criterion) {
    let mut g = c.benchmark_group("archive");
    let mut points = Vec::new();
    let mut x = 5u64;
    for _ in 0..1000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        points.push(vec![
            ((x >> 33) % 10_000) as f64,
            ((x >> 13) % 100) as f64,
            ((x >> 3) % 1_000) as f64,
        ]);
    }
    g.bench_function("insert_1000_into_capacity_20", |b| {
        b.iter_batched(
            || points.clone(),
            |pts| {
                let mut a = Archive::new(20);
                for p in pts {
                    a.insert(p);
                }
                a
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("construction");
    g.sample_size(10);
    for size in [100usize, 400] {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, size, 2).build());
        g.bench_with_input(BenchmarkId::new("i1", size), &size, |b, _| {
            b.iter(|| i1(&inst, &I1Config::default()))
        });
        g.bench_with_input(BenchmarkId::new("nearest_neighbor", size), &size, |b, _| {
            b.iter(|| nearest_neighbor(&inst))
        });
        g.bench_with_input(BenchmarkId::new("savings", size), &size, |b, _| {
            b.iter(|| savings(&inst))
        });
    }
    g.finish();
}

fn bench_tabu(c: &mut Criterion) {
    use tsmo_core::TabuList;
    let mut g = c.benchmark_group("tabu");
    g.bench_function("push_and_query_tenure_20", |b| {
        let mut list = TabuList::new(20);
        let mut i = 0u16;
        b.iter(|| {
            i = i.wrapping_add(1);
            list.push(vec![(i, i.wrapping_add(1)), (i.wrapping_add(2), i)]);
            black_box(list.is_tabu(&[(i, i.wrapping_add(1)), (7, 9)]))
        })
    });
    g.finish();
}

fn bench_pareto(c: &mut Criterion) {
    use pareto::{coverage, crowding_distances, non_dominated_indices};
    let mut g = c.benchmark_group("pareto");
    let mut points = Vec::new();
    let mut x = 11u64;
    for _ in 0..200 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        points.push([
            ((x >> 33) % 10_000) as f64,
            ((x >> 13) % 100) as f64,
            ((x >> 3) % 1_000) as f64,
        ]);
    }
    g.bench_function("non_dominated_200", |b| {
        b.iter(|| non_dominated_indices(black_box(&points)))
    });
    let nd: Vec<[f64; 3]> = {
        let idx = non_dominated_indices(&points);
        idx.into_iter().map(|i| points[i]).collect()
    };
    g.bench_function("crowding_front", |b| {
        b.iter(|| crowding_distances(black_box(&nd)))
    });
    g.bench_function("coverage_front_vs_front", |b| {
        b.iter(|| coverage(black_box(&nd), black_box(&points)))
    });
    g.finish();
}

fn bench_descent(c: &mut Criterion) {
    use vrptw_operators::{descend, DescentConfig};
    let mut g = c.benchmark_group("descent");
    g.sample_size(10);
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 60, 4).build());
    let start = i1(&inst, &I1Config::default());
    g.bench_function("polish_i1_start_60", |b| {
        b.iter(|| descend(&inst, start.clone(), &DescentConfig::default()))
    });
    g.finish();
}

fn bench_giant_tour(c: &mut Criterion) {
    let mut g = c.benchmark_group("representation");
    let (inst, ev) = setup(400);
    let sol = ev.solution().clone();
    g.bench_function("giant_tour_encode_400", |b| {
        b.iter(|| sol.giant_tour(&inst))
    });
    let tour = sol.giant_tour(&inst);
    g.bench_function("giant_tour_decode_400", |b| {
        b.iter(|| vrptw::Solution::from_giant_tour(&inst, black_box(&tour)).expect("valid"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_evaluation,
    bench_operators,
    bench_archive,
    bench_construction,
    bench_tabu,
    bench_pareto,
    bench_descent,
    bench_giant_tour
);
criterion_main!(benches);
