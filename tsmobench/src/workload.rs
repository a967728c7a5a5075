//! The workloads, and the inputs each one generates from `--seed`.

use std::sync::Arc;
use std::time::Instant;
use tsmo_scenario::Generator;
use vrptw::generator::InstanceClass;
use vrptw::Instance;

/// One benchmark workload. Why each exists is in the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential TSMO at paper settings on R1, 100 customers.
    SearchR1,
    /// Sequential TSMO at paper settings on C2, 400 customers.
    SearchC2,
    /// Asynchronous TSMO with 2 processors on C2, 400 customers.
    SearchAsyncC2,
    /// Short sequential jobs through an in-process server.
    ServeSmall,
    /// Collaborative jobs through a server backed by a 2-node mesh.
    ServeMesh,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::SearchR1,
        Workload::SearchC2,
        Workload::SearchAsyncC2,
        Workload::ServeSmall,
        Workload::ServeMesh,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchR1 => "search-r1-100",
            Workload::SearchC2 => "search-c2-400",
            Workload::SearchAsyncC2 => "search-async-c2-400",
            Workload::ServeSmall => "serve-small",
            Workload::ServeMesh => "serve-mesh",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The instances the workload runs on, as `(class, customers)`; input
    /// `k` of a run is generated from `derive(seed, k)`. Speed and front
    /// quality differ a lot between instances of one class, so a run
    /// spreads its operations over several instances: a search run solves
    /// each instance at most once, a serve run rotates over its instances.
    pub fn instance_shapes(self) -> Vec<(InstanceClass, usize)> {
        match self {
            Workload::SearchR1 => vec![(InstanceClass::R1, 100); 16],
            Workload::SearchC2 | Workload::SearchAsyncC2 => vec![(InstanceClass::C2, 400); 16],
            Workload::ServeSmall => [InstanceClass::C1, InstanceClass::R2, InstanceClass::RC1]
                .repeat(2)
                .into_iter()
                .map(|c| (c, 100))
                .collect(),
            Workload::ServeMesh => vec![(InstanceClass::C1, 100); 3],
        }
    }
}

/// Derives the `k`-th seed of a run from `--seed` (SplitMix64 finaliser,
/// so neighboring seeds give unrelated streams).
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated instance, as the program under test receives it.
pub struct Input {
    /// The Solomon text generated from the seed.
    pub text: String,
    /// The instance parsed from `text`.
    pub inst: Arc<Instance>,
    /// Objectives of the deterministic I1 start.
    pub start: [f64; 3],
    /// The hypervolume reference point, fixed by the I1 start: twice its
    /// distance and vehicles, and its tardiness plus a tenth of its
    /// distance.
    pub reference: [f64; 3],
}

impl Input {
    /// The front's 3-D hypervolume relative to that of the I1 start alone
    /// (above 1 when the front improves on the start). A far reference
    /// keeps the ratio from hinging on whether the front saves a vehicle.
    pub fn normalized_hypervolume(&self, vectors: &[[f64; 3]]) -> f64 {
        pareto::hypervolume_3d(vectors, self.reference)
            / pareto::hypervolume_3d(&[self.start], self.reference)
    }
}

/// Time spent generating inputs, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenerationTimes {
    /// Generating and parsing the instance texts.
    pub generate_s: f64,
    /// The deterministic I1 constructions fixing the reference points.
    pub i1_s: f64,
}

/// Generates the workload's inputs from `seed`.
pub fn inputs(workload: Workload, seed: u64) -> (Vec<Input>, GenerationTimes) {
    let mut times = GenerationTimes::default();
    let inputs = workload
        .instance_shapes()
        .into_iter()
        .enumerate()
        .map(|(k, (class, n))| {
            let t = Instant::now();
            let text = Generator::new(derive(seed, k as u64), class, n).text();
            let inst = Arc::new(vrptw::solomon::parse(&text).expect("generated instances parse"));
            times.generate_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let start = vrptw_construct::i1(&inst, &vrptw_construct::I1Config::default());
            let start = start.evaluate(&inst).to_vector();
            times.i1_s += t.elapsed().as_secs_f64();
            let reference = [2.0 * start[0], 2.0 * start[1], start[2] + 0.1 * start[0]];
            Input {
                text,
                inst,
                start,
                reference,
            }
        })
        .collect();
    (inputs, times)
}
