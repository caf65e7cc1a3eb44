//! The three reference workloads and how a benchmark seed becomes the
//! simulator's inputs. The seed never reaches the simulator as such: it is
//! mixed into the trace seed of a run's `SimConfig`. The suite workload
//! runs at its canonical seed (see [`suite_config`]).

use padc_core::SchedulingPolicy;
use padc_sim::experiments::{ExpConfig, PolicyArm, Scale, SimUnit};
use padc_sim::SimConfig;
use padc_store::digest_hex;
use padc_workloads::{profiles, random_workloads, BenchProfile};

/// A reference workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `mcf_06` alone under `padc`: kernel, core and cache bound.
    Mcf1c,
    /// The 8-core memory-hog mix under `padc`: controller bound.
    Hog8c,
    /// The whole smoke suite, cold into an empty store, then warm.
    SmokeStore,
}

/// The perf-gate 8-core memory-hog mix.
pub const HOG_MIX: [&str; 8] = [
    "mcf_06",
    "libquantum_06",
    "swim_00",
    "GemsFDTD_06",
    "lbm_06",
    "milc_06",
    "leslie3d_06",
    "soplex_06",
];

/// Instructions per core for `mcf-1c`.
pub const MCF_INSTRUCTIONS: u64 = 1_000_000;
/// Instructions per core for `hog-8c`.
pub const HOG_INSTRUCTIONS: u64 = 200_000;

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but `hog-8c`, whose
    /// run-to-run spread on a shared 2-CPU host exceeded the bound.
    pub const ALL: [Workload; 3] = [Workload::Mcf1c, Workload::Hog8c, Workload::SmokeStore];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mcf1c => "mcf-1c",
            Workload::Hog8c => "hog-8c",
            Workload::SmokeStore => "smoke-store",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Mixes a benchmark seed into a simulator trace seed (splitmix64), so
/// neighbouring benchmark seeds give unrelated traces.
pub fn sim_seed(bench_seed: u64) -> u64 {
    let mut z = bench_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn profile(name: &str) -> BenchProfile {
    profiles::by_name(name).unwrap_or_else(|| panic!("profile {name} is built in"))
}

/// One `padcsim`-style run: benchmark profiles, instruction budget and
/// trace seed under the `padc` policy.
#[derive(Clone, Debug)]
pub struct SingleRun {
    /// One profile per core.
    pub benches: Vec<BenchProfile>,
    /// Instructions each core retires.
    pub instructions: u64,
    /// Trace seed.
    pub seed: u64,
}

impl SingleRun {
    /// The run a workload times, or `None` for the suite workload.
    pub fn of(workload: Workload, bench_seed: u64) -> Option<SingleRun> {
        let (names, instructions): (&[&str], u64) = match workload {
            Workload::Mcf1c => (&["mcf_06"], MCF_INSTRUCTIONS),
            Workload::Hog8c => (&HOG_MIX, HOG_INSTRUCTIONS),
            Workload::SmokeStore => return None,
        };
        Some(SingleRun {
            benches: names.iter().map(|n| profile(n)).collect(),
            instructions,
            seed: sim_seed(bench_seed),
        })
    }

    /// The simulator configuration.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.benches.len(), SchedulingPolicy::Padc);
        cfg.max_instructions = self.instructions;
        cfg.seed = self.seed;
        cfg
    }

    /// The store address of this run, `(digest, meta)`, exactly as the
    /// suite's unit cache computes it for the same configuration.
    pub fn store_key(&self) -> (String, String) {
        let arm = PolicyArm::new("padc", |n| SimConfig::new(n, SchedulingPolicy::Padc));
        let exp = ExpConfig::at(Scale::Smoke)
            .with_instructions(self.instructions)
            .with_seed(self.seed);
        let unit = SimUnit::workload(
            &arm,
            "",
            &padc_workloads::Workload::new(self.benches.clone()),
            &exp,
        );
        let meta = unit.store_meta();
        (digest_hex(meta.as_bytes()), meta)
    }
}

/// The suite workload's configuration: the smoke scale exactly as
/// `repro --smoke` runs it. Its seed also draws which multiprogrammed
/// mixes the suite simulates, and the mixes differ in cost by up to 2x, so
/// the suite keeps its canonical seed instead of taking the benchmark's;
/// a seed-dependent cost would swamp the run-to-run spread.
pub fn suite_config() -> ExpConfig {
    ExpConfig::at(Scale::Smoke)
}

/// Profiles (one per core) and trace seed that drive a workload's layer
/// replay. The suite workload replays the 8-core mix it simulates.
pub fn replay_inputs(workload: Workload, bench_seed: u64) -> (Vec<BenchProfile>, u64) {
    match SingleRun::of(workload, bench_seed) {
        Some(run) => (run.benches, run.seed),
        None => {
            let exp = suite_config();
            let mix = random_workloads(1, 8, exp.seed)
                .into_iter()
                .next()
                .expect("one workload requested");
            (mix.benchmarks, exp.seed)
        }
    }
}
