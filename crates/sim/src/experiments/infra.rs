use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use padc_core::SchedulingPolicy;
use padc_types::Cycle;
use padc_workloads::{BenchProfile, Workload};
use serde::{Deserialize, Serialize};

use crate::{metrics, Report, SimConfig, System};

/// Preset experiment scales, from paper-scale runs down to test smoke.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Scale {
    /// Paper-scale workload counts at a laptop-friendly instruction budget.
    Full,
    /// Reduced scale for quick looks.
    Quick,
    /// Tiny scale for the test suite.
    Smoke,
}

/// Scale knobs shared by all experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ExpConfig {
    /// Instructions each core retires before its stats freeze
    /// (multi-core runs).
    pub instructions: u64,
    /// Instructions for single-core runs (cheaper, so they run longer —
    /// long enough for the larger single-core L2 to wrap and exercise
    /// pollution/writeback effects).
    pub instructions_single: u64,
    /// Multiprogrammed workloads per multi-core aggregate (the paper uses
    /// 54 / 32 / 21 for 2 / 4 / 8 cores).
    pub workloads_2core: usize,
    /// 4-core workload count.
    pub workloads_4core: usize,
    /// 8-core workload count.
    pub workloads_8core: usize,
    /// Workload count for parameter sweeps (each sweep point re-runs the
    /// whole set, so sweeps use a smaller sample).
    pub workloads_sweep: usize,
    /// Workload-selection and trace seed.
    pub seed: u64,
}

impl ExpConfig {
    /// The configuration for a preset [`Scale`].
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => ExpConfig {
                instructions: 400_000,
                instructions_single: 800_000,
                workloads_2core: 32,
                workloads_4core: 24,
                workloads_8core: 12,
                workloads_sweep: 8,
                seed: 1,
            },
            Scale::Quick => ExpConfig {
                instructions: 120_000,
                instructions_single: 250_000,
                workloads_2core: 10,
                workloads_4core: 8,
                workloads_8core: 5,
                workloads_sweep: 4,
                seed: 1,
            },
            Scale::Smoke => ExpConfig {
                instructions: 25_000,
                instructions_single: 30_000,
                workloads_2core: 2,
                workloads_4core: 2,
                workloads_8core: 1,
                workloads_sweep: 1,
                seed: 1,
            },
        }
    }

    /// Returns the config with a different workload/trace seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different multi-core instruction budget.
    /// The single-core budget is raised to at least the same value so
    /// `IPC_alone` runs never retire fewer instructions than the shared
    /// runs they normalize.
    pub fn with_instructions(mut self, instructions: u64) -> Self {
        self.instructions = instructions;
        self.instructions_single = self.instructions_single.max(instructions);
        self
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self::at(Scale::Full)
    }
}

/// One result table: the rows/series of one paper figure or table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExpTable {
    /// Experiment id (e.g. `"fig6"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers (after the row label).
    pub columns: Vec<String>,
    /// Rows: label plus one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl ExpTable {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        ExpTable {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    /// Looks up a cell by row label and column name.
    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        self.rows
            .iter()
            .find(|(label, _)| label == row)
            .map(|(_, vals)| vals[col])
    }
}

impl ExpTable {
    /// Renders the table as RFC-4180-style CSV (label column first).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(&field(&self.id));
        for c in &self.columns {
            out.push(',');
            out.push_str(&field(c));
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            out.push_str(&field(label));
            for v in vals {
                out.push(',');
                out.push_str(&format!("{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders one column as a labelled ASCII bar chart (the paper's bar
    /// figures, in a terminal).
    ///
    /// Returns `None` if the column does not exist or holds no positive
    /// values.
    pub fn to_bars(&self, column: &str, width: usize) -> Option<String> {
        let col = self.columns.iter().position(|c| c == column)?;
        let max = self
            .rows
            .iter()
            .map(|(_, v)| v[col])
            .fold(f64::NEG_INFINITY, f64::max);
        if max.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return None;
        }
        let label_w = self.rows.iter().map(|(l, _)| l.len()).max()?.max(4);
        let mut out = format!("{} — {} [{}]\n", self.id, self.title, column);
        for (label, vals) in &self.rows {
            let v = vals[col];
            let n = ((v / max) * width as f64).round().max(0.0) as usize;
            out.push_str(&format!(
                "{label:<label_w$} {:<width$} {v:.3}\n",
                "#".repeat(n)
            ));
        }
        Some(out)
    }
}

impl fmt::Display for ExpTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4)
            .max(4);
        write!(f, "{:<label_w$}", "")?;
        for c in &self.columns {
            write!(f, " {:>14}", c)?;
        }
        writeln!(f)?;
        for (label, vals) in &self.rows {
            write!(f, "{label:<label_w$}")?;
            for v in vals {
                if v.abs() >= 1000.0 {
                    write!(f, " {:>14.0}", v)?;
                } else {
                    write!(f, " {:>14.3}", v)?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A named system variant evaluated in a figure: a label plus a
/// configuration recipe.
///
/// The recipe is a clonable closure, so sweep arms can capture their sweep
/// parameter (row-buffer size, L2 capacity, prefetcher kind, ...) instead
/// of hand-rolling one `fn` per point.
#[derive(Clone)]
pub struct PolicyArm {
    /// Bar label, matching the paper's legends.
    pub label: &'static str,
    build: Arc<dyn Fn(usize) -> SimConfig + Send + Sync>,
}

impl PolicyArm {
    /// Creates an arm from a label and a config recipe.
    pub fn new(
        label: &'static str,
        build: impl Fn(usize) -> SimConfig + Send + Sync + 'static,
    ) -> Self {
        PolicyArm {
            label,
            build: Arc::new(build),
        }
    }

    /// Builds the `SimConfig` for this arm given a core count.
    pub fn build(&self, cores: usize) -> SimConfig {
        (self.build)(cores)
    }

    /// Returns a new arm applying `mutate` on top of this arm's recipe —
    /// how sweep points wrap the standard arms with a captured parameter.
    pub fn mutated(&self, mutate: impl Fn(&mut SimConfig) + Send + Sync + 'static) -> Self {
        let base = self.build.clone();
        PolicyArm {
            label: self.label,
            build: Arc::new(move |n| {
                let mut cfg = base(n);
                mutate(&mut cfg);
                cfg
            }),
        }
    }
}

impl fmt::Debug for PolicyArm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PolicyArm({})", self.label)
    }
}

/// The paper's standard five-arm comparison (Figs. 6–17).
pub(crate) fn standard_arms() -> Vec<PolicyArm> {
    vec![
        PolicyArm::new("no-pref", |n| {
            SimConfig::new(n, SchedulingPolicy::DemandFirst).without_prefetching()
        }),
        PolicyArm::new("demand-first", |n| {
            SimConfig::new(n, SchedulingPolicy::DemandFirst)
        }),
        PolicyArm::new("demand-pref-equal", |n| {
            SimConfig::new(n, SchedulingPolicy::DemandPrefetchEqual)
        }),
        PolicyArm::new("aps-only", |n| SimConfig::new(n, SchedulingPolicy::ApsOnly)),
        PolicyArm::new("aps-apd (PADC)", |n| {
            SimConfig::new(n, SchedulingPolicy::Padc)
        }),
    ]
}

/// The canonical `IPC_alone` arm (§5.2): single-core, demand-first.
/// Labelled "demand-first" so the memo shares entries with the
/// demand-first arm of the single-core grids (identical configuration).
pub(crate) fn alone_arm() -> PolicyArm {
    PolicyArm::new("demand-first", |n| {
        SimConfig::new(n, SchedulingPolicy::DemandFirst)
    })
}

// ---------------------------------------------------------------------------
// The plan/execute/reduce contract.
// ---------------------------------------------------------------------------

/// Deterministic identity of one planned simulation.
///
/// Two units with equal keys are byte-for-byte the same simulation: the
/// arm label names a config recipe, `variant` disambiguates recipes that
/// reuse a label within one experiment (sweep points, open vs closed row),
/// and benchmarks/instructions/seed pin the inputs. Nothing else
/// (wall-clock, worker id, execution order) enters the key, which is what
/// makes planned execution safe to reorder, dedupe, and memoize.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct UnitKey {
    /// Policy-arm label (the paper legend).
    pub arm: String,
    /// Config variant within the experiment (`""` when the arm label
    /// already determines the config; e.g. `"row=2KB"` for sweep points).
    pub variant: String,
    /// Benchmark names in core order (one entry for alone runs).
    pub benchmarks: Vec<String>,
    /// Instruction budget per core.
    pub instructions: u64,
    /// Workload/trace seed.
    pub seed: u64,
}

impl UnitKey {
    /// Key of a multiprogrammed run of `w` under `arm`.
    pub fn workload(arm: &str, variant: &str, w: &Workload, exp: &ExpConfig) -> Self {
        UnitKey {
            arm: arm.to_string(),
            variant: variant.to_string(),
            benchmarks: w.benchmarks.iter().map(|b| b.name.clone()).collect(),
            instructions: exp.instructions,
            seed: exp.seed,
        }
    }

    /// Key of a single-core run of `bench` under `arm` (grid cells and
    /// `IPC_alone` normalization runs; note the single-core instruction
    /// budget).
    pub fn single(arm: &str, bench: &BenchProfile, exp: &ExpConfig) -> Self {
        UnitKey {
            arm: arm.to_string(),
            variant: "alone".to_string(),
            benchmarks: vec![bench.name.clone()],
            instructions: exp.instructions_single,
            seed: exp.seed,
        }
    }

    /// Key of the canonical §5.2 `IPC_alone` run of `bench`.
    pub fn alone(bench: &BenchProfile, exp: &ExpConfig) -> Self {
        Self::single(alone_arm().label, bench, exp)
    }
}

/// One planned simulation: a deterministic key plus the work recipe.
#[derive(Clone)]
pub struct SimUnit {
    /// The unit's deterministic identity.
    pub key: UnitKey,
    work: UnitWork,
}

#[derive(Clone)]
enum UnitWork {
    /// Multiprogrammed run: arm recipe applied to a workload.
    Workload { arm: PolicyArm, workload: Workload },
    /// Single-core run (memoized process-wide; see `run_single_at`).
    Single { arm: PolicyArm, bench: BenchProfile },
    /// Single-core run that also samples core 0's `PAR` every `period`
    /// cycles into [`Report::par_samples`] (see `run_sampled`).
    Sampled {
        arm: PolicyArm,
        bench: BenchProfile,
        period: Cycle,
    },
}

impl SimUnit {
    /// Plans a multiprogrammed run of `w` under `arm`.
    pub fn workload(arm: &PolicyArm, variant: &str, w: &Workload, exp: &ExpConfig) -> Self {
        SimUnit {
            key: UnitKey::workload(arm.label, variant, w, exp),
            work: UnitWork::Workload {
                arm: arm.clone(),
                workload: w.clone(),
            },
        }
    }

    /// Plans a single-core run of `bench` under `arm`.
    ///
    /// Single-core results memoize process-wide keyed by *(label, bench,
    /// instructions, seed)* — the label must determine the single-core
    /// config, so only pass arms whose recipe is label-stable (the
    /// standard arms and the canonical alone arm qualify; sweep-mutated
    /// arms must **not** be planned as single units).
    pub fn single(arm: &PolicyArm, bench: &BenchProfile, exp: &ExpConfig) -> Self {
        SimUnit {
            key: UnitKey::single(arm.label, bench, exp),
            work: UnitWork::Single {
                arm: arm.clone(),
                bench: bench.clone(),
            },
        }
    }

    /// Plans the canonical §5.2 `IPC_alone` run of `bench` (single-core,
    /// demand-first) used to normalize every multi-core metric.
    pub fn alone(bench: &BenchProfile, exp: &ExpConfig) -> Self {
        Self::single(&alone_arm(), bench, exp)
    }

    /// Plans a single-core run of `bench` under `arm` for `instructions`
    /// that records core 0's `PAR` at every multiple of `period` cycles
    /// the run reaches, in [`Report::par_samples`]. Never memoized: the
    /// samples make it a different result from the plain single run.
    pub fn sampled(
        arm: &PolicyArm,
        bench: &BenchProfile,
        instructions: u64,
        period: Cycle,
        exp: &ExpConfig,
    ) -> Self {
        SimUnit {
            key: UnitKey {
                arm: arm.label.to_string(),
                variant: format!("par-every-{period}"),
                benchmarks: vec![bench.name.clone()],
                instructions,
                seed: exp.seed,
            },
            work: UnitWork::Sampled {
                arm: arm.clone(),
                bench: bench.clone(),
                period,
            },
        }
    }

    /// The exact configuration and benchmarks [`execute`](Self::execute)
    /// runs.
    fn inputs(&self) -> (SimConfig, Vec<BenchProfile>) {
        let (arm, benches) = match &self.work {
            UnitWork::Single { arm, bench } | UnitWork::Sampled { arm, bench, .. } => {
                (arm, vec![bench.clone()])
            }
            UnitWork::Workload { arm, workload } => (arm, workload.benchmarks.clone()),
        };
        let mut cfg = arm.build(benches.len());
        cfg.max_instructions = self.key.instructions;
        cfg.seed = self.key.seed;
        (cfg, benches)
    }

    /// Runs the simulation this unit names. Deterministic: depends only on
    /// the key and the arm recipe.
    pub fn execute(&self) -> Report {
        match &self.work {
            UnitWork::Single { arm, bench } => {
                run_single_at(arm, bench, self.key.instructions, self.key.seed)
            }
            UnitWork::Workload { .. } => {
                let (cfg, benches) = self.inputs();
                System::new(cfg, benches).run()
            }
            UnitWork::Sampled { period, .. } => {
                let (cfg, benches) = self.inputs();
                run_sampled(System::new(cfg, benches), *period)
            }
        }
    }

    /// The unit's content-address document for the persistent store: the
    /// simulator fingerprint plus the **full** result-shaping inputs — the
    /// exact [`SimConfig`] [`execute`](Self::execute) would build and the
    /// benchmark profiles it would run, serialized to canonical JSON.
    ///
    /// Labels and variants are deliberately excluded: two arms that build
    /// identical configs share one entry (the same sharing the single-run
    /// memo exploits). Knobs proven observationally equivalent (the
    /// fast-forward mode) are also excluded — DESIGN.md §12 states the
    /// soundness rule and when
    /// [`RESULT_SCHEMA_VERSION`](super::RESULT_SCHEMA_VERSION) must be
    /// bumped instead. A sampled unit appends its `"sample_period"`; no
    /// other unit's meta carries that field.
    pub fn store_meta(&self) -> String {
        let (cfg, benches) = self.inputs();
        let sampling = match &self.work {
            UnitWork::Sampled { period, .. } => format!(",\"sample_period\":{period}"),
            _ => String::new(),
        };
        format!(
            "{{\"fingerprint\":{},\"config\":{},\"benchmarks\":{}{sampling}}}",
            serde_json::to_string(&super::unit_cache::fingerprint()).expect("string serializes"),
            serde_json::to_string(&cfg).expect("config serializes"),
            serde_json::to_string(&benches).expect("profiles serialize"),
        )
    }
}

impl fmt::Debug for SimUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimUnit({:?})", self.key)
    }
}

/// The report of one executed [`SimUnit`].
#[derive(Clone, Debug)]
pub struct UnitResult {
    /// The unit's identity.
    pub key: UnitKey,
    /// The simulation report.
    pub report: Report,
}

/// How planned units execute.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// Units fan out onto the shared harness worker pool (inline when no
    /// pool is installed). The default.
    #[default]
    Planned,
    /// Units run inline on the calling thread, in plan order — the
    /// compatibility path the determinism gate byte-diffs against.
    Monolithic,
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "planned" => Ok(ExecMode::Planned),
            "monolithic" => Ok(ExecMode::Monolithic),
            other => Err(format!(
                "unknown exec mode {other:?} (expected planned|monolithic)"
            )),
        }
    }
}

/// Executes every planned unit, returning results in plan order.
///
/// `Planned` mode schedules the units as first-class sub-jobs on the
/// shared `padc-harness` pool (so `--jobs N` load-balances across all
/// units of all experiments); `Monolithic` runs them inline. Both modes
/// produce identical results — units are independent simulations.
///
/// With a persistent store installed (or serve-mode coalescing on), units
/// first resolve through the content-addressed unit cache
/// (the `unit_cache` module): validated disk entries and in-flight
/// duplicates are never scheduled, so a fully warm run executes zero
/// simulations. Without it, this is exactly the legacy path.
pub fn execute_units(units: &[SimUnit], mode: ExecMode) -> Vec<UnitResult> {
    let reports: Vec<Report> = if super::unit_cache::active() {
        super::unit_cache::execute_cached(units, mode)
    } else {
        match mode {
            ExecMode::Planned => parallel_map(units.len(), |i| units[i].execute()),
            ExecMode::Monolithic => units.iter().map(|u| u.execute()).collect(),
        }
    };
    units
        .iter()
        .zip(reports)
        .map(|(u, report)| UnitResult {
            key: u.key.clone(),
            report,
        })
        .collect()
}

/// Key-indexed view over a slice of unit results, for `reduce` phases.
pub struct UnitResults<'a> {
    by_key: HashMap<&'a UnitKey, &'a Report>,
}

impl<'a> UnitResults<'a> {
    /// Indexes `results` by key.
    pub fn new(results: &'a [UnitResult]) -> Self {
        UnitResults {
            by_key: results.iter().map(|r| (&r.key, &r.report)).collect(),
        }
    }

    /// The report for `key`.
    ///
    /// # Panics
    ///
    /// Panics if the plan did not produce a unit with this key — a bug in
    /// the experiment's plan/reduce pairing, not a runtime condition.
    pub fn get(&self, key: &UnitKey) -> &'a Report {
        self.by_key
            .get(key)
            .unwrap_or_else(|| panic!("reduce requested unplanned unit {key:?}"))
    }

    /// `IPC_alone` of one benchmark (canonical §5.2 run).
    pub fn alone_ipc(&self, bench: &BenchProfile, exp: &ExpConfig) -> f64 {
        self.get(&UnitKey::alone(bench, exp)).per_core[0].ipc()
    }

    /// `IPC_alone` for each benchmark of a workload.
    pub fn alone_ipcs(&self, w: &Workload, exp: &ExpConfig) -> Vec<f64> {
        w.benchmarks
            .iter()
            .map(|b| self.alone_ipc(b, exp))
            .collect()
    }
}

/// Plans the deduplicated set of `IPC_alone` units for a workload set:
/// one unit per *distinct* benchmark, in first-appearance order. The
/// process-wide memo then dedupes further across experiments, so each
/// normalization run is computed exactly once per suite.
pub fn plan_alone_units(workloads: &[Workload], exp: &ExpConfig) -> Vec<SimUnit> {
    let mut seen = HashSet::new();
    let mut units = Vec::new();
    for w in workloads {
        for b in &w.benchmarks {
            if seen.insert(b.name.clone()) {
                units.push(SimUnit::alone(b, exp));
            }
        }
    }
    units
}

/// Plan phase: enumerates an experiment's independent simulation units.
pub type PlanFn = Arc<dyn Fn(&ExpConfig) -> Vec<SimUnit> + Send + Sync>;

/// Reduce phase: folds unit results (in plan order) into tables.
pub type ReduceFn = Arc<dyn Fn(&ExpConfig, &[UnitResult]) -> Vec<ExpTable> + Send + Sync>;

/// How an experiment executes: plan independent simulation units, execute
/// them on the shared pool, reduce the results into tables after a
/// per-experiment unit barrier (so table bytes never depend on
/// scheduling). Experiments that simulate nothing (fig2, cost, tab6) plan
/// no units and compute their table in `reduce`.
pub struct ExpKind {
    /// Enumerates the experiment's independent simulation units.
    pub plan: PlanFn,
    /// Folds unit results (in plan order) into tables.
    pub reduce: ReduceFn,
}

impl ExpKind {
    /// Builds a kind from the two phases.
    pub fn planned(
        plan: impl Fn(&ExpConfig) -> Vec<SimUnit> + Send + Sync + 'static,
        reduce: impl Fn(&ExpConfig, &[UnitResult]) -> Vec<ExpTable> + Send + Sync + 'static,
    ) -> Self {
        ExpKind {
            plan: Arc::new(plan),
            reduce: Arc::new(reduce),
        }
    }

    /// Runs the experiment: plan → execute (per `mode`) → reduce.
    pub fn tables(&self, exp: &ExpConfig, mode: ExecMode) -> Vec<ExpTable> {
        let units = (self.plan)(exp);
        let results = execute_units(&units, mode);
        (self.reduce)(exp, &results)
    }
}

// ---------------------------------------------------------------------------
// Single-run memo.
// ---------------------------------------------------------------------------

/// Process-wide memo of single-core runs: the same (arm, benchmark,
/// scale) tuple recurs across many experiments (the per-benchmark grids
/// of Figs. 6-8 / Tables 5 and 7, and every `IPC_alone` normalization),
/// and runs are deterministic, so each is computed once. Entries are
/// claim-based (`Arc<OnceLock>`): the first requester computes, any
/// concurrent requester for the same key blocks on that one computation
/// instead of duplicating it — "scheduled exactly once" across the suite.
type MemoKey = (String, String, u64, u64);
type MemoCell = Arc<OnceLock<Report>>;

fn single_run_memo() -> &'static Mutex<HashMap<MemoKey, MemoCell>> {
    static MEMO: OnceLock<Mutex<HashMap<MemoKey, MemoCell>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

static SINGLE_RUNS_REQUESTED: AtomicU64 = AtomicU64::new(0);
static SINGLE_RUNS_COMPUTED: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(requested, computed)` counters of the single-run memo.
/// `computed` counts actual simulations; `requested - computed` is the
/// dedup win. Monotonic over the process lifetime.
pub fn single_run_stats() -> (u64, u64) {
    (
        SINGLE_RUNS_REQUESTED.load(Ordering::Relaxed),
        SINGLE_RUNS_COMPUTED.load(Ordering::Relaxed),
    )
}

/// Runs one benchmark alone on a single-core system under the arm's
/// configuration at an explicit (instructions, seed), memoized.
fn run_single_at(arm: &PolicyArm, bench: &BenchProfile, instructions: u64, seed: u64) -> Report {
    SINGLE_RUNS_REQUESTED.fetch_add(1, Ordering::Relaxed);
    let key = (
        arm.label.to_string(),
        bench.name.clone(),
        instructions,
        seed,
    );
    let cell = {
        let mut memo = single_run_memo().lock().expect("memo poisoned");
        memo.entry(key).or_default().clone()
    };
    cell.get_or_init(|| {
        SINGLE_RUNS_COMPUTED.fetch_add(1, Ordering::Relaxed);
        let mut cfg = arm.build(1);
        cfg.max_instructions = instructions;
        cfg.seed = seed;
        System::new(cfg, vec![bench.clone()]).run()
    })
    .clone()
}

/// Runs `sys` to completion, recording core 0's `PAR` at every multiple
/// of `period` cycles the run reaches — the same cycles, and the same
/// values, as sampling after each cycle of a stepped loop, but with the
/// configured fast-forward kernel between samples. The final `run` folds
/// the whole simulation into the profile once, not once per sample.
fn run_sampled(mut sys: System, period: Cycle) -> Report {
    let mut samples = Vec::new();
    let mut next = period;
    loop {
        sys.run_until(next);
        if sys.now() < next {
            break;
        }
        samples.push(sys.accuracy(0));
        next += period;
    }
    let mut report = sys.run();
    report.par_samples = samples;
    report
}

/// Runs one benchmark alone on a single-core system under the arm's
/// configuration, returning its (memoized) report. Test-only since the
/// plan/execute/reduce redesign: production paths go through
/// [`SimUnit::execute`]; the legacy-transcription byte tests keep this as
/// the independent reference implementation.
#[cfg(test)]
pub(crate) fn run_single(arm: &PolicyArm, bench: &BenchProfile, exp: &ExpConfig) -> Report {
    run_single_at(arm, bench, exp.instructions_single, exp.seed)
}

/// Runs a multiprogrammed workload under the arm's configuration
/// (test-only reference path; see [`run_single`]).
#[cfg(test)]
pub(crate) fn run_workload(arm: &PolicyArm, w: &Workload, exp: &ExpConfig) -> Report {
    let mut cfg = arm.build(w.cores());
    cfg.max_instructions = exp.instructions;
    cfg.seed = exp.seed;
    System::new(cfg, w.benchmarks.clone()).run()
}

/// `IPC_alone` for each benchmark of a workload — measured on a single-core
/// system with the demand-first policy, as §5.2 specifies (test-only
/// reference path; see [`run_single`]).
#[cfg(test)]
pub(crate) fn alone_ipcs(w: &Workload, exp: &ExpConfig) -> Vec<f64> {
    let arm = alone_arm();
    w.benchmarks
        .iter()
        .map(|b| run_single(&arm, b, exp).per_core[0].ipc())
        .collect()
}

/// Aggregate outcome of one workload under one arm.
#[derive(Clone, Debug, Default)]
pub(crate) struct WorkloadOutcome {
    pub ws: f64,
    pub hs: f64,
    pub uf: f64,
    pub traffic_total: f64,
}

impl WorkloadOutcome {
    /// Computes the outcome of one report against its alone-IPC baseline.
    pub(crate) fn from_report(r: &Report, alone: &[f64]) -> Self {
        let ipcs: Vec<f64> = r.per_core.iter().map(|c| c.ipc()).collect();
        WorkloadOutcome {
            ws: metrics::weighted_speedup(&ipcs, alone),
            hs: metrics::harmonic_speedup(&ipcs, alone),
            uf: metrics::unfairness(&ipcs, alone),
            traffic_total: r.traffic().total() as f64,
        }
    }
}

/// Averages outcomes across workloads (UF clamped: it can be infinite if
/// a core starves completely).
pub(crate) fn average_outcomes(results: &[WorkloadOutcome]) -> WorkloadOutcome {
    let n = results.len().max(1) as f64;
    let mut acc = WorkloadOutcome::default();
    for r in results {
        acc.ws += r.ws / n;
        acc.hs += r.hs / n;
        acc.uf += r.uf.min(100.0) / n;
        acc.traffic_total += r.traffic_total / n;
    }
    acc
}

/// Deterministic fan-out map over `0..n`, in index order.
///
/// Under the suite harness this enqueues the units onto the shared
/// `padc-harness` worker pool (so `--jobs N` bounds *total* simulation
/// threads — this shim never spawns its own); outside the harness (unit
/// tests, direct library use) the units run inline on the calling thread.
pub(crate) fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    padc_harness::subjob_map(n, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_and_prints() {
        let mut t = ExpTable::new("figX", "demo", &["WS", "HS"]);
        t.push("demand-first", vec![1.0, 0.5]);
        t.push("PADC", vec![1.1, 0.6]);
        assert_eq!(t.get("PADC", "WS"), Some(1.1));
        assert_eq!(t.get("PADC", "missing"), None);
        assert_eq!(t.get("missing", "WS"), None);
        let s = t.to_string();
        assert!(s.contains("figX"));
        assert!(s.contains("demand-first"));
    }

    #[test]
    fn csv_rendering_escapes_and_lists_rows() {
        let mut t = ExpTable::new("figX", "demo", &["WS", "notes,weird"]);
        t.push("a,b", vec![1.5, 2.0]);
        let csv = t.to_csv();
        assert!(csv.starts_with("figX,WS,\"notes,weird\"\n"));
        assert!(csv.contains("\"a,b\",1.5,2"));
    }

    #[test]
    fn bar_rendering_scales_to_max() {
        let mut t = ExpTable::new("figX", "demo", &["WS"]);
        t.push("small", vec![1.0]);
        t.push("big", vec![2.0]);
        let bars = t.to_bars("WS", 10).expect("column exists");
        assert!(bars.contains("big"));
        let big_line = bars.lines().find(|l| l.starts_with("big")).unwrap();
        let small_line = bars.lines().find(|l| l.starts_with("small")).unwrap();
        let hashes = |l: &str| l.chars().filter(|c| *c == '#').count();
        assert_eq!(hashes(big_line), 10);
        assert_eq!(hashes(small_line), 5);
        assert!(t.to_bars("missing", 10).is_none());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut t = ExpTable::new("x", "x", &["a", "b"]);
        t.push("r", vec![1.0]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn standard_arms_match_paper_legend() {
        let arms = standard_arms();
        let labels: Vec<_> = arms.iter().map(|a| a.label).collect();
        assert_eq!(
            labels,
            vec![
                "no-pref",
                "demand-first",
                "demand-pref-equal",
                "aps-only",
                "aps-apd (PADC)"
            ]
        );
    }

    #[test]
    fn exp_config_scales_are_ordered() {
        let smoke = ExpConfig::at(Scale::Smoke);
        let quick = ExpConfig::at(Scale::Quick);
        let full = ExpConfig::at(Scale::Full);
        assert!(smoke.instructions < quick.instructions);
        assert!(quick.instructions <= full.instructions);
        assert!(full.workloads_4core >= 24);
        assert!(full.instructions_single >= full.instructions);
    }

    #[test]
    fn default_config_is_full_scale() {
        assert_eq!(ExpConfig::default(), ExpConfig::at(Scale::Full));
    }

    #[test]
    fn builder_setters_chain() {
        let cfg = ExpConfig::at(Scale::Smoke)
            .with_seed(7)
            .with_instructions(50_000);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.instructions, 50_000);
        // The single-core budget never drops below the multi-core budget.
        assert_eq!(cfg.instructions_single, 50_000);
        let cfg = ExpConfig::at(Scale::Full).with_instructions(100);
        assert_eq!(cfg.instructions_single, 800_000);
    }

    #[test]
    fn policy_arm_closures_capture_parameters() {
        let sizes = [2 * 1024u64, 128 * 1024];
        let arms: Vec<PolicyArm> = sizes
            .iter()
            .map(|&size| {
                PolicyArm::new("demand-first", move |n| {
                    let mut cfg = SimConfig::new(n, SchedulingPolicy::DemandFirst);
                    cfg.dram.row_bytes = size;
                    cfg
                })
            })
            .collect();
        assert_eq!(arms[0].build(4).dram.row_bytes, 2 * 1024);
        assert_eq!(arms[1].build(4).dram.row_bytes, 128 * 1024);
        let wrapped = arms[0].mutated(|cfg| cfg.dram.row_bytes = 4096);
        assert_eq!(wrapped.build(2).dram.row_bytes, 4096);
        assert_eq!(arms[0].build(2).dram.row_bytes, 2 * 1024, "base unchanged");
    }

    #[test]
    fn unit_keys_identify_simulations() {
        let exp = ExpConfig::at(Scale::Smoke);
        let w = Workload::from_names(&["milc_06", "swim_00"]);
        let k1 = UnitKey::workload("aps-only", "", &w, &exp);
        let k2 = UnitKey::workload("aps-only", "", &w, &exp);
        assert_eq!(k1, k2);
        assert_ne!(k1, UnitKey::workload("aps-only", "row=2KB", &w, &exp));
        assert_ne!(k1, UnitKey::workload("aps-only", "", &w, &exp.with_seed(2)));
        let b = &w.benchmarks[0];
        assert_eq!(UnitKey::alone(b, &exp).arm, "demand-first");
        assert_eq!(
            UnitKey::alone(b, &exp).instructions,
            exp.instructions_single
        );
    }

    #[test]
    fn plan_alone_units_dedupes_across_workloads() {
        let exp = ExpConfig::at(Scale::Smoke);
        let workloads = vec![
            Workload::from_names(&["milc_06", "swim_00"]),
            Workload::from_names(&["swim_00", "lbm_06"]),
        ];
        let units = plan_alone_units(&workloads, &exp);
        let names: Vec<_> = units.iter().map(|u| u.key.benchmarks[0].clone()).collect();
        assert_eq!(names, vec!["milc_06", "swim_00", "lbm_06"]);
    }

    #[test]
    fn single_run_memo_computes_each_key_once() {
        let exp = ExpConfig::at(Scale::Smoke).with_seed(0xC0FFEE);
        let b = padc_workloads::profiles::by_name("milc_06").expect("catalog");
        let (_, computed_before) = single_run_stats();
        let r1 = SimUnit::alone(&b, &exp).execute();
        let (_, computed_mid) = single_run_stats();
        let r2 = SimUnit::alone(&b, &exp).execute();
        let (requested, computed_after) = single_run_stats();
        assert_eq!(computed_mid, computed_before + 1, "first request computes");
        assert_eq!(computed_after, computed_mid, "second request reuses");
        assert!(requested >= 2);
        assert_eq!(r1.per_core[0].ipc(), r2.per_core[0].ipc());
    }

    #[test]
    fn exec_mode_parses() {
        assert_eq!("planned".parse::<ExecMode>(), Ok(ExecMode::Planned));
        assert_eq!("monolithic".parse::<ExecMode>(), Ok(ExecMode::Monolithic));
        assert!("inline".parse::<ExecMode>().is_err());
    }
}
