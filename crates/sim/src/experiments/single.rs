//! Single-core experiments: Figs. 1, 6, 7, 8 and Tables 5, 7.
//!
//! These are (benchmark, arm) grids. Each grid cell is planned as one
//! [`SimUnit::single`] in benchmark-major order; because single-core
//! units memoize process-wide by *(arm label, benchmark, instructions,
//! seed)*, the five grids share their cells with each other and with
//! every `IPC_alone` normalization run in the multi-core experiments.

use padc_workloads::{profiles, BenchProfile};

use crate::metrics::gmean;
use crate::Report;

use super::infra::{
    standard_arms, ExecMode, ExpConfig, ExpKind, ExpTable, PolicyArm, SimUnit, UnitKey, UnitResult,
    UnitResults,
};

/// The ten benchmarks of Fig. 1 (five prefetch-unfriendly, five friendly).
fn fig1_benchmarks() -> Vec<BenchProfile> {
    [
        "galgel_00",
        "ammp_00",
        "xalancbmk_06",
        "art_00",
        "milc_06",
        "libquantum_06",
        "swim_00",
        "bwaves_06",
        "leslie3d_06",
        "lbm_06",
    ]
    .iter()
    .map(|n| profiles::by_name(n).expect("catalog benchmark"))
    .collect()
}

/// The fifteen benchmarks Fig. 6–8 show individually.
fn fig6_benchmarks() -> Vec<BenchProfile> {
    [
        "swim_00",
        "galgel_00",
        "art_00",
        "ammp_00",
        "gcc_06",
        "mcf_06",
        "libquantum_06",
        "omnetpp_06",
        "xalancbmk_06",
        "bwaves_06",
        "milc_06",
        "cactusADM_06",
        "leslie3d_06",
        "soplex_06",
        "lbm_06",
    ]
    .iter()
    .map(|n| profiles::by_name(n).expect("catalog benchmark"))
    .collect()
}

/// Plans one single-core unit per grid cell, benchmark-major (the same
/// order the legacy `run_grid` executed in).
fn grid_plan(benches: &[BenchProfile], arms: &[PolicyArm], exp: &ExpConfig) -> Vec<SimUnit> {
    let mut units = Vec::with_capacity(benches.len() * arms.len());
    for bench in benches {
        for arm in arms {
            units.push(SimUnit::single(arm, bench, exp));
        }
    }
    units
}

/// Key-indexed grid view for the reduce phases: `report(bench, arm)`
/// addresses one cell.
struct GridView<'a> {
    idx: UnitResults<'a>,
    exp: ExpConfig,
}

impl<'a> GridView<'a> {
    fn new(results: &'a [UnitResult], exp: &ExpConfig) -> Self {
        GridView {
            idx: UnitResults::new(results),
            exp: *exp,
        }
    }

    fn report(&self, bench: &BenchProfile, arm: &PolicyArm) -> &'a Report {
        self.idx.get(&UnitKey::single(arm.label, bench, &self.exp))
    }

    fn ipc(&self, bench: &BenchProfile, arm: &PolicyArm) -> f64 {
        self.report(bench, arm).per_core[0].ipc()
    }
}

fn fig1_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let benches = fig1_benchmarks();
    let arms = standard_arms();
    let grid = GridView::new(results, exp);
    let mut t = ExpTable::new(
        "fig1",
        "Normalized IPC of a stream prefetcher under two rigid policies (vs no-pref)",
        &["demand-first", "demand-pref-equal"],
    );
    for bench in &benches {
        let base = grid.ipc(bench, &arms[0]);
        t.push(
            bench.name.clone(),
            vec![
                grid.ipc(bench, &arms[1]) / base,
                grid.ipc(bench, &arms[2]) / base,
            ],
        );
    }
    t
}

/// Fig. 1: IPC of the stream prefetcher under demand-first and
/// demand-prefetch-equal, normalized to no prefetching, for ten benchmarks.
pub fn fig1_motivation(exp: &ExpConfig) -> ExpTable {
    fig1_kind().tables(exp, ExecMode::Planned).remove(0)
}

pub(crate) fn fig1_kind() -> ExpKind {
    ExpKind::planned(
        // no-pref, demand-first, equal
        |exp| grid_plan(&fig1_benchmarks(), &standard_arms()[0..3], exp),
        |exp, results| vec![fig1_reduce(exp, results)],
    )
}

fn fig6_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let shown = fig6_benchmarks();
    let all = profiles::all();
    let arms = standard_arms();
    let grid = GridView::new(results, exp);
    let mut t = ExpTable::new(
        "fig6",
        "Single-core normalized IPC (vs demand-first); last row = gmean over 55 benchmarks",
        &[
            "no-pref",
            "demand-first",
            "demand-pref-equal",
            "aps-only",
            "aps-apd (PADC)",
        ],
    );
    let mut norms: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    for bench in &all {
        let base = grid.ipc(bench, &arms[1]);
        let row: Vec<f64> = arms.iter().map(|a| grid.ipc(bench, a) / base).collect();
        for (a, v) in row.iter().enumerate() {
            norms[a].push(*v);
        }
        if shown.iter().any(|s| s.name == bench.name) {
            t.push(bench.name.clone(), row);
        }
    }
    t.push("gmean55", norms.iter().map(|v| gmean(v)).collect());
    t
}

/// Fig. 6: single-core IPC for all five arms, normalized to demand-first,
/// for 15 benchmarks plus the gmean over the whole 55-benchmark suite.
pub fn fig6_single_core_ipc(exp: &ExpConfig) -> ExpTable {
    fig6_kind().tables(exp, ExecMode::Planned).remove(0)
}

pub(crate) fn fig6_kind() -> ExpKind {
    ExpKind::planned(
        |exp| grid_plan(&profiles::all(), &standard_arms(), exp),
        |exp, results| vec![fig6_reduce(exp, results)],
    )
}

fn fig7_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let shown = fig6_benchmarks();
    let all = profiles::all();
    let arms = standard_arms();
    let grid = GridView::new(results, exp);
    let mut t = ExpTable::new(
        "fig7",
        "Stall cycles per load (SPL), single core; last row = mean over 55 benchmarks",
        &[
            "no-pref",
            "demand-first",
            "demand-pref-equal",
            "aps-only",
            "aps-apd (PADC)",
        ],
    );
    let mut sums = vec![0.0; arms.len()];
    for bench in &all {
        let row: Vec<f64> = arms
            .iter()
            .map(|a| grid.report(bench, a).per_core[0].spl())
            .collect();
        for (a, v) in row.iter().enumerate() {
            sums[a] += v;
        }
        if shown.iter().any(|s| s.name == bench.name) {
            t.push(bench.name.clone(), row);
        }
    }
    t.push(
        "amean55",
        sums.iter().map(|s| s / all.len() as f64).collect(),
    );
    t
}

/// Fig. 7: stall-time per load (SPL) for the 15 shown benchmarks plus the
/// arithmetic mean over all 55.
pub fn fig7_spl(exp: &ExpConfig) -> ExpTable {
    fig7_kind().tables(exp, ExecMode::Planned).remove(0)
}

pub(crate) fn fig7_kind() -> ExpKind {
    ExpKind::planned(
        |exp| grid_plan(&profiles::all(), &standard_arms(), exp),
        |exp, results| vec![fig7_reduce(exp, results)],
    )
}

fn fig8_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let all = profiles::all();
    let arms = standard_arms();
    let grid = GridView::new(results, exp);
    let mut t = ExpTable::new(
        "fig8",
        "Bus traffic in cache lines (mean per benchmark over the 55-benchmark suite)",
        &["demand", "pref-useful", "pref-useless", "total"],
    );
    for arm in &arms {
        let mut demand = 0.0;
        let mut useful = 0.0;
        let mut useless = 0.0;
        for bench in &all {
            let tr = grid.report(bench, arm).traffic();
            demand += tr.demand as f64;
            useful += tr.pref_useful as f64;
            useless += tr.pref_useless as f64;
        }
        let n = all.len() as f64;
        t.push(
            arm.label,
            vec![
                demand / n,
                useful / n,
                useless / n,
                (demand + useful + useless) / n,
            ],
        );
    }
    t
}

/// Fig. 8: bus traffic split into demand / useful-prefetch / useless-
/// prefetch lines, per arm, summed over all 55 benchmarks (the paper's
/// `amean55` bars, scaled by the benchmark count).
pub fn fig8_traffic(exp: &ExpConfig) -> ExpTable {
    fig8_kind().tables(exp, ExecMode::Planned).remove(0)
}

pub(crate) fn fig8_kind() -> ExpKind {
    ExpKind::planned(
        |exp| grid_plan(&profiles::all(), &standard_arms(), exp),
        |exp, results| vec![fig8_reduce(exp, results)],
    )
}

fn tab5_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let all = profiles::all();
    let arms = standard_arms();
    let grid = GridView::new(results, exp);
    let mut t = ExpTable::new(
        "tab5",
        "Benchmark characteristics (no-pref IPC/MPKI; demand-first IPC/MPKI/RBH/ACC/COV; class)",
        &[
            "IPC(np)", "MPKI(np)", "IPC(df)", "MPKI(df)", "RBH", "ACC", "COV", "class",
        ],
    );
    for bench in &all {
        let np = &grid.report(bench, &arms[0]).per_core[0];
        let df_report = grid.report(bench, &arms[1]);
        let df = &df_report.per_core[0];
        let rbh = df_report.channels[0].row_hit_rate();
        t.push(
            bench.name.clone(),
            vec![
                np.ipc(),
                np.mpki(),
                df.ipc(),
                df.mpki(),
                rbh,
                df.acc(),
                df.cov(),
                bench.class.code() as f64,
            ],
        );
    }
    t
}

/// Table 5: benchmark characteristics with and without the stream
/// prefetcher (IPC, MPKI, RBH, ACC, COV, class) under demand-first.
pub fn tab5_characteristics(exp: &ExpConfig) -> ExpTable {
    tab5_kind().tables(exp, ExecMode::Planned).remove(0)
}

pub(crate) fn tab5_kind() -> ExpKind {
    ExpKind::planned(
        // no-pref + demand-first
        |exp| grid_plan(&profiles::all(), &standard_arms()[0..2], exp),
        |exp, results| vec![tab5_reduce(exp, results)],
    )
}

fn tab7_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let shown = [
        "swim_00",
        "galgel_00",
        "art_00",
        "ammp_00",
        "mcf_06",
        "libquantum_06",
        "omnetpp_06",
        "xalancbmk_06",
        "bwaves_06",
        "milc_06",
        "leslie3d_06",
        "soplex_06",
        "lbm_06",
    ];
    let all = profiles::all();
    let arms = standard_arms();
    let grid = GridView::new(results, exp);
    let mut t = ExpTable::new(
        "tab7",
        "Row-buffer hit rate for useful (demand + useful prefetch) requests",
        &[
            "no-pref",
            "demand-first",
            "demand-pref-equal",
            "aps-only",
            "aps-apd (PADC)",
        ],
    );
    let mut sums = vec![0.0; arms.len()];
    for bench in &all {
        let row: Vec<f64> = arms
            .iter()
            .map(|a| grid.report(bench, a).per_core[0].rbhu())
            .collect();
        for (a, v) in row.iter().enumerate() {
            sums[a] += v;
        }
        if shown.contains(&bench.name.as_str()) {
            t.push(bench.name.clone(), row);
        }
    }
    t.push(
        "amean55",
        sums.iter().map(|s| s / all.len() as f64).collect(),
    );
    t
}

/// Table 7: row-buffer hit rate for useful requests (RBHU) under each arm,
/// for the paper's 13 benchmarks plus the mean over the suite.
pub fn tab7_rbhu(exp: &ExpConfig) -> ExpTable {
    tab7_kind().tables(exp, ExecMode::Planned).remove(0)
}

pub(crate) fn tab7_kind() -> ExpKind {
    ExpKind::planned(
        |exp| grid_plan(&profiles::all(), &standard_arms(), exp),
        |exp, results| vec![tab7_reduce(exp, results)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    fn smoke() -> ExpConfig {
        ExpConfig::at(Scale::Smoke)
    }

    #[test]
    fn fig1_produces_ten_rows() {
        let t = fig1_motivation(&smoke());
        assert_eq!(t.rows.len(), 10);
        assert!(t.get("libquantum_06", "demand-first").unwrap() > 0.0);
    }

    #[test]
    fn fig6_has_gmean_row() {
        let t = fig6_single_core_ipc(&smoke());
        assert_eq!(t.rows.len(), 16);
        assert!((t.get("gmean55", "demand-first").unwrap() - 1.0).abs() < 1e-9);
        // Prefetching must help on average even at smoke scale.
        assert!(t.get("gmean55", "no-pref").unwrap() < 1.0);
    }

    #[test]
    fn tab5_reports_every_benchmark() {
        let t = tab5_characteristics(&smoke());
        assert_eq!(t.rows.len(), 55);
        let milc_class = t.get("milc_06", "class").unwrap();
        assert_eq!(milc_class, 2.0);
    }

    #[test]
    fn grid_plans_one_unit_per_cell() {
        let exp = smoke();
        let units = (fig6_kind().plan)(&exp);
        assert_eq!(units.len(), profiles::all().len() * standard_arms().len());
        // Every unit is single-core at the single-core budget.
        assert!(units
            .iter()
            .all(|u| u.key.benchmarks.len() == 1 && u.key.instructions == exp.instructions_single));
    }
}
