//! Interactions with other mechanisms: alternative prefetchers (Fig. 28),
//! DDPF and FDP (Figs. 29, 30), permutation-based interleaving (Fig. 31),
//! runahead execution (Fig. 32), and the hardware-cost tables (1, 2, 6).
//!
//! The mechanism comparisons are (workload, arm) grids like the
//! aggregates, so they use the plan/execute/reduce contract; each arm is
//! a [`PolicyArm`] closure combining a base policy with a configuration
//! mutation. The cost tables (1, 2, 6) are pure computations and stay on
//! the monolithic path.

use padc_core::{cost, DropThresholds, SchedulingPolicy};
use padc_dram::{MappingScheme, RefreshPolicy};
use padc_prefetch::PrefetcherKind;
use padc_workloads::{random_workloads, Workload};

use crate::SimConfig;

use super::infra::{
    plan_alone_units, ExpConfig, ExpKind, ExpTable, PolicyArm, SimUnit, UnitKey, UnitResult,
    UnitResults,
};

/// Builds one mechanism arm: base policy, prefetching on/off, and a
/// configuration mutation captured by the arm's recipe closure.
fn mech_arm(
    label: &'static str,
    policy: SchedulingPolicy,
    prefetch: bool,
    mutate: fn(&mut SimConfig),
) -> PolicyArm {
    PolicyArm::new(label, move |n| {
        let mut cfg = SimConfig::new(n, policy);
        if !prefetch {
            cfg = cfg.without_prefetching();
        }
        mutate(&mut cfg);
        cfg
    })
}

/// Builds an arm list with a shared mutation applied on top of base
/// policies.
fn arms_with(
    labels_policies: &[(&'static str, SchedulingPolicy, bool)],
    mutate: fn(&mut SimConfig),
) -> Vec<PolicyArm> {
    labels_policies
        .iter()
        .map(|(l, p, pf)| mech_arm(l, *p, *pf, mutate))
        .collect()
}

/// The 4-core workload set shared by the mechanism comparisons.
fn mech_workloads(exp: &ExpConfig) -> Vec<Workload> {
    random_workloads(exp.workloads_sweep, 4, exp.seed)
}

/// Plans one arm set: deduplicated alone units, then one unit per
/// (arm, workload) pair tagged with `variant`.
fn plan_arm_set(arms: &[PolicyArm], variant: &str, exp: &ExpConfig) -> Vec<SimUnit> {
    let workloads = mech_workloads(exp);
    let mut units = plan_alone_units(&workloads, exp);
    for arm in arms {
        for w in &workloads {
            units.push(SimUnit::workload(arm, variant, w, exp));
        }
    }
    units
}

/// One reduced table row: WS/HS/UF/traffic means over the workload set.
fn arm_set_row(
    idx: &UnitResults<'_>,
    workloads: &[Workload],
    alone: &[Vec<f64>],
    arm_label: &str,
    variant: &str,
    exp: &ExpConfig,
) -> Vec<f64> {
    let results: Vec<(f64, f64, f64, f64)> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let r = idx.get(&UnitKey::workload(arm_label, variant, w, exp));
            let ipcs: Vec<f64> = r.per_core.iter().map(|c| c.ipc()).collect();
            (
                crate::metrics::weighted_speedup(&ipcs, &alone[i]),
                crate::metrics::harmonic_speedup(&ipcs, &alone[i]),
                crate::metrics::unfairness(&ipcs, &alone[i]).min(100.0),
                r.traffic().total() as f64,
            )
        })
        .collect();
    let n = results.len().max(1) as f64;
    vec![
        results.iter().map(|r| r.0).sum::<f64>() / n,
        results.iter().map(|r| r.1).sum::<f64>() / n,
        results.iter().map(|r| r.2).sum::<f64>() / n,
        results.iter().map(|r| r.3).sum::<f64>() / n,
    ]
}

fn reduce_arm_set(
    id: &str,
    title: &str,
    arms: &[PolicyArm],
    variant: &str,
    exp: &ExpConfig,
    idx: &UnitResults<'_>,
) -> ExpTable {
    let workloads = mech_workloads(exp);
    let alone: Vec<Vec<f64>> = workloads.iter().map(|w| idx.alone_ipcs(w, exp)).collect();
    let mut t = ExpTable::new(id, title, &["WS", "HS", "UF", "traffic(lines)"]);
    for arm in arms {
        t.push(
            arm.label,
            arm_set_row(idx, &workloads, &alone, arm.label, variant, exp),
        );
    }
    t
}

/// Plan/reduce kind for a single-table arm-set comparison.
fn arm_set_kind(id: &'static str, title: &'static str, arms: fn() -> Vec<PolicyArm>) -> ExpKind {
    ExpKind::planned(
        move |exp| plan_arm_set(&arms(), "", exp),
        move |exp, results| {
            let idx = UnitResults::new(results);
            vec![reduce_arm_set(id, title, &arms(), "", exp, &idx)]
        },
    )
}

/// The stride / C/DC / Markov variants of Fig. 28 and their shared base
/// arm list.
fn fig28_sets() -> Vec<(&'static str, Vec<PolicyArm>)> {
    fn set_stride(cfg: &mut SimConfig) {
        cfg.prefetcher = cfg.prefetcher.map(|_| PrefetcherKind::Stride);
    }
    fn set_cdc(cfg: &mut SimConfig) {
        cfg.prefetcher = cfg.prefetcher.map(|_| PrefetcherKind::Cdc);
    }
    fn set_markov(cfg: &mut SimConfig) {
        cfg.prefetcher = cfg.prefetcher.map(|_| PrefetcherKind::Markov);
    }
    let base: [(&'static str, SchedulingPolicy, bool); 4] = [
        ("no-pref", SchedulingPolicy::DemandFirst, false),
        ("demand-first", SchedulingPolicy::DemandFirst, true),
        (
            "demand-pref-equal",
            SchedulingPolicy::DemandPrefetchEqual,
            true,
        ),
        ("PADC", SchedulingPolicy::Padc, true),
    ];
    vec![
        ("stride", arms_with(&base, set_stride)),
        ("cdc", arms_with(&base, set_cdc)),
        ("markov", arms_with(&base, set_markov)),
    ]
}

fn fig28_plan(exp: &ExpConfig) -> Vec<SimUnit> {
    let workloads = mech_workloads(exp);
    let mut units = plan_alone_units(&workloads, exp);
    for (name, arms) in fig28_sets() {
        for arm in &arms {
            for w in &workloads {
                units.push(SimUnit::workload(arm, name, w, exp));
            }
        }
    }
    units
}

fn fig28_reduce(exp: &ExpConfig, results: &[UnitResult]) -> Vec<ExpTable> {
    let idx = UnitResults::new(results);
    fig28_sets()
        .into_iter()
        .map(|(name, arms)| {
            reduce_arm_set(
                &format!("fig28-{name}"),
                &format!("PADC under the {name} prefetcher, 4-core"),
                &arms,
                name,
                exp,
                &idx,
            )
        })
        .collect()
}

pub(crate) fn fig28_kind() -> ExpKind {
    ExpKind::planned(fig28_plan, fig28_reduce)
}

fn fig29_arms() -> Vec<PolicyArm> {
    fn none(_: &mut SimConfig) {}
    fn ddpf(cfg: &mut SimConfig) {
        cfg.ddpf = true;
    }
    fn fdp(cfg: &mut SimConfig) {
        cfg.fdp = true;
    }
    fn apd(cfg: &mut SimConfig) {
        cfg.controller.apd = true;
    }
    vec![
        mech_arm("demand-first", SchedulingPolicy::DemandFirst, true, none),
        mech_arm(
            "demand-first-ddpf",
            SchedulingPolicy::DemandFirst,
            true,
            ddpf,
        ),
        mech_arm("demand-first-fdp", SchedulingPolicy::DemandFirst, true, fdp),
        mech_arm("demand-first-apd", SchedulingPolicy::DemandFirst, true, apd),
        mech_arm("aps-ddpf", SchedulingPolicy::ApsOnly, true, ddpf),
        mech_arm("aps-fdp", SchedulingPolicy::ApsOnly, true, fdp),
        mech_arm("aps-apd (PADC)", SchedulingPolicy::Padc, true, none),
    ]
}

pub(crate) fn fig29_kind() -> ExpKind {
    arm_set_kind(
        "fig29",
        "DDPF / FDP / APD with demand-first and APS, 4-core",
        fig29_arms,
    )
}

fn fig30_arms() -> Vec<PolicyArm> {
    fn none(_: &mut SimConfig) {}
    fn ddpf(cfg: &mut SimConfig) {
        cfg.ddpf = true;
    }
    fn fdp(cfg: &mut SimConfig) {
        cfg.fdp = true;
    }
    vec![
        mech_arm("demand-first", SchedulingPolicy::DemandFirst, true, none),
        mech_arm(
            "demand-pref-equal",
            SchedulingPolicy::DemandPrefetchEqual,
            true,
            none,
        ),
        mech_arm(
            "demand-pref-equal-ddpf",
            SchedulingPolicy::DemandPrefetchEqual,
            true,
            ddpf,
        ),
        mech_arm(
            "demand-pref-equal-fdp",
            SchedulingPolicy::DemandPrefetchEqual,
            true,
            fdp,
        ),
        mech_arm("aps", SchedulingPolicy::ApsOnly, true, none),
        mech_arm("aps-apd (PADC)", SchedulingPolicy::Padc, true, none),
    ]
}

pub(crate) fn fig30_kind() -> ExpKind {
    arm_set_kind(
        "fig30",
        "DDPF / FDP with demand-prefetch-equal, 4-core",
        fig30_arms,
    )
}

fn fig31_arms() -> Vec<PolicyArm> {
    fn none(_: &mut SimConfig) {}
    fn perm(cfg: &mut SimConfig) {
        cfg.mapping = MappingScheme::Permutation;
    }
    vec![
        mech_arm("no-pref", SchedulingPolicy::DemandFirst, false, none),
        mech_arm("no-pref-perm", SchedulingPolicy::DemandFirst, false, perm),
        mech_arm("demand-first", SchedulingPolicy::DemandFirst, true, none),
        mech_arm(
            "demand-first-perm",
            SchedulingPolicy::DemandFirst,
            true,
            perm,
        ),
        mech_arm("aps-only-perm", SchedulingPolicy::ApsOnly, true, perm),
        mech_arm("PADC", SchedulingPolicy::Padc, true, none),
        mech_arm("PADC-perm", SchedulingPolicy::Padc, true, perm),
    ]
}

pub(crate) fn fig31_kind() -> ExpKind {
    arm_set_kind(
        "fig31",
        "Permutation-based page interleaving, 4-core",
        fig31_arms,
    )
}

fn fig32_arms() -> Vec<PolicyArm> {
    fn none(_: &mut SimConfig) {}
    fn ra(cfg: &mut SimConfig) {
        cfg.core.runahead = true;
    }
    vec![
        mech_arm("no-pref", SchedulingPolicy::DemandFirst, false, none),
        mech_arm("no-pref-ra", SchedulingPolicy::DemandFirst, false, ra),
        mech_arm("demand-first", SchedulingPolicy::DemandFirst, true, none),
        mech_arm("demand-first-ra", SchedulingPolicy::DemandFirst, true, ra),
        mech_arm("aps-only-ra", SchedulingPolicy::ApsOnly, true, ra),
        mech_arm("PADC", SchedulingPolicy::Padc, true, none),
        mech_arm("PADC-ra", SchedulingPolicy::Padc, true, ra),
    ]
}

pub(crate) fn fig32_kind() -> ExpKind {
    arm_set_kind("fig32", "Runahead execution, 4-core", fig32_arms)
}

fn ext_batch_arms() -> Vec<PolicyArm> {
    fn none(_: &mut SimConfig) {}
    fn batch(cfg: &mut SimConfig) {
        cfg.controller.batching = true;
    }
    vec![
        mech_arm("demand-first", SchedulingPolicy::DemandFirst, true, none),
        mech_arm("PADC", SchedulingPolicy::Padc, true, none),
        mech_arm("PADC-rank", SchedulingPolicy::PadcRank, true, none),
        mech_arm("PADC-batch", SchedulingPolicy::Padc, true, batch),
        mech_arm("PADC-rank-batch", SchedulingPolicy::PadcRank, true, batch),
    ]
}

pub(crate) fn ext_batch_kind() -> ExpKind {
    arm_set_kind(
        "ext-batch",
        "Extension: PAR-BS batching on top of PADC, 4-core",
        ext_batch_arms,
    )
}

fn ext_timing_arms() -> Vec<PolicyArm> {
    fn none(_: &mut SimConfig) {}
    fn ext(cfg: &mut SimConfig) {
        *cfg = cfg
            .clone()
            .with_extended_timing(padc_dram::ExtendedTiming::default());
    }
    vec![
        mech_arm("demand-first", SchedulingPolicy::DemandFirst, true, none),
        mech_arm("demand-first-ext", SchedulingPolicy::DemandFirst, true, ext),
        mech_arm("PADC", SchedulingPolicy::Padc, true, none),
        mech_arm("PADC-ext", SchedulingPolicy::Padc, true, ext),
    ]
}

pub(crate) fn ext_timing_kind() -> ExpKind {
    arm_set_kind(
        "ext-timing",
        "Extension: full DDR3 timing constraints vs the paper's model, 4-core",
        ext_timing_arms,
    )
}

fn ext_wdrain_arms() -> Vec<PolicyArm> {
    fn none(_: &mut SimConfig) {}
    fn wd(cfg: &mut SimConfig) {
        cfg.controller.write_drain = true;
    }
    vec![
        mech_arm("demand-first", SchedulingPolicy::DemandFirst, true, none),
        mech_arm(
            "demand-first-wdrain",
            SchedulingPolicy::DemandFirst,
            true,
            wd,
        ),
        mech_arm("PADC", SchedulingPolicy::Padc, true, none),
        mech_arm("PADC-wdrain", SchedulingPolicy::Padc, true, wd),
    ]
}

pub(crate) fn ext_wdrain_kind() -> ExpKind {
    arm_set_kind(
        "ext-wdrain",
        "Extension: watermark write-drain vs writebacks-as-demands, 4-core",
        ext_wdrain_arms,
    )
}

/// The stream-vs-DSPatch arm sets: the same four base arms run under the
/// default stream prefetcher and under the DSPatch spatial prefetcher
/// (Bera et al., MICRO 2019; see PAPERS.md). DSPatch's dual-pattern
/// modulator changes its measured accuracy over time, which is exactly
/// the input PADC's APS/APD mechanisms key on — this set probes whether
/// PADC's win holds when the prefetcher's accuracy is itself adaptive.
fn ext_dspatch_sets() -> Vec<(&'static str, Vec<PolicyArm>)> {
    fn keep_stream(_: &mut SimConfig) {}
    fn set_dspatch(cfg: &mut SimConfig) {
        cfg.prefetcher = cfg.prefetcher.map(|_| PrefetcherKind::DsPatch);
    }
    let base: [(&'static str, SchedulingPolicy, bool); 4] = [
        ("no-pref", SchedulingPolicy::DemandFirst, false),
        ("demand-first", SchedulingPolicy::DemandFirst, true),
        (
            "demand-pref-equal",
            SchedulingPolicy::DemandPrefetchEqual,
            true,
        ),
        ("PADC", SchedulingPolicy::Padc, true),
    ];
    vec![
        ("stream", arms_with(&base, keep_stream)),
        ("dspatch", arms_with(&base, set_dspatch)),
    ]
}

fn ext_dspatch_plan(exp: &ExpConfig) -> Vec<SimUnit> {
    let workloads = mech_workloads(exp);
    let mut units = plan_alone_units(&workloads, exp);
    for (name, arms) in ext_dspatch_sets() {
        for arm in &arms {
            for w in &workloads {
                units.push(SimUnit::workload(arm, name, w, exp));
            }
        }
    }
    units
}

fn ext_dspatch_reduce(exp: &ExpConfig, results: &[UnitResult]) -> Vec<ExpTable> {
    let idx = UnitResults::new(results);
    ext_dspatch_sets()
        .into_iter()
        .map(|(name, arms)| {
            reduce_arm_set(
                &format!("ext-dspatch-{name}"),
                &format!("Extension: PADC under the {name} prefetcher, 4-core"),
                &arms,
                name,
                exp,
                &idx,
            )
        })
        .collect()
}

pub(crate) fn ext_dspatch_kind() -> ExpKind {
    ExpKind::planned(ext_dspatch_plan, ext_dspatch_reduce)
}

/// The refresh-policy arm sets: demand-first and PADC run under each of
/// the three [`RefreshPolicy`] organizations with extended timing (and
/// therefore refresh) enabled. All-bank refresh blocks the whole channel
/// for t_RFC every t_REFI; per-bank staggers the windows so only one bank
/// at a time is out; DARP additionally pulls refreshes early into idle
/// banks (Chang et al.'s refresh-access parallelism; see PAPERS.md).
/// Refresh steals exactly the bank time prefetches would speculate into,
/// so this set probes whether PADC's win survives — and grows with — the
/// reclaimed refresh bandwidth.
fn ext_refresh_sets() -> Vec<(&'static str, Vec<PolicyArm>)> {
    fn all_bank(cfg: &mut SimConfig) {
        *cfg = cfg
            .clone()
            .with_extended_timing(padc_dram::ExtendedTiming::default())
            .with_refresh_policy(RefreshPolicy::AllBank);
    }
    fn per_bank(cfg: &mut SimConfig) {
        *cfg = cfg.clone().with_refresh_policy(RefreshPolicy::PerBank);
    }
    fn darp(cfg: &mut SimConfig) {
        *cfg = cfg.clone().with_refresh_policy(RefreshPolicy::Darp);
    }
    let base: [(&'static str, SchedulingPolicy, bool); 2] = [
        ("demand-first", SchedulingPolicy::DemandFirst, true),
        ("PADC", SchedulingPolicy::Padc, true),
    ];
    vec![
        ("all-bank", arms_with(&base, all_bank)),
        ("per-bank", arms_with(&base, per_bank)),
        ("darp", arms_with(&base, darp)),
    ]
}

fn ext_refresh_plan(exp: &ExpConfig) -> Vec<SimUnit> {
    let workloads = mech_workloads(exp);
    let mut units = plan_alone_units(&workloads, exp);
    for (name, arms) in ext_refresh_sets() {
        for arm in &arms {
            for w in &workloads {
                units.push(SimUnit::workload(arm, name, w, exp));
            }
        }
    }
    units
}

fn ext_refresh_reduce(exp: &ExpConfig, results: &[UnitResult]) -> Vec<ExpTable> {
    let idx = UnitResults::new(results);
    ext_refresh_sets()
        .into_iter()
        .map(|(name, arms)| {
            reduce_arm_set(
                &format!("ext-refresh-{name}"),
                &format!("Extension: PADC under {name} refresh, 4-core"),
                &arms,
                name,
                exp,
                &idx,
            )
        })
        .collect()
}

pub(crate) fn ext_refresh_kind() -> ExpKind {
    ExpKind::planned(ext_refresh_plan, ext_refresh_reduce)
}

/// Tables 1 and 2: the hardware-cost model, evaluated for the paper's
/// 1/2/4/8-core systems.
pub fn tab1_2_cost(_exp: &ExpConfig) -> ExpTable {
    let mut t = ExpTable::new(
        "cost",
        "PADC storage cost in bits (Tables 1-2); last column = % of L2 capacity",
        &["P", "PSC+PUC+PAR", "U", "ID", "AGE", "total", "%L2"],
    );
    for (cores, lines_per_core, req) in [
        (1u64, 16_384u64, 64u64), // 1MB single-core L2
        (2, 8_192, 64),
        (4, 8_192, 128),
        (8, 8_192, 256),
    ] {
        let c = cost::padc_storage(cores, lines_per_core, req);
        let l2_bytes = lines_per_core * cores * 64;
        t.push(
            format!("{cores}-core"),
            vec![
                c.p_bits as f64,
                (c.psc_bits + c.puc_bits + c.par_bits) as f64,
                c.urgent_bits as f64,
                c.id_bits as f64,
                c.age_bits as f64,
                c.total_bits() as f64,
                cost::fraction_of_l2(&c, l2_bytes) * 100.0,
            ],
        );
    }
    t
}

/// Table 6: the dynamic drop-threshold schedule.
pub fn tab6_thresholds(_exp: &ExpConfig) -> ExpTable {
    let d = DropThresholds::default();
    let mut t = ExpTable::new(
        "tab6",
        "Dynamic APD drop thresholds (cycles) by measured prefetch accuracy",
        &["drop_threshold"],
    );
    for (label, acc) in [
        ("0-10%", 0.05),
        ("10-30%", 0.20),
        ("30-70%", 0.50),
        ("70-100%", 0.85),
    ] {
        t.push(label, vec![d.threshold_for(acc) as f64]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn cost_table_matches_paper_totals() {
        let t = tab1_2_cost(&ExpConfig::at(Scale::Smoke));
        assert_eq!(t.get("4-core", "total"), Some(34_720.0));
        let pct = t.get("4-core", "%L2").unwrap();
        assert!((pct - 0.2).abs() < 0.05, "{pct}");
    }

    #[test]
    fn threshold_table_matches_table6() {
        let t = tab6_thresholds(&ExpConfig::at(Scale::Smoke));
        assert_eq!(t.get("0-10%", "drop_threshold"), Some(100.0));
        assert_eq!(t.get("70-100%", "drop_threshold"), Some(100_000.0));
    }

    #[test]
    fn ext_dspatch_plan_shares_alone_units_across_its_two_tables() {
        let exp = ExpConfig::at(Scale::Smoke);
        let units = ext_dspatch_plan(&exp);
        let alone_count = units.iter().filter(|u| u.key.variant == "alone").count();
        let workloads = mech_workloads(&exp);
        let distinct: std::collections::HashSet<_> = workloads
            .iter()
            .flat_map(|w| w.benchmarks.iter().map(|b| b.name.clone()))
            .collect();
        assert_eq!(
            alone_count,
            distinct.len(),
            "alone units planned once, not per table"
        );
        let keys: std::collections::HashSet<_> = units.iter().map(|u| u.key.clone()).collect();
        assert_eq!(
            keys.len(),
            units.len(),
            "duplicate unit keys in ext-dspatch plan"
        );
    }

    #[test]
    fn ext_dspatch_arms_swap_only_the_prefetcher_kind() {
        let sets = ext_dspatch_sets();
        let stream_padc = sets[0].1.last().unwrap().build(4);
        let dspatch_padc = sets[1].1.last().unwrap().build(4);
        assert_eq!(stream_padc.prefetcher, Some(PrefetcherKind::Stream));
        assert_eq!(dspatch_padc.prefetcher, Some(PrefetcherKind::DsPatch));
        // The no-pref arm stays prefetcher-less under both sets.
        assert_eq!(sets[1].1[0].build(4).prefetcher, None);
    }

    #[test]
    fn ext_refresh_arms_cover_all_three_policies_with_timing_on() {
        let sets = ext_refresh_sets();
        let policies: Vec<_> = sets
            .iter()
            .map(|(name, arms)| (*name, arms.last().unwrap().build(4)))
            .collect();
        assert_eq!(policies.len(), 3);
        for (name, cfg) in &policies {
            assert!(
                cfg.dram.extended.is_some(),
                "{name}: refresh arms need extended timing"
            );
        }
        assert_eq!(policies[0].1.dram.refresh_policy, RefreshPolicy::AllBank);
        assert_eq!(policies[1].1.dram.refresh_policy, RefreshPolicy::PerBank);
        assert_eq!(policies[2].1.dram.refresh_policy, RefreshPolicy::Darp);
    }

    #[test]
    fn ext_refresh_plan_shares_alone_units_across_its_three_tables() {
        let exp = ExpConfig::at(Scale::Smoke);
        let units = ext_refresh_plan(&exp);
        let alone_count = units.iter().filter(|u| u.key.variant == "alone").count();
        let workloads = mech_workloads(&exp);
        let distinct: std::collections::HashSet<_> = workloads
            .iter()
            .flat_map(|w| w.benchmarks.iter().map(|b| b.name.clone()))
            .collect();
        assert_eq!(
            alone_count,
            distinct.len(),
            "alone units planned once, not per table"
        );
        let keys: std::collections::HashSet<_> = units.iter().map(|u| u.key.clone()).collect();
        assert_eq!(
            keys.len(),
            units.len(),
            "duplicate unit keys in ext-refresh plan"
        );
    }

    #[test]
    fn fig28_plan_shares_alone_units_across_its_three_tables() {
        let exp = ExpConfig::at(Scale::Smoke);
        let units = fig28_plan(&exp);
        let alone_count = units.iter().filter(|u| u.key.variant == "alone").count();
        let workloads = mech_workloads(&exp);
        let distinct: std::collections::HashSet<_> = workloads
            .iter()
            .flat_map(|w| w.benchmarks.iter().map(|b| b.name.clone()))
            .collect();
        assert_eq!(
            alone_count,
            distinct.len(),
            "alone units planned once, not per table"
        );
        let keys: std::collections::HashSet<_> = units.iter().map(|u| u.key.clone()).collect();
        assert_eq!(keys.len(), units.len(), "duplicate unit keys in fig28 plan");
    }
}
