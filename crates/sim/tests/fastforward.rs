//! Equivalence tests for idle-cycle fast-forwarding (DESIGN.md §11).
//!
//! Fast-forwarding must be invisible in the results: a [`System`] run in
//! any [`FastForwardMode`] produces a byte-identical [`Report`] to the
//! same system stepped cycle by cycle (`Off`). These tests exercise that
//! contract over randomized multi-core configurations — for the per-core
//! event horizon and event-driven controller stepping — check the
//! core-cycle and controller-cycle accounting invariants, and pin down the
//! one event source that is always a jump bound: the accuracy tracker's
//! interval rollover.

use padc_core::SchedulingPolicy;
use padc_dram::RefreshPolicy;
use padc_sim::{FastForwardMode, SimConfig, System};
use padc_workloads::{profiles, BenchProfile};
use proptest::prelude::*;

/// The fast modes, each checked against the stepped `Off` reference.
const MODES: [FastForwardMode; 2] = [FastForwardMode::Horizon, FastForwardMode::Event];

const POLICIES: [SchedulingPolicy; 5] = [
    SchedulingPolicy::DemandPrefetchEqual,
    SchedulingPolicy::DemandFirst,
    SchedulingPolicy::PrefetchFirst,
    SchedulingPolicy::ApsOnly,
    SchedulingPolicy::Padc,
];

/// Refresh configurations the equivalence matrix ranges over: the legacy
/// no-refresh default, and the three [`RefreshPolicy`] variants with
/// extended timing on (per-bank/DARP enable it implicitly). Every mode
/// pair must stay byte-identical under each of them — in particular the
/// DARP refresh-pull pass, which fires at controller boundaries, must be
/// invisible to event-driven stepping (DESIGN.md §15).
const REFRESH_CONFIGS: [Option<RefreshPolicy>; 4] = [
    None,
    Some(RefreshPolicy::AllBank),
    Some(RefreshPolicy::PerBank),
    Some(RefreshPolicy::Darp),
];

/// A small mix of benchmarks with distinct memory behavior: streaming
/// (libquantum), pointer-chasing / low-MLP (mcf), and mostly-compute
/// (gcc).
fn bench(i: usize) -> BenchProfile {
    match i % 3 {
        0 => profiles::libquantum(),
        1 => profiles::mcf(),
        _ => profiles::gcc(),
    }
}

fn small_config(seed: u64, cores: usize, policy_idx: usize, instructions: u64) -> SimConfig {
    let mut cfg = SimConfig::new(cores, POLICIES[policy_idx % POLICIES.len()]);
    cfg.seed = seed;
    cfg.max_instructions = instructions;
    cfg.max_cycles = 40_000_000;
    cfg
}

fn refresh_config(cfg: SimConfig, refresh_idx: usize) -> SimConfig {
    match REFRESH_CONFIGS[refresh_idx % REFRESH_CONFIGS.len()] {
        None => cfg,
        Some(policy) => cfg
            .with_extended_timing(padc_dram::ExtendedTiming::default())
            .with_refresh_policy(policy),
    }
}

fn workloads(cores: usize, first: usize) -> Vec<BenchProfile> {
    (0..cores).map(|i| bench(first + i)).collect()
}

/// Runs one configuration in `mode`, returning the serialized report,
/// the profile, and the termination cycle.
fn run_mode(
    cfg: &SimConfig,
    cores: usize,
    first_bench: usize,
    mode: FastForwardMode,
) -> (String, padc_sim::profile::SimProfile, u64) {
    let mut sys = System::new(cfg.clone(), workloads(cores, first_bench));
    sys.set_fast_forward_mode(mode);
    let report = sys.run();
    let json = serde_json::to_string(&report).expect("serialize");
    (json, *sys.profile(), sys.now())
}

/// Where a chunked run stops between slices.
#[derive(Clone, Copy, Debug)]
enum Bounds {
    /// Every `n` cycles.
    Every(u64),
    /// At each pending `PAR` rollover and again one cycle later, so the
    /// trace samples `PAR` just before and just after every rollover.
    Rollovers,
}

impl Bounds {
    /// The bound after `prev`, given the stopped system.
    fn next(self, sys: &System, prev: u64) -> u64 {
        match self {
            Bounds::Every(n) => prev + n,
            Bounds::Rollovers => sys.next_accuracy_rollover().max(sys.now() + 1),
        }
    }
}

/// Sampled at each bound: `(now, core 0's PAR, next pending rollover)`.
type ParTrace = Vec<(u64, f64, u64)>;

/// Runs one configuration in slices ending at `bounds`, sampling `PAR` at
/// every bound, then finishes with `run`. With `mode == None` each slice
/// is stepped cycle by cycle (the `Off` reference); otherwise each slice
/// is one `run_until` call in that mode.
fn run_chunked(
    cfg: &SimConfig,
    cores: usize,
    first_bench: usize,
    mode: Option<FastForwardMode>,
    bounds: Bounds,
) -> (String, ParTrace) {
    let mut sys = System::new(cfg.clone(), workloads(cores, first_bench));
    sys.set_fast_forward_mode(mode.unwrap_or(FastForwardMode::Off));
    let mut trace = Vec::new();
    let mut bound = bounds.next(&sys, 0);
    while !sys.finished() {
        match mode {
            Some(_) => sys.run_until(bound),
            None => {
                while !sys.finished() && sys.now() < bound {
                    sys.step();
                }
            }
        }
        trace.push((sys.now(), sys.accuracy(0), sys.next_accuracy_rollover()));
        bound = bounds.next(&sys, bound);
    }
    let json = serde_json::to_string(&sys.run()).expect("serialize");
    (json, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full report — every stat the suite serializes — is
    /// byte-identical across all three fast-forward modes, and the
    /// cycle-accounting invariants hold in each:
    /// `core_cycles_ticked + core_cycles_skipped == cores × total_cycles`
    /// and `ctrl_cycles_stepped + ctrl_cycles_skipped == total_cycles`.
    /// Slicing a run with `run_until` — at arbitrary `chunk` bounds, and
    /// at every `PAR` rollover — is invisible too: every mode stops at the
    /// same cycles with the same `PAR` as a cycle-stepped run, and
    /// finishes with the same report.
    #[test]
    fn reports_are_byte_identical(seed in 1u64..1_000,
                                  cores in 1usize..4,
                                  policy_idx in 0usize..5,
                                  first_bench in 0usize..3,
                                  refresh_idx in 0usize..4,
                                  instructions in 2_000u64..10_000,
                                  chunk in 500u64..60_000) {
        let cfg = refresh_config(
            small_config(seed, cores, policy_idx, instructions),
            refresh_idx,
        );

        let (off_json, off_p, off_now) =
            run_mode(&cfg, cores, first_bench, FastForwardMode::Off);
        let (hor_json, hor_p, hor_now) =
            run_mode(&cfg, cores, first_bench, FastForwardMode::Horizon);
        let (ev_json, ev_p, ev_now) =
            run_mode(&cfg, cores, first_bench, FastForwardMode::Event);

        prop_assert_eq!(&off_json, &hor_json, "horizon mode diverged");
        prop_assert_eq!(&off_json, &ev_json, "event mode diverged");
        // All paths must agree on termination time as well.
        prop_assert_eq!(off_now, hor_now);
        prop_assert_eq!(off_now, ev_now);
        // Sanity: the all-cores-lagging jump actually fired, otherwise
        // this test exercises nothing (idle cycles exist in any
        // DRAM-bound run), and every global cycle was either stepped or
        // jumped over.
        prop_assert!(hor_p.ff_cycles_skipped > 0, "horizon jumps never fired");
        for p in [&hor_p, &ev_p] {
            prop_assert_eq!(p.cycles_stepped + p.ff_cycles_skipped, off_p.cycles_stepped);
        }
        // Cycle accounting: every (core, cycle) pair was either ticked for
        // real or replayed as a stall bump, exactly once — and every global
        // cycle either executed the controller phase or was covered by a
        // proven-idle bound.
        for (name, p) in [("off", &off_p), ("horizon", &hor_p), ("event", &ev_p)] {
            prop_assert_eq!(
                p.core_cycles_ticked + p.core_cycles_skipped,
                cores as u64 * off_now,
                "core-cycle accounting broken in {} mode", name
            );
            prop_assert_eq!(
                p.ctrl_cycles_stepped + p.ctrl_cycles_skipped,
                off_now,
                "controller-cycle accounting broken in {} mode", name
            );
        }
        // Event mode executes the controller only at proven event times,
        // so it never steps the controller more than horizon does — and
        // every executed controller cycle is an event it fired.
        prop_assert!(ev_p.ctrl_cycles_stepped <= hor_p.ctrl_cycles_stepped,
                     "event mode stepped the controller more than horizon");
        prop_assert_eq!(ev_p.ctrl_events_fired, ev_p.ctrl_cycles_stepped);
        prop_assert_eq!(hor_p.ctrl_events_fired, 0);

        for bounds in [Bounds::Every(chunk), Bounds::Rollovers] {
            let (stepped_json, stepped_trace) =
                run_chunked(&cfg, cores, first_bench, None, bounds);
            prop_assert_eq!(&off_json, &stepped_json, "stepping then run diverged");
            for mode in [FastForwardMode::Off, FastForwardMode::Horizon, FastForwardMode::Event] {
                let (json, trace) = run_chunked(&cfg, cores, first_bench, Some(mode), bounds);
                prop_assert_eq!(&off_json, &json, "{:?} {:?} run diverged", bounds, mode);
                prop_assert_eq!(&stepped_trace, &trace,
                                "{:?} {:?} run sampled a different PAR", bounds, mode);
            }
        }
    }
}

/// An 8-core memory-hog mix (the configuration the CI perf gate guards):
/// all three modes agree byte-for-byte, the horizon lags cores and jumps
/// the global clock when every core lags, and event mode executes
/// strictly fewer controller cycles than horizon while firing at least
/// one event per DRAM command.
#[test]
fn eight_core_memory_hog_mix_agrees_across_modes() {
    let mut cfg = SimConfig::new(8, SchedulingPolicy::Padc);
    cfg.seed = 3;
    cfg.max_instructions = 5_000;
    cfg.max_cycles = 40_000_000;
    let benches = [
        profiles::mcf(),
        profiles::libquantum(),
        profiles::lbm(),
        profiles::milc(),
        profiles::mcf(),
        profiles::libquantum(),
        profiles::lbm(),
        profiles::milc(),
    ];
    let run = |mode: FastForwardMode| {
        let mut sys = System::new(cfg.clone(), benches.to_vec());
        sys.set_fast_forward_mode(mode);
        let report = sys.run();
        (
            serde_json::to_string(&report).expect("serialize"),
            *sys.profile(),
        )
    };
    let (off_json, off_p) = run(FastForwardMode::Off);
    let (hor_json, hor_p) = run(FastForwardMode::Horizon);
    let (ev_json, ev_p) = run(FastForwardMode::Event);
    assert_eq!(off_json, hor_json);
    assert_eq!(off_json, ev_json);
    assert!(hor_p.horizon_resyncs > 0, "horizon never lagged a core");
    assert!(hor_p.ff_jumps > 0, "no all-cores-lagging jump fired");
    assert_eq!(off_p.core_cycles_skipped, 0);
    // Event mode: the controller phase runs only at fired events, skips a
    // real fraction of stepped cycles, and its accounting closes.
    assert!(
        ev_p.ctrl_cycles_stepped < hor_p.ctrl_cycles_stepped,
        "event mode should elide controller cycles on a memory-hog mix \
         (event {} vs horizon {})",
        ev_p.ctrl_cycles_stepped,
        hor_p.ctrl_cycles_stepped
    );
    assert!(ev_p.ctrl_events_fired > 0, "no controller events fired");
    assert!(
        ev_p.ctrl_skip_ratio() > hor_p.ctrl_skip_ratio(),
        "event ctrl_skip_ratio ({:.3}) should beat horizon ({:.3})",
        ev_p.ctrl_skip_ratio(),
        hor_p.ctrl_skip_ratio()
    );
}

/// Deterministic sweep of the full refresh × fast-forward matrix: each
/// refresh policy (and the no-refresh legacy default) agrees byte-for-byte
/// across all three modes, and the per-bank policies actually refresh. The
/// proptest above samples this space; this pins every cell.
#[test]
fn refresh_policies_agree_across_all_modes() {
    for (refresh_idx, refresh) in REFRESH_CONFIGS.iter().enumerate() {
        let cfg = refresh_config(small_config(5, 2, 4, 6_000), refresh_idx);
        let mut off = System::new(cfg.clone(), workloads(2, 0));
        off.set_fast_forward_mode(FastForwardMode::Off);
        let off_report = off.run();
        let off_json = serde_json::to_string(&off_report).expect("serialize");
        for mode in MODES {
            let (json, _, now) = run_mode(&cfg, 2, 0, mode);
            assert_eq!(
                off_json, json,
                "{mode:?} diverged under refresh config {refresh_idx}"
            );
            assert_eq!(off.now(), now);
        }
        let refreshes: u64 = off_report.channels.iter().map(|c| c.refreshes).sum();
        match refresh {
            None => assert_eq!(refreshes, 0, "refresh without extended timing"),
            Some(_) => assert!(
                refreshes > 0,
                "refresh config {refresh_idx} never refreshed"
            ),
        }
    }
}

/// Runs `cfg` sliced at every `PAR` rollover, stepped and in each fast
/// mode, and checks that every mode samples the same `(now, PAR, pending
/// rollover)` trace and report as the stepped reference, and that the
/// reference services each rollover `r` at exactly cycle `r`: the sample
/// taken at `r` still has `r` pending, the one at `r + 1` has moved on.
fn assert_rollovers_match(cfg: &SimConfig, cores: usize) {
    let (off_json, off_trace) = run_chunked(cfg, cores, 0, None, Bounds::Rollovers);
    let serviced = off_trace
        .windows(2)
        .filter(|w| w[0].0 == w[0].2 && w[1].0 == w[0].0 + 1)
        .inspect(|w| assert!(w[1].2 > w[0].2, "rollover at {} not serviced", w[0].0))
        .count();
    assert!(serviced > 0, "run too short to roll over");
    for mode in MODES {
        let (json, trace) = run_chunked(cfg, cores, 0, Some(mode), Bounds::Rollovers);
        assert_eq!(off_json, json, "{mode:?} diverged");
        assert_eq!(off_trace, trace, "{mode:?} serviced a rollover elsewhere");
    }
}

/// PAR interval rollovers are an explicit fast-forward event source: every
/// mode must observe every 100K-cycle accuracy-tracker rollover at the
/// same cycle, in the same order — otherwise APD thresholds and APS
/// prioritization would diverge.
#[test]
fn par_rollovers_land_on_the_same_cycles() {
    assert_rollovers_match(&small_config(7, 2, 4, 4_000), 2); // Padc: APD + APS
}

/// Fast-forward jumps never cross a pending rollover: a run bounded by the
/// rollover stops exactly on it with the pre-rollover `PAR`, and one cycle
/// later the rollover has been applied, in every mode.
#[test]
fn jumps_stop_at_rollover_boundaries() {
    assert_rollovers_match(&small_config(11, 1, 1, 150_000), 1);
}
