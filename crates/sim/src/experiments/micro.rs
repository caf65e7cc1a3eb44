//! Micro-scale experiments: the Fig. 2 scheduling example and the Fig. 4
//! service-time/phase-behaviour measurements.
//!
//! Fig. 2 simulates no system: it drives one controller through the
//! paper's hand-traced three-request example, so its kind plans no units.
//! Fig. 4 plans one sampled unit (`SimUnit::sampled`) that runs through
//! the fast-forward kernel and the unit store like any grid cell.

use padc_core::{AccuracyTracker, ControllerConfig, MemoryController, SchedulingPolicy};
use padc_dram::{DramConfig, MappingScheme};
use padc_types::{AccessKind, CoreId, Cycle, LineAddr, RequestKind};
use padc_workloads::profiles;

use crate::{Report, SimConfig};

use super::infra::{ExpConfig, ExpKind, ExpTable, PolicyArm, SimUnit};

/// Fig. 2: the paper's three-request example. Two prefetches (X, Z) target
/// the currently open row; one demand (Y) conflicts. Under demand-first the
/// demand's precharge destroys the open row; under demand-prefetch-equal
/// the two row-hit prefetches are serviced first. The table reports the
/// completion time of each request and the final completion time under both
/// policies — reproducing the 725- vs 575-cycle contrast at our timing
/// parameters.
pub fn fig2_scheduling_example(_exp: &ExpConfig) -> ExpTable {
    let mut t = ExpTable::new(
        "fig2",
        "Rigid-policy example: completion cycles of X/Z (row-hit prefetches) and Y (row-conflict demand)",
        &["X (pref, row A)", "Y (dem, row B)", "Z (pref, row A)", "all done"],
    );
    for policy in [
        SchedulingPolicy::DemandFirst,
        SchedulingPolicy::DemandPrefetchEqual,
    ] {
        let dram = DramConfig::default();
        let lpr = dram.lines_per_row();
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(policy, 1),
            dram.clone(),
            MappingScheme::Linear,
        );
        let tracker = AccuracyTracker::new(1, 100_000);
        let core = CoreId::new(0);
        // Open row A (row 0 of bank 0) by servicing a dummy demand first.
        mc.enqueue(
            core,
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .expect("space");
        let mut now: Cycle = 0;
        while !mc.is_idle() {
            mc.tick(now, &tracker);
            now += 1;
        }
        let start = now;
        // X and Z: prefetches to row A. Y: demand to row B (same bank).
        let x = mc
            .enqueue(
                core,
                LineAddr::new(1),
                AccessKind::Load,
                RequestKind::Prefetch,
                start,
            )
            .expect("space");
        let y = mc
            .enqueue(
                core,
                LineAddr::new(lpr * 8), // same bank, different row
                AccessKind::Load,
                RequestKind::Demand,
                start,
            )
            .expect("space");
        let z = mc
            .enqueue(
                core,
                LineAddr::new(2),
                AccessKind::Load,
                RequestKind::Prefetch,
                start,
            )
            .expect("space");
        let (mut tx, mut ty, mut tz) = (0u64, 0u64, 0u64);
        while !mc.is_idle() {
            for c in mc.tick(now, &tracker).completions {
                let done = now - start;
                if c.request.id == x {
                    tx = done;
                } else if c.request.id == y {
                    ty = done;
                } else if c.request.id == z {
                    tz = done;
                }
            }
            now += 1;
        }
        t.push(
            policy.label(),
            vec![tx as f64, ty as f64, tz as f64, tx.max(ty).max(tz) as f64],
        );
    }
    t
}

/// Fig. 4(b)'s sampling period: one `PAR` reading every 500K cycles.
const FIG4_SAMPLE_PERIOD: Cycle = 500_000;

/// Fig. 4's single unit: milc under demand-first, sampled for Fig. 4(b).
fn fig4_unit(exp: &ExpConfig) -> SimUnit {
    let arm = PolicyArm::new("demand-first", |n| {
        let mut cfg = SimConfig::new(n, SchedulingPolicy::DemandFirst);
        cfg.max_cycles = 100_000_000;
        cfg
    });
    // Long enough to cross a full phase cycle of the milc profile (1M
    // instructions), so the accuracy collapse AND recovery both show.
    let instructions = (exp.instructions_single * 2).max(1_600_000);
    SimUnit::sampled(
        &arm,
        &profiles::milc(),
        instructions,
        FIG4_SAMPLE_PERIOD,
        exp,
    )
}

fn fig4_reduce(report: &Report) -> Vec<ExpTable> {
    let mut hist = ExpTable::new(
        "fig4a",
        "milc prefetch memory-service-time histogram (counts)",
        &["useful", "useless"],
    );
    let labels = [
        "0-200",
        "201-400",
        "401-600",
        "601-800",
        "801-1000",
        "1001-1200",
        "1201-1400",
        "1401-1600",
        "1601+",
    ];
    for (i, label) in labels.iter().enumerate() {
        hist.push(
            *label,
            vec![
                report.pf_service_hist_useful[i] as f64,
                report.pf_service_hist_useless[i] as f64,
            ],
        );
    }
    let mut phases = ExpTable::new(
        "fig4b",
        "milc prefetch accuracy (PAR) over time (sampled every 500K cycles)",
        &["accuracy"],
    );
    for (i, &par) in report.par_samples.iter().enumerate() {
        let cycle = (i as Cycle + 1) * FIG4_SAMPLE_PERIOD;
        phases.push(format!("{}K cycles", cycle / 1000), vec![par]);
    }
    vec![hist, phases]
}

pub(crate) fn fig4_kind() -> ExpKind {
    ExpKind::planned(
        |exp| vec![fig4_unit(exp)],
        |_, results| fig4_reduce(&results[0].report),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reproduces_the_policy_contrast() {
        let t = fig2_scheduling_example(&ExpConfig::at(crate::experiments::Scale::Smoke));
        // Under demand-first, the conflicting demand finishes first...
        let df_y = t.get("demand-first", "Y (dem, row B)").unwrap();
        let df_x = t.get("demand-first", "X (pref, row A)").unwrap();
        assert!(df_y < df_x, "demand-first must service Y before X");
        // ...under equal treatment, the row-hit prefetches go first and the
        // *total* service time shrinks (the paper's 725 vs 575 contrast).
        let eq_y = t.get("demand-pref-equal", "Y (dem, row B)").unwrap();
        let eq_x = t.get("demand-pref-equal", "X (pref, row A)").unwrap();
        assert!(eq_x < eq_y, "equal must service the row-hit prefetch first");
        let df_total = t.get("demand-first", "all done").unwrap();
        let eq_total = t.get("demand-pref-equal", "all done").unwrap();
        assert!(
            eq_total < df_total,
            "equal finishes all three sooner ({eq_total} vs {df_total})"
        );
    }
}
