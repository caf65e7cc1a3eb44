//! The paper's evaluation metrics (§5.2).

use padc_core::ControllerStats;
use padc_dram::ChannelStats;
use padc_types::Cycle;
use serde::{Deserialize, Serialize};

/// Bus traffic in cache lines, split the way the paper's traffic figures
/// are (demand / useful prefetch / useless prefetch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Traffic {
    /// Demand fetches plus writebacks.
    pub demand: u64,
    /// Prefetched lines that a demand eventually used (including in-buffer
    /// promotions).
    pub pref_useful: u64,
    /// Prefetched lines never used by a demand.
    pub pref_useless: u64,
}

impl Traffic {
    /// Total lines transferred.
    pub fn total(&self) -> u64 {
        self.demand + self.pref_useful + self.pref_useless
    }

    /// Element-wise sum.
    #[must_use]
    pub fn plus(&self, other: &Traffic) -> Traffic {
        Traffic {
            demand: self.demand + other.demand,
            pref_useful: self.pref_useful + other.pref_useful,
            pref_useless: self.pref_useless + other.pref_useless,
        }
    }
}

/// Per-core results of one simulation.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreReport {
    /// Benchmark name running on the core.
    pub benchmark: String,
    /// Instructions retired when stats froze.
    pub instructions: u64,
    /// Cycle at which the core crossed its instruction target (equals the
    /// run's final cycle if it never did).
    pub cycles: Cycle,
    /// Loads retired.
    pub loads: u64,
    /// Window stall cycles attributable to head loads (SPL numerator).
    pub window_stall_cycles: u64,
    /// Demand L2 accesses.
    pub l2_accesses: u64,
    /// Demand L2 misses.
    pub l2_misses: u64,
    /// Prefetches sent to the memory request buffer.
    pub prefetches_sent: u64,
    /// Useful prefetches (cache-hit consumption + in-buffer promotion).
    pub prefetches_used: u64,
    /// Prefetches dropped by APD.
    pub prefetches_dropped: u64,
    /// Prefetch candidates filtered by DDPF.
    pub prefetches_filtered: u64,
    /// Prefetch candidates that found no MSHR / buffer space at issue.
    pub prefetches_no_space: u64,
    /// Runahead episodes (0 unless runahead is enabled).
    pub runahead_episodes: u64,
    /// Cycles dispatch stalled on a full instruction window.
    pub dispatch_window_full_cycles: u64,
    /// Cycles dispatch stalled on MSHR/request-buffer structural retries.
    pub dispatch_retry_cycles: u64,
    /// Cycles dispatch stalled on dependent loads (MLP bound).
    pub dispatch_dep_cycles: u64,
    /// Bus traffic attributed to this core.
    pub traffic: Traffic,
    /// Row-hit demand fetches / total demand fetches (RBHU numerator and
    /// denominator pieces).
    pub rbhu_demand_hits: u64,
    /// Total demand fetches serviced by DRAM.
    pub rbhu_demand_total: u64,
    /// Useful prefetches whose DRAM service was a row hit.
    pub rbhu_useful_hits: u64,
    /// Total useful prefetches.
    pub rbhu_useful_total: u64,
}

impl CoreReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }

    /// Stall cycles per load (§5.2).
    pub fn spl(&self) -> f64 {
        if self.loads == 0 {
            return 0.0;
        }
        self.window_stall_cycles as f64 / self.loads as f64
    }

    /// L2 misses per 1000 instructions.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.l2_misses as f64 * 1000.0 / self.instructions as f64
    }

    /// Prefetch accuracy (`ACC`).
    pub fn acc(&self) -> f64 {
        if self.prefetches_sent == 0 {
            return 0.0;
        }
        self.prefetches_used as f64 / self.prefetches_sent as f64
    }

    /// Prefetch coverage (`COV`): useful / (demand fetches + useful).
    pub fn cov(&self) -> f64 {
        let demand = self.rbhu_demand_total;
        let useful = self.prefetches_used;
        if demand + useful == 0 {
            return 0.0;
        }
        useful as f64 / (demand + useful) as f64
    }

    /// Row-buffer hit rate for useful requests (§6.1.1).
    pub fn rbhu(&self) -> f64 {
        let total = self.rbhu_demand_total + self.rbhu_useful_total;
        if total == 0 {
            return 0.0;
        }
        (self.rbhu_demand_hits + self.rbhu_useful_hits) as f64 / total as f64
    }
}

/// Results of one full simulation.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Per-core results (index = core).
    pub per_core: Vec<CoreReport>,
    /// Cycles the whole run took.
    pub total_cycles: Cycle,
    /// DRAM controller counters.
    pub controller: ControllerStats,
    /// Per-channel DRAM counters.
    pub channels: Vec<ChannelStats>,
    /// Service-time histogram of eventually-useful prefetches (nine
    /// 200-cycle buckets, Fig. 4(a)).
    pub pf_service_hist_useful: [u64; 9],
    /// Service-time histogram of useless prefetches.
    pub pf_service_hist_useless: [u64; 9],
    /// Core 0's `PAR` sampled at fixed cycle boundaries (Fig. 4(b)); empty
    /// unless a sampled run recorded it. Omitted from the JSON when empty,
    /// so unsampled reports serialize exactly as before this field existed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub par_samples: Vec<f64>,
}

impl Report {
    /// Total bus traffic.
    pub fn traffic(&self) -> Traffic {
        self.per_core
            .iter()
            .fold(Traffic::default(), |acc, c| acc.plus(&c.traffic))
    }

    /// System-wide RBHU.
    pub fn rbhu(&self) -> f64 {
        let (mut hits, mut total) = (0u64, 0u64);
        for c in &self.per_core {
            hits += c.rbhu_demand_hits + c.rbhu_useful_hits;
            total += c.rbhu_demand_total + c.rbhu_useful_total;
        }
        if total == 0 {
            return 0.0;
        }
        hits as f64 / total as f64
    }
}

/// Individual speedups: `IPC_together / IPC_alone` per core.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn individual_speedups(together: &[f64], alone: &[f64]) -> Vec<f64> {
    assert_eq!(together.len(), alone.len());
    together
        .iter()
        .zip(alone)
        .map(|(t, a)| if *a == 0.0 { 0.0 } else { t / a })
        .collect()
}

/// Weighted speedup (`WS`, system throughput): sum of individual speedups.
pub fn weighted_speedup(together: &[f64], alone: &[f64]) -> f64 {
    individual_speedups(together, alone).iter().sum()
}

/// Harmonic mean of speedups (`HS`, inverse job-turnaround time):
/// `N / sum(alone_i / together_i)`.
pub fn harmonic_speedup(together: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(together.len(), alone.len());
    let sum: f64 = together
        .iter()
        .zip(alone)
        .map(|(t, a)| if *t == 0.0 { f64::INFINITY } else { a / t })
        .sum();
    if sum.is_infinite() || sum == 0.0 {
        0.0
    } else {
        together.len() as f64 / sum
    }
}

/// Unfairness (`UF`, §6.3.4): max individual speedup / min individual
/// speedup.
pub fn unfairness(together: &[f64], alone: &[f64]) -> f64 {
    let is = individual_speedups(together, alone);
    let max = is.iter().cloned().fold(f64::MIN, f64::max);
    let min = is.iter().cloned().fold(f64::MAX, f64::min);
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

/// Geometric mean of a slice (used for gmean-over-benchmarks summaries).
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_totals_and_sums() {
        let a = Traffic {
            demand: 10,
            pref_useful: 5,
            pref_useless: 3,
        };
        let b = Traffic {
            demand: 1,
            pref_useful: 1,
            pref_useless: 1,
        };
        assert_eq!(a.total(), 18);
        assert_eq!(a.plus(&b).total(), 21);
    }

    #[test]
    fn speedup_metrics_on_identical_runs_are_neutral() {
        let t = [1.0, 2.0];
        assert_eq!(weighted_speedup(&t, &t), 2.0);
        assert!((harmonic_speedup(&t, &t) - 1.0).abs() < 1e-12);
        assert!((unfairness(&t, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_adds_ratios() {
        let together = [0.5, 1.0];
        let alone = [1.0, 1.0];
        assert!((weighted_speedup(&together, &alone) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn harmonic_speedup_punishes_slow_cores() {
        let together = [0.1, 1.0];
        let alone = [1.0, 1.0];
        let hs = harmonic_speedup(&together, &alone);
        assert!(hs < 0.2, "hs = {hs}");
    }

    #[test]
    fn unfairness_ratio() {
        let together = [0.2, 0.8];
        let alone = [1.0, 1.0];
        assert!((unfairness(&together, &alone) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn core_report_derived_metrics() {
        let c = CoreReport {
            instructions: 1000,
            cycles: 2000,
            loads: 100,
            window_stall_cycles: 500,
            l2_misses: 30,
            prefetches_sent: 50,
            prefetches_used: 40,
            rbhu_demand_total: 60,
            rbhu_demand_hits: 30,
            rbhu_useful_total: 40,
            rbhu_useful_hits: 30,
            ..CoreReport::default()
        };
        assert!((c.ipc() - 0.5).abs() < 1e-12);
        assert!((c.spl() - 5.0).abs() < 1e-12);
        assert!((c.mpki() - 30.0).abs() < 1e-12);
        assert!((c.acc() - 0.8).abs() < 1e-12);
        assert!((c.cov() - 0.4).abs() < 1e-12);
        assert!((c.rbhu() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let c = CoreReport::default();
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.spl(), 0.0);
        assert_eq!(c.mpki(), 0.0);
        assert_eq!(c.acc(), 0.0);
        assert_eq!(c.cov(), 0.0);
        assert_eq!(c.rbhu(), 0.0);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn gmean_of_constant_is_constant() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }
}
