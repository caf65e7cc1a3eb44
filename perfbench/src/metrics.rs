//! Metric names and units: the single list `BENCHMARK.json` mirrors.

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("warm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. The
/// prefix names the workspace crate the metric belongs to; `model.*` are
/// simulated results that a speed-only change must not move.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("sim.kernel_s", "s"),
    ("sim.cycles_stepped", "count"),
    ("sim.ff_jumps", "count"),
    ("sim.horizon_resyncs", "count"),
    ("sim.core_skip_pct", "%"),
    ("sim.ctrl_skip_pct", "%"),
    ("sim.host_ns_per_sim_cycle", "ns"),
    ("sim.trace_overhead_pct", "%"),
    ("core.ctrl_phase_s", "s"),
    ("core.ctrl_ticks", "count"),
    ("core.owner_reuse_pct", "%"),
    ("core.owner_scan_entries", "count"),
    ("core.tick_ns", "ns"),
    ("core.next_event_ns", "ns"),
    ("core.enqueue_ns", "ns"),
    ("cpu.tick_phase_s", "s"),
    ("cpu.core_ticks", "count"),
    ("cache.probe_ns", "ns"),
    ("cache.fill_ns", "ns"),
    ("cache.l2_miss_pct", "%"),
    ("prefetch.on_access_ns", "ns"),
    ("prefetch.candidates_per_access", "count"),
    ("prefetch.dspatch_flips", "count"),
    ("dram.advance_ns", "ns"),
    ("dram.next_event_ns", "ns"),
    ("dram.row_hit_pct", "%"),
    ("dram.refresh_pulls", "count"),
    ("workloads.next_op_ns", "ns"),
    ("harness.subjobs_executed", "count"),
    ("harness.units_coalesced", "count"),
    ("harness.memo_hit_pct", "%"),
    ("harness.cold_exp_max_s", "s"),
    ("harness.warm_exp_max_s", "s"),
    ("store.put_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes", "bytes"),
    ("model.sim_cycles", "count"),
    ("model.ipc_sum", "count"),
];

/// True when `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Collects values by name and emits them in list order.
#[derive(Default)]
pub(crate) struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics when `name` was already recorded.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.0.iter().all(|(n, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.0.push((name, value));
    }

    /// The metrics of `list`, in its order.
    ///
    /// # Panics
    ///
    /// Panics when a listed metric was not recorded: every run must report
    /// every metric of its kind.
    pub fn emit(&self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        list.iter()
            .map(|&(name, unit)| {
                let value = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .1;
                Metric { name, unit, value }
            })
            .collect()
    }
}
