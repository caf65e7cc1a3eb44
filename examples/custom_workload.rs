//! Shows the workload API: define a custom synthetic benchmark (a phased
//! profile that alternates friendly streaming with hostile short runs) and
//! watch PADC's per-interval accuracy tracking adapt to the phases —
//! the mechanism behind the paper's Fig. 4(b).
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use padc::core::SchedulingPolicy;
use padc::sim::{SimConfig, System};
use padc::workloads::{BenchProfile, Pattern, PhaseSpec, PrefetchClass};

fn main() {
    let custom = BenchProfile {
        name: "my_phased_app".into(),
        class: PrefetchClass::Unfriendly,
        mem_ratio: 0.35,
        store_fraction: 0.25,
        hot_fraction: 0.3,
        hot_lines: 256,
        working_set_lines: 1 << 22,
        accesses_per_line: 6,
        dependent_fraction: 0.4,
        irregular_fraction: 0.02,
        phases: vec![
            PhaseSpec {
                pattern: Pattern::Stream { streams: 2 },
                instructions: 60_000,
            },
            PhaseSpec {
                pattern: Pattern::ShortRuns { run_len: 6 },
                instructions: 60_000,
            },
        ],
    };

    let mut cfg = SimConfig::single_core(SchedulingPolicy::Padc);
    cfg.max_instructions = 600_000;
    cfg.max_cycles = 50_000_000;
    let mut sys = System::new(cfg, vec![custom]);

    // `run_until` fast-forwards to each sampling boundary and stops exactly
    // there (or earlier, once the run has finished).
    println!("time(K cycles)  measured-accuracy (PAR)");
    let mut next = 100_000;
    loop {
        sys.run_until(next);
        if sys.now() < next {
            break;
        }
        let par = sys.accuracy(0);
        let bar = "#".repeat((par * 40.0) as usize);
        println!("{:>10}      {par:5.2} {bar}", next / 1000);
        next += 100_000;
    }
    let r = sys.run();
    let c = &r.per_core[0];
    println!(
        "\nlifetime accuracy={:.0}%  sent={} dropped-by-APD={}",
        c.acc() * 100.0,
        c.prefetches_sent,
        c.prefetches_dropped
    );
}
