//! `padcsim` — run one simulation from the command line.
//!
//! ```text
//! padcsim --cores 4 --policy padc --instructions 300000 \
//!         --bench omnetpp_06 --bench libquantum_06 --bench galgel_00 --bench GemsFDTD_06
//! padcsim --config system.json --bench milc_06           # full SimConfig from JSON
//! padcsim --print-config --cores 2 --policy demand-first # dump the config as JSON
//! padcsim --trace trace.txt --policy padc                # replay a recorded trace
//! padcsim --suite --smoke --jobs 4 --jsonl out.jsonl     # experiment suite via padc-harness
//! ```

use padc_core::SchedulingPolicy;
use padc_cpu::TraceSource;
use padc_dram::RefreshPolicy;
use padc_sim::{FastForwardMode, SimConfig, System};
use padc_workloads::{profiles, TraceFileSource};

/// Parses `--fast-forward MODE` / `--fast-forward=MODE`.
fn parse_ff_mode(s: &str) -> Result<FastForwardMode, String> {
    s.parse()
}

/// Parses `--refresh-policy MODE` (`all-bank` | `per-bank` | `darp`).
fn parse_refresh_policy(s: &str) -> Result<RefreshPolicy, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "all-bank" | "allbank" => RefreshPolicy::AllBank,
        "per-bank" | "perbank" => RefreshPolicy::PerBank,
        "darp" => RefreshPolicy::Darp,
        other => return Err(format!("unknown refresh policy {other:?}")),
    })
}

fn parse_policy(s: &str) -> Result<SchedulingPolicy, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "demand-first" | "demandfirst" | "df" => SchedulingPolicy::DemandFirst,
        "demand-pref-equal" | "equal" | "frfcfs" => SchedulingPolicy::DemandPrefetchEqual,
        "prefetch-first" | "pf" => SchedulingPolicy::PrefetchFirst,
        "aps" | "aps-only" => SchedulingPolicy::ApsOnly,
        "padc" | "aps-apd" => SchedulingPolicy::Padc,
        "padc-rank" | "rank" => SchedulingPolicy::PadcRank,
        other => return Err(format!("unknown policy {other:?}")),
    })
}

struct Args {
    cores: usize,
    policy: SchedulingPolicy,
    instructions: u64,
    benches: Vec<String>,
    traces: Vec<String>,
    config_path: Option<String>,
    print_config: bool,
    no_prefetch: bool,
    json: bool,
    profile: bool,
    fast_forward: Option<FastForwardMode>,
    refresh_policy: Option<RefreshPolicy>,
    extended_timing: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cores: 1,
        policy: SchedulingPolicy::Padc,
        instructions: 200_000,
        benches: Vec::new(),
        traces: Vec::new(),
        config_path: None,
        print_config: false,
        no_prefetch: false,
        json: false,
        profile: false,
        fast_forward: None,
        refresh_policy: None,
        extended_timing: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--cores" => args.cores = value("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--policy" => args.policy = parse_policy(&value("--policy")?)?,
            "--instructions" => {
                args.instructions = value("--instructions")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--bench" => args.benches.push(value("--bench")?),
            "--trace" => args.traces.push(value("--trace")?),
            "--config" => args.config_path = Some(value("--config")?),
            "--print-config" => args.print_config = true,
            "--no-prefetch" => args.no_prefetch = true,
            "--json" => args.json = true,
            "--profile" => args.profile = true,
            "--fast-forward" => args.fast_forward = Some(parse_ff_mode(&value("--fast-forward")?)?),
            "--refresh-policy" => {
                args.refresh_policy = Some(parse_refresh_policy(&value("--refresh-policy")?)?)
            }
            "--extended-timing" => args.extended_timing = true,
            other if other.starts_with("--fast-forward=") => {
                args.fast_forward = Some(parse_ff_mode(&other["--fast-forward=".len()..])?)
            }
            "--list-benchmarks" => {
                for p in profiles::all() {
                    println!("{:<22} class {}", p.name, p.class.code());
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: padcsim [--config FILE.json] [--cores N] [--policy P] \
                     [--instructions N] [--no-prefetch] [--json] [--profile] \
                     [--fast-forward off|horizon|event] \
                     [--refresh-policy all-bank|per-bank|darp] [--extended-timing] \
                     (--bench NAME ... | --trace FILE ...) | --print-config | --list-benchmarks"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// `padcsim --suite`: run registered experiments on the `padc-harness`
/// unified scheduler (experiments and their per-workload fan-out share one
/// worker pool, so `--jobs N` bounds total simulation threads). Shares the
/// registry (and therefore ids, payloads, and JSONL bytes) with `repro`;
/// this entry point is the minimal suite-runner — use `repro` for table
/// rendering and bar charts.
fn run_suite_mode(args: &[String]) -> ! {
    use padc_sim::experiments::{
        registry::find, single_run_stats, suite_jobs_with, ExecMode, ExpConfig, Scale, SuiteOptions,
    };

    let mut cfg = ExpConfig::at(Scale::Full);
    let mut workers = 0usize;
    let mut jsonl_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut profile = false;
    let mut exec = ExecMode::default();
    let mut store_flag: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    let die = |msg: String| -> ! {
        eprintln!("error: {msg} (try --help)");
        std::process::exit(2);
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format!("{name} expects a value")))
        };
        match flag.as_str() {
            "--quick" => cfg = ExpConfig::at(Scale::Quick),
            "--smoke" => cfg = ExpConfig::at(Scale::Smoke),
            "--jobs" | "-j" => {
                let v = value("--jobs");
                workers = v
                    .parse()
                    .unwrap_or_else(|_| die(format!("--jobs expects an integer, got {v:?}")));
            }
            "--jsonl" => jsonl_path = Some(value("--jsonl")),
            "--summary" => summary_path = Some(value("--summary")),
            "--store" => store_flag = Some(value("--store")),
            "--profile" => profile = true,
            "--exec" => {
                let v = value("--exec");
                exec = v.parse().unwrap_or_else(|e| die(e));
            }
            "--fast-forward" => {
                let v = value("--fast-forward");
                let mode = v.parse().unwrap_or_else(|e| die(e));
                padc_sim::set_fast_forward_mode_default(mode);
            }
            other if other.starts_with("--fast-forward=") => {
                let mode = other["--fast-forward=".len()..]
                    .parse()
                    .unwrap_or_else(|e| die(e));
                padc_sim::set_fast_forward_mode_default(mode);
            }
            "--list" => {
                for e in padc_sim::experiments::experiment_registry() {
                    println!("{:<10} {}", e.id, e.paper_ref);
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: padcsim --suite [--quick|--smoke] [--jobs N] [--jsonl PATH] \
                     [--summary PATH] [--store DIR] [--profile] \
                     [--exec planned|monolithic] [--fast-forward off|horizon|event] \
                     [--list] [<experiment-id>...]"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => die(format!("unknown --suite flag {other:?}")),
            other => ids.push(other.to_string()),
        }
    }
    let selected = if ids.is_empty() {
        padc_sim::experiments::experiment_registry()
    } else {
        ids.iter()
            .map(|id| {
                find(id).unwrap_or_else(|| {
                    eprintln!("error: unknown experiment id: {id}");
                    eprintln!("run `padcsim --suite --list` for the registered ids");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    if profile {
        padc_sim::profile::set_timing_enabled(true);
    }
    if let Some(dir) = store_dir_from(store_flag) {
        padc_sim::experiments::install_unit_store(std::path::Path::new(&dir))
            .unwrap_or_else(|e| die(format!("cannot open store {dir}: {e}")));
    }
    let jobs = suite_jobs_with(selected, cfg, None, SuiteOptions { profile, exec });
    let harness_cfg = padc_harness::HarnessConfig {
        workers,
        budget: None,
        progress: true,
    };
    let mut jsonl_file;
    let mut jsonl_stdout;
    let jsonl_sink: Option<&mut dyn std::io::Write> = match jsonl_path.as_deref() {
        None => {
            jsonl_stdout = std::io::stdout().lock();
            Some(&mut jsonl_stdout)
        }
        Some("-") => {
            jsonl_stdout = std::io::stdout().lock();
            Some(&mut jsonl_stdout)
        }
        Some(path) => {
            jsonl_file = std::fs::File::create(path)
                .unwrap_or_else(|e| die(format!("cannot create {path}: {e}")));
            Some(&mut jsonl_file)
        }
    };
    let mut stderr = std::io::stderr().lock();
    let mut summary = padc_harness::run_suite(&jobs, &harness_cfg, jsonl_sink, &mut stderr)
        .expect("suite I/O failed");
    if padc_sim::experiments::unit_store_installed() {
        let stats = padc_sim::experiments::unit_cache_stats();
        for (name, v) in [
            ("store_hits", stats.store_hits),
            ("store_misses", stats.store_misses),
            ("units_coalesced", stats.units_coalesced),
        ] {
            summary.extras.push((name.to_string(), v));
        }
        // Machine-readable store telemetry: the determinism and perf gates
        // parse this line; keep the key=value form stable.
        eprintln!(
            "store: hits={} misses={} coalesced={}",
            stats.store_hits, stats.store_misses, stats.units_coalesced
        );
    }
    if let Some(path) = &summary_path {
        std::fs::write(path, summary.to_json())
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
    }
    eprintln!(
        "suite: {}/{} ok, {} failed, {} workers, {:.1}s wall",
        summary.ok(),
        summary.outcomes.len(),
        summary.failed(),
        summary.workers,
        summary.wall_seconds
    );
    let (requested, computed) = single_run_stats();
    if requested > 0 {
        // Machine-readable memo telemetry: `requested - computed` is the
        // cross-experiment dedup win (perf_gate.sh parses this line).
        eprintln!("single_run_memo: requested={requested} computed={computed}");
    }
    std::process::exit(if summary.failed() > 0 { 1 } else { 0 });
}

/// Resolves the unit-store directory: the `--store DIR` flag beats the
/// `PADC_STORE` environment variable; neither means no store.
fn store_dir_from(flag: Option<String>) -> Option<String> {
    flag.or_else(|| std::env::var("PADC_STORE").ok().filter(|s| !s.is_empty()))
}

/// `padcsim serve`: long-running experiment request server (line-delimited
/// JSON over stdio or a Unix socket); see `padc_sim::serve` for the
/// protocol.
fn run_serve_mode(args: &[String]) -> ! {
    use padc_sim::experiments::Scale;

    let die = |msg: String| -> ! {
        eprintln!("error: {msg} (try padcsim serve --help)");
        std::process::exit(2);
    };
    let mut workers = 0usize;
    let mut scale = Scale::Full;
    let mut store_flag: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format!("{name} expects a value")))
        };
        match flag.as_str() {
            "--quick" => scale = Scale::Quick,
            "--smoke" => scale = Scale::Smoke,
            "--jobs" | "-j" => {
                let v = value("--jobs");
                workers = v
                    .parse()
                    .unwrap_or_else(|_| die(format!("--jobs expects an integer, got {v:?}")));
            }
            "--store" => store_flag = Some(value("--store")),
            "--socket" => socket = Some(value("--socket")),
            "--stdio" => socket = None,
            "--fast-forward" => {
                let v = value("--fast-forward");
                let mode = v.parse().unwrap_or_else(|e| die(e));
                padc_sim::set_fast_forward_mode_default(mode);
            }
            other if other.starts_with("--fast-forward=") => {
                let mode = other["--fast-forward=".len()..]
                    .parse()
                    .unwrap_or_else(|e| die(e));
                padc_sim::set_fast_forward_mode_default(mode);
            }
            "--help" | "-h" => {
                println!(
                    "usage: padcsim serve [--stdio | --socket PATH] [--jobs N] \
                     [--quick|--smoke] [--store DIR] \
                     [--fast-forward off|horizon|event]\n\
                     requests: one JSON object per line, e.g. \
                     {{\"id\":\"r1\",\"experiments\":[\"fig6\"],\"scale\":\"smoke\"}}"
                );
                std::process::exit(0);
            }
            other => die(format!("unknown serve flag {other:?}")),
        }
    }
    if let Some(dir) = store_dir_from(store_flag) {
        padc_sim::experiments::install_unit_store(std::path::Path::new(&dir))
            .unwrap_or_else(|e| die(format!("cannot open store {dir}: {e}")));
        eprintln!("serve: unit store at {dir}");
    }
    let state = padc_sim::serve::ServeState::new(workers, scale);
    let result = match &socket {
        Some(path) => {
            eprintln!("serve: listening on {path}");
            padc_sim::serve::serve_unix(&state, std::path::Path::new(path))
        }
        None => {
            eprintln!("serve: reading requests from stdin");
            padc_sim::serve::serve_stdio(&state, std::io::stdin().lock(), std::io::stdout())
        }
    };
    let counters = padc_sim::profile::service_counters();
    eprintln!(
        "serve: requests={} subjobs_executed={} store: hits={} misses={} coalesced={}",
        counters.serve_requests,
        state.subjobs_executed(),
        counters.store_hits,
        counters.store_misses,
        counters.units_coalesced
    );
    match result {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `padcsim store <stats|gc>`: inspect and bound the content-addressed
/// unit store without running anything.
fn run_store_mode(args: &[String]) -> ! {
    let die = |msg: String| -> ! {
        eprintln!("error: {msg} (try padcsim store --help)");
        std::process::exit(2);
    };
    let mut action: Option<String> = None;
    let mut store_flag: Option<String> = None;
    let mut max_bytes: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--store" => store_flag = Some(value("--store")),
            "--max-bytes" => {
                let v = value("--max-bytes");
                max_bytes =
                    Some(v.parse().unwrap_or_else(|_| {
                        die(format!("--max-bytes expects an integer, got {v:?}"))
                    }));
            }
            "--help" | "-h" => {
                println!(
                    "usage: padcsim store (stats | gc --max-bytes N) [--store DIR]\n\
                     the store directory falls back to $PADC_STORE"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => die(format!("unknown store flag {other:?}")),
            other if action.is_none() => action = Some(other.to_string()),
            other => die(format!("unexpected argument {other:?}")),
        }
    }
    let dir = store_dir_from(store_flag)
        .unwrap_or_else(|| die("no store directory: pass --store DIR or set PADC_STORE".into()));
    let store = padc_store::Store::open(std::path::Path::new(&dir))
        .unwrap_or_else(|e| die(format!("cannot open store {dir}: {e}")));
    match action.as_deref() {
        Some("stats") | None => {
            let s = store
                .stats()
                .unwrap_or_else(|e| die(format!("stats failed: {e}")));
            println!("store: entries={} bytes={}", s.entries, s.bytes);
        }
        Some("gc") => {
            let max = max_bytes.unwrap_or_else(|| die("gc requires --max-bytes N".into()));
            let o = store
                .gc(max)
                .unwrap_or_else(|e| die(format!("gc failed: {e}")));
            println!(
                "store gc: evicted={} freed_bytes={} remaining_entries={} remaining_bytes={}",
                o.evicted, o.freed_bytes, o.remaining_entries, o.remaining_bytes
            );
        }
        Some(other) => die(format!("unknown store action {other:?} (stats|gc)")),
    }
    std::process::exit(0);
}

/// `--profile`: the hot-path counters as one `profile: {json}` stderr
/// line, so it composes with `--json` on stdout. The object is the
/// serde-serialized [`padc_sim::profile::SimProfile`] — the same shape
/// the suite surfaces (`repro`, `padcsim --suite`, `padcsim serve`) embed
/// in JSONL rows — and scripts/perf_gate.sh greps its `"core_skip_pct"`,
/// `"ctrl_skip_pct"`, and `"owner_*"` keys; keep them stable.
fn print_profile(p: &padc_sim::profile::SimProfile) {
    eprintln!(
        "profile: {}",
        serde_json::to_string(p).expect("profile serializes")
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--suite") => run_suite_mode(&raw[1..]),
        Some("serve") => run_serve_mode(&raw[1..]),
        Some("store") => run_store_mode(&raw[1..]),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let cores = if !args.traces.is_empty() {
        args.traces.len()
    } else if !args.benches.is_empty() {
        args.benches.len()
    } else {
        args.cores
    };
    let mut cfg = match &args.config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            });
            serde_json::from_str::<SimConfig>(&text).unwrap_or_else(|e| {
                eprintln!("error: invalid config {path}: {e}");
                std::process::exit(2);
            })
        }
        None => SimConfig::new(cores, args.policy),
    };
    if args.config_path.is_none() {
        cfg.max_instructions = args.instructions;
        if args.no_prefetch {
            cfg = cfg.without_prefetching();
        }
    }
    if args.extended_timing {
        cfg = cfg.with_extended_timing(padc_dram::ExtendedTiming::default());
    }
    if let Some(policy) = args.refresh_policy {
        cfg = cfg.with_refresh_policy(policy);
    }
    if args.print_config {
        println!(
            "{}",
            serde_json::to_string_pretty(&cfg).expect("config serializes")
        );
        return;
    }

    if let Some(mode) = args.fast_forward {
        padc_sim::set_fast_forward_mode_default(mode);
    }
    if args.profile {
        padc_sim::profile::set_timing_enabled(true);
    }
    let mut sys = if !args.traces.is_empty() {
        let mut traces: Vec<Box<dyn TraceSource>> = Vec::new();
        for t in &args.traces {
            match TraceFileSource::from_path(std::path::Path::new(t)) {
                Ok(src) => traces.push(Box::new(src)),
                Err(e) => {
                    eprintln!("error: trace {t}: {e}");
                    std::process::exit(2);
                }
            }
        }
        System::with_traces(cfg, traces, args.traces.clone())
    } else {
        if args.benches.is_empty() {
            eprintln!("error: provide --bench or --trace (or --help)");
            std::process::exit(2);
        }
        let benches: Vec<_> = args
            .benches
            .iter()
            .map(|n| {
                profiles::by_name(n).unwrap_or_else(|| {
                    eprintln!("error: unknown benchmark {n} (try --list-benchmarks)");
                    std::process::exit(2);
                })
            })
            .collect();
        System::new(cfg, benches)
    };
    let report = sys.run();
    if args.profile {
        print_profile(sys.profile());
    }

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serializes")
        );
        return;
    }
    println!("cycles: {}", report.total_cycles);
    for c in &report.per_core {
        println!(
            "{:<22} IPC={:.3} MPKI={:.1} SPL={:.1} ACC={:.0}% COV={:.0}% sent={} dropped={} traffic={}",
            c.benchmark,
            c.ipc(),
            c.mpki(),
            c.spl(),
            c.acc() * 100.0,
            c.cov() * 100.0,
            c.prefetches_sent,
            c.prefetches_dropped,
            c.traffic.total(),
        );
    }
    let t = report.traffic();
    println!(
        "traffic: {} lines (demand {}, useful pf {}, useless pf {}); DRAM row-hit {:.0}%",
        t.total(),
        t.demand,
        t.pref_useful,
        t.pref_useless,
        report
            .channels
            .first()
            .map(|c| c.row_hit_rate() * 100.0)
            .unwrap_or(0.0),
    );
}
