//! Reproduction harness: regenerates every table and figure of the paper's
//! evaluation, in parallel, with per-experiment fault isolation.
//!
//! ```text
//! repro [--quick|--smoke] [--jobs N] [--jsonl PATH] [--summary PATH]
//!       [--store DIR] [--json|--csv|--bars COL] [--no-progress]
//!       [--profile] [--exec planned|monolithic]
//!       [--fast-forward off|horizon|event] [<experiment-id>...]
//! repro --list
//! ```
//!
//! With no ids, every registered experiment runs (`all` is accepted as an
//! alias). With no scale flag, experiments run at
//! `ExpConfig::at(Scale::Full)` scale (the paper's workload counts);
//! `--quick`/`--smoke` shrink runs for fast iteration.
//!
//! `--exec` selects how planned experiments execute their simulation
//! units: `planned` (default) fans them out as first-class sub-jobs on
//! the shared worker pool, `monolithic` runs them inline in plan order —
//! the compatibility path the determinism gate byte-diffs against the
//! planned artifact. Both modes produce identical JSONL bytes.
//!
//! Execution goes through the `padc-harness` unified scheduler:
//! experiments run on a worker pool (`--jobs N`, default
//! `available_parallelism()`), each under `catch_unwind`, so one panicking
//! experiment becomes a structured failure row instead of killing the
//! suite; per-workload fan-out inside experiments is scheduled onto the
//! *same* pool, so `--jobs N` bounds total simulation threads. The JSONL
//! stream (`--jsonl`, `-` for stdout) is emitted in registry order and
//! contains no timing data, so its bytes are identical for any `--jobs`
//! value. Timings go to the stderr progress lines and to the `--summary`
//! JSON — or, with `--profile`, into a per-experiment `"profile"` object
//! appended to each JSONL payload (hot-path counters and phase wall
//! times; wall times make profiled artifacts non-deterministic, so the
//! determinism gates run without it). `--fast-forward off|horizon|event`
//! selects how stall cycles are elided (default `horizon`, the per-core
//! event horizon; `off` steps every cycle and is the reference oracle;
//! results are bit-identical in every mode — the flag exists for the
//! equivalence gate and for timing comparisons).
//!
//! `--store DIR` (or the `PADC_STORE` environment variable) is the one way
//! to make a rerun incremental. It works at **unit** granularity, across
//! invocations and across overlapping experiment selections: every planned
//! simulation unit resolves against a persistent content-addressed store
//! before it is scheduled, and computed misses are written back
//! atomically. A unit's key covers the scale, the full simulator
//! configuration and the workload profiles, so a rerun after an
//! interrupted run recomputes only what is missing, and a run at another
//! scale never reuses a stored result. A warm rerun executes zero
//! simulation units and produces byte-identical JSONL (see DESIGN.md
//! §12). The stderr line `store: hits=H misses=M
//! coalesced=C` and matching `--summary` fields report the telemetry.
//!
//! Exit status: `0` when every experiment succeeds, `1` when any job
//! panics or runs over budget, `2` on usage errors (including unknown
//! experiment ids).

use std::io::Write as _;
use std::time::Duration;

use padc_bench::{find, registry, suite_jobs_with, table_stash, Experiment, SuiteOptions};
use padc_harness::{run_suite, HarnessConfig, JobStatus};
use padc_sim::experiments::{single_run_stats, ExecMode, ExpConfig, Scale};

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: repro [--quick|--smoke] [--jobs N] [--jsonl PATH] [--summary PATH]\n\
         \x20            [--store DIR] [--json|--csv|--bars COL] [--no-progress]\n\
         \x20            [--profile] [--exec planned|monolithic]\n\
         \x20            [--fast-forward off|horizon|event] [<id>...]\n\
         \x20      repro --list\n\
         known ids:"
    );
    for e in registry() {
        eprintln!("  {:<10} {}", e.id, e.paper_ref);
    }
    std::process::exit(2);
}

fn flag_value(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    iter.next()
        .unwrap_or_else(|| {
            eprintln!("{flag} expects a value");
            std::process::exit(2);
        })
        .clone()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::at(Scale::Full);
    let mut json = false;
    let mut csv = false;
    let mut bars: Option<String> = None;
    let mut jobs_flag: usize = 0;
    let mut jsonl_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut budget: Option<Duration> = None;
    let mut progress = true;
    let mut profile = false;
    let mut exec = ExecMode::default();
    let mut store_flag: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => cfg = ExpConfig::at(Scale::Quick),
            "--smoke" => cfg = ExpConfig::at(Scale::Smoke),
            "--json" => json = true,
            "--csv" => csv = true,
            "--bars" => bars = Some(flag_value(&mut iter, "--bars")),
            "--jobs" | "-j" => {
                let v = flag_value(&mut iter, "--jobs");
                jobs_flag = v.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs expects a positive integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--jsonl" => jsonl_path = Some(flag_value(&mut iter, "--jsonl")),
            "--summary" => summary_path = Some(flag_value(&mut iter, "--summary")),
            "--store" => store_flag = Some(flag_value(&mut iter, "--store")),
            "--budget-seconds" => {
                let v = flag_value(&mut iter, "--budget-seconds");
                let secs: u64 = v.parse().unwrap_or_else(|_| {
                    eprintln!("--budget-seconds expects an integer, got {v:?}");
                    std::process::exit(2);
                });
                budget = Some(Duration::from_secs(secs));
            }
            "--no-progress" => progress = false,
            "--profile" => profile = true,
            "--exec" => {
                let v = flag_value(&mut iter, "--exec");
                exec = v.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--fast-forward" => {
                let v = flag_value(&mut iter, "--fast-forward");
                let mode = v.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
                padc_sim::set_fast_forward_mode_default(mode);
            }
            other if other.starts_with("--fast-forward=") => {
                let mode = other["--fast-forward=".len()..]
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    });
                padc_sim::set_fast_forward_mode_default(mode);
            }
            "--list" => {
                for e in registry() {
                    println!("{:<10} {}", e.id, e.paper_ref);
                }
                return;
            }
            "--help" | "-h" => usage_and_exit(),
            "all" => {}
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }

    // Resolve the experiment selection against the registry; unknown names
    // are a hard error with a clear message, not a silent skip.
    let selected: Vec<Experiment> = if ids.is_empty() {
        registry()
    } else {
        ids.iter()
            .map(|id| {
                find(id).unwrap_or_else(|| {
                    eprintln!("unknown experiment id: {id}");
                    eprintln!("run `repro --list` for the registered ids");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let order: Vec<&'static str> = selected.iter().map(|e| e.id).collect();
    let refs: Vec<&'static str> = selected.iter().map(|e| e.paper_ref).collect();

    if profile {
        padc_sim::profile::set_timing_enabled(true);
    }
    if let Some(dir) =
        store_flag.or_else(|| std::env::var("PADC_STORE").ok().filter(|s| !s.is_empty()))
    {
        padc_sim::experiments::install_unit_store(std::path::Path::new(&dir)).unwrap_or_else(|e| {
            eprintln!("cannot open store {dir}: {e}");
            std::process::exit(2);
        });
    }
    let stash = table_stash();
    let jobs = suite_jobs_with(
        selected,
        cfg,
        Some(stash.clone()),
        SuiteOptions { profile, exec },
    );
    let harness_cfg = HarnessConfig {
        workers: jobs_flag,
        budget,
        progress,
    };

    let mut jsonl_file;
    let mut jsonl_stdout;
    let jsonl_sink: Option<&mut dyn std::io::Write> = match jsonl_path.as_deref() {
        None => None,
        Some("-") => {
            jsonl_stdout = std::io::stdout().lock();
            Some(&mut jsonl_stdout)
        }
        Some(path) => {
            jsonl_file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(2);
            });
            Some(&mut jsonl_file)
        }
    };

    let mut stderr = std::io::stderr().lock();
    let mut summary =
        run_suite(&jobs, &harness_cfg, jsonl_sink, &mut stderr).expect("suite I/O failed");
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
        writeln!(
            stderr,
            "store: hits={} misses={} coalesced={}",
            stats.store_hits, stats.store_misses, stats.units_coalesced
        )
        .expect("stderr");
    }

    // Human-readable rendering, in registry order, from the stash the jobs
    // filled. Suppressed when the JSONL stream already owns stdout.
    if jsonl_path.as_deref() != Some("-") {
        let stash = stash.lock().expect("stash lock");
        let mut stdout = std::io::stdout().lock();
        for (i, id) in order.iter().enumerate() {
            let outcome = &summary.outcomes[i];
            writeln!(stdout, "# {} — {} ({:.1}s)", id, refs[i], outcome.seconds).expect("stdout");
            match stash.get(*id) {
                Some(tables) => {
                    for t in tables {
                        if json {
                            writeln!(
                                stdout,
                                "{}",
                                serde_json::to_string_pretty(t).expect("tables serialize")
                            )
                            .expect("stdout");
                        } else if csv {
                            writeln!(stdout, "{}", t.to_csv()).expect("stdout");
                        } else if let Some(col) = &bars {
                            match t.to_bars(col, 50) {
                                Some(chart) => writeln!(stdout, "{chart}").expect("stdout"),
                                None => writeln!(stdout, "{t}").expect("stdout"),
                            }
                        } else {
                            writeln!(stdout, "{t}").expect("stdout");
                        }
                    }
                }
                None => {
                    writeln!(
                        stdout,
                        "  FAILED ({}): {}",
                        outcome.status.as_str(),
                        outcome.error.as_deref().unwrap_or("no detail")
                    )
                    .expect("stdout");
                }
            }
        }
    }

    if let Some(path) = &summary_path {
        std::fs::write(path, summary.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
    }

    let failed = summary.failed();
    writeln!(
        stderr,
        "suite: {}/{} ok, {} failed, {} workers, {:.1}s wall",
        summary.ok(),
        summary.outcomes.len(),
        failed,
        summary.workers,
        summary.wall_seconds
    )
    .expect("stderr");
    let (requested, computed) = single_run_stats();
    if requested > 0 {
        // Machine-readable memo telemetry: `requested - computed` is the
        // cross-experiment dedup win (perf_gate.sh parses this line).
        writeln!(
            stderr,
            "single_run_memo: requested={requested} computed={computed}"
        )
        .expect("stderr");
    }
    if failed > 0 {
        for o in &summary.outcomes {
            if matches!(o.status, JobStatus::Panicked | JobStatus::OverBudget) {
                writeln!(
                    stderr,
                    "  {}: {} — {}",
                    o.id,
                    o.status.as_str(),
                    o.error.as_deref().unwrap_or("no detail")
                )
                .expect("stderr");
            }
        }
        std::process::exit(1);
    }
}
