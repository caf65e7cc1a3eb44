//! `padc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a context row, a summary line, and, as the last line, the result
//! object `{"correct", "attempted", "failed", "metrics"}`. Exit status 0 on
//! a result, 1 when no operation could be measured, 2 on usage errors.

use std::path::PathBuf;

use padc_perfbench::run::{run, Options, SCRUBBED_ENV};
use padc_perfbench::workload::Workload;

const USAGE: &str = "usage: padc-perfbench --workload <mcf-1c|hog-8c|smoke-store> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__child") {
        if let Err(e) = padc_perfbench::child::main(&args[1..]) {
            eprintln!("child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (workload, seed, seconds, trace) = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let exe = std::env::current_exe().expect("the running binary has a path");
    let scratch = PathBuf::from(".bench_tmp");
    let opts = Options::new(
        workload,
        seed,
        seconds,
        trace,
        exe,
        scratch.join(format!("run-{}", std::process::id())),
    );
    let outcome = run(&opts);
    // Succeeds only when no other run is using the directory.
    let _ = std::fs::remove_dir(&scratch);
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.context_line());
            let summary: Vec<String> = outcome
                .metrics
                .iter()
                .map(|m| format!("{}={} {}", m.name, m.value, m.unit))
                .collect();
            println!(
                "{}: {} ops_failed={}/{}",
                workload.name(),
                summary.join(" "),
                outcome.failed,
                outcome.attempted
            );
            println!("{}", outcome.result_line());
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            std::process::exit(1);
        }
    }
}
