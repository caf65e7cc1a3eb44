//! Self-tests of the benchmark: metric names, the output check, and a very
//! short run of every workload in both modes.

use std::path::PathBuf;

use padc_perfbench::child::object;
use padc_perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use padc_perfbench::run::{reference_report, report_matches, run, Options};
use padc_perfbench::workload::{SingleRun, Workload};
use serde::{Number, Value};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

/// The `key` fields of the entries of list `list` in `BENCHMARK.json`.
fn listed_field(list: &str, key: &str) -> Vec<String> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            m.get(key)
                .and_then(Value::as_str)
                .expect("a string field")
                .to_string()
        })
        .collect()
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(list: &str) -> Vec<(String, String)> {
    listed_field(list, "name")
        .into_iter()
        .zip(listed_field(list, "unit"))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_are_valid_and_listed_in_benchmark_json() {
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name} is not a valid metric name");
    }
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    for name in listed_field("workloads", "name") {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}

/// Replaces `path` (a key path into nested objects) in `v` with `new`.
fn tamper(v: &mut Value, path: &[&str], new: Value) {
    let Value::Object(fields) = v else {
        panic!("not an object")
    };
    let slot = &mut fields
        .iter_mut()
        .find(|(k, _)| k == path[0])
        .expect("key exists")
        .1;
    if path.len() == 1 {
        *slot = new;
    } else {
        tamper(slot, &path[1..], new);
    }
}

#[test]
fn output_check_rejects_a_tampered_report() {
    let mut run = SingleRun::of(Workload::Mcf1c, 7).expect("mcf-1c is a single run");
    run.instructions = 20_000;
    let reference = reference_report(&run);
    let report = serde_json::to_value(&reference).expect("reports serialize");
    let child = |report: Value| object(vec![("report", report)]);
    assert!(report_matches(&reference, &child(report.clone())));

    let mut cycles = report.clone();
    tamper(
        &mut cycles,
        &["total_cycles"],
        Value::Num(Number::U(reference.total_cycles + 1)),
    );
    assert!(!report_matches(&reference, &child(cycles)));

    let mut core = report.clone();
    let Some(Value::Array(cores)) = core.get("per_core").cloned() else {
        panic!("per_core is an array")
    };
    let mut first = cores[0].clone();
    tamper(&mut first, &["instructions"], Value::Num(Number::U(1)));
    tamper(&mut core, &["per_core"], Value::Array(vec![first]));
    assert!(!report_matches(&reference, &child(core)));

    assert!(!report_matches(
        &reference,
        &child(Value::Str("garbage".into()))
    ));
    assert!(!report_matches(&reference, &object(vec![])));
}

fn short(workload: Workload, trace: bool) -> Options {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("short-{}-{trace}", workload.name()));
    let mut opts = Options::new(
        workload,
        3,
        0.0,
        trace,
        PathBuf::from(env!("CARGO_BIN_EXE_padc-perfbench")),
        dir,
    );
    opts.instructions = Some(match workload {
        Workload::Hog8c => 10_000,
        _ => 30_000,
    });
    opts.experiments = vec!["tab5".into(), "ext-refresh".into()];
    opts.replay_accesses = 8_000;
    opts
}

fn context_f64(ctx: &[(&str, Value)], key: &str) -> f64 {
    ctx.iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.as_f64())
        .expect("context field")
}

#[test]
fn a_very_short_run_of_each_workload_completes() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&short(workload, trace)).expect("the run measures something");
            assert!(out.attempted >= 1);
            assert_eq!(
                out.failed,
                0,
                "{} trace={trace}: an output check failed",
                workload.name()
            );
            let names: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(
                names,
                listed(key),
                "{} emits exactly the listed metrics",
                workload.name()
            );
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(
                    out.metrics.iter().all(|m| m.value > 0.0),
                    "end-to-end metrics are never 0"
                );
                continue;
            }
            let get = |n: &str| {
                out.metrics
                    .iter()
                    .find(|m| m.name == n)
                    .expect("emitted")
                    .value
            };
            let phases = get("core.ctrl_phase_s") + get("cpu.tick_phase_s") + get("sim.kernel_s");
            let wall = context_f64(&out.context, "traced_wall_s");
            assert!(
                (phases - wall).abs() <= 1e-9 * wall.max(1.0),
                "{phases} != {wall}"
            );
        }
    }
}
