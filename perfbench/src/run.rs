//! One benchmark run of one workload: timed operations in fresh child
//! processes for the end-to-end metrics (tracing off), or, with `trace`,
//! plain and traced child runs plus the layer replays for the per-layer
//! metrics.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use padc_sim::{FastForwardMode, Report, System};
use serde::Value;

use crate::child::{count, num, object, to_json, ChildArgs};
use crate::host;
use crate::metrics::{Metric, Values, END_TO_END, PER_LAYER};
use crate::replay::{read_store_entries, replay_layers, replay_store, Entry};
use crate::workload::{replay_inputs, SingleRun, Workload};

/// Copies of a single run's store entry in the store replay.
const STORE_REPLAY_COPIES: usize = 64;
/// Accesses, summed over cores, that the layer replay drives.
const REPLAY_ACCESSES: usize = 400_000;

/// Environment variables that silently change what the simulator runs.
pub const SCRUBBED_ENV: [&str; 2] = ["PADC_FAST_FORWARD", "PADC_STORE"];

/// What one run measures.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Benchmark seed.
    pub seed: u64,
    /// Measurement time; at least one operation runs regardless.
    pub seconds: f64,
    /// Report per-layer metrics from traced runs instead of end-to-end ones.
    pub trace: bool,
    /// The benchmark binary, re-run for each child process.
    pub exe: PathBuf,
    /// Scratch directory for stores and artifacts; removed afterwards.
    pub work_dir: PathBuf,
    /// Instruction budget override for the single-run workloads.
    pub instructions: Option<u64>,
    /// Experiment subset for the suite workload; empty runs all.
    pub experiments: Vec<String>,
    /// Accesses the layer replay drives, summed over cores.
    pub replay_accesses: usize,
}

impl Options {
    /// The reference settings for `workload`.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        exe: PathBuf,
        work_dir: PathBuf,
    ) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            exe,
            work_dir,
            instructions: None,
            experiments: Vec::new(),
            replay_accesses: REPLAY_ACCESSES,
        }
    }

    fn single_run(&self) -> Option<SingleRun> {
        let mut run = SingleRun::of(self.workload, self.seed)?;
        if let Some(n) = self.instructions {
            run.instructions = n;
        }
        Some(run)
    }

    fn child(&self, mode: &str) -> ChildArgs {
        ChildArgs {
            mode: mode.to_string(),
            workload: self.workload.name().to_string(),
            seed: self.seed,
            instructions: self.instructions,
            experiments: self.experiments.clone(),
            ..ChildArgs::default()
        }
    }
}

/// What one run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Run context: host, seed, fast-forward mode, slowest experiments.
    pub context: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = object(vec![
                    ("value", num(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        let line = object(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        to_json(&line)
    }

    /// The context row, one JSON object.
    pub fn context_line(&self) -> String {
        let mut fields = self.context.clone();
        fields.push(("ops_failed", count(self.failed)));
        fields.push(("ops_attempted", count(self.attempted)));
        to_json(&object(fields))
    }
}

/// Runs one child process and returns its result object.
fn spawn(exe: &Path, args: &ChildArgs) -> Result<Value, String> {
    let mut cmd = Command::new(exe);
    cmd.args(args.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{} child exited with {}", args.mode, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    serde_json::parse(line).map_err(|e| e.0)
}

fn field(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("child result lacks {key}"))
}

fn flag(v: &Value, key: &str) -> bool {
    matches!(v.get(key), Some(Value::Bool(true)))
}

fn text(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap_or("").to_string()
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The `FastForwardMode::Off` stepped reference report of a run.
pub fn reference_report(run: &SingleRun) -> Report {
    let mut sys = System::new(run.config(), run.benches.clone());
    sys.set_fast_forward_mode(FastForwardMode::Off);
    sys.run()
}

/// The output check of a single-run operation: the child's report equals
/// the stepped reference exactly.
pub fn report_matches(reference: &Report, child: &Value) -> bool {
    child
        .get("report")
        .and_then(|r| serde_json::from_value::<Report>(r).ok())
        .is_some_and(|r| &r == reference)
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `op` until `seconds` have passed (at least once), counting
/// attempts and failures. `op` returns `Ok(None)` for a failed check.
fn repeat<T>(
    seconds: f64,
    attempted: &mut u64,
    failed: &mut u64,
    mut op: impl FnMut(u64) -> Result<Option<T>, String>,
) -> Vec<T> {
    let start = Instant::now();
    let mut good = Vec::new();
    let mut ops = 0;
    while ops == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        ops += 1;
        *attempted += 1;
        match op(*attempted) {
            Ok(Some(t)) => good.push(t),
            Ok(None) => {
                *failed += 1;
                eprintln!("operation {attempted}: output check failed");
            }
            Err(e) => {
                *failed += 1;
                eprintln!("operation {attempted}: {e}");
            }
        }
    }
    good
}

/// Measures one workload.
///
/// # Errors
///
/// Fails when no operation passed its output check, so no metric exists.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    let _scratch = Scratch(opts.work_dir.clone());
    let mut context = vec![
        ("workload", Value::Str(opts.workload.name().into())),
        ("seed", count(opts.seed)),
        ("trace", Value::Bool(opts.trace)),
        ("host", Value::Str(host::hostname())),
        ("os", Value::Str(std::env::consts::OS.into())),
        ("arch", Value::Str(std::env::consts::ARCH.into())),
        ("nproc", count(host::nproc() as u64)),
        (
            "ff_mode",
            Value::Str(padc_sim::fast_forward_mode_default().as_str().into()),
        ),
    ];
    let (values, attempted, failed) = match (opts.single_run(), opts.trace) {
        (Some(run), false) => single_timed(opts, &run)?,
        (Some(run), true) => single_traced(opts, &run, &mut context)?,
        (None, false) => suite_timed(opts, &mut context)?,
        (None, true) => suite_traced(opts, &mut context)?,
    };
    let list: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    Ok(Outcome {
        attempted,
        failed,
        metrics: values.emit(list),
        context,
    })
}

type Measured = (Values, u64, u64);

fn no_samples() -> String {
    "no operation passed its output check".to_string()
}

/// End-to-end metrics of a single-run workload: per operation, a child
/// runs the simulation cold, writes its report to an empty store, and runs
/// it again warm.
fn single_timed(opts: &Options, run: &SingleRun) -> Result<Measured, String> {
    let reference = reference_report(run);
    let (mut attempted, mut failed) = (0, 0);
    let samples = repeat(opts.seconds, &mut attempted, &mut failed, |n| {
        let dir = opts.work_dir.join(format!("op-{n}"));
        let args = ChildArgs {
            store: Some(dir.join("store")),
            ..opts.child("sim")
        };
        let op = spawn(&opts.exe, &args);
        let _ = std::fs::remove_dir_all(&dir);
        let op = op?;
        Ok(stored_op_ok(&reference, &op).then_some(op))
    });
    if samples.is_empty() {
        return Err(no_samples());
    }
    let of = |key: &str| median(&samples.iter().map(|op| field(op, key)).collect::<Vec<_>>());
    let mut v = Values::default();
    v.set("wall_s", of("wall_s"));
    v.set("warm_s", of("warm_s"));
    v.set("setup_s", of("setup_s"));
    v.set("peak_rss_mb", of("rss_mb"));
    Ok((v, attempted, failed))
}

/// The output check of a store-backed single-run operation: the cold and
/// warm reports equal the reference, the empty store missed, and the
/// report read back from it is the one written.
fn stored_op_ok(reference: &Report, op: &Value) -> bool {
    report_matches(reference, op)
        && op
            .get("warm_report")
            .is_some_and(|r| serde_json::from_value::<Report>(r).is_ok_and(|r| &r == reference))
        && flag(op, "store_missed")
        && flag(op, "store_hit")
}

/// End-to-end metrics of the suite workload: per operation, a cold pass
/// into an empty store, then a warm pass against it, each in a fresh
/// process. Every experiment must be `ok` and the two JSONL artifacts
/// byte-identical.
fn suite_timed(
    opts: &Options,
    context: &mut Vec<(&'static str, Value)>,
) -> Result<Measured, String> {
    let (mut attempted, mut failed) = (0, 0);
    let samples = repeat(opts.seconds, &mut attempted, &mut failed, |n| {
        let dir = opts.work_dir.join(format!("op-{n}"));
        let pass = |name: &str| {
            let args = ChildArgs {
                store: Some(dir.join("store")),
                jsonl: Some(dir.join(format!("{name}.jsonl"))),
                ..opts.child("suite")
            };
            spawn(&opts.exe, &args)
        };
        let result = pass("cold").and_then(|cold| Ok((cold, pass("warm")?)));
        let same = std::fs::read(dir.join("cold.jsonl")).ok()
            == std::fs::read(dir.join("warm.jsonl")).ok();
        let _ = std::fs::remove_dir_all(&dir);
        let (cold, warm) = result?;
        Ok((all_ok(&cold) && all_ok(&warm) && same).then_some((cold, warm)))
    });
    let (cold, warm) = samples.last().ok_or_else(no_samples)?;
    context.push(("jobs", count(field(cold, "workers") as u64)));
    context.push(("cold_slowest", Value::Str(text(cold, "slowest_id"))));
    context.push(("warm_slowest", Value::Str(text(warm, "slowest_id"))));
    let of =
        |f: &dyn Fn(&(Value, Value)) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let mut v = Values::default();
    v.set("wall_s", of(&|(c, _)| field(c, "wall_s")));
    v.set("warm_s", of(&|(_, w)| field(w, "wall_s")));
    v.set("setup_s", of(&|(c, _)| field(c, "setup_s")));
    v.set("peak_rss_mb", of(&|(c, _)| field(c, "rss_mb")));
    Ok((v, attempted, failed))
}

fn all_ok(pass: &Value) -> bool {
    let total = field(pass, "experiments");
    total > 0.0 && field(pass, "ok") == total
}

/// The replay and store-replay metrics every traced run reports. Returns
/// the replay's `next_op` cost, which the suite workload reports; the runs
/// report the one measured inside the traced run instead.
fn set_replays(v: &mut Values, opts: &Options, entries: &[Entry]) -> Result<f64, String> {
    let (benches, seed) = replay_inputs(opts.workload, opts.seed);
    let cfg = match opts.single_run() {
        Some(run) => run.config(),
        None => padc_sim::SimConfig::new(benches.len(), padc_core::SchedulingPolicy::Padc),
    };
    let l = replay_layers(&benches, seed, &cfg, opts.replay_accesses / benches.len());
    v.set("cache.probe_ns", l.probe_ns);
    v.set("cache.fill_ns", l.fill_ns);
    v.set("cache.l2_miss_pct", l.l2_miss_pct);
    v.set("prefetch.on_access_ns", l.on_access_ns);
    v.set("prefetch.candidates_per_access", l.candidates_per_access);
    v.set("core.enqueue_ns", l.enqueue_ns);
    v.set("core.tick_ns", l.tick_ns);
    v.set("core.next_event_ns", l.next_event_ns);
    v.set("dram.advance_ns", l.advance_ns);
    v.set("dram.next_event_ns", l.dram_next_event_ns);
    v.set("dram.row_hit_pct", l.row_hit_pct);
    let (put_ms, load_ms) = replay_store(&opts.work_dir.join("store-replay"), entries)
        .map_err(|e| format!("store replay: {e}"))?;
    v.set("store.put_ms", put_ms);
    v.set("store.load_ms", load_ms);
    Ok(l.next_op_ns)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// The kernel/controller/core split and the stepping counts of one traced
/// run's `profile` object (`SimProfile` keys). `wall_ns` is the measured
/// `System::run` wall time; the kernel is what the two in-program phase
/// timers leave of it, so the three phases sum to it exactly.
fn set_sim_split(v: &mut Values, p: &Value, wall_ns: f64) {
    let (ctrl, cores) = (field(p, "controller_ns"), field(p, "cores_ns"));
    v.set("sim.kernel_s", (wall_ns - ctrl - cores) / 1e9);
    v.set("core.ctrl_phase_s", ctrl / 1e9);
    v.set("cpu.tick_phase_s", cores / 1e9);
    v.set("sim.cycles_stepped", field(p, "cycles_stepped"));
    v.set("sim.ff_jumps", field(p, "ff_jumps"));
    v.set("sim.horizon_resyncs", field(p, "horizon_resyncs"));
    let (ticked, skipped) = (
        field(p, "core_cycles_ticked"),
        field(p, "core_cycles_skipped"),
    );
    v.set("sim.core_skip_pct", pct(skipped, ticked + skipped));
    let (stepped, elided) = (
        field(p, "ctrl_cycles_stepped"),
        field(p, "ctrl_cycles_skipped"),
    );
    v.set("sim.ctrl_skip_pct", pct(elided, stepped + elided));
    v.set("core.ctrl_ticks", stepped);
    v.set("cpu.core_ticks", ticked);
    let (reuses, recomputes) = (field(p, "owner_reuses"), field(p, "owner_recomputes"));
    v.set("core.owner_reuse_pct", pct(reuses, reuses + recomputes));
    v.set("core.owner_scan_entries", field(p, "owner_scan_entries"));
    v.set("prefetch.dspatch_flips", field(p, "dspatch_flips"));
    v.set("dram.refresh_pulls", field(p, "refresh_pulls"));
}

/// Per-layer metrics of a single-run workload: alternating plain and
/// traced child runs, one cold/warm store operation, and the replays.
fn single_traced(
    opts: &Options,
    run: &SingleRun,
    context: &mut Vec<(&'static str, Value)>,
) -> Result<Measured, String> {
    let reference = reference_report(run);
    let (mut attempted, mut failed) = (0, 0);
    let pairs = repeat(opts.seconds, &mut attempted, &mut failed, |_| {
        let plain = spawn(&opts.exe, &opts.child("sim"))?;
        let traced = spawn(
            &opts.exe,
            &ChildArgs {
                traced: true,
                ..opts.child("sim")
            },
        )?;
        let ok = report_matches(&reference, &plain) && report_matches(&reference, &traced);
        Ok(ok.then_some((field(&plain, "wall_s"), traced)))
    });
    let stored = repeat(0.0, &mut attempted, &mut failed, |_| {
        let args = ChildArgs {
            store: Some(opts.work_dir.join("store")),
            ..opts.child("sim")
        };
        let op = spawn(&opts.exe, &args)?;
        Ok(stored_op_ok(&reference, &op).then_some(op))
    });
    let (Some(stored), false) = (stored.first(), pairs.is_empty()) else {
        return Err(no_samples());
    };

    let mut traced: Vec<&(f64, Value)> = pairs.iter().collect();
    traced.sort_by(|a, b| field(&a.1, "wall_s").total_cmp(&field(&b.1, "wall_s")));
    let (_, mid) = traced[traced.len() / 2];
    let plain_wall = median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let traced_wall = field(mid, "wall_s");

    context.push(("traced_wall_s", num(traced_wall)));
    let mut v = Values::default();
    let profile = mid
        .get("profile")
        .ok_or("traced child reported no profile")?;
    set_sim_split(&mut v, profile, traced_wall * 1e9);
    v.set(
        "sim.host_ns_per_sim_cycle",
        plain_wall * 1e9 / reference.total_cycles as f64,
    );
    v.set(
        "sim.trace_overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    // The run is the only experiment; no harness fan-out or memo is involved.
    v.set("harness.subjobs_executed", 0.0);
    v.set("harness.units_coalesced", 0.0);
    v.set("harness.memo_hit_pct", 0.0);
    v.set("harness.cold_exp_max_s", plain_wall);
    v.set("harness.warm_exp_max_s", field(stored, "warm_s"));
    // The operation passed its check, so its read-back hit and nothing missed.
    v.set("store.hits", 1.0);
    v.set("store.misses", 0.0);
    v.set("store.bytes", field(stored, "store_bytes"));
    v.set("model.sim_cycles", reference.total_cycles as f64);
    v.set(
        "model.ipc_sum",
        reference.per_core.iter().map(|c| c.ipc()).sum(),
    );

    v.set(
        "workloads.next_op_ns",
        field(mid, "next_op_ns") / field(mid, "next_ops").max(1.0),
    );

    let (digest, meta) = run.store_key();
    let payload = serde_json::to_string(&reference).map_err(|e| e.0)?;
    let entries: Vec<Entry> = (0..STORE_REPLAY_COPIES)
        .map(|i| {
            (
                padc_store::digest_hex(format!("{digest}{i}").as_bytes()),
                meta.clone(),
                payload.clone(),
            )
        })
        .collect();
    set_replays(&mut v, opts, &entries)?;
    Ok((v, attempted, failed))
}

/// The rows of a JSONL artifact with each row's `profile` object removed.
fn without_profiles(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .map(|line| match serde_json::parse(line) {
            Ok(Value::Object(mut row)) => {
                for (k, v) in &mut row {
                    if let (true, Value::Object(result)) = (k == "result", v) {
                        result.retain(|(rk, _)| rk != "profile");
                    }
                }
                to_json(&Value::Object(row))
            }
            _ => line.to_string(),
        })
        .collect()
}

/// The `profile` counters of a JSONL artifact, summed over its rows.
fn profile_sums(jsonl: &str) -> Value {
    let mut sums: Vec<(String, u64)> = Vec::new();
    for row in jsonl.lines().filter_map(|l| serde_json::parse(l).ok()) {
        let Some(fields) = row
            .get("result")
            .and_then(|r| r.get("profile"))
            .and_then(Value::as_object)
        else {
            continue;
        };
        for (k, v) in fields {
            let Value::Num(serde::Number::U(x)) = v else {
                continue;
            };
            let x = *x;
            match sums.iter_mut().find(|(n, _)| n == k) {
                Some((_, s)) => *s += x,
                None => sums.push((k.clone(), x)),
            }
        }
    }
    Value::Object(sums.into_iter().map(|(k, s)| (k, count(s))).collect())
}

/// Sum of the demand-first single-core IPC column of `tab5`.
fn tab5_ipc_sum(jsonl: &str) -> f64 {
    let row = jsonl
        .lines()
        .filter_map(|l| serde_json::parse(l).ok())
        .find(|r| r.get("id").and_then(Value::as_str) == Some("tab5"));
    let Some(table) = row
        .as_ref()
        .and_then(|r| r.get("result"))
        .and_then(|r| r.get("tables"))
        .and_then(Value::as_array)
        .and_then(|t| t.first())
    else {
        return 0.0;
    };
    let columns = table
        .get("columns")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let Some(col) = columns.iter().position(|c| c.as_str() == Some("IPC(df)")) else {
        return 0.0;
    };
    let rows = table.get("rows").and_then(Value::as_array).unwrap_or(&[]);
    rows.iter()
        .filter_map(|r| r.as_array()?.get(1)?.as_array()?.get(col)?.as_f64())
        .sum()
}

/// One iteration of the traced suite workload.
struct SuiteIteration {
    /// The plain cold pass's result and summed profile.
    plain: Value,
    plain_sums: Value,
    /// The warm pass's result and JSONL artifact.
    warm: Value,
    warm_jsonl: String,
    /// The traced cold pass's summed profile.
    traced_sums: Value,
}

/// Per-layer metrics of the suite workload: per iteration a plain cold
/// pass that only counts (`profile` rows, phase timers off), a warm pass,
/// and a traced cold pass, each in a fresh process; then the replays, with
/// the store replay fed the entries the plain cold pass wrote.
fn suite_traced(
    opts: &Options,
    context: &mut Vec<(&'static str, Value)>,
) -> Result<Measured, String> {
    let (mut attempted, mut failed) = (0, 0);
    let mut entries: Vec<Entry> = Vec::new();
    let samples = repeat(opts.seconds, &mut attempted, &mut failed, |n| {
        let dir = opts.work_dir.join(format!("op-{n}"));
        let pass = |name: &str, store: &str, profile: bool, traced: bool| {
            let args = ChildArgs {
                store: Some(dir.join(store)),
                jsonl: Some(dir.join(format!("{name}.jsonl"))),
                profile,
                traced,
                ..opts.child("suite")
            };
            let v = spawn(&opts.exe, &args)?;
            let jsonl = std::fs::read_to_string(dir.join(format!("{name}.jsonl")))
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((v, jsonl))
        };
        let result = (|| {
            let plain = pass("plain", "store", true, false)?;
            let warm = pass("warm", "store", false, false)?;
            if entries.is_empty() {
                entries = read_store_entries(&dir.join("store")).map_err(|e| e.to_string())?;
            }
            let traced = pass("traced", "store-traced", true, true)?;
            Ok::<_, String>((plain, warm, traced))
        })();
        let _ = std::fs::remove_dir_all(&dir);
        let (plain, warm, traced) = result?;
        let rows: Vec<String> = warm.1.lines().map(String::from).collect();
        let ok = [&plain, &warm, &traced].iter().all(|p| all_ok(&p.0))
            && without_profiles(&plain.1) == rows
            && without_profiles(&traced.1) == rows;
        Ok(ok.then(|| SuiteIteration {
            plain_sums: profile_sums(&plain.1),
            plain: plain.0,
            warm: warm.0,
            warm_jsonl: warm.1,
            traced_sums: profile_sums(&traced.1),
        }))
    });
    if samples.is_empty() {
        return Err(no_samples());
    }

    let mut by_traced: Vec<&SuiteIteration> = samples.iter().collect();
    by_traced.sort_by(|a, b| {
        field(&a.traced_sums, "wall_ns").total_cmp(&field(&b.traced_sums, "wall_ns"))
    });
    let it = by_traced[by_traced.len() / 2];
    let plain_wall = median(
        &samples
            .iter()
            .map(|s| field(&s.plain_sums, "wall_ns"))
            .collect::<Vec<_>>(),
    );
    let traced_wall = field(&it.traced_sums, "wall_ns");
    let cycles =
        field(&it.plain_sums, "ctrl_cycles_stepped") + field(&it.plain_sums, "ctrl_cycles_skipped");
    let (p, warm) = (&it.plain, &it.warm);
    context.push(("traced_wall_s", num(traced_wall / 1e9)));
    context.push(("jobs", count(field(p, "workers") as u64)));
    context.push(("cold_slowest", Value::Str(text(p, "slowest_id"))));
    context.push(("warm_slowest", Value::Str(text(warm, "slowest_id"))));

    let mut v = Values::default();
    set_sim_split(&mut v, &it.traced_sums, traced_wall);
    v.set("sim.host_ns_per_sim_cycle", plain_wall / cycles.max(1.0));
    v.set(
        "sim.trace_overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    v.set("harness.subjobs_executed", field(p, "subjobs_executed"));
    v.set("harness.units_coalesced", field(p, "units_coalesced"));
    let (requested, computed) = (field(p, "memo_requested"), field(p, "memo_computed"));
    v.set("harness.memo_hit_pct", pct(requested - computed, requested));
    v.set("harness.cold_exp_max_s", field(p, "slowest_s"));
    v.set("harness.warm_exp_max_s", field(warm, "slowest_s"));
    v.set("store.hits", field(warm, "store_hits"));
    v.set("store.misses", field(warm, "store_misses"));
    v.set("store.bytes", field(p, "store_bytes"));
    v.set("model.sim_cycles", cycles);
    v.set("model.ipc_sum", tab5_ipc_sum(&it.warm_jsonl));
    let next_op_ns = set_replays(&mut v, opts, &entries)?;
    v.set("workloads.next_op_ns", next_op_ns);
    Ok((v, attempted, failed))
}
