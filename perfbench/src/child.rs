//! The processes that run a workload. Every timed operation runs in a fresh
//! child process, so the process-global single-run memo and installed store
//! of one pass never warm the next, and the child's peak resident memory is
//! the workload's own. A child prints one JSON object as its last stdout
//! line.

use std::io::{self, BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use padc_cpu::{TraceOp, TraceSource};
use padc_harness::{run_suite, HarnessConfig, JobStatus};
use padc_sim::experiments::{
    experiment_registry, install_unit_store, single_run_stats, suite_jobs_with, unit_cache_stats,
    ExecMode, SuiteOptions,
};
use padc_sim::{Report, System};
use padc_store::Store;
use padc_workloads::TraceGen;
use serde::{Number, Value};

use crate::host;
use crate::workload::{suite_config, SingleRun, Workload};

/// Harness workers for the suite workload. With two workers on a 2-CPU
/// host the cold pass's wall time was bimodal (6.4 s or 7.7 s), depending
/// on how the workers met fig4 and the coalesced units; one worker repeats
/// within about 1%.
const SUITE_JOBS: usize = 1;

/// Repetitions of the sub-millisecond constructor timings per child; the
/// child reports their median.
const REPS: usize = 21;

/// Arguments of a child process.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChildArgs {
    /// `sim` or `suite`.
    pub mode: String,
    /// Workload name (`sim`).
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Store directory.
    pub store: Option<PathBuf>,
    /// JSONL artifact path (`suite`).
    pub jsonl: Option<PathBuf>,
    /// Attach a `profile` object to every suite row (`suite`).
    pub profile: bool,
    /// Turn on the in-program phase timers and wrap the trace sources.
    pub traced: bool,
    /// Instruction budget override (`sim`).
    pub instructions: Option<u64>,
    /// Experiment subset (`suite`); empty means the whole registry.
    pub experiments: Vec<String>,
}

impl ChildArgs {
    /// The command-line form [`ChildArgs::parse`] reads back.
    pub fn to_args(&self) -> Vec<String> {
        let mut a = vec![
            "__child".to_string(),
            self.mode.clone(),
            "--workload".into(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
        ];
        if let Some(p) = &self.store {
            a.extend(["--store".into(), p.display().to_string()]);
        }
        if let Some(p) = &self.jsonl {
            a.extend(["--jsonl".into(), p.display().to_string()]);
        }
        if let Some(n) = self.instructions {
            a.extend(["--instructions".into(), n.to_string()]);
        }
        if !self.experiments.is_empty() {
            a.extend(["--experiments".into(), self.experiments.join(",")]);
        }
        if self.profile {
            a.push("--profile".into());
        }
        if self.traced {
            a.push("--traced".into());
        }
        a
    }

    /// Parses the arguments after `__child`.
    pub fn parse(args: &[String]) -> Result<ChildArgs, String> {
        let mut it = args.iter();
        let mut c = ChildArgs {
            mode: it.next().ok_or("child mode missing")?.clone(),
            ..ChildArgs::default()
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().cloned().ok_or(format!("{flag} expects a value"));
            match flag.as_str() {
                "--workload" => c.workload = value()?,
                "--seed" => c.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--store" => c.store = Some(value()?.into()),
                "--jsonl" => c.jsonl = Some(value()?.into()),
                "--instructions" => {
                    c.instructions = Some(
                        value()?
                            .parse()
                            .map_err(|e| format!("--instructions: {e}"))?,
                    )
                }
                "--experiments" => c.experiments = value()?.split(',').map(String::from).collect(),
                "--profile" => c.profile = true,
                "--traced" => c.traced = true,
                other => return Err(format!("unknown child flag {other}")),
            }
        }
        Ok(c)
    }

    fn single_run(&self) -> Result<SingleRun, String> {
        let w =
            Workload::parse(&self.workload).ok_or(format!("unknown workload {}", self.workload))?;
        let mut run =
            SingleRun::of(w, self.seed).ok_or(format!("{} is not a single run", self.workload))?;
        if let Some(n) = self.instructions {
            run.instructions = n;
        }
        Ok(run)
    }
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Compact JSON text of a value.
pub(crate) fn to_json(v: &Value) -> String {
    let mut out = String::new();
    serde_json::write_value(&mut out, v, None, 0);
    out
}

/// A float JSON value.
pub(crate) fn num(v: f64) -> Value {
    Value::Num(Number::F(v))
}

/// An integer JSON value.
pub(crate) fn count(v: u64) -> Value {
    Value::Num(Number::U(v))
}

fn median_secs(mut xs: Vec<Duration>) -> f64 {
    xs.sort();
    xs[xs.len() / 2].as_secs_f64()
}

/// Runs a child and prints its result line.
pub fn main(args: &[String]) -> Result<(), String> {
    let c = ChildArgs::parse(args)?;
    let out = match c.mode.as_str() {
        "sim" => sim(&c),
        "suite" => suite(&c),
        other => Err(format!("unknown child mode {other}")),
    }?;
    println!("{}", to_json(&out));
    Ok(())
}

/// A trace source that generates operations in batches of [`BATCH`], timing
/// each batch, and serves them one by one, so the clock is read once per
/// batch rather than once per `next_op`.
struct TimedTrace {
    inner: Box<dyn TraceSource>,
    buf: std::collections::VecDeque<TraceOp>,
    /// Nanoseconds spent generating, and operations generated.
    acc: Arc<(AtomicU64, AtomicU64)>,
}

const BATCH: usize = 256;

impl TraceSource for TimedTrace {
    fn next_op(&mut self) -> TraceOp {
        if self.buf.is_empty() {
            let t = Instant::now();
            for _ in 0..BATCH {
                self.buf.push_back(self.inner.next_op());
            }
            self.acc
                .0
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.acc.1.fetch_add(BATCH as u64, Ordering::Relaxed);
        }
        self.buf.pop_front().expect("batch refilled above")
    }

    /// Continues from the current position: the operations already buffered,
    /// then a fork of the generator, which sits just past them.
    fn fork(&self) -> Box<dyn TraceSource> {
        Box::new(TimedTrace {
            inner: self.inner.fork(),
            buf: self.buf.clone(),
            acc: Arc::clone(&self.acc),
        })
    }
}

/// One `System` run: constructors timed [`REPS`] times, then `run`.
///
/// With a store this is a timed operation: the run first misses in the
/// store, writes its report there and reads it back, as the suite's unit
/// cache does, and then the same configuration runs again in this now-warm
/// process (`warm_s`). Traced runs enable the phase timers and time
/// `next_op` through [`TimedTrace`].
fn sim(c: &ChildArgs) -> Result<Value, String> {
    let run = c.single_run()?;
    let cfg = run.config();
    let names: Vec<String> = run.benches.iter().map(|b| b.name.clone()).collect();
    let acc = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    padc_sim::profile::set_timing_enabled(c.traced);

    let mut setups = Vec::with_capacity(REPS);
    let mut built = None;
    for _ in 0..REPS {
        let (cfg, benches, names) = (cfg.clone(), run.benches.clone(), names.clone());
        let traces: Vec<Box<dyn TraceSource>> = if c.traced {
            benches
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    Box::new(TimedTrace {
                        inner: Box::new(TraceGen::new(b, i, cfg.seed)),
                        buf: Default::default(),
                        acc: Arc::clone(&acc),
                    }) as Box<dyn TraceSource>
                })
                .collect()
        } else {
            Vec::new()
        };
        drop(built.take());
        let t = Instant::now();
        let store = c
            .store
            .as_deref()
            .map(Store::open)
            .transpose()
            .map_err(|e| e.to_string())?;
        let sys = if c.traced {
            System::with_traces(cfg, traces, names)
        } else {
            System::new(cfg, benches)
        };
        setups.push(t.elapsed());
        built = Some((store, sys));
    }
    let (store, mut sys) = built.expect("REPS > 0");
    let (digest, meta) = run.store_key();
    let missed = store.as_ref().map(|s| s.load(&digest, &meta).is_none());

    let t = Instant::now();
    let report = sys.run();
    let wall = t.elapsed();

    let mut fields = vec![
        ("setup_s", num(median_secs(setups))),
        ("wall_s", num(wall.as_secs_f64())),
    ];
    if c.traced {
        fields.push((
            "profile",
            serde_json::to_value(sys.profile()).map_err(|e| e.0)?,
        ));
        fields.push(("next_op_ns", count(acc.0.load(Ordering::Relaxed))));
        fields.push(("next_ops", count(acc.1.load(Ordering::Relaxed))));
    }
    if let Some(store) = &store {
        let json = serde_json::to_string(&report).map_err(|e| e.0)?;
        store
            .put(&digest, &meta, &json)
            .map_err(|e| e.to_string())?;
        let stored = store
            .load(&digest, &meta)
            .and_then(|payload| serde_json::from_str::<Report>(&payload).ok());
        fields.push(("store_missed", Value::Bool(missed == Some(true))));
        fields.push(("store_hit", Value::Bool(stored.as_ref() == Some(&report))));
        let bytes = store.stats().map_err(|e| e.to_string())?.bytes;
        fields.push(("store_bytes", count(bytes)));

        // The cold system goes first, so peak memory stays one system's.
        drop(sys);
        let mut again = System::new(cfg, run.benches.clone());
        let t = Instant::now();
        let warm_report = again.run();
        fields.push(("warm_s", num(t.elapsed().as_secs_f64())));
        fields.push((
            "warm_report",
            serde_json::to_value(&warm_report).map_err(|e| e.0)?,
        ));
    }
    fields.push(("rss_mb", num(host::peak_rss_mb())));
    fields.push(("report", serde_json::to_value(&report).map_err(|e| e.0)?));
    Ok(object(fields))
}

/// One pass of the smoke suite against the store at `--store`, writing the
/// JSONL artifact to `--jsonl`.
fn suite(c: &ChildArgs) -> Result<Value, String> {
    let dir = c.store.as_deref().ok_or("suite needs --store")?;
    let jsonl = c.jsonl.as_deref().ok_or("suite needs --jsonl")?;
    let exp = suite_config();
    let opts = SuiteOptions {
        profile: c.profile,
        exec: ExecMode::default(),
    };
    padc_sim::profile::set_timing_enabled(c.traced);

    let mut setups = Vec::with_capacity(REPS);
    let mut jobs = Vec::new();
    for _ in 0..REPS {
        let mut selected = experiment_registry();
        if !c.experiments.is_empty() {
            selected.retain(|e| c.experiments.iter().any(|id| id == e.id));
        }
        drop(std::mem::take(&mut jobs));
        let t = Instant::now();
        install_unit_store(dir).map_err(|e| e.to_string())?;
        jobs = suite_jobs_with(selected, exp, None, opts);
        setups.push(t.elapsed());
    }

    let harness = HarnessConfig {
        workers: SUITE_JOBS,
        budget: None,
        progress: false,
    };
    let file = std::fs::File::create(jsonl).map_err(|e| format!("{}: {e}", jsonl.display()))?;
    let mut sink = BufWriter::new(file);
    let t = Instant::now();
    let summary =
        run_suite(&jobs, &harness, Some(&mut sink), &mut io::sink()).map_err(|e| e.to_string())?;
    let wall = t.elapsed();
    sink.flush().map_err(|e| e.to_string())?;

    let stats = unit_cache_stats();
    let (memo_requested, memo_computed) = single_run_stats();
    let slowest = summary
        .outcomes
        .iter()
        .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .ok_or("empty suite")?;
    let ok = summary
        .outcomes
        .iter()
        .filter(|o| o.status == JobStatus::Ok)
        .count();
    let bytes = Store::open(dir)
        .and_then(|s| s.stats())
        .map_err(|e| e.to_string())?
        .bytes;
    Ok(object(vec![
        ("setup_s", num(median_secs(setups))),
        ("wall_s", num(wall.as_secs_f64())),
        ("experiments", count(summary.outcomes.len() as u64)),
        ("ok", count(ok as u64)),
        ("workers", count(summary.workers as u64)),
        ("subjobs_executed", count(summary.subjobs_executed)),
        ("store_hits", count(stats.store_hits)),
        ("store_misses", count(stats.store_misses)),
        ("units_coalesced", count(stats.units_coalesced)),
        ("memo_requested", count(memo_requested)),
        ("memo_computed", count(memo_computed)),
        ("slowest_id", Value::Str(slowest.id.clone())),
        ("slowest_s", num(slowest.seconds)),
        ("store_bytes", count(bytes)),
        ("rss_mb", num(host::peak_rss_mb())),
    ]))
}
