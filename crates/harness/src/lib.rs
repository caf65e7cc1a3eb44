//! `padc-harness` — the unified experiment scheduler: parallel,
//! fault-isolated execution with one global thread bound.
//!
//! The experiment grid (30+ tables and figures, each internally a batch of
//! simulations) used to run strictly sequentially in one thread, and a
//! single panicking experiment killed the whole reproduction run. This
//! crate is the execution subsystem underneath the `repro` binary and
//! `padcsim --suite`:
//!
//! - **Jobs**: each experiment becomes a self-describing [`JobSpec`] whose
//!   closure returns its result as a compact JSON payload string.
//! - **Worker pool**: [`run_suite`] drives a shared job queue from
//!   `std::thread::scope`-scoped workers (default
//!   `available_parallelism()`, overridable — the `--jobs N` flag).
//! - **Sub-jobs**: a running job fans out per-workload units via
//!   [`subjob_map`] onto the *same* pool (the submitting worker helps
//!   execute while it waits), so `--jobs N` bounds **total** simulation
//!   threads — not experiments × workloads. See [`subjob`].
//! - **Fault isolation**: every job runs under `catch_unwind`; a panicking
//!   job (or any of its sub-jobs) becomes a structured failure row and the
//!   suite keeps going.
//! - **Determinism**: results are emitted **in job order, keyed by id**,
//!   and rows contain no timing data, so `--jobs 1` and `--jobs 8` produce
//!   byte-identical JSONL. Timings go to the stderr progress line and the
//!   summary instead.
//! - **Accounting**: per-job wall-clock is measured; jobs exceeding an
//!   optional budget are recorded as structured failures (they are not
//!   killed — Rust threads cannot be — but the suite reports them).
//!
//! The JSONL writer is hand-rolled (string escaping and all) so the engine
//! has zero dependencies. Incremental reruns are not this crate's concern:
//! the simulator's content-addressed unit store (`--store`) makes a rerun
//! skip every simulation whose inputs it has already seen.
//!
//! # JSONL schema
//!
//! One object per line, in job order:
//!
//! ```json
//! {"id":"fig6","status":"ok","result":<payload>}
//! {"id":"boom","status":"panicked","error":"<panic message>"}
//! {"id":"slow","status":"over_budget","budget_seconds":60,"result":<payload>}
//! ```
//!
//! `result` is the job's payload verbatim (already-serialized JSON).

#![warn(missing_docs)]

pub mod service;
pub mod subjob;

use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

pub use service::{BatchHandle, CompletedJob, ServiceConfig, SuiteService};
pub use subjob::{set_task_context, subjob_map, task_context, under_harness, with_task_context};

use subjob::SubJobPool;

/// One schedulable unit of work.
pub struct JobSpec {
    /// Stable identifier; keys the output row (e.g. `"fig6"`).
    pub id: String,
    /// Human-readable description for progress lines (e.g. the paper ref).
    pub description: String,
    /// Executes the job, returning its result as compact JSON. Must be
    /// deterministic for the suite's output to be deterministic.
    pub run: Box<dyn Fn() -> String + Send + Sync>,
}

impl JobSpec {
    /// Builds a job from any JSON-producing closure.
    pub fn new(
        id: impl Into<String>,
        description: impl Into<String>,
        run: impl Fn() -> String + Send + Sync + 'static,
    ) -> Self {
        JobSpec {
            id: id.into(),
            description: description.into(),
            run: Box::new(run),
        }
    }
}

/// Pool and accounting knobs.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Worker threads; clamped to the job count. `0` means
    /// `available_parallelism()`.
    pub workers: usize,
    /// Optional per-job wall-clock budget; jobs that finish over it are
    /// recorded as failures.
    pub budget: Option<Duration>,
    /// Emit done/total + ETA progress lines.
    pub progress: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            workers: 0,
            budget: None,
            progress: true,
        }
    }
}

impl HarnessConfig {
    /// Resolves `workers == 0` to the machine's parallelism.
    ///
    /// The count is deliberately *not* clamped to the number of top-level
    /// jobs: under the unified scheduler, jobs fan per-workload sub-jobs
    /// back onto the suite pool, so even a single job can keep every
    /// worker busy.
    pub fn effective_workers(&self, _jobs: usize) -> usize {
        let base = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        base.max(1)
    }
}

/// How one job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed normally.
    Ok,
    /// Panicked; the panic message is in [`JobOutcome::error`].
    Panicked,
    /// Completed but exceeded the configured wall-clock budget.
    OverBudget,
}

impl JobStatus {
    /// The status string used in JSONL rows (and summaries).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Panicked => "panicked",
            JobStatus::OverBudget => "over_budget",
        }
    }
}

/// Per-job accounting, in job order.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job id.
    pub id: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Panic message for [`JobStatus::Panicked`].
    pub error: Option<String>,
    /// Wall-clock seconds the job ran.
    pub seconds: f64,
}

/// Suite-level accounting returned by [`run_suite`].
#[derive(Clone, Debug)]
pub struct Summary {
    /// Per-job outcomes, in job order.
    pub outcomes: Vec<JobOutcome>,
    /// Worker threads actually used.
    pub workers: usize,
    /// End-to-end wall-clock seconds.
    pub wall_seconds: f64,
    /// Sub-job units executed through the shared pool (planned experiment
    /// units and per-workload fan-out; inline executions don't count).
    pub subjobs_executed: u64,
    /// Peak number of sub-job units in flight simultaneously. Cannot
    /// exceed `workers` — units only run on suite worker threads — which
    /// the concurrency CI gate asserts.
    pub subjobs_peak_concurrent: u64,
    /// Extra counters appended by the caller before rendering (e.g. the
    /// simulator's store hit/miss telemetry). Each `(name, value)` pair is
    /// emitted as a top-level integer field of [`Summary::to_json`], in
    /// order. Empty by default.
    pub extras: Vec<(String, u64)>,
}

impl Summary {
    /// Jobs that completed normally (executed this run).
    pub fn ok(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Ok)
            .count()
    }

    /// Jobs recorded as failures (panicked or over budget).
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, JobStatus::Panicked | JobStatus::OverBudget))
            .count()
    }

    /// Renders the summary as pretty-ish JSON (one job per line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"total\": {},\n", self.outcomes.len()));
        out.push_str(&format!("  \"ok\": {},\n", self.ok()));
        out.push_str(&format!("  \"failed\": {},\n", self.failed()));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"wall_seconds\": {:.3},\n", self.wall_seconds));
        out.push_str(&format!(
            "  \"subjobs_executed\": {},\n",
            self.subjobs_executed
        ));
        out.push_str(&format!(
            "  \"subjobs_peak_concurrent\": {},\n",
            self.subjobs_peak_concurrent
        ));
        for (name, value) in &self.extras {
            out.push_str("  ");
            write_json_string(&mut out, name);
            out.push_str(&format!(": {value},\n"));
        }
        out.push_str("  \"jobs\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            out.push_str("    {\"id\":");
            write_json_string(&mut out, &o.id);
            out.push_str(&format!(
                ",\"status\":\"{}\",\"seconds\":{:.3}",
                o.status.as_str(),
                o.seconds
            ));
            if let Some(e) = &o.error {
                out.push_str(",\"error\":");
                write_json_string(&mut out, e);
            }
            out.push('}');
            if i + 1 < self.outcomes.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Appends `s` as a quoted JSON string (the crate's hand-rolled writer).
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one JSONL row. Public so tests can assert the exact bytes.
pub fn render_row(id: &str, status: JobStatus, detail: &RowDetail) -> String {
    let mut row = String::new();
    row.push_str("{\"id\":");
    write_json_string(&mut row, id);
    row.push_str(",\"status\":\"");
    row.push_str(status.as_str());
    row.push('"');
    match detail {
        RowDetail::Result(payload) => {
            row.push_str(",\"result\":");
            row.push_str(payload);
        }
        RowDetail::OverBudget {
            payload,
            budget_seconds,
        } => {
            row.push_str(&format!(",\"budget_seconds\":{budget_seconds}"));
            row.push_str(",\"result\":");
            row.push_str(payload);
        }
        RowDetail::Error(msg) => {
            row.push_str(",\"error\":");
            write_json_string(&mut row, msg);
        }
    }
    row.push_str("}\n");
    row
}

/// Status-specific part of a row.
pub enum RowDetail {
    /// Normal completion: the job's JSON payload.
    Result(String),
    /// Over-budget completion: payload plus the configured budget.
    OverBudget {
        /// The job's JSON payload (it did complete).
        payload: String,
        /// The configured budget, seconds.
        budget_seconds: u64,
    },
    /// Panic message.
    Error(String),
}

struct Completed {
    status: JobStatus,
    row: String,
    error: Option<String>,
    seconds: f64,
}

/// Runs `jobs` on a worker pool, streaming JSONL rows (in job order) to
/// `jsonl` and progress lines to `progress`.
///
/// The pool is the *only* source of simulation threads: jobs run on the N
/// workers, and their [`subjob_map`] fan-outs are scheduled back onto the
/// same N workers (free workers drain sub-jobs before claiming new jobs;
/// a job waiting on its fan-out helps execute). The worker count is
/// therefore a true global thread bound.
///
/// The JSONL bytes depend only on the jobs' ids and payloads — not on the
/// worker count or completion order — so runs with different `--jobs`
/// values are byte-identical.
///
/// # Errors
///
/// Returns the first I/O error from either sink; job panics never abort
/// the suite.
pub fn run_suite(
    jobs: &[JobSpec],
    cfg: &HarnessConfig,
    mut jsonl: Option<&mut dyn Write>,
    progress: &mut dyn Write,
) -> io::Result<Summary> {
    let total = jobs.len();
    let workers = cfg.effective_workers(total);
    let started = Instant::now();

    // Suppress the default panic-hook backtrace spam for worker threads:
    // job panics are expected, caught, and reported as structured rows.
    let prev_hook = panic::take_hook();
    panic::set_hook({
        let prev = prev_hook;
        Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("padc-job-worker"));
            if !on_worker {
                prev(info);
            }
        })
    });

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Completed)>();
    let budget = cfg.budget;

    // The shared sub-job queue: jobs fan out onto it via `subjob_map`, and
    // these same N workers execute the units. Closing it (once every
    // top-level job has completed, or on early teardown) releases workers
    // blocked waiting for sub-jobs.
    let pool = Arc::new(SubJobPool::new());
    let jobs_done = AtomicUsize::new(0);
    if total == 0 {
        pool.close();
    }

    let result: io::Result<Vec<Completed>> = std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let jobs_done = &jobs_done;
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name(format!("padc-job-worker-{w}"))
                .spawn_scoped(scope, move || {
                    subjob::install_pool(Some(Arc::clone(&pool)));
                    loop {
                        // Serve running experiments' fan-outs before
                        // starting new experiments.
                        while let Some(sub) = pool.try_pop() {
                            sub.run();
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            // No more top-level jobs; keep serving
                            // sub-jobs until the whole suite completes.
                            while let Some(sub) = pool.pop_blocking() {
                                sub.run();
                            }
                            break;
                        }
                        let completed = execute_job(&jobs[i], budget);
                        if jobs_done.fetch_add(1, Ordering::Relaxed) + 1 == total {
                            pool.close();
                        }
                        if tx.send((i, completed)).is_err() {
                            // Collector died (I/O error): release any
                            // workers blocked on the sub-job queue.
                            pool.close();
                            break;
                        }
                    }
                    subjob::install_pool(None);
                })
                .expect("spawn worker");
        }
        drop(tx);

        // Collector: flush rows in job order as soon as the prefix is
        // complete, so output streams without depending on completion
        // order.
        let mut slots: Vec<Option<Completed>> = (0..total).map(|_| None).collect();
        let mut cursor = 0usize;
        let mut done = 0usize;
        while done < total {
            let Ok((i, completed)) = rx.recv() else {
                break;
            };
            done += 1;
            if cfg.progress {
                let elapsed = started.elapsed().as_secs_f64();
                let eta = elapsed / done as f64 * (total - done) as f64;
                writeln!(
                    progress,
                    "[{done:>3}/{total}] {id:<10} {status:<11} {secs:>7.1}s | elapsed {elapsed:>7.1}s eta {eta:>7.1}s",
                    id = jobs[i].id,
                    status = completed.status.as_str(),
                    secs = completed.seconds,
                )?;
            }
            slots[i] = Some(completed);
            while cursor < total {
                let Some(c) = &slots[cursor] else { break };
                if let Some(sink) = jsonl.as_deref_mut() {
                    sink.write_all(c.row.as_bytes())?;
                }
                cursor += 1;
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all jobs reported"))
            .collect())
    });

    // Restore the default hook before propagating any I/O error.
    let _ = panic::take_hook();
    let completed = result?;
    if let Some(sink) = jsonl {
        sink.flush()?;
    }

    Ok(Summary {
        outcomes: jobs
            .iter()
            .zip(&completed)
            .map(|(job, c)| JobOutcome {
                id: job.id.clone(),
                status: c.status,
                error: c.error.clone(),
                seconds: c.seconds,
            })
            .collect(),
        workers,
        wall_seconds: started.elapsed().as_secs_f64(),
        subjobs_executed: pool.stats.executed(),
        subjobs_peak_concurrent: pool.stats.peak_concurrent(),
        extras: Vec::new(),
    })
}

/// Runs one job under `catch_unwind`, rendering its row and outcome.
fn execute_job(job: &JobSpec, budget: Option<Duration>) -> Completed {
    let start = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| (job.run)()));
    let seconds = start.elapsed().as_secs_f64();
    match outcome {
        Ok(payload) => match budget {
            Some(b) if start.elapsed() > b => Completed {
                status: JobStatus::OverBudget,
                row: render_row(
                    &job.id,
                    JobStatus::OverBudget,
                    &RowDetail::OverBudget {
                        payload,
                        budget_seconds: b.as_secs(),
                    },
                ),
                error: Some(format!("exceeded {}s budget ({seconds:.1}s)", b.as_secs())),
                seconds,
            },
            _ => Completed {
                status: JobStatus::Ok,
                row: render_row(&job.id, JobStatus::Ok, &RowDetail::Result(payload)),
                error: None,
                seconds,
            },
        },
        Err(panic_payload) => {
            let msg = panic_message(panic_payload.as_ref());
            let row = render_row(&job.id, JobStatus::Panicked, &RowDetail::Error(msg.clone()));
            Completed {
                status: JobStatus::Panicked,
                row,
                error: Some(msg),
                seconds,
            }
        }
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_jsonl(jobs: &[JobSpec], cfg: &HarnessConfig) -> (String, Summary) {
        let mut jsonl = Vec::new();
        let mut progress = Vec::new();
        let summary = run_suite(jobs, cfg, Some(&mut jsonl), &mut progress).expect("io ok");
        (String::from_utf8(jsonl).expect("utf8"), summary)
    }

    fn quiet(workers: usize) -> HarnessConfig {
        HarnessConfig {
            workers,
            budget: None,
            progress: false,
        }
    }

    fn sleepy_jobs() -> Vec<JobSpec> {
        // Later jobs finish first under parallelism, exercising the
        // in-order flush.
        (0..6)
            .map(|i| {
                JobSpec::new(format!("job{i}"), "test", move || {
                    std::thread::sleep(Duration::from_millis(5 * (6 - i)));
                    format!("{{\"v\":{i}}}")
                })
            })
            .collect()
    }

    #[test]
    fn output_is_in_job_order_and_worker_count_independent() {
        let (seq, _) = collect_jsonl(&sleepy_jobs(), &quiet(1));
        let (par, summary) = collect_jsonl(&sleepy_jobs(), &quiet(4));
        assert_eq!(seq, par, "JSONL must be byte-identical across -j");
        assert_eq!(summary.workers, 4);
        let expect: String = (0..6)
            .map(|i| format!("{{\"id\":\"job{i}\",\"status\":\"ok\",\"result\":{{\"v\":{i}}}}}\n"))
            .collect();
        assert_eq!(seq, expect);
    }

    #[test]
    fn panicking_job_is_isolated_and_structured() {
        let jobs = vec![
            JobSpec::new("good1", "t", || "1".to_string()),
            JobSpec::new("boom", "t", || panic!("injected failure {}", 42)),
            JobSpec::new("good2", "t", || "2".to_string()),
        ];
        let (jsonl, summary) = collect_jsonl(&jobs, &quiet(2));
        assert_eq!(summary.ok(), 2);
        assert_eq!(summary.failed(), 1);
        assert_eq!(summary.outcomes[1].status, JobStatus::Panicked);
        assert!(summary.outcomes[1]
            .error
            .as_deref()
            .expect("error recorded")
            .contains("injected failure 42"));
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1],
            "{\"id\":\"boom\",\"status\":\"panicked\",\"error\":\"injected failure 42\"}"
        );
        assert!(lines[2].starts_with("{\"id\":\"good2\""));
    }

    #[test]
    fn over_budget_jobs_are_recorded_but_not_dropped() {
        let jobs = vec![JobSpec::new("slow", "t", || {
            std::thread::sleep(Duration::from_millis(20));
            "{}".to_string()
        })];
        let cfg = HarnessConfig {
            workers: 1,
            budget: Some(Duration::from_millis(1)),
            progress: false,
        };
        let (jsonl, summary) = collect_jsonl(&jobs, &cfg);
        assert_eq!(summary.failed(), 1);
        assert_eq!(summary.outcomes[0].status, JobStatus::OverBudget);
        assert_eq!(
            jsonl,
            "{\"id\":\"slow\",\"status\":\"over_budget\",\"budget_seconds\":0,\"result\":{}}\n"
        );
    }

    #[test]
    fn json_string_escaping_is_sound() {
        let mut out = String::new();
        write_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn summary_json_shape() {
        let jobs = vec![
            JobSpec::new("a", "t", || "1".to_string()),
            JobSpec::new("b", "t", || panic!("x")),
        ];
        let (_, summary) = collect_jsonl(&jobs, &quiet(2));
        let json = summary.to_json();
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("\"ok\": 1"));
        assert!(json.contains("\"failed\": 1"));
        assert!(json.contains("\"id\":\"a\""));
        assert!(json.contains("\"error\":\"x\""));
    }

    #[test]
    fn worker_resolution_clamps() {
        // Not clamped to the job count: sub-job fan-out can use every
        // worker even when there are fewer top-level jobs than workers.
        let cfg = quiet(8);
        assert_eq!(cfg.effective_workers(3), 8);
        assert_eq!(cfg.effective_workers(0), 8);
        assert!(quiet(0).effective_workers(64) >= 1);
    }

    #[test]
    fn empty_job_list_completes() {
        let (jsonl, summary) = collect_jsonl(&[], &quiet(2));
        assert!(jsonl.is_empty());
        assert!(summary.outcomes.is_empty());
    }

    #[test]
    fn subjobs_run_on_the_suite_pool_and_preserve_order() {
        let jobs: Vec<JobSpec> = (0..3)
            .map(|j| {
                JobSpec::new(format!("job{j}"), "t", move || {
                    let parts = subjob_map(8, |i| {
                        assert!(under_harness(), "sub-jobs must see the pool");
                        i * 10 + j
                    });
                    format!("{:?}", parts.iter().sum::<usize>())
                })
            })
            .collect();
        let (seq, _) = collect_jsonl(&jobs, &quiet(1));
        let (par, _) = collect_jsonl(&jobs, &quiet(4));
        assert_eq!(seq, par, "fan-out must not perturb JSONL bytes");
        for (j, line) in seq.lines().enumerate() {
            let expected: usize = (0..8).map(|i| i * 10 + j).sum();
            assert_eq!(
                line,
                format!("{{\"id\":\"job{j}\",\"status\":\"ok\",\"result\":{expected}}}")
            );
        }
    }

    #[test]
    fn subjob_panic_surfaces_as_the_parent_jobs_failure_row() {
        let jobs = vec![
            JobSpec::new("fanout", "t", || {
                let _ = subjob_map(4, |i| {
                    if i == 2 {
                        panic!("sub-unit {i} exploded");
                    }
                    i
                });
                "unreachable".to_string()
            }),
            JobSpec::new("after", "t", || "1".to_string()),
        ];
        let (jsonl, summary) = collect_jsonl(&jobs, &quiet(2));
        assert_eq!(summary.failed(), 1);
        assert_eq!(summary.outcomes[0].status, JobStatus::Panicked);
        assert!(summary.outcomes[0]
            .error
            .as_deref()
            .unwrap()
            .contains("sub-unit 2 exploded"));
        assert!(jsonl
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("{\"id\":\"after\",\"status\":\"ok\""));
    }

    #[test]
    fn subjob_concurrency_never_exceeds_the_worker_count() {
        // Three jobs each fanning 8 units through a 2-worker pool: every
        // unit runs on a suite worker, so at most 2 are ever in flight,
        // and all 24 are accounted as executed.
        let jobs: Vec<JobSpec> = (0..3)
            .map(|j| {
                JobSpec::new(format!("job{j}"), "t", move || {
                    let parts = subjob_map(8, |i| {
                        std::thread::sleep(Duration::from_millis(1));
                        i + j
                    });
                    format!("{}", parts.len())
                })
            })
            .collect();
        let (_, summary) = collect_jsonl(&jobs, &quiet(2));
        assert_eq!(summary.subjobs_executed, 3 * 8);
        assert!(
            summary.subjobs_peak_concurrent <= 2,
            "peak {} exceeds the 2-worker bound",
            summary.subjobs_peak_concurrent
        );
        assert!(summary.subjobs_peak_concurrent >= 1);
        let json = summary.to_json();
        assert!(json.contains("\"subjobs_executed\": 24"), "{json}");
        assert!(json.contains("\"subjobs_peak_concurrent\":"), "{json}");
    }

    #[test]
    fn subjob_map_runs_inline_without_a_pool() {
        assert!(!under_harness());
        let out = subjob_map(5, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
        assert!(subjob_map(0, |i| i).is_empty());
    }

    #[test]
    fn progress_lines_report_done_total_and_eta() {
        let jobs = vec![
            JobSpec::new("a", "t", || "1".to_string()),
            JobSpec::new("b", "t", || "2".to_string()),
        ];
        let mut progress = Vec::new();
        let cfg = HarnessConfig {
            workers: 1,
            budget: None,
            progress: true,
        };
        run_suite(&jobs, &cfg, None, &mut progress).expect("io ok");
        let text = String::from_utf8(progress).expect("utf8");
        assert!(text.contains("[  1/2]"), "got: {text}");
        assert!(text.contains("[  2/2]"), "got: {text}");
        assert!(text.contains("eta"), "got: {text}");
    }
}
