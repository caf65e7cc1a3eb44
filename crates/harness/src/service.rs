//! Long-running suite service: the scheduler behind `padcsim serve`.
//!
//! [`run_suite`](crate::run_suite) is batch-shaped — it owns its scoped
//! workers for exactly one job list, then tears them down. A request
//! server needs the inverse: **persistent** workers that outlive any one
//! request, a shared sub-job pool so concurrent requests' per-unit
//! fan-outs load-balance against each other under one global `--jobs N`
//! thread bound, and per-client result routing so each request streams its
//! own rows.
//!
//! [`SuiteService`] provides that. Each [`SuiteService::submit`] enqueues
//! a batch of [`JobSpec`]s tagged with a private channel; any worker may
//! pick any client's job, and completions route back to the submitting
//! client's [`BatchHandle`]. Workers prefer draining sub-jobs over
//! claiming new top-level jobs (same policy as `run_suite`), and a worker
//! blocked on its own fan-out helps execute queued units — the service
//! inherits the deadlock-freedom argument of [`crate::subjob`].
//!
//! Determinism: job rows are rendered by the same code path as
//! `run_suite` ([`CompletedJob::row`] carries the exact JSONL bytes), and
//! [`BatchHandle::collect_ordered`] re-orders completions into submission
//! order, so a batch submitted to the service yields byte-identical rows
//! to the same jobs run under `run_suite`.

use std::collections::VecDeque;
use std::io;
use std::panic;
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::subjob::{self, SubJobPool};
use crate::{execute_job, JobSpec, JobStatus};

/// Worker-pool knobs for a [`SuiteService`].
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Worker threads; `0` means `available_parallelism()`.
    pub workers: usize,
    /// Optional per-job wall-clock budget (as in
    /// [`HarnessConfig`](crate::HarnessConfig)).
    pub budget: Option<Duration>,
}

/// One finished job, with the exact JSONL row bytes `run_suite` would have
/// emitted for it.
#[derive(Clone, Debug)]
pub struct CompletedJob {
    /// Job id.
    pub id: String,
    /// Terminal status.
    pub status: JobStatus,
    /// The JSONL row, trailing newline included.
    pub row: String,
    /// Panic / over-budget message, when failed.
    pub error: Option<String>,
    /// Wall-clock seconds the job ran.
    pub seconds: f64,
}

/// One queued top-level job plus its result route.
struct ServiceJob {
    spec: JobSpec,
    index: usize,
    budget: Option<Duration>,
    tx: mpsc::Sender<(usize, CompletedJob)>,
}

struct ServiceState {
    queue: VecDeque<ServiceJob>,
    shutdown: bool,
}

/// State shared by the workers and the submitting threads.
struct ServiceCore {
    state: Mutex<ServiceState>,
    /// Signalled on job submission, sub-job enqueue (via the pool hook),
    /// and shutdown.
    work_ready: Condvar,
    pool: Arc<SubJobPool>,
}

/// A persistent worker pool executing submitted job batches; see the
/// module docs.
pub struct SuiteService {
    core: Arc<ServiceCore>,
    workers: Vec<JoinHandle<()>>,
    budget: Option<Duration>,
}

impl SuiteService {
    /// Starts the worker threads.
    pub fn new(cfg: &ServiceConfig) -> Self {
        let workers_n = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        }
        .max(1);

        let core = Arc::new(ServiceCore {
            state: Mutex::new(ServiceState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            pool: Arc::new(SubJobPool::new()),
        });
        // Wake idle service workers when a running job fans out sub-jobs.
        // Taking the state lock before notifying pairs the hook with the
        // workers' wait loop (which re-checks the pool under that lock), so
        // a wakeup between "pool looked empty" and "wait" cannot be lost.
        let weak: Weak<ServiceCore> = Arc::downgrade(&core);
        core.pool.set_enqueue_hook(Box::new(move || {
            if let Some(core) = weak.upgrade() {
                let _guard = core.state.lock().expect("service state poisoned");
                core.work_ready.notify_all();
            }
        }));

        // As in `run_suite`: job panics are caught and reported as rows,
        // so suppress the default hook's backtrace spam on worker threads.
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

        let workers = (0..workers_n)
            .map(|w| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("padc-job-worker-svc-{w}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawn service worker")
            })
            .collect();

        SuiteService {
            core,
            workers,
            budget: cfg.budget,
        }
    }

    /// Enqueues a batch of jobs; any idle worker may run any of them.
    pub fn submit(&self, jobs: Vec<JobSpec>) -> BatchHandle {
        let total = jobs.len();
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.core.state.lock().expect("service state poisoned");
            for (index, spec) in jobs.into_iter().enumerate() {
                st.queue.push_back(ServiceJob {
                    spec,
                    index,
                    budget: self.budget,
                    tx: tx.clone(),
                });
            }
        }
        self.core.work_ready.notify_all();
        BatchHandle { total, rx }
    }

    /// Total sub-job units executed through the shared pool so far.
    pub fn subjobs_executed(&self) -> u64 {
        self.core.pool.stats.executed()
    }

    /// Peak sub-job units in flight simultaneously (bounded by the worker
    /// count).
    pub fn subjobs_peak_concurrent(&self) -> u64 {
        self.core.pool.stats.peak_concurrent()
    }

    /// Drains the queue, stops the workers, and joins them. Called by
    /// `Drop` as well; explicit shutdown just makes the join visible.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut st = self.core.state.lock().expect("service state poisoned");
            st.shutdown = true;
        }
        self.core.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SuiteService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// What a worker decided to do after inspecting the queues.
enum Next {
    Job(ServiceJob),
    Subjobs,
    Exit,
}

fn worker_loop(core: &Arc<ServiceCore>) {
    subjob::install_pool(Some(Arc::clone(&core.pool)));
    loop {
        // Serve running jobs' fan-outs before claiming new jobs.
        while let Some(sub) = core.pool.try_pop() {
            sub.run();
        }
        let next = {
            let mut st = core.state.lock().expect("service state poisoned");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Next::Job(job);
                }
                if !core.pool.is_empty() {
                    break Next::Subjobs;
                }
                if st.shutdown {
                    break Next::Exit;
                }
                st = core.work_ready.wait(st).expect("service state poisoned");
            }
        };
        match next {
            Next::Job(job) => {
                let c = execute_job(&job.spec, job.budget);
                let completed = CompletedJob {
                    id: job.spec.id.clone(),
                    status: c.status,
                    row: c.row,
                    error: c.error,
                    seconds: c.seconds,
                };
                // A dropped receiver just means the client went away; the
                // remaining jobs of its batch still drain normally.
                let _ = job.tx.send((job.index, completed));
            }
            Next::Subjobs => continue,
            Next::Exit => break,
        }
    }
    subjob::install_pool(None);
}

/// Receiving end of one submitted batch.
pub struct BatchHandle {
    total: usize,
    rx: mpsc::Receiver<(usize, CompletedJob)>,
}

impl BatchHandle {
    /// Number of jobs in the batch.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Waits for every job, invoking `on_row` **in submission order** as
    /// soon as each prefix settles (the same streaming rule as
    /// `run_suite`'s collector), and returns all completions in
    /// submission order.
    ///
    /// # Errors
    ///
    /// Propagates the first error from `on_row`; fails if the service
    /// shuts down before the batch completes.
    pub fn collect_ordered(
        self,
        mut on_row: impl FnMut(usize, &CompletedJob) -> io::Result<()>,
    ) -> io::Result<Vec<CompletedJob>> {
        let mut slots: Vec<Option<CompletedJob>> = (0..self.total).map(|_| None).collect();
        let mut cursor = 0usize;
        let mut done = 0usize;
        while done < self.total {
            let Ok((index, completed)) = self.rx.recv() else {
                return Err(io::Error::other("suite service shut down mid-batch"));
            };
            slots[index] = Some(completed);
            done += 1;
            while cursor < self.total {
                let Some(c) = &slots[cursor] else { break };
                on_row(cursor, c)?;
                cursor += 1;
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all jobs reported"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subjob_map;

    fn svc(workers: usize) -> SuiteService {
        SuiteService::new(&ServiceConfig {
            workers,
            budget: None,
        })
    }

    #[test]
    fn batches_complete_in_submission_order_with_run_suite_rows() {
        let service = svc(2);
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| {
                JobSpec::new(format!("job{i}"), "t", move || {
                    std::thread::sleep(Duration::from_millis(3 * (4 - i) as u64));
                    format!("{{\"v\":{i}}}")
                })
            })
            .collect();
        let mut streamed = Vec::new();
        let completions = service
            .submit(jobs)
            .collect_ordered(|i, c| {
                streamed.push((i, c.row.clone()));
                Ok(())
            })
            .expect("batch completes");
        for (i, c) in completions.iter().enumerate() {
            assert_eq!(c.status, JobStatus::Ok);
            assert_eq!(
                c.row,
                format!("{{\"id\":\"job{i}\",\"status\":\"ok\",\"result\":{{\"v\":{i}}}}}\n")
            );
        }
        assert_eq!(
            streamed.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "rows must stream in submission order"
        );
        service.shutdown();
    }

    #[test]
    fn concurrent_clients_share_the_pool_and_get_their_own_rows() {
        let service = Arc::new(svc(2));
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|client| {
                    let service = Arc::clone(&service);
                    scope.spawn(move || {
                        let jobs: Vec<JobSpec> = (0..3)
                            .map(|j| {
                                JobSpec::new(format!("c{client}-j{j}"), "t", move || {
                                    let parts = subjob_map(6, |u| u + j);
                                    format!("{}", parts.iter().sum::<usize>())
                                })
                            })
                            .collect();
                        service
                            .submit(jobs)
                            .collect_ordered(|_, _| Ok(()))
                            .expect("batch completes")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (client, completions) in results.iter().enumerate() {
            for (j, c) in completions.iter().enumerate() {
                let expected: usize = (0..6).map(|u| u + j).sum();
                assert_eq!(
                    c.row,
                    format!(
                        "{{\"id\":\"c{client}-j{j}\",\"status\":\"ok\",\"result\":{expected}}}\n"
                    )
                );
            }
        }
        assert_eq!(service.subjobs_executed(), 2 * 3 * 6);
        assert!(service.subjobs_peak_concurrent() <= 2);
    }

    #[test]
    fn panics_become_structured_failures_and_do_not_kill_workers() {
        let service = svc(1);
        let first = service
            .submit(vec![JobSpec::new("boom", "t", || panic!("injected"))])
            .collect_ordered(|_, _| Ok(()))
            .expect("batch completes");
        assert_eq!(first[0].status, JobStatus::Panicked);
        assert!(first[0].error.as_deref().unwrap().contains("injected"));
        // The worker survives for the next request.
        let second = service
            .submit(vec![JobSpec::new("ok", "t", || "1".to_string())])
            .collect_ordered(|_, _| Ok(()))
            .expect("batch completes");
        assert_eq!(second[0].status, JobStatus::Ok);
        service.shutdown();
    }

    #[test]
    fn shutdown_mid_batch_reports_an_error_to_the_client() {
        let service = svc(1);
        let handle = service.submit(vec![
            JobSpec::new("slow", "t", || {
                std::thread::sleep(Duration::from_millis(30));
                "1".to_string()
            }),
            JobSpec::new("never", "t", || "2".to_string()),
        ]);
        // Shut down while the batch may still be queued/running: the
        // client must get either a complete batch or a clean error, never
        // a hang.
        service.shutdown();
        match handle.collect_ordered(|_, _| Ok(())) {
            Ok(completions) => assert_eq!(completions.len(), 2),
            Err(e) => assert!(e.to_string().contains("shut down"), "{e}"),
        }
    }
}
