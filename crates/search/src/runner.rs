//! Background job runner for HTTP-served search jobs.
//!
//! A [`JobRunner`] owns a shared predictor [`Session`] and a table of
//! jobs. [`JobRunner::submit`] validates the request *synchronously* (bad
//! kernels or degenerate spaces fail before a job id is handed out), then
//! drives the run on a detached thread, publishing progress after every
//! step and honoring cancellation between steps. Aggregate counters
//! (submitted / completed / failed / cancelled, total evaluations, busy
//! time) feed the server's `/metrics` endpoint.
//!
//! When a jobs directory is configured, every finished or in-flight step
//! also persists a `.qorjob` snapshot, so a killed server can resume its
//! jobs offline with `qor-search --resume`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use obs::log::Level;
use obs::{trace, Json};
use qor_core::{KindStats, QorError, Session};

use crate::engine::{SearchOptions, SearchRun, SessionEval};
use crate::job;

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The worker thread is still stepping.
    Running,
    /// The budget was exhausted (or the space ran dry) without error.
    Done,
    /// An evaluation failed, or a snapshot could not be written; see
    /// [`JobProgress::error`].
    Failed,
    /// The job was cancelled via [`JobRunner::delete`].
    Cancelled,
}

impl JobStatus {
    /// Stable lowercase name for HTTP payloads.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// Publicly visible snapshot of one job's progress.
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Lifecycle state.
    pub status: JobStatus,
    /// Kernel under search.
    pub kernel: String,
    /// Strategy name.
    pub strategy: String,
    /// Evaluation budget.
    pub budget: u64,
    /// Budget spent so far.
    pub spent: u64,
    /// Ask/tell iterations executed.
    pub iterations: u64,
    /// Incumbent front as `(fingerprint, latency, area)`, sorted by
    /// `(latency, area)`.
    pub front: Vec<(u64, f64, f64)>,
    /// Failure message when [`JobStatus::Failed`].
    pub error: Option<String>,
    /// Job-scoped trace id (raw [`obs::TraceId`] bits), derived
    /// deterministically from the job id at submission. Every span, log
    /// event and flight record the worker thread emits carries it, so an
    /// entire search run can be followed through `QOR_LOG` output and
    /// `GET /debug/requests` from its `GET /dse` listing.
    pub trace: u64,
}

/// One tracked job: its id, cancellation flag, and latest progress.
struct JobHandle {
    cancel: AtomicBool,
    progress: Mutex<JobProgress>,
}

/// Aggregate runner counters for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnerStats {
    /// Jobs accepted by [`JobRunner::submit`].
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs that stopped on an evaluation error.
    pub failed: u64,
    /// Jobs cancelled mid-run.
    pub cancelled: u64,
    /// Total candidate evaluations across all jobs.
    pub evaluations: u64,
    /// Evaluations per busy second (0 until something ran).
    pub evals_per_sec: f64,
}

/// Background search-job executor (see the [module docs](self)).
pub struct JobRunner {
    /// Swappable so a serving layer can hot-reload the default model; each
    /// job captures one `Arc<Session>` at start and keeps it for its whole
    /// run (in-flight jobs are never switched mid-search).
    session: RwLock<Arc<Session>>,
    jobs: Mutex<BTreeMap<String, Arc<JobHandle>>>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    evaluations: AtomicU64,
    busy_nanos: AtomicU64,
    jobs_dir: Option<PathBuf>,
}

impl JobRunner {
    /// A runner scoring candidates through `session`.
    pub fn new(session: Arc<Session>) -> Arc<JobRunner> {
        Arc::new(JobRunner {
            session: RwLock::new(session),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            evaluations: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            jobs_dir: None,
        })
    }

    /// A runner that additionally persists a `.qorjob` snapshot per job
    /// into `dir` after every step.
    pub fn with_jobs_dir(session: Arc<Session>, dir: PathBuf) -> Arc<JobRunner> {
        let mut runner = JobRunner::new(session);
        Arc::get_mut(&mut runner)
            .expect("fresh runner is uniquely owned")
            .jobs_dir = Some(dir);
        runner
    }

    /// The session new jobs will score candidates through.
    pub fn session(&self) -> Arc<Session> {
        self.session.read().unwrap().clone()
    }

    /// Swaps the session used by **future** jobs (hot-reload support).
    /// Jobs already running keep the session they captured at start, so a
    /// swap never changes a search mid-run.
    pub fn set_session(&self, session: Arc<Session>) {
        *self.session.write().unwrap() = session;
    }

    /// Validates `opts` and starts the job on a background thread.
    ///
    /// # Errors
    ///
    /// [`QorError::UnknownKernel`] / [`QorError::Shape`] when the request
    /// does not describe a searchable space (nothing is enqueued).
    pub fn submit(self: &Arc<Self>, opts: SearchOptions) -> Result<String, QorError> {
        let run = SearchRun::for_kernel(opts)?;
        let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let trace_id = trace::derive(&[b"dse-job", id.as_bytes()]);
        let handle = Arc::new(JobHandle {
            cancel: AtomicBool::new(false),
            progress: Mutex::new(JobProgress {
                status: JobStatus::Running,
                kernel: run.options().kernel.clone(),
                strategy: run.options().strategy.name().to_string(),
                budget: run.options().budget,
                spent: 0,
                iterations: 0,
                front: Vec::new(),
                error: None,
                trace: trace_id.0,
            }),
        });
        self.jobs.lock().unwrap().insert(id.clone(), handle.clone());
        if obs::log::enabled(Level::Info) {
            let _g = trace::adopt(trace_id);
            obs::log::event(
                Level::Info,
                "dse.submit",
                &[
                    ("job", Json::str(&id)),
                    ("kernel", Json::str(&run.options().kernel)),
                    ("strategy", Json::str(run.options().strategy.name())),
                    ("budget", Json::UInt(run.options().budget)),
                ],
            );
        }

        let runner = Arc::clone(self);
        let thread_id = id.clone();
        std::thread::Builder::new()
            .name(format!("qor-dse-{id}"))
            .spawn(move || runner.drive(&thread_id, handle, run))
            .expect("spawning a job thread");
        Ok(id)
    }

    /// Drives one job to completion on the worker thread.
    ///
    /// The worker adopts the job's trace context for its whole run and
    /// opens a `job` [flight unit](obs::flight()) whose stages are the
    /// iterations, one `step-N` span each; the unit writes the job's
    /// flight record and `dse.done` event when the job leaves
    /// [`JobStatus::Running`].
    fn drive(&self, id: &str, handle: Arc<JobHandle>, mut run: SearchRun) {
        let trace_id = handle.progress.lock().unwrap().trace;
        let _trace_guard = trace::adopt_raw(trace_id);
        let unit = obs::flight("job", id);
        obs::flight::attr("kernel", &run.options().kernel);
        // one capture for the whole job: stats diffs and candidate scoring
        // both read this session even if the runner's default is swapped
        let session = self.session();
        let before = session.stats();
        let mut step_no = 0u64;
        let eval = SessionEval::new(session.clone(), &run.options().kernel);
        let mut stalled = 0u32;
        let result = loop {
            if handle.cancel.load(Ordering::Relaxed) {
                break Ok(JobStatus::Cancelled);
            }
            if run.is_done() {
                break Ok(JobStatus::Done);
            }
            step_no += 1;
            let span = obs::timer(&format!("step-{step_no}"));
            let step = run.step(&eval);
            let step_ns = span.finish().as_nanos() as u64;
            self.busy_nanos.fetch_add(step_ns, Ordering::Relaxed);
            let report = match step {
                Ok(report) => report,
                Err(e) => break Err(e),
            };
            self.evaluations
                .fetch_add(report.evaluated as u64, Ordering::Relaxed);
            if obs::log::enabled(Level::Debug) {
                obs::log::event(
                    Level::Debug,
                    "dse.step",
                    &[
                        ("job", Json::str(id)),
                        ("iteration", Json::UInt(step_no)),
                        ("evaluated", Json::UInt(report.evaluated as u64)),
                    ],
                );
            }
            if report.evaluated == 0 {
                stalled += 1;
                if stalled >= 64 {
                    break Ok(JobStatus::Done);
                }
            } else {
                stalled = 0;
            }
            self.publish(&handle, &run, JobStatus::Running, None);
            if let Err(e) = self.persist(id, &run) {
                break Err(e);
            }
        };
        // a finished or cancelled run writes its final snapshot; a failed
        // step or snapshot write leaves the last good one in place
        let result = result.and_then(|status| self.persist(id, &run).map(|()| status));
        let (status, error) = match result {
            Ok(status) => (status, None),
            Err(e) => (JobStatus::Failed, Some(e.to_string())),
        };
        let counter = match status {
            JobStatus::Done => &self.completed,
            JobStatus::Cancelled => &self.cancelled,
            _ => &self.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);

        let after = session.stats();
        obs::flight::cache(
            (after.hits + after.kernel_hits) - (before.hits + before.kernel_hits),
            (after.misses + after.kernel_misses) - (before.misses + before.kernel_misses),
        );
        // incremental-query attribution: how much of the job's prepare
        // work the pipeline database answered from memo vs recomputed
        KindStats {
            hits: after.incr_hits - before.incr_hits,
            misses: after.incr_misses - before.incr_misses,
            recomputes: after.incr_recomputes - before.incr_recomputes,
            ..KindStats::default()
        }
        .label_flight();
        unit.outcome(status.name());
        let outcome = run.outcome();
        unit.finish(
            "dse.done",
            &[
                ("spent", Json::UInt(outcome.spent)),
                ("iterations", Json::UInt(outcome.iterations)),
                ("front", Json::UInt(outcome.front.len() as u64)),
            ],
        );
        // published last, so a job seen finished has its flight record
        self.publish(&handle, &run, status, error);
    }

    fn publish(
        &self,
        handle: &JobHandle,
        run: &SearchRun,
        status: JobStatus,
        error: Option<String>,
    ) {
        let outcome = run.outcome();
        let mut progress = handle.progress.lock().unwrap();
        progress.status = status;
        progress.spent = outcome.spent;
        progress.iterations = outcome.iterations;
        progress.front = outcome.front;
        progress.error = error;
    }

    /// Writes the job's `.qorjob` snapshot when a jobs directory is
    /// configured.
    fn persist(&self, id: &str, run: &SearchRun) -> Result<(), QorError> {
        let Some(dir) = &self.jobs_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        job::save_job_file(run, &dir.join(format!("{id}.qorjob")))
    }

    /// Latest progress of a job, or `None` for unknown ids.
    pub fn get(&self, id: &str) -> Option<JobProgress> {
        let handle = self.jobs.lock().unwrap().get(id).cloned()?;
        let progress = handle.progress.lock().unwrap().clone();
        Some(progress)
    }

    /// Cancels (if running) and forgets a job. Returns `false` for
    /// unknown ids.
    pub fn delete(&self, id: &str) -> bool {
        let handle = self.jobs.lock().unwrap().remove(id);
        match handle {
            Some(handle) => {
                handle.cancel.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Aggregate counters for `/metrics`.
    pub fn stats(&self) -> RunnerStats {
        let evaluations = self.evaluations.load(Ordering::Relaxed);
        let busy = self.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        RunnerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            evaluations,
            evals_per_sec: if busy > 0.0 {
                evaluations as f64 / busy
            } else {
                0.0
            },
        }
    }

    /// Blocks until job `id` leaves [`JobStatus::Running`] (test helper;
    /// polls with a short sleep). Returns the final progress, or `None`
    /// when the id is unknown or the wait exceeds `timeout`.
    pub fn wait(&self, id: &str, timeout: std::time::Duration) -> Option<JobProgress> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let progress = self.get(id)?;
            if progress.status != JobStatus::Running {
                return Some(progress);
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use qor_core::{HierarchicalModel, TrainOptions};
    use std::time::Duration;

    fn runner() -> Arc<JobRunner> {
        let opts = TrainOptions::quick().with_hidden(8).with_seed(3);
        JobRunner::new(Arc::new(Session::with_capacity(
            HierarchicalModel::new(&opts),
            64,
        )))
    }

    #[test]
    fn submit_runs_to_done_and_counts() {
        let runner = runner();
        let opts = SearchOptions::new("fir", StrategyKind::Random, 8)
            .with_seed(1)
            .with_batch(4)
            .with_unroll_factors(vec![1, 2, 4]);
        let id = runner.submit(opts).unwrap();
        let progress = runner.wait(&id, Duration::from_secs(30)).unwrap();
        assert_eq!(progress.status, JobStatus::Done);
        assert!(progress.spent <= 8);
        assert!(!progress.front.is_empty());
        let stats = runner.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert!(stats.evaluations > 0);
        assert!(stats.evals_per_sec > 0.0);
    }

    #[test]
    fn bad_submissions_fail_synchronously() {
        let runner = runner();
        let err = runner
            .submit(SearchOptions::new("nope", StrategyKind::Random, 4))
            .unwrap_err();
        assert!(matches!(err, QorError::UnknownKernel(_)));
        assert_eq!(runner.stats().submitted, 0);
    }

    #[test]
    fn unknown_ids_and_delete_lifecycle() {
        let runner = runner();
        assert!(runner.get("job-404").is_none());
        assert!(!runner.delete("job-404"));
        let opts = SearchOptions::new("fir", StrategyKind::Genetic, 6)
            .with_seed(2)
            .with_batch(3)
            .with_unroll_factors(vec![1, 4]);
        let id = runner.submit(opts).unwrap();
        runner.wait(&id, Duration::from_secs(30)).unwrap();
        assert!(runner.delete(&id));
        assert!(runner.get(&id).is_none(), "deleted job must be forgotten");
    }

    #[test]
    fn jobs_dir_persists_resumable_snapshots() {
        let dir = std::env::temp_dir().join(format!("qor-jobs-{}", std::process::id()));
        let opts = TrainOptions::quick().with_hidden(8).with_seed(3);
        let runner = JobRunner::with_jobs_dir(
            Arc::new(Session::with_capacity(HierarchicalModel::new(&opts), 64)),
            dir.clone(),
        );
        let id = runner
            .submit(
                SearchOptions::new("fir", StrategyKind::Anneal, 6)
                    .with_seed(4)
                    .with_batch(3)
                    .with_unroll_factors(vec![1, 4]),
            )
            .unwrap();
        let progress = runner.wait(&id, Duration::from_secs(30)).unwrap();
        assert_eq!(progress.status, JobStatus::Done);
        let path = dir.join(format!("{id}.qorjob"));
        let restored = crate::job::load_job_file(&path).unwrap();
        assert_eq!(restored.spent(), progress.spent);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_jobs_dir_fails_the_job_typed() {
        // a regular file where the jobs directory's parent should be:
        // create_dir_all cannot succeed, so no snapshot can be written
        let file = std::env::temp_dir().join(format!("qor-jobs-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let opts = TrainOptions::quick().with_hidden(8).with_seed(3);
        let runner = JobRunner::with_jobs_dir(
            Arc::new(Session::with_capacity(HierarchicalModel::new(&opts), 64)),
            file.join("jobs"),
        );
        let id = runner
            .submit(
                SearchOptions::new("fir", StrategyKind::Random, 6)
                    .with_seed(4)
                    .with_batch(3)
                    .with_unroll_factors(vec![1, 4]),
            )
            .unwrap();
        let progress = runner.wait(&id, Duration::from_secs(30)).unwrap();
        std::fs::remove_file(&file).ok();
        assert_eq!(progress.status, JobStatus::Failed);
        let error = progress.error.expect("a failed job carries its error");
        assert!(error.starts_with("io: "), "{error}");
        let stats = runner.stats();
        assert_eq!((stats.completed, stats.failed), (0, 1));
    }
}
