//! The coordinator-side dispatcher: [`FleetEval`] implements
//! [`search::BatchEvaluate`] over a [`Transport`].
//!
//! One engine step's fresh candidates are cut into contiguous work units
//! of [`FleetOptions::unit_size`] genomes (auto: the batch divided evenly
//! over the live workers). Every unit is dispatched on its own thread —
//! reply order is whatever the network gives — but scores are written back
//! into a slot keyed by unit index and concatenated in unit order, so the
//! value returned to the engine is exactly the score vector a
//! single-process run would have produced. Determinism lives *here*, not
//! in the workers.
//!
//! A failed dispatch marks the worker ([`crate::Roster::mark_failure`])
//! and retries the unit on the next live worker, up to
//! [`FleetOptions::max_attempts`]; when every attempt is exhausted (or no
//! live worker remains) the step fails typed with
//! [`QorError::Fleet`] — the engine's ledger is untouched and the job can
//! resume from its last `.qorjob` checkpoint once workers return.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::Json;
use pragma::PragmaConfig;
use qor_core::QorError;
use search::space::Genome;
use search::{BatchEvaluate, FleetAssignment};

use crate::roster::Roster;

/// One work unit on the wire: which slice of which job, and the genomes
/// the worker must rebuild-decode-score.
pub struct UnitRequest<'a> {
    /// Unit index within the current step (for logs/traces).
    pub unit: usize,
    /// Coordinator-side job label.
    pub job: &'a str,
    /// Kernel whose pragma space the genomes index.
    pub kernel: &'a str,
    /// Unroll-factor override the coordinator's space was built with.
    pub unroll_factors: Option<&'a [u32]>,
    /// The candidates to score, in unit order.
    pub genomes: &'a [Genome],
}

/// How work units reach a worker. `serve` implements this over its HTTP
/// wire (`POST /v1/fleet/eval` + `GET /v1/healthz`); tests inject in-process
/// mocks with scripted failures.
pub trait Transport: Send + Sync {
    /// Scores one unit on the worker at `addr`, returning one
    /// `(latency, area)` per genome in request order.
    ///
    /// # Errors
    ///
    /// A human-readable transport or worker failure (timeout, refused
    /// connection, non-200, malformed reply). The dispatcher turns it into
    /// retry/eviction bookkeeping.
    fn eval_unit(&self, addr: &str, request: &UnitRequest<'_>) -> Result<Vec<(f64, f64)>, String>;

    /// Whether the worker at `addr` answers its health probe.
    fn probe(&self, addr: &str) -> bool;
}

/// Dispatch tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOptions {
    /// Genomes per work unit; `0` spreads the batch evenly over the live
    /// workers.
    pub unit_size: usize,
    /// Dispatch attempts per unit before the step fails typed.
    pub max_attempts: u32,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            unit_size: 0,
            max_attempts: 3,
        }
    }
}

/// Monotonic dispatch counters, shared between per-job progress and the
/// server's `/metrics` families.
#[derive(Debug, Default)]
pub struct FleetStats {
    /// Units handed to a worker.
    pub dispatched: AtomicU64,
    /// Units that returned scores.
    pub completed: AtomicU64,
    /// Failed attempts that got another try.
    pub retried: AtomicU64,
    /// Retries that landed on a different worker than first chosen.
    pub reassigned: AtomicU64,
    /// Units that exhausted every attempt.
    pub orphaned: AtomicU64,
    /// Units currently awaiting a worker reply.
    pub in_flight: AtomicU64,
}

/// A plain-value snapshot of [`FleetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetCounters {
    /// Units handed to a worker.
    pub dispatched: u64,
    /// Units that returned scores.
    pub completed: u64,
    /// Failed attempts that got another try.
    pub retried: u64,
    /// Retries that landed on a different worker than first chosen.
    pub reassigned: u64,
    /// Units that exhausted every attempt.
    pub orphaned: u64,
    /// Units currently awaiting a worker reply.
    pub in_flight: u64,
}

impl FleetStats {
    /// Reads every counter at once.
    pub fn snapshot(&self) -> FleetCounters {
        FleetCounters {
            dispatched: self.dispatched.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            reassigned: self.reassigned.load(Ordering::Relaxed),
            orphaned: self.orphaned.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
        }
    }

    /// Seeds the cumulative counters from a restored job's assignment.
    pub fn adopt(&self, assignment: &FleetAssignment) {
        self.dispatched
            .store(assignment.units_dispatched, Ordering::Relaxed);
        self.retried
            .store(assignment.units_retried, Ordering::Relaxed);
        self.reassigned
            .store(assignment.units_reassigned, Ordering::Relaxed);
    }
}

/// The fleet-backed batch evaluator (see the [module docs](self)).
pub struct FleetEval {
    transport: Arc<dyn Transport>,
    roster: Arc<Roster>,
    stats: Arc<FleetStats>,
    kernel: String,
    job: String,
    unroll_factors: Option<Vec<u32>>,
    opts: FleetOptions,
}

impl FleetEval {
    /// A dispatcher for `kernel` over the given roster and transport.
    pub fn new(
        transport: Arc<dyn Transport>,
        roster: Arc<Roster>,
        kernel: impl Into<String>,
        job: impl Into<String>,
    ) -> FleetEval {
        FleetEval {
            transport,
            roster,
            stats: Arc::new(FleetStats::default()),
            kernel: kernel.into(),
            job: job.into(),
            unroll_factors: None,
            opts: FleetOptions::default(),
        }
    }

    /// Carries the job's unroll-factor override onto the wire so workers
    /// rebuild the same genome space.
    pub fn with_unroll_factors(mut self, factors: Option<Vec<u32>>) -> FleetEval {
        self.unroll_factors = factors;
        self
    }

    /// Overrides the dispatch tuning knobs.
    pub fn with_options(mut self, opts: FleetOptions) -> FleetEval {
        self.opts = opts;
        self
    }

    /// Shares an externally owned stats block (the server aggregates one
    /// per hub across jobs).
    pub fn with_stats(mut self, stats: Arc<FleetStats>) -> FleetEval {
        self.stats = stats;
        self
    }

    /// The dispatcher's stats block.
    pub fn stats(&self) -> &Arc<FleetStats> {
        &self.stats
    }

    /// The dispatcher's roster.
    pub fn roster(&self) -> &Arc<Roster> {
        &self.roster
    }

    /// Scores one unit, retrying across live workers.
    fn dispatch_unit(&self, unit: usize, genomes: &[Genome]) -> Result<Vec<(f64, f64)>, QorError> {
        self.stats.dispatched.fetch_add(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        obs::metrics::counter_add("fleet/units_dispatched", 1);
        let result = self.dispatch_attempts(unit, genomes);
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        match &result {
            Ok(_) => {
                self.stats.completed.fetch_add(1, Ordering::Relaxed);
                obs::metrics::counter_add("fleet/units_completed", 1);
            }
            Err(_) => {
                self.stats.orphaned.fetch_add(1, Ordering::Relaxed);
                obs::metrics::counter_add("fleet/units_orphaned", 1);
            }
        }
        result
    }

    fn dispatch_attempts(
        &self,
        unit: usize,
        genomes: &[Genome],
    ) -> Result<Vec<(f64, f64)>, QorError> {
        let request = UnitRequest {
            unit,
            job: &self.job,
            kernel: &self.kernel,
            unroll_factors: self.unroll_factors.as_deref(),
            genomes,
        };
        let mut first_addr: Option<String> = None;
        let mut last_err = String::from("no live workers");
        for attempt in 0..self.opts.max_attempts {
            let live = self.roster.live();
            if live.is_empty() {
                break;
            }
            let addr = &live[(unit + attempt as usize) % live.len()];
            match &first_addr {
                None => first_addr = Some(addr.clone()),
                Some(first) if first != addr => {
                    self.stats.reassigned.fetch_add(1, Ordering::Relaxed);
                    obs::metrics::counter_add("fleet/units_reassigned", 1);
                }
                Some(_) => {}
            }
            let sp = obs::span("fleet_unit");
            sp.attr("unit", unit);
            sp.attr("worker", addr.as_str());
            sp.attr("attempt", attempt as u64);
            match self.transport.eval_unit(addr, &request) {
                Ok(points) if points.len() == genomes.len() => {
                    self.roster.mark_success(addr);
                    return Ok(points);
                }
                Ok(points) => {
                    last_err = format!(
                        "worker {addr} returned {} points for {} genomes",
                        points.len(),
                        genomes.len()
                    );
                }
                Err(e) => last_err = format!("worker {addr}: {e}"),
            }
            // short reply and transport failure are handled identically:
            // mark the worker and let the next attempt reassign the unit
            let evicted = self.roster.mark_failure(addr);
            if evicted {
                obs::metrics::counter_add("fleet/workers_evicted", 1);
                obs::log::event(
                    obs::log::Level::Warn,
                    "fleet.evict",
                    &[("worker", Json::str(addr)), ("job", Json::str(&self.job))],
                );
            }
            if attempt + 1 < self.opts.max_attempts {
                self.stats.retried.fetch_add(1, Ordering::Relaxed);
                obs::metrics::counter_add("fleet/units_retried", 1);
            }
        }
        Err(QorError::Fleet(format!(
            "unit {unit} of job {} undeliverable after {} attempts: {last_err}",
            self.job, self.opts.max_attempts
        )))
    }
}

impl BatchEvaluate for FleetEval {
    fn evaluate_batch(
        &self,
        batch: &[(Genome, PragmaConfig)],
    ) -> Result<Vec<(f64, f64)>, QorError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let sp = obs::span("fleet_dispatch");
        sp.attr("job", self.job.as_str());
        sp.attr("candidates", batch.len());

        let mut live = self.roster.live().len();
        if live == 0 {
            // one revival sweep before giving up: restarted workers answer
            // their probe again without re-registration
            let (revived, _) = self.roster.probe_all(&*self.transport);
            live = revived;
        }
        if live == 0 {
            return Err(QorError::Fleet(format!(
                "no live workers ({} registered)",
                self.roster.len()
            )));
        }

        let unit_size = if self.opts.unit_size > 0 {
            self.opts.unit_size
        } else {
            batch.len().div_ceil(live)
        };
        let genomes: Vec<Genome> = batch.iter().map(|(g, _)| g.clone()).collect();
        let units: Vec<&[Genome]> = genomes.chunks(unit_size.max(1)).collect();
        sp.attr("units", units.len());

        // fan out one thread per unit, but consume results in unit order:
        // the concatenation below is reply-order independent
        let trace = obs::trace::current_raw();
        let results: Vec<Result<Vec<(f64, f64)>, QorError>> = std::thread::scope(|s| {
            let handles: Vec<_> = units
                .iter()
                .enumerate()
                .map(|(u, unit_genomes)| {
                    s.spawn(move || {
                        let _g = obs::trace::adopt_raw(trace);
                        self.dispatch_unit(u, unit_genomes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet unit thread"))
                .collect()
        });

        let mut out = Vec::with_capacity(batch.len());
        for result in results {
            out.extend(result?);
        }
        Ok(out)
    }

    fn detail(&self) -> Option<Json> {
        let counters = self.stats.snapshot();
        let workers = self.roster.list();
        let alive = workers.iter().filter(|w| w.healthy).count();
        Some(Json::obj(vec![
            ("workers", Json::UInt(workers.len() as u64)),
            ("workers_alive", Json::UInt(alive as u64)),
            ("workers_evicted", Json::UInt(self.roster.evicted_total())),
            ("units_in_flight", Json::UInt(counters.in_flight)),
            ("units_dispatched", Json::UInt(counters.dispatched)),
            ("units_completed", Json::UInt(counters.completed)),
            ("units_retried", Json::UInt(counters.retried)),
            ("units_reassigned", Json::UInt(counters.reassigned)),
            ("units_orphaned", Json::UInt(counters.orphaned)),
        ]))
    }

    fn assignment(&self) -> Option<FleetAssignment> {
        let counters = self.stats.snapshot();
        Some(FleetAssignment {
            workers: self.roster.list(),
            units_dispatched: counters.dispatched,
            units_retried: counters.retried,
            units_reassigned: counters.reassigned,
            workers_evicted: self.roster.evicted_total(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qor_core::{HierarchicalModel, Session, TrainOptions};
    use search::{SearchOptions, SearchRun, SessionEval, StrategyKind};
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// In-process transport scoring through a shared session, with a
    /// scripted number of failures per worker address.
    struct MockTransport {
        session: Arc<Session>,
        fail_next: Mutex<HashMap<String, u32>>,
        calls: AtomicU64,
    }

    impl MockTransport {
        fn new(session: Arc<Session>) -> MockTransport {
            MockTransport {
                session,
                fail_next: Mutex::new(HashMap::new()),
                calls: AtomicU64::new(0),
            }
        }

        fn fail(&self, addr: &str, times: u32) {
            self.fail_next
                .lock()
                .unwrap()
                .insert(addr.to_string(), times);
        }
    }

    impl Transport for MockTransport {
        fn eval_unit(
            &self,
            addr: &str,
            request: &UnitRequest<'_>,
        ) -> Result<Vec<(f64, f64)>, String> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            {
                let mut fail = self.fail_next.lock().unwrap();
                if let Some(n) = fail.get_mut(addr) {
                    if *n > 0 {
                        *n -= 1;
                        return Err("injected failure".into());
                    }
                }
            }
            crate::evaluate_genomes(
                self.session.clone(),
                request.kernel,
                request.unroll_factors,
                request.genomes,
            )
            .map_err(|e| e.to_string())
        }

        fn probe(&self, addr: &str) -> bool {
            self.fail_next
                .lock()
                .unwrap()
                .get(addr)
                .is_none_or(|n| *n == 0)
        }
    }

    fn session() -> Arc<Session> {
        let opts = TrainOptions::quick().with_hidden(8).with_seed(9);
        Arc::new(Session::with_capacity(HierarchicalModel::new(&opts), 128))
    }

    fn search_opts() -> SearchOptions {
        SearchOptions::new("bicg", StrategyKind::Genetic, 16)
            .with_seed(77)
            .with_batch(6)
            .with_unroll_factors(vec![1, 4])
    }

    fn fleet(transport: &Arc<MockTransport>, workers: &[&str], opts: FleetOptions) -> FleetEval {
        let roster = Arc::new(Roster::new(2));
        for w in workers {
            roster.register(w);
        }
        FleetEval::new(
            transport.clone() as Arc<dyn Transport>,
            roster,
            "bicg",
            "job-test",
        )
        .with_unroll_factors(Some(vec![1, 4]))
        .with_options(opts)
    }

    #[test]
    fn fleet_run_is_byte_identical_to_single_process_at_any_size() {
        let session = session();
        let eval = SessionEval::new(session.clone(), "bicg");
        let mut solo = SearchRun::for_kernel(search_opts()).unwrap();
        let expected = solo.run(&eval).unwrap();
        let solo_digest = crate::run_digest(&solo);

        for workers in [
            &["w0"][..],
            &["w0", "w1"][..],
            &["w0", "w1", "w2", "w3"][..],
        ] {
            let transport = Arc::new(MockTransport::new(session.clone()));
            let fleet = fleet(&transport, workers, FleetOptions::default());
            let mut run = SearchRun::for_kernel(search_opts()).unwrap();
            let outcome = run.run_with(&fleet).unwrap();
            assert_eq!(outcome, expected, "{} workers diverged", workers.len());
            assert_eq!(crate::run_digest(&run), solo_digest);
        }
    }

    #[test]
    fn failed_workers_are_retried_then_evicted_without_changing_results() {
        let session = session();
        let eval = SessionEval::new(session.clone(), "bicg");
        let mut solo = SearchRun::for_kernel(search_opts()).unwrap();
        let expected = solo.run(&eval).unwrap();

        let transport = Arc::new(MockTransport::new(session));
        transport.fail("w1", 100); // w1 is dead for the whole run
        let fleet = fleet(&transport, &["w0", "w1"], FleetOptions::default());
        let mut run = SearchRun::for_kernel(search_opts()).unwrap();
        let outcome = run.run_with(&fleet).unwrap();
        assert_eq!(outcome, expected, "retry/eviction changed the result");

        let counters = fleet.stats().snapshot();
        assert!(counters.retried > 0, "no retries recorded");
        assert!(counters.reassigned > 0, "no reassignments recorded");
        assert_eq!(counters.orphaned, 0);
        assert_eq!(counters.in_flight, 0);
        assert_eq!(fleet.roster().evicted_total(), 1);
        let detail = fleet.detail().unwrap().to_string();
        assert!(detail.contains("\"workers_evicted\":1"), "{detail}");
    }

    #[test]
    fn no_live_workers_is_a_typed_fleet_error() {
        let transport = Arc::new(MockTransport::new(session()));
        transport.fail("w0", 1000);
        let fleet = fleet(&transport, &["w0"], FleetOptions::default());
        let mut run = SearchRun::for_kernel(search_opts()).unwrap();
        let err = run.run_with(&fleet).unwrap_err();
        assert!(matches!(err, QorError::Fleet(_)), "{err:?}");
        assert_eq!(run.spent(), 0, "failed dispatch must not spend budget");
    }

    #[test]
    fn assignment_round_trips_through_the_job_snapshot() {
        let session = session();
        let transport = Arc::new(MockTransport::new(session));
        let fleet = fleet(&transport, &["w0", "w1"], FleetOptions::default());
        let mut run = SearchRun::for_kernel(search_opts()).unwrap();
        run.step_with(&fleet).unwrap();
        run.set_fleet(fleet.assignment());
        let bytes = search::snapshot(&run);
        let restored = search::restore(&bytes).unwrap();
        assert_eq!(restored.fleet(), run.fleet());

        // a resumed coordinator adopts the restored assignment
        let adopted = Roster::new(2);
        let stats = FleetStats::default();
        let assignment = restored.fleet().unwrap();
        adopted.adopt(assignment);
        stats.adopt(assignment);
        assert_eq!(adopted.len(), 2);
        assert_eq!(stats.snapshot().dispatched, assignment.units_dispatched);
    }

    #[test]
    fn explicit_unit_size_splits_the_batch() {
        let session = session();
        let transport = Arc::new(MockTransport::new(session.clone()));
        let fleet = fleet(
            &transport,
            &["w0", "w1"],
            FleetOptions {
                unit_size: 1,
                max_attempts: 3,
            },
        );
        let mut run = SearchRun::for_kernel(search_opts()).unwrap();
        let report = run.step_with(&fleet).unwrap();
        assert_eq!(
            fleet.stats().snapshot().dispatched,
            report.evaluated as u64,
            "unit_size 1 must dispatch one unit per fresh candidate"
        );
    }
}
