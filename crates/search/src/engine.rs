//! The budgeted search engine: ask → evaluate → tell → track the front.
//!
//! A [`SearchRun`] owns the strategy, the RNG, the evaluation ledger, and
//! the incumbent Pareto front ([`dse::ParetoAccumulator`]). Each
//! [`SearchRun::step`] asks the strategy for a batch, decodes the genomes,
//! drops fingerprints already evaluated (cache hits cost no budget),
//! evaluates the fresh ones through [`par::try_map`] (deterministic for
//! any `QOR_THREADS`), feeds the scores back, and emits per-iteration
//! `obs` series (`evaluations`, `front_size`, and `adrs_percent` when a
//! reference front is supplied).
//!
//! Evaluation is abstracted behind [`Evaluate`] so the same loop can score
//! candidates with the trained GNN predictor ([`SessionEval`]) or the
//! simulated tool-flow oracle ([`OracleEval`], used by the ADRS-bound
//! tests where the reference front must live in the same objective space).

use std::collections::HashMap;
use std::sync::Arc;

use dse::ParetoAccumulator;
use hir::Function;
use pragma::PragmaConfig;
use qor_core::{FnvBuildHasher, QorError, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::space::{Genome, SpaceModel};
use crate::strategy::{self, Strategy, StrategyKind};

/// Scores one pragma configuration as a `(latency, area)` point.
pub trait Evaluate: Sync {
    /// Evaluates `cfg`, returning `(latency cycles, normalized area)`.
    ///
    /// # Errors
    ///
    /// Implementation-specific evaluation failures.
    fn evaluate(&self, cfg: &PragmaConfig) -> Result<(f64, f64), QorError>;
}

/// Scores candidates with the cached GNN predictor.
pub struct SessionEval {
    session: Arc<Session>,
    kernel: String,
}

impl SessionEval {
    /// Binds a session to the kernel under search.
    pub fn new(session: Arc<Session>, kernel: impl Into<String>) -> Self {
        SessionEval {
            session,
            kernel: kernel.into(),
        }
    }
}

impl Evaluate for SessionEval {
    fn evaluate(&self, cfg: &PragmaConfig) -> Result<(f64, f64), QorError> {
        let q = self.session.predict_kernel(&self.kernel, cfg)?;
        Ok((q.latency as f64, dse::area(&q)))
    }
}

/// Scores candidates with the simulated tool-flow oracle.
pub struct OracleEval {
    func: Arc<Function>,
}

impl OracleEval {
    /// Wraps a lowered kernel function.
    pub fn new(func: Arc<Function>) -> Self {
        OracleEval { func }
    }
}

impl Evaluate for OracleEval {
    fn evaluate(&self, cfg: &PragmaConfig) -> Result<(f64, f64), QorError> {
        let report = hlsim::evaluate(&self.func, cfg).map_err(QorError::from)?;
        Ok((report.top.latency as f64, dse::area(&report.top)))
    }
}

/// Parameters of one search job.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOptions {
    /// Bundled kernel to search.
    pub kernel: String,
    /// Heuristic to run.
    pub strategy: StrategyKind,
    /// Evaluation budget (distinct configurations scored).
    pub budget: u64,
    /// RNG seed; same seed → byte-identical trajectory.
    pub seed: u64,
    /// Candidates proposed per iteration.
    pub batch: usize,
    /// Overrides the space's unroll factors (e.g. `[1, 4]` to shrink an
    /// enumerable test space).
    pub unroll_factors: Option<Vec<u32>>,
    /// Reference point set for per-iteration ADRS reporting (typically the
    /// exhaustive front in the same objective space as the evaluator).
    pub reference: Option<Vec<(f64, f64)>>,
}

impl SearchOptions {
    /// Options with the workspace defaults: batch 8, seed 0.
    pub fn new(kernel: impl Into<String>, strategy: StrategyKind, budget: u64) -> Self {
        SearchOptions {
            kernel: kernel.into(),
            strategy,
            budget,
            seed: 0,
            batch: 8,
            unroll_factors: None,
            reference: None,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-iteration batch size (floored at 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Overrides the explored unroll factors.
    pub fn with_unroll_factors(mut self, factors: Vec<u32>) -> Self {
        self.unroll_factors = Some(factors);
        self
    }

    /// Supplies a reference set for ADRS series reporting.
    pub fn with_reference(mut self, reference: Vec<(f64, f64)>) -> Self {
        self.reference = Some(reference);
        self
    }
}

/// One scored design in the evaluation ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Pragma fingerprint of the decoded configuration.
    pub fingerprint: u64,
    /// The genome that produced it.
    pub genome: Genome,
    /// Scored `(latency, area)`.
    pub point: (f64, f64),
}

/// Progress of one [`SearchRun::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Fresh evaluations this step (0 once the budget is exhausted or the
    /// strategy only re-proposes known designs).
    pub evaluated: usize,
    /// Budget spent so far.
    pub spent: u64,
    /// Current front size.
    pub front_size: usize,
}

/// Final result of a search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Distinct configurations evaluated.
    pub spent: u64,
    /// Ask/tell iterations executed.
    pub iterations: u64,
    /// The incumbent front as `(fingerprint, latency, area)`, sorted by
    /// `(latency, area)` for presentation.
    pub front: Vec<(u64, f64, f64)>,
}

/// A budgeted, resumable heuristic search (see the [module docs](self)).
pub struct SearchRun {
    pub(crate) opts: SearchOptions,
    pub(crate) model: SpaceModel,
    pub(crate) strategy: Box<dyn Strategy>,
    pub(crate) rng: StdRng,
    pub(crate) iterations: u64,
    pub(crate) evaluated: Vec<EvalRecord>,
    pub(crate) index: HashMap<u64, usize, FnvBuildHasher>,
    pub(crate) front: ParetoAccumulator,
}

impl std::fmt::Debug for SearchRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchRun")
            .field("opts", &self.opts)
            .field("iterations", &self.iterations)
            .field("spent", &self.spent())
            .field("front_size", &self.front.len())
            .finish_non_exhaustive()
    }
}

impl SearchRun {
    /// Builds a fresh run over a bundled kernel's pragma space.
    ///
    /// # Errors
    ///
    /// [`QorError::UnknownKernel`] for names outside the bundled set;
    /// [`QorError::Shape`] for degenerate spaces (see [`SpaceModel::new`]).
    pub fn for_kernel(opts: SearchOptions) -> Result<SearchRun, QorError> {
        let model = SpaceModel::for_kernel(&opts.kernel, opts.unroll_factors.as_deref())?;
        let strategy = strategy::build(opts.strategy);
        let rng = StdRng::seed_from_u64(opts.seed);
        Ok(SearchRun {
            opts,
            model,
            strategy,
            rng,
            iterations: 0,
            evaluated: Vec::new(),
            index: HashMap::default(),
            front: ParetoAccumulator::new(),
        })
    }

    /// The run's options.
    pub fn options(&self) -> &SearchOptions {
        &self.opts
    }

    /// Budget spent so far (one unit per distinct configuration scored).
    pub fn spent(&self) -> u64 {
        self.evaluated.len() as u64
    }

    /// Ask/tell iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Whether the budget is exhausted.
    pub fn is_done(&self) -> bool {
        self.spent() >= self.opts.budget
    }

    /// Points of the incumbent front, in insertion order.
    pub fn front_points(&self) -> Vec<(f64, f64)> {
        self.front.points()
    }

    /// The evaluation ledger, in evaluation order.
    pub fn ledger(&self) -> &[EvalRecord] {
        &self.evaluated
    }

    /// Runs one ask → evaluate → tell iteration.
    ///
    /// Candidates whose fingerprint was already scored are answered from
    /// the ledger without spending budget; the batch is truncated to the
    /// remaining budget, so [`SearchRun::spent`] never exceeds it. Fresh
    /// candidates are scored through [`par::try_map`] and consumed in
    /// candidate order, so the result is byte-identical at any
    /// `QOR_THREADS`.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-index) evaluation failure.
    pub fn step(&mut self, eval: &dyn Evaluate) -> Result<StepReport, QorError> {
        let sp = obs::span("search_step");
        sp.attr("kernel", self.opts.kernel.as_str());
        sp.attr("strategy", self.opts.strategy.name());

        let asked = self
            .strategy
            .ask(&self.model, self.opts.batch, &mut self.rng);
        let decoded: Vec<(Genome, PragmaConfig, u64)> = asked
            .into_iter()
            .map(|g| {
                let cfg = self.model.decode(&g);
                let fp = cfg.fingerprint();
                (g, cfg, fp)
            })
            .collect();

        // fresh = first occurrence in this batch, unseen in the ledger,
        // and within the remaining budget
        let mut remaining = self.opts.budget.saturating_sub(self.spent()) as usize;
        let mut batch_seen: HashMap<u64, (), FnvBuildHasher> = HashMap::default();
        let mut fresh: Vec<(usize, u64)> = Vec::new();
        for (i, (_, _, fp)) in decoded.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if self.index.contains_key(fp) || batch_seen.contains_key(fp) {
                continue;
            }
            batch_seen.insert(*fp, ());
            fresh.push((i, *fp));
            remaining -= 1;
        }

        let scores = par::try_map("search/evaluate", &fresh, |_, &(i, _)| {
            eval.evaluate(&decoded[i].1)
        })?;
        let evaluated = fresh.len();
        for (&(i, fp), point) in fresh.iter().zip(&scores) {
            self.index.insert(fp, self.evaluated.len());
            self.evaluated.push(EvalRecord {
                fingerprint: fp,
                genome: decoded[i].0.clone(),
                point: *point,
            });
            self.front.push(fp, *point);
        }

        // answer the whole batch from the ledger, preserving ask order
        let scored: Vec<(Genome, Option<(f64, f64)>)> = decoded
            .into_iter()
            .map(|(g, _, fp)| {
                let point = self.index.get(&fp).map(|&ix| self.evaluated[ix].point);
                (g, point)
            })
            .collect();
        self.strategy.tell(&self.model, &scored, &mut self.rng);
        self.iterations += 1;

        let prefix = format!("search/{}/{}", self.opts.kernel, self.opts.strategy.name());
        obs::metrics::series_push(
            &format!("{prefix}/evaluations"),
            self.iterations,
            self.spent() as f64,
        );
        obs::metrics::series_push(
            &format!("{prefix}/front_size"),
            self.iterations,
            self.front.len() as f64,
        );
        if let Some(reference) = &self.opts.reference {
            let adrs = dse::Adrs::compute(reference, &self.front.points());
            obs::metrics::series_push(
                &format!("{prefix}/adrs_percent"),
                self.iterations,
                adrs.percent(),
            );
        }
        sp.attr("evaluated", evaluated);

        Ok(StepReport {
            evaluated,
            spent: self.spent(),
            front_size: self.front.len(),
        })
    }

    /// Steps until the budget is exhausted (or the strategy stalls for
    /// many consecutive iterations without finding a fresh design, which
    /// can only happen when the whole space has been enumerated).
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation failure.
    pub fn run(&mut self, eval: &dyn Evaluate) -> Result<SearchOutcome, QorError> {
        let mut stalled = 0u32;
        while !self.is_done() {
            let report = self.step(eval)?;
            if report.evaluated == 0 {
                stalled += 1;
                // 64 consecutive dry batches ≈ the space is exhausted below
                // the budget; random restarts can no longer find anything new
                if stalled >= 64 {
                    break;
                }
            } else {
                stalled = 0;
            }
        }
        Ok(self.outcome())
    }

    /// The incumbent front, packaged (see [`SearchOutcome`]).
    pub fn outcome(&self) -> SearchOutcome {
        let mut front: Vec<(u64, f64, f64)> = self
            .front
            .entries()
            .map(|(fp, p)| (*fp, p.0, p.1))
            .collect();
        front.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then(a.2.total_cmp(&b.2))
                .then(a.0.cmp(&b.0))
        });
        SearchOutcome {
            spent: self.spent(),
            iterations: self.iterations,
            front,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qor_core::{HierarchicalModel, TrainOptions};

    fn session() -> Arc<Session> {
        let opts = TrainOptions::quick().with_hidden(8).with_seed(5);
        Arc::new(Session::with_capacity(HierarchicalModel::new(&opts), 64))
    }

    fn run_opts(strategy: StrategyKind) -> SearchOptions {
        SearchOptions::new("fir", strategy, 12)
            .with_seed(42)
            .with_batch(4)
            .with_unroll_factors(vec![1, 2, 4])
    }

    #[test]
    fn budget_is_respected_and_front_is_consistent() {
        let session = session();
        for strategy in StrategyKind::all() {
            let eval = SessionEval::new(session.clone(), "fir");
            let mut run = SearchRun::for_kernel(run_opts(strategy)).unwrap();
            let outcome = run.run(&eval).unwrap();
            assert!(outcome.spent <= 12, "{strategy}: overspent");
            assert!(!outcome.front.is_empty(), "{strategy}: empty front");
            // every front member must be a ledger entry and non-dominated
            // within the ledger
            for &(fp, lat, area) in &outcome.front {
                let rec = run
                    .evaluated
                    .iter()
                    .find(|r| r.fingerprint == fp)
                    .expect("front member must be evaluated");
                assert_eq!(rec.point, (lat, area));
                assert!(!run.evaluated.iter().any(|r| {
                    r.point.0 <= lat && r.point.1 <= area && (r.point.0 < lat || r.point.1 < area)
                }));
            }
        }
    }

    #[test]
    fn identical_seeds_give_identical_outcomes() {
        let session = session();
        for strategy in StrategyKind::all() {
            let eval = SessionEval::new(session.clone(), "fir");
            let a = SearchRun::for_kernel(run_opts(strategy))
                .unwrap()
                .run(&eval)
                .unwrap();
            let b = SearchRun::for_kernel(run_opts(strategy))
                .unwrap()
                .run(&eval)
                .unwrap();
            assert_eq!(a, b, "{strategy}: seed determinism violated");
        }
    }

    #[test]
    fn duplicate_proposals_spend_no_budget() {
        // budget far above the space size: the run must stop by stalling,
        // with spent == |space|, not loop forever or overspend
        let session = session();
        let eval = SessionEval::new(session, "fir");
        let opts = SearchOptions::new("fir", StrategyKind::Random, 10_000)
            .with_seed(3)
            .with_batch(8)
            .with_unroll_factors(vec![1, 4]);
        let mut run = SearchRun::for_kernel(opts).unwrap();
        let space_size = run.model.space().enumerate().len() as u64;
        let outcome = run.run(&eval).unwrap();
        assert_eq!(outcome.spent, space_size);
    }

    #[test]
    fn unknown_kernels_are_typed() {
        let err = SearchRun::for_kernel(SearchOptions::new(
            "no_such_kernel",
            StrategyKind::Random,
            4,
        ))
        .unwrap_err();
        assert!(matches!(err, QorError::UnknownKernel(_)), "{err:?}");
    }

    #[test]
    fn reference_front_drives_the_adrs_series() {
        obs::test_support::force_collection(true);
        let func = kernels::lower_kernel("fir").unwrap();
        let mut space = kernels::design_space(&func);
        space.unroll_factors = vec![1, 4];
        let configs = space.enumerate();
        let reports = par::try_map("test/oracle", &configs, |_, c| {
            hlsim::evaluate(&func, c).map_err(QorError::from)
        })
        .unwrap();
        let pts: Vec<(f64, f64)> = reports
            .iter()
            .map(|r| (r.top.latency as f64, dse::area(&r.top)))
            .collect();

        let eval = OracleEval::new(Arc::new(func));
        let opts = SearchOptions::new("fir", StrategyKind::Anneal, 10)
            .with_seed(1)
            .with_batch(4)
            .with_unroll_factors(vec![1, 4])
            .with_reference(pts);
        let mut run = SearchRun::for_kernel(opts).unwrap();
        run.run(&eval).unwrap();
        assert!(obs::metrics::series_len("search/fir/anneal/adrs_percent") > 0);
        assert!(obs::metrics::series_len("search/fir/anneal/front_size") > 0);
        obs::test_support::force_collection(false);
    }
}
