//! The model-guided DSE driver with tool-time accounting.

use hir::Function;
use hlsim::Qor;
use pragma::PragmaConfig;
use qor_core::{QorError, Session};

use crate::pareto::{Adrs, ParetoFront};

/// Simulated wall-clock cost of one HLS (synthesis-only) invocation, used
/// to account for baselines that need HLS in their inference loop
/// (Wu et al. \[8\] take "one to two days" for a ~2k-design space, i.e. tens
/// of seconds per design).
pub const HLS_SECS_PER_DESIGN: f64 = 45.0;

/// ZCU102 resource capacities used to collapse LUT/FF/DSP into one area
/// objective.
const LUT_CAP: f64 = 274_080.0;
const FF_CAP: f64 = 548_160.0;
const DSP_CAP: f64 = 2_520.0;

/// Normalized area objective of a QoR point.
pub fn area(q: &Qor) -> f64 {
    q.lut as f64 / LUT_CAP + q.ff as f64 / FF_CAP + q.dsp as f64 / DSP_CAP
}

/// One explored design point.
#[derive(Debug, Clone)]
pub struct DsePoint {
    /// The pragma configuration.
    pub config: PragmaConfig,
    /// Oracle QoR (exhaustive simulated tool flow).
    pub true_qor: Qor,
    /// Model-predicted QoR.
    pub predicted: Qor,
}

/// Outcome of one DSE run (one row of Table V).
///
/// Unlike the loose percentage the old `DseOutcome` carried, the Pareto
/// front and ADRS are returned as their typed forms so downstream code can
/// inspect the front's indices/points or convert the ADRS however it needs.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Kernel name.
    pub kernel: String,
    /// Number of design configurations.
    pub n_configs: usize,
    /// Simulated wall-clock of the exhaustive Vivado flow, in seconds.
    pub vivado_secs: f64,
    /// Wall-clock of the model-guided exploration (measured inference time
    /// plus any simulated HLS invocations the predictor requires).
    pub explore_secs: f64,
    /// The front the *predictor* considers Pareto-optimal (indices into
    /// [`ExploreOutcome::points`], point coordinates in predicted
    /// latency/area space).
    pub pareto: ParetoFront,
    /// ADRS of the predicted front scored at true QoR.
    pub adrs: Adrs,
    /// All explored points (for plotting / inspection).
    pub points: Vec<DsePoint>,
}

impl ExploreOutcome {
    /// ADRS of the predicted Pareto set, in percent.
    pub fn adrs_percent(&self) -> f64 {
        self.adrs.percent()
    }

    /// Simulated exhaustive tool time, in days.
    pub fn vivado_days(&self) -> f64 {
        self.vivado_secs / 86_400.0
    }

    /// Model-guided exploration time, in minutes.
    pub fn explore_minutes(&self) -> f64 {
        self.explore_secs / 60.0
    }
}

/// Runs model-guided DSE over `configs` of `func`.
///
/// The exact Pareto set comes from exhaustively evaluating the oracle; the
/// approximate set is the set of configurations the *predictor* considers
/// Pareto-optimal, scored at their true QoR (the standard ADRS protocol).
///
/// `hls_secs_per_design` charges simulated HLS time per design for
/// predictors that need the HLS flow in the loop (zero for source-level
/// predictors like the paper's).
///
/// # Errors
///
/// Propagates oracle evaluation failures.
pub fn explore(
    kernel: &str,
    func: &Function,
    configs: &[PragmaConfig],
    predict: impl Fn(&Function, &PragmaConfig) -> Qor + Sync,
    hls_secs_per_design: f64,
) -> Result<ExploreOutcome, QorError> {
    sweep(
        kernel,
        func,
        configs,
        |func, config| Ok(predict(func, config)),
        hls_secs_per_design,
    )
}

/// Runs model-guided DSE over `configs` of a bundled kernel through a
/// caching [`Session`].
///
/// Unlike [`explore`] with a bare `model.predict` closure — which re-runs
/// the lowering → CDFG → feature front half for every pragma point — the
/// session memoizes that front half, so sweeps that revisit configurations
/// (and the kernel lowering itself) pay it once. Check
/// [`Session::stats`] after the sweep to observe the hit rate.
///
/// # Errors
///
/// [`QorError::UnknownKernel`] for names outside the bundled set;
/// otherwise propagates oracle evaluation and prediction failures.
pub fn explore_with_session(
    session: &Session,
    kernel: &str,
    configs: &[PragmaConfig],
    hls_secs_per_design: f64,
) -> Result<ExploreOutcome, QorError> {
    let func = session.kernel_function(kernel)?;
    sweep(
        kernel,
        &func,
        configs,
        |_, config| session.predict_kernel(kernel, config),
        hls_secs_per_design,
    )
}

/// The body of [`explore`] and [`explore_with_session`]: the oracle sweep,
/// the timed prediction sweep, and the score.
fn sweep(
    kernel: &str,
    func: &Function,
    configs: &[PragmaConfig],
    predict: impl Fn(&Function, &PragmaConfig) -> Result<Qor, QorError> + Sync,
    hls_secs_per_design: f64,
) -> Result<ExploreOutcome, QorError> {
    let sp = obs::span("dse_explore");
    sp.attr("kernel", kernel);
    sp.attr("configs", configs.len());

    let (mut points, vivado_secs) = oracle_sweep(func, configs)?;

    // model predictions (measured)
    let pred_sp = obs::timer("dse_predict_sweep");
    let predictions = par::try_map("dse/predict", configs, |_, config| predict(func, config))?;
    let inference_secs = pred_sp.finish().as_secs_f64();
    for (p, q) in points.iter_mut().zip(predictions) {
        p.predicted = q;
    }
    obs::metrics::counter_add("dse/points_evaluated", points.len() as u64);
    let explore_secs = inference_secs + hls_secs_per_design * configs.len() as f64;

    let outcome = score(kernel, points, vivado_secs, explore_secs);
    sp.attr("adrs_percent", outcome.adrs_percent());
    Ok(outcome)
}

/// Exhaustive oracle sweep (the "Vivado" column). Tool seconds are summed
/// in config order after the parallel map so the total is bit-identical for
/// any worker count.
fn oracle_sweep(
    func: &Function,
    configs: &[PragmaConfig],
) -> Result<(Vec<DsePoint>, f64), QorError> {
    let _oracle = obs::span("dse_oracle_sweep");
    let reports = par::try_map("dse/oracle", configs, |_, config| {
        hlsim::evaluate(func, config).map_err(QorError::from)
    })?;
    let mut points = Vec::with_capacity(configs.len());
    let mut vivado_secs = 0.0;
    for (config, report) in configs.iter().zip(reports) {
        vivado_secs += hlsim::tool_runtime_secs(&report.top);
        points.push(DsePoint {
            config: config.clone(),
            true_qor: report.top,
            predicted: Qor::default(),
        });
    }
    Ok((points, vivado_secs))
}

/// Scores a fully-predicted sweep: the predicted Pareto set evaluated at
/// true QoR (the standard ADRS protocol), packaged as an outcome.
fn score(
    kernel: &str,
    points: Vec<DsePoint>,
    vivado_secs: f64,
    explore_secs: f64,
) -> ExploreOutcome {
    let true_pts: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.true_qor.latency as f64, area(&p.true_qor)))
        .collect();
    let pred_pts: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.predicted.latency as f64, area(&p.predicted)))
        .collect();
    let predicted_front = ParetoFront::from_points(&pred_pts);
    let approx_true: Vec<(f64, f64)> = predicted_front
        .indices()
        .iter()
        .map(|&i| true_pts[i])
        .collect();
    let adrs = Adrs::compute(&true_pts, &approx_true);
    obs::metrics::gauge_set(
        &format!("dse/{kernel}/pareto_front_size"),
        predicted_front.indices().len() as f64,
    );
    obs::metrics::gauge_set(&format!("dse/{kernel}/adrs_percent"), adrs.percent());

    ExploreOutcome {
        kernel: kernel.to_string(),
        n_configs: points.len(),
        vivado_secs,
        explore_secs,
        pareto: predicted_front,
        adrs,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_predictor_achieves_zero_adrs() {
        let func = kernels::lower_kernel("mvt").unwrap();
        let space = kernels::design_space(&func);
        let configs = space.enumerate_capped(24);
        let outcome = explore(
            "mvt",
            &func,
            &configs,
            |f, c| hlsim::evaluate(f, c).unwrap().top,
            0.0,
        )
        .unwrap();
        assert_eq!(outcome.n_configs, 24);
        assert_eq!(outcome.adrs_percent(), 0.0, "oracle must be exact");
        assert!(outcome.vivado_secs > outcome.explore_secs);
    }

    #[test]
    fn constant_predictor_scores_poorly() {
        let func = kernels::lower_kernel("mvt").unwrap();
        let space = kernels::design_space(&func);
        let configs = space.enumerate_capped(24);
        // worst case that still ranks: predict latency inversely related to
        // the true ordering by using the config fingerprint (garbage signal)
        let outcome = explore(
            "mvt",
            &func,
            &configs,
            |_f, c| Qor {
                latency: c.fingerprint() % 1_000 + 1,
                lut: (c.fingerprint() >> 10) % 10_000 + 1,
                ff: 100,
                dsp: 1,
            },
            0.0,
        )
        .unwrap();
        assert!(
            outcome.adrs_percent() > 1.0,
            "garbage predictor must have high ADRS, got {}",
            outcome.adrs_percent()
        );
    }

    #[test]
    fn hls_time_is_charged() {
        let func = kernels::lower_kernel("mvt").unwrap();
        let space = kernels::design_space(&func);
        let configs = space.enumerate_capped(10);
        let outcome = explore(
            "mvt",
            &func,
            &configs,
            |f, c| hlsim::evaluate(f, c).unwrap().top,
            HLS_SECS_PER_DESIGN,
        )
        .unwrap();
        assert!(outcome.explore_secs >= HLS_SECS_PER_DESIGN * 10.0);
    }

    #[test]
    fn session_sweep_matches_the_closure_path_and_reuses_the_lowering() {
        use qor_core::{HierarchicalModel, TrainOptions};

        let opts = TrainOptions::quick().with_hidden(10).with_seed(7);
        let func = kernels::lower_kernel("mvt").unwrap();
        let configs = kernels::design_space(&func).enumerate_capped(12);

        // closure path: re-lowers nothing but re-prepares every point
        let reference = HierarchicalModel::new(&opts);
        let baseline =
            explore("mvt", &func, &configs, |f, c| reference.predict(f, c), 0.0).unwrap();

        let session = Session::with_capacity(HierarchicalModel::new(&opts), 64);
        let cached = explore_with_session(&session, "mvt", &configs, 0.0).unwrap();

        assert_eq!(baseline.points.len(), cached.points.len());
        for (a, b) in baseline.points.iter().zip(&cached.points) {
            assert_eq!(a.predicted, b.predicted, "session prediction diverges");
            assert_eq!(a.true_qor, b.true_qor);
        }
        assert_eq!(baseline.adrs_percent(), cached.adrs_percent());

        // the kernel was lowered exactly once (the oracle's `kernel_function`
        // lookup misses; every per-point predict then hits); a second sweep
        // hits the prepared cache throughout
        let stats = session.stats();
        assert_eq!(stats.kernel_misses, 1);
        assert_eq!(stats.kernel_hits, configs.len() as u64);
        explore_with_session(&session, "mvt", &configs, 0.0).unwrap();
        let stats = session.stats();
        assert_eq!(
            stats.hits,
            configs.len() as u64,
            "second sweep must be all hits"
        );
    }

    #[test]
    fn session_sweep_rejects_unknown_kernels() {
        use qor_core::{HierarchicalModel, TrainOptions};
        let session = Session::new(HierarchicalModel::new(
            &TrainOptions::quick().with_hidden(8),
        ));
        let err = explore_with_session(&session, "no_such_kernel", &[], 0.0).unwrap_err();
        assert!(matches!(err, QorError::UnknownKernel(_)), "{err:?}");
    }

    #[test]
    fn area_composes_resource_utilizations() {
        let q = Qor {
            latency: 1,
            lut: 274_080,
            ff: 0,
            dsp: 0,
        };
        assert!((area(&q) - 1.0).abs() < 1e-9);
    }
}
