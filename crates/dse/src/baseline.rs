//! State-of-the-art baselines: Wu et al. (DAC'22, \[8\]) and GNN-DSE
//! (DAC'22, \[6\]), both as flat (non-hierarchical) whole-graph GNNs.

use gnn::{
    train_regression, ConvKind, EncoderConfig, GraphData, Normalizer, RegressionModel, TrainConfig,
};
use hir::Function;
use hlsim::Qor;
use pragma::{LoopId, PragmaConfig};
use qor_core::{graph_aggregates, graph_to_gnn, GlobalEval, QorError, AGG_DIM, FEATURE_DIM};
use tensor::{init, Matrix, ParamStore};

/// Which labels the baseline trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelSpace {
    /// Post-route ground truth (what the paper and \[8\] target).
    PostRoute,
    /// Post-HLS estimates (what GNN-DSE \[6\] targets) — systematically
    /// biased w.r.t. post-route truth.
    PostHls,
}

/// Baseline training options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineOptions {
    /// Propagation layer.
    pub conv: ConvKind,
    /// Hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
    /// Node cap for graph construction.
    pub graph_max_nodes: usize,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        BaselineOptions {
            conv: ConvKind::Sage,
            hidden: 24,
            epochs: 30,
            batch_size: 24,
            lr: 4e-3,
            seed: 11,
            graph_max_nodes: 320,
        }
    }
}

/// Extra feature columns appended by the GNN-DSE variant: any-enclosing
/// pipeline flag, log unroll product, log partition banks, innermost
/// pipeline flag, any-flatten flag, log innermost trip count.
const PRAGMA_FEATURE_COLS: usize = 6;

/// A flat whole-graph GNN baseline.
///
/// Three configurations reproduce the two prior works:
///
/// * [`FlatGnnBaseline::wu_accuracy`] — \[8\] as evaluated in Table IV:
///   pragma-blind graphs (their graph construction does not model pragmas),
///   post-route labels.
/// * [`FlatGnnBaseline::wu_dse`] — \[8\] as deployed in Table V: the model
///   reads HLS IR, so its graphs reflect pragma transformations, but there
///   is no hierarchy and no loop-level features — and every DSE query
///   requires an HLS run (charge [`crate::HLS_SECS_PER_DESIGN`]).
/// * [`FlatGnnBaseline::gnn_dse`] — \[6\]: pragma-blind graph *structure*
///   with pragmas as node features, trained on post-HLS labels.
#[derive(Debug)]
pub struct FlatGnnBaseline {
    /// Names the training series, `train/<name>/loss`.
    name: &'static str,
    store: ParamStore,
    model: RegressionModel,
    opts: BaselineOptions,
    structural_pragmas: bool,
    pragma_features: bool,
    labels: LabelSpace,
    norm: Normalizer,
}

impl FlatGnnBaseline {
    /// Fully explicit constructor for ablation studies: choose whether
    /// pragmas enter the graph structure, whether they are appended as node
    /// features, and which label space to train on.
    pub fn with_config(
        opts: BaselineOptions,
        structural_pragmas: bool,
        pragma_features: bool,
        labels: LabelSpace,
    ) -> Self {
        let in_dim = FEATURE_DIM
            + if pragma_features {
                PRAGMA_FEATURE_COLS
            } else {
                0
            };
        let mut store = ParamStore::new();
        let model = RegressionModel::new(
            &mut store,
            &EncoderConfig::new(opts.conv, in_dim, opts.hidden),
            AGG_DIM,
            4,
            opts.seed,
        );
        FlatGnnBaseline {
            name: "flat_gnn",
            store,
            model,
            opts,
            structural_pragmas,
            pragma_features,
            labels,
            norm: Normalizer::identity(4),
        }
    }

    /// Wu et al. \[8\] for the accuracy comparison (Table IV).
    pub fn wu_accuracy(opts: BaselineOptions) -> Self {
        Self {
            name: "wu_accuracy",
            ..Self::with_config(opts, false, false, LabelSpace::PostRoute)
        }
    }

    /// Wu et al. \[8\] for DSE (Table V) — HLS-IR-fed graphs.
    pub fn wu_dse(opts: BaselineOptions) -> Self {
        Self {
            name: "wu_dse",
            ..Self::with_config(opts, true, false, LabelSpace::PostRoute)
        }
    }

    /// GNN-DSE \[6\] — pragma features, post-HLS labels.
    pub fn gnn_dse(opts: BaselineOptions) -> Self {
        Self {
            name: "gnn_dse",
            ..Self::with_config(opts, false, true, LabelSpace::PostHls)
        }
    }

    /// Whether this baseline requires an HLS run per inference (true for
    /// the HLS-IR-fed variant), for DSE time accounting.
    pub fn needs_hls(&self) -> bool {
        self.structural_pragmas
    }

    /// The trained weights.
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Builds this baseline's graph representation of a configured design.
    ///
    /// The HLS-IR-fed variant sees the loop transformations (the IR after
    /// HLS reflects unrolling) but **not** banked memory ports — Wu et
    /// al.'s representation does not model array partitioning, which is
    /// one reason it trails on pragma-rich spaces.
    pub fn graph_data(&self, func: &Function, cfg: &PragmaConfig) -> GraphData {
        let blind = PragmaConfig::default();
        let loops_only;
        let build_cfg = if self.structural_pragmas {
            loops_only = strip_partitions(cfg);
            &loops_only
        } else {
            &blind
        };
        let graph = cdfg::GraphBuilder::new(func, build_cfg)
            .options(cdfg::GraphOptions {
                max_nodes: self.opts.graph_max_nodes,
            })
            .build();
        let mut base = graph_to_gnn(&graph);
        base.g_feats = graph_aggregates(&graph);
        if !self.pragma_features {
            return base;
        }
        // append pragma-as-feature columns (the GNN-DSE approach)
        let n = base.num_nodes();
        let mut x = Matrix::zeros(n, FEATURE_DIM + PRAGMA_FEATURE_COLS);
        for i in 0..n {
            x.row_mut(i)[..FEATURE_DIM].copy_from_slice(base.x.row(i));
            let node = &graph.nodes[i];
            let (pipelined, unroll) = enclosing_pragmas(cfg, &node.loop_path);
            x[(i, FEATURE_DIM)] = f32::from(u8::from(pipelined));
            x[(i, FEATURE_DIM + 1)] = (unroll as f32 + 1.0).ln();
            let banks = node_array(func, node)
                .map(|a| {
                    let info = func.array(a).expect("known array");
                    cfg.array_banks(a, &info.dims) as f32
                })
                .unwrap_or(1.0);
            x[(i, FEATURE_DIM + 2)] = (banks + 1.0).ln();
            let inner = cfg.loop_pragma(&node.loop_path);
            x[(i, FEATURE_DIM + 3)] = f32::from(u8::from(inner.pipeline));
            let flatten_any = {
                let path = node.loop_path.path();
                (1..=path.len()).any(|d| cfg.loop_pragma(&LoopId::from_path(&path[..d])).flatten)
            };
            x[(i, FEATURE_DIM + 4)] = f32::from(u8::from(flatten_any));
            let tc = func
                .loop_meta(&node.loop_path)
                .map(|m| m.trip_count)
                .unwrap_or(1);
            x[(i, FEATURE_DIM + 5)] = (tc as f32 + 1.0).ln();
        }
        GraphData::with_features(x, base.src, base.dst, base.g_feats)
    }

    /// Trains on the labeled designs.
    ///
    /// # Errors
    ///
    /// Returns [`QorError::UnknownKernel`] if a design references a kernel
    /// the dataset never registered.
    pub fn train(&mut self, designs: &qor_core::LabeledDesigns) -> Result<(), QorError> {
        let to_sample = |s: &qor_core::DesignSample| {
            let func = designs.function_of(s)?;
            let g = self.graph_data(func, &s.config);
            let q = match self.labels {
                LabelSpace::PostRoute => s.report.top,
                LabelSpace::PostHls => s.report.pre_route,
            };
            let y = vec![
                log1p(q.latency as f64),
                log1p(q.lut as f64),
                log1p(q.ff as f64),
                log1p(q.dsp as f64),
            ];
            Ok((g, y))
        };
        let mut train: Vec<_> = designs
            .train
            .iter()
            .map(to_sample)
            .collect::<Result<_, QorError>>()?;
        self.norm = Normalizer::fit_targets(&mut train);
        let cfg = TrainConfig {
            epochs: self.opts.epochs,
            batch_size: self.opts.batch_size,
            lr: self.opts.lr,
            ..TrainConfig::default()
        };
        let mut rng = init::seeded_rng(self.opts.seed);
        train_regression(
            self.name,
            &mut self.store,
            &self.model,
            &train,
            &cfg,
            &mut rng,
        );
        Ok(())
    }

    /// Predicts QoR for one configured design.
    pub fn predict(&self, func: &Function, cfg: &PragmaConfig) -> Qor {
        let g = self.graph_data(func, cfg);
        let out = self.model.predict(&self.store, &[&g]);
        let mut y = [out[(0, 0)], out[(0, 1)], out[(0, 2)], out[(0, 3)]];
        self.norm.inverse(&mut y);
        Qor {
            latency: expm1(y[0]).round() as u64,
            lut: expm1(y[1]).round() as u64,
            ff: expm1(y[2]).round() as u64,
            dsp: expm1(y[3]).round() as u64,
        }
    }

    /// MAPE against **post-route truth** on a design subset (Table IV
    /// protocol — even post-HLS-trained models are judged against the
    /// post-route reference).
    ///
    /// # Errors
    ///
    /// Returns [`QorError::UnknownKernel`] if a design references a kernel
    /// the dataset never registered.
    pub fn eval_against_post_route(
        &self,
        designs: &qor_core::LabeledDesigns,
        subset: &[qor_core::DesignSample],
    ) -> Result<GlobalEval, QorError> {
        let mut pred = vec![Vec::new(); 4];
        let mut truth = vec![Vec::new(); 4];
        for s in subset {
            let func = designs.function_of(s)?;
            let q = self.predict(func, &s.config);
            let t = s.report.top;
            let pa = [q.latency, q.lut, q.ff, q.dsp];
            let ta = [t.latency, t.lut, t.ff, t.dsp];
            for m in 0..4 {
                pred[m].push(pa[m] as f32);
                truth[m].push(ta[m] as f32);
            }
        }
        Ok(GlobalEval {
            latency_mape: gnn::mape(&pred[0], &truth[0]),
            lut_mape: gnn::mape(&pred[1], &truth[1]),
            ff_mape: gnn::mape(&pred[2], &truth[2]),
            dsp_mape: gnn::mape(&pred[3], &truth[3]),
            n: subset.len(),
        })
    }
}

fn log1p(v: f64) -> f32 {
    (v.max(0.0) + 1.0).ln() as f32
}

fn expm1(v: f32) -> f64 {
    (f64::from(v).exp() - 1.0).max(0.0)
}

/// Copies loop pragmas only, dropping array partitioning (what an HLS-IR
/// view without memory-bank modeling would expose).
fn strip_partitions(cfg: &PragmaConfig) -> PragmaConfig {
    let mut out = PragmaConfig::new();
    for (id, p) in cfg.loops() {
        out.set_pipeline(id.clone(), p.pipeline);
        out.set_unroll(id.clone(), p.unroll);
        out.set_flatten(id.clone(), p.flatten);
    }
    out
}

/// Aggregated pragma context of a node's innermost loop: whether any
/// enclosing loop is pipelined, and the product of enclosing unroll factors.
fn enclosing_pragmas(cfg: &PragmaConfig, loop_path: &LoopId) -> (bool, u64) {
    let mut pipelined = false;
    let mut unroll = 1u64;
    let path = loop_path.path();
    for depth in 1..=path.len() {
        let id = LoopId::from_path(&path[..depth]);
        let p = cfg.loop_pragma(&id);
        pipelined |= p.pipeline;
        unroll = unroll.saturating_mul(match p.unroll {
            pragma::Unroll::Off => 1,
            pragma::Unroll::Factor(f) => u64::from(f),
            pragma::Unroll::Full => 64,
        });
    }
    (pipelined, unroll)
}

/// The array a node touches, if any.
fn node_array<'a>(func: &'a Function, node: &'a cdfg::Node) -> Option<&'a str> {
    match &node.kind {
        cdfg::NodeKind::MemPort { array, .. } => Some(array.as_str()),
        cdfg::NodeKind::Instr { op: Some(id), .. } => match &func.op(*id).kind {
            hir::OpKind::Load { array, .. } | hir::OpKind::Store { array, .. } => {
                Some(array.as_str())
            }
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qor_core::{dataset, DataOptions};

    fn tiny_designs() -> qor_core::LabeledDesigns {
        let ks: Vec<_> = kernels::training_kernels().take(2).collect();
        dataset::generate_for(
            &ks,
            &DataOptions {
                max_designs_per_kernel: 12,
                seed: 3,
            },
        )
        .unwrap()
    }

    #[test]
    fn pragma_blind_graphs_identical_across_configs() {
        let designs = tiny_designs();
        let baseline = FlatGnnBaseline::wu_accuracy(BaselineOptions::default());
        let s0 = &designs.train[0];
        let func = designs.function_of(s0).unwrap();
        let g_default = baseline.graph_data(func, &PragmaConfig::default());
        let g_cfg = baseline.graph_data(func, &s0.config);
        assert_eq!(g_default.num_nodes(), g_cfg.num_nodes());
        assert_eq!(g_default.x, g_cfg.x, "pragma-blind graphs must not vary");
    }

    #[test]
    fn hls_ir_fed_graphs_vary_with_configs() {
        let designs = tiny_designs();
        let baseline = FlatGnnBaseline::wu_dse(BaselineOptions::default());
        assert!(baseline.needs_hls());
        // find a config with unrolling: its graph must differ from default
        let varied = designs.train.iter().find(|s| {
            let func = designs.function_of(s).unwrap();
            let a = baseline.graph_data(func, &s.config);
            let b = baseline.graph_data(func, &PragmaConfig::default());
            a.num_nodes() != b.num_nodes()
        });
        assert!(varied.is_some(), "no config changed the structural graph");
    }

    #[test]
    fn gnn_dse_features_vary_with_configs() {
        let designs = tiny_designs();
        let baseline = FlatGnnBaseline::gnn_dse(BaselineOptions::default());
        let with_pragma = designs
            .train
            .iter()
            .find(|s| !s.config.is_trivial())
            .expect("some pragma'd design");
        let func = designs.function_of(with_pragma).unwrap();
        let a = baseline.graph_data(func, &with_pragma.config);
        let b = baseline.graph_data(func, &PragmaConfig::default());
        assert_eq!(a.num_nodes(), b.num_nodes(), "structure is pragma-blind");
        assert_ne!(a.x, b.x, "pragma features must differ");
    }

    #[test]
    fn baseline_trains_and_predicts() {
        let designs = tiny_designs();
        let mut baseline = FlatGnnBaseline::wu_dse(BaselineOptions {
            epochs: 5,
            ..BaselineOptions::default()
        });
        baseline.train(&designs).unwrap();
        let eval = baseline
            .eval_against_post_route(&designs, &designs.test)
            .unwrap();
        assert!(eval.latency_mape.is_finite());
        assert!(eval.n > 0);
    }
}
