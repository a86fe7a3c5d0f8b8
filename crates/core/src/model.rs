//! The hierarchical model: `GNN_p`, `GNN_np`, `GNN_g` (paper §III-C/D).

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use cdfg::{GraphBuilder, GraphOptions, SuperFeatures};
use gnn::{
    mape, train_regression, Batch, ConvKind, Encoder, EncoderConfig, GraphData, Mlp, Normalizer,
    Regressor, TrainConfig,
};
use hir::Function;
use hlsim::Qor;
use pragma::{LoopId, PragmaConfig};
use rand::rngs::StdRng;
use tensor::{ParamStore, Tape, Var};

use crate::condensed::{array_partitions, CondensedSlot, CondensedSpec, Skeleton};
use crate::dataset::{self, DataOptions, DesignSample, LabeledDesigns};
use crate::error::QorError;
use crate::features::{
    graph_aggregates, graph_to_gnn, loop_level_features, AGG_DIM, FEATURE_DIM, LOOP_FEATURE_DIM,
};
use crate::hierarchy::{split_hierarchy, Hierarchy};

fn log1p(v: f64) -> f32 {
    (v.max(0.0) + 1.0).ln() as f32
}

fn expm1(v: f32) -> f64 {
    (f64::from(v).exp() - 1.0).max(0.0)
}

/// Training options for the full hierarchical pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOptions {
    /// Propagation-layer family for all three models.
    pub conv: ConvKind,
    /// Hidden width.
    pub hidden: usize,
    /// Epochs for `GNN_p`/`GNN_np`.
    pub inner_epochs: usize,
    /// Epochs for `GNN_g`.
    pub global_epochs: usize,
    /// Mini-batch size (graphs).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for weight init and shuffling.
    pub seed: u64,
    /// Dataset-generation options.
    pub data: DataOptions,
    /// Node cap for graph construction.
    pub graph_max_nodes: usize,
    /// Progress print period in epochs (0 = silent).
    pub log_every: usize,
    /// Ablation switch: train a single inner model on pipelined and
    /// non-pipelined loops together instead of separate `GNN_p`/`GNN_np`
    /// (the paper found separate models more accurate).
    pub shared_inner: bool,
}

impl TrainOptions {
    /// Fast configuration for tests and CI (minutes end to end).
    pub fn quick() -> Self {
        TrainOptions {
            conv: ConvKind::Sage,
            hidden: 24,
            inner_epochs: 60,
            global_epochs: 60,
            batch_size: 24,
            lr: 4e-3,
            seed: 7,
            data: DataOptions {
                max_designs_per_kernel: 60,
                seed: 17,
            },
            graph_max_nodes: 320,
            log_every: 0,
            shared_inner: false,
        }
    }

    /// Paper-scale configuration (hundreds of designs per kernel, 250
    /// epochs).
    pub fn paper() -> Self {
        TrainOptions {
            conv: ConvKind::Sage,
            hidden: 48,
            inner_epochs: 250,
            global_epochs: 250,
            batch_size: 32,
            lr: 3e-3,
            seed: 7,
            data: DataOptions {
                max_designs_per_kernel: 400,
                seed: 17,
            },
            graph_max_nodes: 640,
            log_every: 25,
            shared_inner: false,
        }
    }

    /// Sets the epoch budget for **both** the inner models and `GNN_g`.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.inner_epochs = epochs;
        self.global_epochs = epochs;
        self
    }

    /// Sets the weight-init/shuffle seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the propagation-layer family for all three models.
    #[must_use]
    pub fn with_conv(mut self, conv: ConvKind) -> Self {
        self.conv = conv;
        self
    }

    /// Sets the hidden width.
    #[must_use]
    pub fn with_hidden(mut self, hidden: usize) -> Self {
        self.hidden = hidden;
        self
    }

    /// Sets the Adam learning rate.
    #[must_use]
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Sets the per-kernel design cap for dataset generation (0 = unlimited).
    #[must_use]
    pub fn with_max_designs(mut self, max_designs_per_kernel: usize) -> Self {
        self.data.max_designs_per_kernel = max_designs_per_kernel;
        self
    }

    /// Sets the dataset split/shuffle seed.
    #[must_use]
    pub fn with_data_seed(mut self, seed: u64) -> Self {
        self.data.seed = seed;
        self
    }

    /// Toggles the shared-inner-model ablation.
    #[must_use]
    pub fn with_shared_inner(mut self, shared_inner: bool) -> Self {
        self.shared_inner = shared_inner;
        self
    }

    fn encoder_config(&self) -> EncoderConfig {
        EncoderConfig::new(self.conv, FEATURE_DIM, self.hidden)
    }

    fn graph_options(&self) -> GraphOptions {
        GraphOptions {
            max_nodes: self.graph_max_nodes,
        }
    }
}

/// Test-set MAPE of one inner model (Table III rows for `GNN_p`/`GNN_np`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InnerEval {
    /// Loop latency MAPE (%).
    pub latency_mape: f32,
    /// Iteration-latency MAPE (%).
    pub il_mape: f32,
    /// DSP MAPE (%).
    pub dsp_mape: f32,
    /// LUT MAPE (%).
    pub lut_mape: f32,
    /// FF MAPE (%).
    pub ff_mape: f32,
    /// Test samples evaluated.
    pub n: usize,
}

/// Test-set MAPE of `GNN_g` (Table III rows for the application level).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GlobalEval {
    /// Application latency MAPE (%).
    pub latency_mape: f32,
    /// DSP MAPE (%).
    pub dsp_mape: f32,
    /// LUT MAPE (%).
    pub lut_mape: f32,
    /// FF MAPE (%).
    pub ff_mape: f32,
    /// Test designs evaluated.
    pub n: usize,
}

/// Training statistics (the numbers Table III reports).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainStats {
    /// `GNN_p` test metrics.
    pub pipelined: InnerEval,
    /// `GNN_np` test metrics.
    pub non_pipelined: InnerEval,
    /// `GNN_g` test metrics.
    pub global: GlobalEval,
    /// Dataset sizes `(n_p, n_np, n_g)` after deduplication.
    pub dataset_sizes: (usize, usize, usize),
}

// ------------------------------------------------------------ inner model

/// `GNN_p` / `GNN_np`: encoder + iteration-latency head + latency head
/// (taking the predicted IL and the loop-level features) + resource head.
#[derive(Debug, Clone)]
struct InnerModel {
    encoder: Encoder,
    head_il: Mlp,
    head_lat: Mlp,
    head_res: Mlp,
}

impl InnerModel {
    fn new(store: &mut ParamStore, name: &str, cfg: &EncoderConfig, rng: &mut StdRng) -> Self {
        let encoder = Encoder::new(store, &format!("{name}.enc"), cfg, rng);
        let pooled = encoder.pooled_dim() + LOOP_FEATURE_DIM + AGG_DIM;
        InnerModel {
            head_il: Mlp::new(store, &format!("{name}.il"), &[pooled, cfg.hidden, 1], rng),
            head_lat: Mlp::new(
                store,
                &format!("{name}.lat"),
                &[1 + LOOP_FEATURE_DIM + AGG_DIM, cfg.hidden, 1],
                rng,
            ),
            head_res: Mlp::new(store, &format!("{name}.res"), &[pooled, cfg.hidden, 3], rng),
            encoder,
        }
    }
}

impl Regressor for InnerModel {
    const LATENCY_COL: usize = 1;

    /// The `[il, latency, resources]` heads (log space).
    fn heads(&self, store: &ParamStore, t: &mut Tape, batch: &Batch) -> Vec<Var> {
        let pooled = self.encoder.forward_pooled(store, t, batch);
        let gf = t.leaf(batch.g_feats.clone());
        let pooled_gf = t.concat_cols(&[pooled, gf]);
        let il = self.head_il.forward(store, t, pooled_gf);
        let lat_in = t.concat_cols(&[il, gf]);
        let lat = self.head_lat.forward(store, t, lat_in);
        let res = self.head_res.forward(store, t, pooled_gf);
        vec![il, lat, res]
    }
}

/// `GNN_g`: encoder + latency head + resource head over the condensed graph.
#[derive(Debug, Clone)]
struct GlobalModel {
    encoder: Encoder,
    head_lat: Mlp,
    head_res: Mlp,
}

impl GlobalModel {
    fn new(store: &mut ParamStore, cfg: &EncoderConfig, rng: &mut StdRng) -> Self {
        let encoder = Encoder::new(store, "g.enc", cfg, rng);
        let pooled = encoder.pooled_dim() + AGG_DIM;
        GlobalModel {
            head_lat: Mlp::new(store, "g.lat", &[pooled, cfg.hidden, 1], rng),
            head_res: Mlp::new(store, "g.res", &[pooled, cfg.hidden, 3], rng),
            encoder,
        }
    }
}

impl Regressor for GlobalModel {
    /// The `[latency, resources]` heads (log space).
    fn heads(&self, store: &ParamStore, t: &mut Tape, batch: &Batch) -> Vec<Var> {
        let pooled = self.encoder.forward_pooled(store, t, batch);
        let gf = t.leaf(batch.g_feats.clone());
        let pooled_gf = t.concat_cols(&[pooled, gf]);
        vec![
            self.head_lat.forward(store, t, pooled_gf),
            self.head_res.forward(store, t, pooled_gf),
        ]
    }
}

// --------------------------------------------------------------- samples

/// A training or test sample: a graph and its log-space targets, `[il,
/// latency, lut, ff, dsp]` for an inner region (subgraph + loop features)
/// and `[latency, lut, ff, dsp]` for a whole design (condensed graph).
type Sample = (GraphData, Vec<f32>);

/// Stable checkpoint bank names, in serialization order: `GNN_p`,
/// `GNN_np`, `GNN_g`.
pub const BANKS: [&str; 3] = ["gnn_p", "gnn_np", "gnn_g"];

// -------------------------------------------------------------- prepared

/// The weight-independent front half of one design's prediction: the
/// hierarchy split, per-inner-loop subgraph construction and feature
/// annotation, and the skeleton of the condensed whole-design graph.
///
/// Built once by [`HierarchicalModel::prepare`] and replayed by
/// [`HierarchicalModel::predict_prepared`], which only pays the GNN
/// forward passes and writes the super-node rows into the skeleton.
/// [`crate::Session`] memoizes these per `(kernel source, pragma config)`
/// for DSE-style repeated queries; there the skeleton is shared by every
/// design with the same condensed structure and built by the first
/// prediction that needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedDesign {
    pub(crate) func: Arc<Function>,
    pub(crate) cfg: PragmaConfig,
    pub(crate) inner: Vec<Arc<PreparedInner>>,
    pub(crate) condensed: Arc<CondensedSlot>,
}

impl PreparedDesign {
    /// The lowered function this design was prepared from.
    pub fn function(&self) -> &Arc<Function> {
        &self.func
    }

    /// The pragma configuration baked into the prepared graphs.
    pub fn config(&self) -> &PragmaConfig {
        &self.cfg
    }

    /// Number of inner-hierarchy loops with prepared subgraphs.
    pub fn num_inner(&self) -> usize {
        self.inner.len()
    }

    /// Total prepared-graph nodes (rough memory-footprint proxy).
    pub fn num_nodes(&self) -> usize {
        self.inner.iter().map(|i| i.data.num_nodes()).sum()
    }

    /// Stable FNV-1a digest over every byte that feeds the back half:
    /// function identity, full pragma configuration and each prepared
    /// inner loop (graph tensors included); the condensed skeleton is a
    /// function of the first two. Two designs with equal digests predict
    /// identically; the differential tests and `qor-bench incr_sweep` use
    /// this to prove incremental == from-scratch.
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = crate::hash::Fnv1aHasher::new();
        h.write(self.func.name.as_bytes());
        h.write_u64(self.cfg.fingerprint());
        h.write_usize(self.inner.len());
        for inner in &self.inner {
            h.write_u64(inner.digest());
        }
        h.finish()
    }
}

/// One inner loop's prepared subgraph plus the loop constants the
/// super-node condensation needs.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedInner {
    pub(crate) id: LoopId,
    pub(crate) pipelined: bool,
    pub(crate) data: GraphData,
    pub(crate) tc: u64,
    pub(crate) unroll: u64,
    pub(crate) ii: f64,
    /// The inner model's de-normalised outputs for this region, tagged
    /// with the token of the session that computed them.
    pub(crate) outputs: OutputSlot,
}

/// A memo of one region's inner-model outputs: the token of the
/// [`Session`](crate::Session) that filled it and the five de-normalised
/// outputs `[il, latency, lut, ff, dsp]`.
///
/// It is not part of the region's value: equality ignores it, a clone
/// starts empty and [`PreparedInner`]'s digest never reads it, so
/// backdating and every design digest are the same with or without it.
#[derive(Default)]
pub(crate) struct OutputSlot(Mutex<Option<(u64, [f32; 5])>>);

impl Clone for OutputSlot {
    fn clone(&self) -> Self {
        OutputSlot::default()
    }
}

impl PartialEq for OutputSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for OutputSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OutputSlot")
    }
}

impl PreparedInner {
    /// Stable FNV-1a digest of every field, graph tensors included
    /// (float bits, not rounded values).
    pub(crate) fn digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = crate::hash::Fnv1aHasher::new();
        for seg in self.id.path() {
            h.write_u16(*seg);
        }
        h.write(&[0xfe, u8::from(self.pipelined)]);
        h.write_u64(self.tc);
        h.write_u64(self.unroll);
        h.write_u64(self.ii.to_bits());
        h.write_usize(self.data.x.rows());
        h.write_usize(self.data.x.cols());
        for &v in self.data.x.as_slice() {
            h.write_u32(v.to_bits());
        }
        for &e in &self.data.src {
            h.write_u32(e);
        }
        for &e in &self.data.dst {
            h.write_u32(e);
        }
        for &v in &self.data.g_feats {
            h.write_u32(v.to_bits());
        }
        h.finish()
    }
}

/// Builds one inner loop's prepared subgraph, feature annotation and
/// analytic constants.
///
/// This is the unit of work the incremental pipeline memoizes per loop:
/// both [`HierarchicalModel::prepare`] and the `incr` `LoopPrepared` query
/// call this exact function, which is what makes incremental results
/// byte-identical to cold runs by construction.
pub(crate) fn prepare_one_inner(
    func: &Function,
    cfg: &PragmaConfig,
    id: &LoopId,
    pipelined: bool,
    opts: GraphOptions,
) -> PreparedInner {
    let graph = GraphBuilder::new(func, cfg)
        .options(opts)
        .subgraph(id.clone())
        .build();
    let mut data = graph_to_gnn(&graph);
    data.g_feats = loop_level_features(func, cfg, id, pipelined);
    data.g_feats.extend(graph_aggregates(&graph));
    let meta = func.loop_meta(id);
    let tc = meta.map(|m| m.trip_count).unwrap_or(1).max(1);
    let unroll = cfg.loop_pragma(id).unroll.factor(tc);
    PreparedInner {
        id: id.clone(),
        pipelined,
        data,
        tc,
        unroll,
        ii: hlsim::analytic_ii(func, cfg, id) as f64,
        outputs: OutputSlot::default(),
    }
}

/// What one design's back half returns: the prediction, how many inner
/// regions their output slots answered, and whether it built the
/// design's condensed skeleton.
pub(crate) struct DesignForward {
    pub(crate) qor: Qor,
    pub(crate) inner_hits: usize,
    pub(crate) built_skeleton: bool,
}

// ----------------------------------------------------------------- model

/// The full hierarchical source-to-post-route QoR predictor.
///
/// See the [crate docs](crate) for the end-to-end flow and
/// [`TrainOptions`] for knobs.
#[derive(Debug)]
pub struct HierarchicalModel {
    opts: TrainOptions,
    store_p: ParamStore,
    model_p: InnerModel,
    norm_p: Normalizer,
    store_np: ParamStore,
    model_np: InnerModel,
    norm_np: Normalizer,
    store_g: ParamStore,
    model_g: GlobalModel,
    norm_g: Normalizer,
}

impl HierarchicalModel {
    /// Creates an untrained model.
    pub fn new(opts: &TrainOptions) -> Self {
        let enc_cfg = opts.encoder_config();
        let mut rng = tensor::init::seeded_rng(opts.seed);
        let mut store_p = ParamStore::new();
        let model_p = InnerModel::new(&mut store_p, "p", &enc_cfg, &mut rng);
        let mut store_np = ParamStore::new();
        let model_np = InnerModel::new(&mut store_np, "np", &enc_cfg, &mut rng);
        let mut store_g = ParamStore::new();
        let model_g = GlobalModel::new(&mut store_g, &enc_cfg, &mut rng);
        HierarchicalModel {
            opts: *opts,
            store_p,
            model_p,
            norm_p: Normalizer::identity(5),
            store_np,
            model_np,
            norm_np: Normalizer::identity(5),
            store_g,
            model_g,
            norm_g: Normalizer::identity(4),
        }
    }

    /// Generates the dataset from the 12 training kernels and trains the
    /// three models hierarchically.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation failures.
    pub fn train_on_kernels(opts: &TrainOptions) -> Result<(Self, TrainStats), QorError> {
        let designs = dataset::generate(&opts.data)?;
        Self::train_with_designs(opts, &designs)
    }

    /// Trains on an existing labeled dataset (used by the benchmark
    /// binaries to reuse one sweep across model variants).
    ///
    /// # Errors
    ///
    /// As [`HierarchicalModel::fit`].
    pub fn train_with_designs(
        opts: &TrainOptions,
        designs: &LabeledDesigns,
    ) -> Result<(Self, TrainStats), QorError> {
        let mut model = Self::new(opts);
        let stats = model.fit(designs)?;
        Ok((model, stats))
    }

    /// Trains this model in place, returning test metrics.
    ///
    /// # Errors
    ///
    /// Returns [`QorError::UnknownKernel`] if a design references a kernel
    /// the dataset never registered, and [`QorError::Shape`] if a bank of
    /// [`BANKS`] would get no training samples (no pipelined or no
    /// non-pipelined inner region, or no training design) and so could
    /// not predict.
    pub fn fit(&mut self, designs: &LabeledDesigns) -> Result<TrainStats, QorError> {
        let fit_sp = obs::span("fit");
        fit_sp.attr("designs", designs.len());
        let opts = self.opts;
        // 1. inner datasets, deduplicated across designs AND across splits
        // (an inner region already seen in training must not re-appear in
        // the test set)
        let mut seen = HashSet::new();
        let (mut p_train, mut np_train) = self.inner_samples(designs, &designs.train, &mut seen)?;
        let (p_val, np_val) = self.inner_samples(designs, &designs.val, &mut seen)?;
        let (p_test, np_test) = self.inner_samples(designs, &designs.test, &mut seen)?;
        let dataset_sizes = (
            p_train.len() + p_test.len() + p_val.len(),
            np_train.len() + np_test.len() + np_val.len(),
            designs.len(),
        );
        // a bank without training rows would fit a 0-wide normalizer, and
        // the first prediction through it would panic
        let empty = if opts.shared_inner {
            let inner = p_train.is_empty() && np_train.is_empty();
            [inner, inner, designs.train.is_empty()]
        } else {
            [
                p_train.is_empty(),
                np_train.is_empty(),
                designs.train.is_empty(),
            ]
        };
        if let Some((bank, _)) = BANKS.iter().zip(empty).find(|&(_, e)| e) {
            return Err(QorError::Shape(format!(
                "bank {bank:?} has no training samples"
            )));
        }

        // 2. standardize the targets, train GNN_p and GNN_np, then freeze
        let train_cfg = |epochs| TrainConfig {
            epochs,
            batch_size: opts.batch_size,
            lr: opts.lr,
            weight_decay: 0.0,
            log_every: opts.log_every,
        };
        let inner_cfg = train_cfg(opts.inner_epochs);
        let mut rng = tensor::init::seeded_rng(opts.seed ^ 0xabcd);
        if opts.shared_inner {
            // ablation: one model for all inner loops (np inference routes
            // through it, see `inner_model_for`)
            p_train.append(&mut np_train);
            self.norm_p = Normalizer::fit_targets(&mut p_train);
            self.norm_np = self.norm_p.clone();
            let (store, model) = (&mut self.store_p, &self.model_p);
            train_regression("GNN_shared", store, model, &p_train, &inner_cfg, &mut rng);
        } else {
            self.norm_p = Normalizer::fit_targets(&mut p_train);
            self.norm_np = Normalizer::fit_targets(&mut np_train);
            let (store, model) = (&mut self.store_p, &self.model_p);
            train_regression("GNN_p", store, model, &p_train, &inner_cfg, &mut rng);
            let (store, model) = (&mut self.store_np, &self.model_np);
            train_regression("GNN_np", store, model, &np_train, &inner_cfg, &mut rng);
        }

        // 3. global dataset from frozen inner predictions
        let mut g_train = self.global_samples(designs, &designs.train)?;
        let g_test = self.global_samples(designs, &designs.test)?;
        self.norm_g = Normalizer::fit_targets(&mut g_train);
        let g_cfg = train_cfg(opts.global_epochs);
        let (store, model) = (&mut self.store_g, &self.model_g);
        train_regression("GNN_g", store, model, &g_train, &g_cfg, &mut rng);

        let inner_eval = |tag, pipelined, test: &[Sample]| {
            let (store, model, norm) = self.inner_model_for(pipelined);
            let [il_mape, latency_mape, lut_mape, ff_mape, dsp_mape] =
                eval(tag, store, model, norm, test);
            InnerEval {
                il_mape,
                latency_mape,
                lut_mape,
                ff_mape,
                dsp_mape,
                n: test.len(),
            }
        };
        let pipelined = inner_eval("GNN_p", true, &p_test);
        let non_pipelined = inner_eval("GNN_np", false, &np_test);
        let [latency_mape, lut_mape, ff_mape, dsp_mape] =
            eval("GNN_g", &self.store_g, &self.model_g, &self.norm_g, &g_test);
        Ok(TrainStats {
            pipelined,
            non_pipelined,
            global: GlobalEval {
                latency_mape,
                lut_mape,
                ff_mape,
                dsp_mape,
                n: g_test.len(),
            },
            dataset_sizes,
        })
    }

    /// End-to-end source-to-post-route prediction for one configured design
    /// — no tool flow involved.
    pub fn predict(&self, func: &Function, cfg: &PragmaConfig) -> Qor {
        obs::metrics::counter_add("qor/predictions", 1);
        let (inner, condensed) = self.prepare_parts(func, cfg);
        self.forward_design(func, &inner, &condensed, None).qor
    }

    /// Builds the weight-independent front half of a prediction: the
    /// hierarchy split, every inner loop's subgraph and feature annotation,
    /// and the condensed whole-design graph's skeleton with its quotient.
    ///
    /// The result depends only on the function, the pragma configuration
    /// and the model's `graph_max_nodes` option — never on the weights —
    /// so it can be cached across queries and replayed with
    /// [`HierarchicalModel::predict_prepared`] for a bit-identical result.
    pub fn prepare(&self, func: Arc<Function>, cfg: PragmaConfig) -> PreparedDesign {
        let (inner, condensed) = self.prepare_parts(&func, &cfg);
        condensed.skeleton(&func).0.quotient();
        PreparedDesign {
            func,
            cfg,
            inner,
            condensed,
        }
    }

    /// Stable fingerprint of every option [`HierarchicalModel::prepare`]
    /// reads (today only `graph_max_nodes`).
    ///
    /// Two models with equal fingerprints produce bit-identical
    /// [`PreparedDesign`]s for the same `(function, config)`, so a shared
    /// kernel cache entry may serve both; models with different
    /// fingerprints must never share entries. The version tag guards
    /// against silently reusing stale cache keys if `prepare` ever grows
    /// another option dependency.
    pub fn prepare_fingerprint(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = crate::hash::Fnv1aHasher::new();
        h.write(b"prepare-v2");
        h.write_u64(self.opts.graph_max_nodes as u64);
        h.finish()
    }

    /// Predicts from a prepared front half, paying only the GNN forward
    /// passes (inner models, super-node rows, global model).
    ///
    /// Bit-identical to [`HierarchicalModel::predict`] on the same
    /// function/configuration: both run exactly the same graph
    /// construction and floating-point operations in the same order.
    pub fn predict_prepared(&self, prepared: &PreparedDesign) -> Qor {
        obs::metrics::counter_add("qor/predictions", 1);
        self.forward_design(&prepared.func, &prepared.inner, &prepared.condensed, None)
            .qor
    }

    /// As [`HierarchicalModel::predict_prepared`], but each inner region's
    /// outputs are read from its slot when `token` filled it, and written
    /// there otherwise; the forward also reports how many regions the
    /// slots answered and whether it built the design's skeleton.
    ///
    /// `token` must identify this model's weights uniquely within the
    /// process (a [`Session`](crate::Session) draws one per session): equal
    /// tokens must mean equal weights, or a slot would answer for another
    /// model.
    pub(crate) fn predict_prepared_memo(
        &self,
        prepared: &PreparedDesign,
        token: u64,
    ) -> DesignForward {
        obs::metrics::counter_add("qor/predictions", 1);
        self.forward_design(
            &prepared.func,
            &prepared.inner,
            &prepared.condensed,
            Some(token),
        )
    }

    /// Predicts the QoR of every inner-hierarchy loop and packages it as
    /// super-node features (the condensation inputs).
    pub fn predict_supers(
        &self,
        func: &Function,
        cfg: &PragmaConfig,
    ) -> BTreeMap<LoopId, SuperFeatures> {
        let hierarchy = split_hierarchy(func, cfg);
        let inner = self.prepare_inner(func, cfg, &hierarchy);
        let (supers, _) = self.supers_of(&inner, None);
        inner.iter().map(|pi| pi.id.clone()).zip(supers).collect()
    }

    /// The condensed whole-design graph `GNN_g` reads when the design's
    /// inner regions carry `supers`: node features, edges and graph
    /// aggregates, written into the design's condensed skeleton.
    ///
    /// Equal to condensing with [`cdfg::GraphBuilder::condense`] under this
    /// model's `graph_max_nodes` and annotating with
    /// [`crate::graph_to_gnn`] and [`crate::graph_aggregates`].
    ///
    /// # Panics
    ///
    /// Panics if `supers` lacks one of the design's inner regions.
    pub fn condensed_graph(
        &self,
        func: &Function,
        cfg: &PragmaConfig,
        supers: &BTreeMap<LoopId, SuperFeatures>,
    ) -> GraphData {
        let (slot, rows) = self.condensed_with(func, cfg, supers);
        slot.graph(func, &rows).0
    }

    /// The skeleton slot of the design `cfg` and the super features of its
    /// regions, in region order, read from `supers`.
    fn condensed_with(
        &self,
        func: &Function,
        cfg: &PragmaConfig,
        supers: &BTreeMap<LoopId, SuperFeatures>,
    ) -> (CondensedSlot, Vec<SuperFeatures>) {
        let hierarchy = split_hierarchy(func, cfg);
        let rows = hierarchy.inner.iter().map(|r| supers[&r.id]).collect();
        (self.condensed_slot(func, cfg, &hierarchy), rows)
    }

    /// The front half shared by [`HierarchicalModel::predict`] and
    /// [`HierarchicalModel::prepare`]: the prepared inner regions and the
    /// condensed graph's (still unbuilt) skeleton slot.
    fn prepare_parts(
        &self,
        func: &Function,
        cfg: &PragmaConfig,
    ) -> (Vec<Arc<PreparedInner>>, Arc<CondensedSlot>) {
        let hierarchy = split_hierarchy(func, cfg);
        let inner = self.prepare_inner(func, cfg, &hierarchy);
        (inner, Arc::new(self.condensed_slot(func, cfg, &hierarchy)))
    }

    /// An empty skeleton slot for the design `cfg` splits as `hierarchy`.
    fn condensed_slot(
        &self,
        func: &Function,
        cfg: &PragmaConfig,
        hierarchy: &Hierarchy,
    ) -> CondensedSlot {
        let roots: Vec<LoopId> = hierarchy.inner.iter().map(|r| r.id.clone()).collect();
        let parts: Vec<_> = (0..func.arrays.len())
            .map(|a| array_partitions(func, cfg, a))
            .collect();
        let spec = CondensedSpec::new(func, self.opts.graph_max_nodes, &roots, &parts, |i| {
            cfg.loop_pragma(&func.loops()[i].id).unroll
        });
        CondensedSlot::new(Arc::new(spec))
    }

    /// Every inner region's subgraph construction + feature annotation +
    /// analytic loop constants, all weight-independent.
    fn prepare_inner(
        &self,
        func: &Function,
        cfg: &PragmaConfig,
        hierarchy: &Hierarchy,
    ) -> Vec<Arc<PreparedInner>> {
        hierarchy
            .inner
            .iter()
            .map(|inner| {
                Arc::new(prepare_one_inner(
                    func,
                    cfg,
                    &inner.id,
                    inner.pipelined,
                    self.opts.graph_options(),
                ))
            })
            .collect()
    }

    /// Inner-model forward passes over prepared subgraphs, producing the
    /// super-node features in region order and the number of regions
    /// whose slot answered.
    ///
    /// With a `token`, a region whose slot holds that token's outputs skips
    /// its forward pass, and any other region's outputs are stored under
    /// it. The slot stays locked while it is filled, so threads asking for
    /// the same region run its forward once.
    fn supers_of(
        &self,
        inner: &[Arc<PreparedInner>],
        token: Option<u64>,
    ) -> (Vec<SuperFeatures>, usize) {
        let mut out = Vec::with_capacity(inner.len());
        let mut hits = 0;
        for pi in inner {
            let y = match token {
                None => self.inner_outputs(pi),
                Some(token) => {
                    let mut slot = pi.outputs.0.lock().expect("an inner forward panicked");
                    match *slot {
                        Some((owner, y)) if owner == token => {
                            hits += 1;
                            y
                        }
                        _ => {
                            let y = self.inner_outputs(pi);
                            *slot = Some((token, y));
                            y
                        }
                    }
                }
            };
            out.push(SuperFeatures {
                latency: expm1(y[1]),
                il: expm1(y[0]),
                ii: pi.ii,
                tc: pi.tc.div_ceil(pi.unroll.max(1)) as f64,
                lut: expm1(y[2]),
                ff: expm1(y[3]),
                dsp: expm1(y[4]),
            });
        }
        (out, hits)
    }

    /// One inner region's forward pass through `GNN_p` or `GNN_np`,
    /// de-normalised: `[il, latency, lut, ff, dsp]` in log space.
    fn inner_outputs(&self, pi: &PreparedInner) -> [f32; 5] {
        let (store, model, norm) = self.inner_model_for(pi.pipelined);
        let out = model.outputs(store, &Batch::from_graphs(&[&pi.data], true));
        let mut y: [f32; 5] = out.row(0).try_into().expect("five inner outputs");
        norm.inverse(&mut y);
        y
    }

    /// The weight-dependent back half: inner forwards (through the slots
    /// under `token`, see [`HierarchicalModel::supers_of`]), the condensed
    /// graph's super-node rows and the global model.
    fn forward_design(
        &self,
        func: &Function,
        inner: &[Arc<PreparedInner>],
        condensed: &CondensedSlot,
        token: Option<u64>,
    ) -> DesignForward {
        let (supers, inner_hits) = self.supers_of(inner, token);
        let (skeleton, built_skeleton) = condensed.skeleton(func);
        let mut y = self.quotient_outputs(skeleton, &supers);
        self.norm_g.inverse(&mut y);
        let qor = Qor {
            latency: expm1(y[0]).round() as u64,
            lut: expm1(y[1]).round() as u64,
            ff: expm1(y[2]).round() as u64,
            dsp: expm1(y[3]).round() as u64,
        };
        DesignForward {
            qor,
            inner_hits,
            built_skeleton,
        }
    }

    /// `GNN_g`'s raw outputs (normalised, log space: `[latency, lut, ff,
    /// dsp]`) over the quotient of `skeleton` whose region `r` carries
    /// `supers[r]`: one row per class of nodes whose activations are
    /// equal (see `gnn::Batch::quotient`). Every inference forward of
    /// `GNN_g` runs here; training reads the full condensed graph.
    fn quotient_outputs(&self, skeleton: &Skeleton, supers: &[SuperFeatures]) -> [f32; 4] {
        let (data, classes) = skeleton.materialize_quotient(supers);
        obs::metrics::counter_add("gnn_g/nodes", classes.len() as u64);
        obs::metrics::counter_add("gnn_g/rows", data.num_nodes() as u64);
        let batch = Batch::quotient(data, classes);
        let out = self.model_g.outputs(&self.store_g, &batch);
        out.row(0).try_into().expect("four global outputs")
    }

    /// `GNN_g`'s raw outputs (normalised, log space: `[latency, lut, ff,
    /// dsp]`) for the design `cfg` whose inner regions carry `supers`, as
    /// every prediction computes them: over the quotient of the design's
    /// condensed graph.
    ///
    /// `f32::to_bits`-equal to [`HierarchicalModel::global_outputs_of`]
    /// the same design's [`HierarchicalModel::condensed_graph`], the
    /// full-graph forward training runs.
    ///
    /// # Panics
    ///
    /// Panics if `supers` lacks one of the design's inner regions.
    pub fn global_outputs(
        &self,
        func: &Function,
        cfg: &PragmaConfig,
        supers: &BTreeMap<LoopId, SuperFeatures>,
    ) -> [f32; 4] {
        let (slot, rows) = self.condensed_with(func, cfg, supers);
        self.quotient_outputs(slot.skeleton(func).0, &rows)
    }

    /// `GNN_g`'s raw outputs (normalised, log space: `[latency, lut, ff,
    /// dsp]`) over a whole condensed graph, every node a row, with its
    /// edges mirrored: the forward training runs.
    pub fn global_outputs_of(&self, graph: GraphData) -> [f32; 4] {
        let out = self
            .model_g
            .outputs(&self.store_g, &Batch::from_graph(graph, true));
        out.row(0).try_into().expect("four global outputs")
    }

    /// The training options this model was built with.
    pub fn options(&self) -> &TrainOptions {
        &self.opts
    }

    /// The three parameter banks as `(name, store)`, in [`BANKS`] order.
    ///
    /// Checkpoint serializers iterate this; the names are part of the
    /// on-disk format and must stay stable.
    pub fn banks(&self) -> [(&'static str, &ParamStore); 3] {
        [
            (BANKS[0], &self.store_p),
            (BANKS[1], &self.store_np),
            (BANKS[2], &self.store_g),
        ]
    }

    /// Mutable bank access, in [`BANKS`] order (checkpoint restore).
    pub fn banks_mut(&mut self) -> [(&'static str, &mut ParamStore); 3] {
        [
            (BANKS[0], &mut self.store_p),
            (BANKS[1], &mut self.store_np),
            (BANKS[2], &mut self.store_g),
        ]
    }

    /// The target normalizer attached to a bank of [`BANKS`].
    pub fn normalizer(&self, bank: &str) -> Option<&Normalizer> {
        match bank {
            b if b == BANKS[0] => Some(&self.norm_p),
            b if b == BANKS[1] => Some(&self.norm_np),
            b if b == BANKS[2] => Some(&self.norm_g),
            _ => None,
        }
    }

    /// Replaces the target normalizer of a bank (checkpoint restore).
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] for an unknown bank name and
    /// [`QorError::Shape`] when the normalizer dimension does not match the
    /// bank's target width (5 for the inner models, 4 for `GNN_g`).
    pub fn set_normalizer(&mut self, bank: &str, norm: Normalizer) -> Result<(), QorError> {
        let slot = match bank {
            b if b == BANKS[0] => &mut self.norm_p,
            b if b == BANKS[1] => &mut self.norm_np,
            b if b == BANKS[2] => &mut self.norm_g,
            _ => return Err(QorError::Corrupt(format!("unknown bank {bank:?}"))),
        };
        if norm.dim() != slot.dim() {
            return Err(QorError::Shape(format!(
                "normalizer for bank {bank:?} has dim {}, expected {}",
                norm.dim(),
                slot.dim()
            )));
        }
        *slot = norm;
        Ok(())
    }

    /// Selects the inner model for a loop: `GNN_p`, `GNN_np`, or the shared
    /// model when the `shared_inner` ablation is active.
    fn inner_model_for(&self, pipelined: bool) -> (&ParamStore, &InnerModel, &Normalizer) {
        if pipelined || self.opts.shared_inner {
            (&self.store_p, &self.model_p, &self.norm_p)
        } else {
            (&self.store_np, &self.model_np, &self.norm_np)
        }
    }

    // -------------------------------------------------------- internals

    fn inner_samples(
        &self,
        designs: &LabeledDesigns,
        subset: &[DesignSample],
        seen: &mut HashSet<u64>,
    ) -> Result<(Vec<Sample>, Vec<Sample>), QorError> {
        let mut p = Vec::new();
        let mut np = Vec::new();
        for sample in subset {
            let func = designs.function_of(sample)?;
            let hierarchy = split_hierarchy(func, &sample.config);
            for inner in &hierarchy.inner {
                let Some(lq) = sample.report.loops.get(&inner.id) else {
                    continue;
                };
                let key = region_key(func, &sample.config, &inner.id, &sample.kernel);
                if !seen.insert(key) {
                    continue;
                }
                let prepared = prepare_one_inner(
                    func,
                    &sample.config,
                    &inner.id,
                    inner.pipelined,
                    self.opts.graph_options(),
                );
                let s = (
                    prepared.data,
                    vec![
                        log1p(lq.il as f64),
                        log1p(lq.qor.latency as f64),
                        log1p(lq.qor.lut as f64),
                        log1p(lq.qor.ff as f64),
                        log1p(lq.qor.dsp as f64),
                    ],
                );
                if inner.pipelined {
                    p.push(s);
                } else {
                    np.push(s);
                }
            }
        }
        Ok((p, np))
    }

    fn global_samples(
        &self,
        designs: &LabeledDesigns,
        subset: &[DesignSample],
    ) -> Result<Vec<Sample>, QorError> {
        // inner inference per design is pure given the frozen inner models,
        // so the condensation sweep fans out
        par::try_map("core/global_samples", subset, |_, sample| {
            let func = designs.function_of(sample)?;
            let (inner, condensed) = self.prepare_parts(func, &sample.config);
            let (supers, _) = self.supers_of(&inner, None);
            let (graph, _) = condensed.graph(func, &supers);
            Ok((
                graph,
                vec![
                    log1p(sample.report.top.latency as f64),
                    log1p(sample.report.top.lut as f64),
                    log1p(sample.report.top.ff as f64),
                    log1p(sample.report.top.dsp as f64),
                ],
            ))
        })
    }
}

/// Dedup key for an inner region: kernel + loop + the pragma entries that
/// can influence the region (its subtree and touched arrays).
fn region_key(func: &Function, cfg: &PragmaConfig, id: &LoopId, kernel: &str) -> u64 {
    let mut restricted = PragmaConfig::new();
    for (lid, p) in cfg.loops() {
        if id.contains(lid) {
            restricted.set_pipeline(lid.clone(), p.pipeline);
            restricted.set_unroll(lid.clone(), p.unroll);
            restricted.set_flatten(lid.clone(), p.flatten);
        }
    }
    for use_ in hir::array_uses(func, id, true) {
        if let Some(info) = func.array(&use_.array) {
            for d in 1..=info.dims.len() as u32 {
                restricted.set_partition(use_.array.clone(), d, cfg.partition(&use_.array, d));
            }
        }
    }
    let mut h = restricted.fingerprint();
    for b in kernel.bytes() {
        h = h.rotate_left(7) ^ u64::from(b);
    }
    for seg in id.path() {
        h = h.rotate_left(11) ^ u64::from(*seg);
    }
    h
}

/// Test-set MAPE of each target column, de-normalised and back in linear
/// space, in target-column order.
fn eval<M: Regressor, const N: usize>(
    tag: &str,
    store: &ParamStore,
    model: &M,
    norm: &Normalizer,
    test: &[Sample],
) -> [f32; N] {
    let sp = obs::span("eval");
    sp.attr("model", tag);
    sp.attr("samples", test.len());
    let mut pred = vec![Vec::new(); N];
    let mut truth = vec![Vec::new(); N];
    for chunk in test.chunks(64) {
        let graphs: Vec<&GraphData> = chunk.iter().map(|(g, _)| g).collect();
        let out = model.outputs(store, &Batch::from_graphs(&graphs, true));
        for (r, (_, y)) in chunk.iter().enumerate() {
            let mut row = out.row(r).to_vec();
            norm.inverse(&mut row);
            for (m, (&p, &t)) in row.iter().zip(y).enumerate() {
                pred[m].push(expm1(p) as f32);
                truth[m].push(expm1(t) as f32);
            }
        }
    }
    std::array::from_fn(|m| mape(&pred[m], &truth[m]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> TrainOptions {
        TrainOptions {
            inner_epochs: 8,
            global_epochs: 8,
            hidden: 12,
            data: DataOptions {
                max_designs_per_kernel: 8,
                seed: 5,
            },
            ..TrainOptions::quick()
        }
    }

    #[test]
    fn untrained_model_predicts_something_finite() {
        let model = HierarchicalModel::new(&tiny_opts());
        let func = kernels::lower_kernel("gemm").unwrap();
        let qor = model.predict(&func, &PragmaConfig::default());
        // untrained output is arbitrary but must be well-formed
        let _ = qor.as_array();
    }

    #[test]
    fn a_bank_without_training_samples_is_a_typed_error() {
        // one gemm design trains: its inner loops are all pipelined, so
        // GNN_np gets no sample
        let gemm: Vec<_> = kernels::all().iter().filter(|k| k.name == "gemm").collect();
        let data = DataOptions {
            max_designs_per_kernel: 2,
            seed: 17,
        };
        let designs = dataset::generate_for(&gemm, &data).unwrap();
        assert_eq!(designs.train.len(), 1);
        let err = HierarchicalModel::train_with_designs(&tiny_opts(), &designs).unwrap_err();
        assert!(
            matches!(&err, QorError::Shape(m) if m.contains("\"gnn_np\"")),
            "{err}"
        );
        // shared inner models pool both kinds of region, so only GNN_g can
        // come up empty
        let shared = tiny_opts().with_shared_inner(true);
        assert!(HierarchicalModel::train_with_designs(&shared, &designs).is_ok());
        let no_train = LabeledDesigns {
            train: Vec::new(),
            ..designs
        };
        let err = HierarchicalModel::train_with_designs(&shared, &no_train).unwrap_err();
        assert!(matches!(&err, QorError::Shape(_)), "{err}");
    }

    #[test]
    fn training_pipeline_runs_end_to_end() {
        let opts = tiny_opts();
        let k: Vec<_> = kernels::training_kernels().take(3).collect();
        let designs = dataset::generate_for(&k, &opts.data).unwrap();
        let (model, stats) = HierarchicalModel::train_with_designs(&opts, &designs).unwrap();
        assert!(stats.dataset_sizes.2 > 0);
        assert!(stats.global.n > 0);
        assert!(stats.global.latency_mape.is_finite());

        // prediction after training works for an unseen config
        let func = kernels::lower_kernel("gemm").unwrap();
        let mut cfg = PragmaConfig::default();
        cfg.set_pipeline(LoopId::from_path(&[0, 0, 0]), true);
        let qor = model.predict(&func, &cfg);
        assert!(qor.latency > 0);
    }

    #[test]
    fn supers_cover_every_inner_loop() {
        let model = HierarchicalModel::new(&tiny_opts());
        let func = kernels::lower_kernel("mvt").unwrap();
        let cfg = PragmaConfig::default();
        let supers = model.predict_supers(&func, &cfg);
        let hierarchy = split_hierarchy(&func, &cfg);
        assert_eq!(supers.len(), hierarchy.inner.len());
        for inner in &hierarchy.inner {
            assert!(supers.contains_key(&inner.id));
        }
    }

    #[test]
    fn prepared_prediction_is_bit_identical_to_direct() {
        let model = HierarchicalModel::new(&tiny_opts());
        let func = Arc::new(kernels::lower_kernel("mvt").unwrap());
        let mut cfg = PragmaConfig::default();
        cfg.set_pipeline(LoopId::from_path(&[0, 0]), true);
        let direct = model.predict(&func, &cfg);
        let prepared = model.prepare(func.clone(), cfg.clone());
        assert!(prepared.num_inner() > 0);
        assert!(prepared.num_nodes() > 0);
        assert_eq!(model.predict_prepared(&prepared), direct);
        // replay is stable
        assert_eq!(model.predict_prepared(&prepared), direct);
    }

    #[test]
    fn banks_and_normalizers_are_addressable() {
        let mut model = HierarchicalModel::new(&tiny_opts());
        let names: Vec<&str> = model.banks().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, BANKS.to_vec());
        for (_, store) in model.banks() {
            assert!(!store.is_empty());
        }
        assert_eq!(model.normalizer("gnn_p").unwrap().dim(), 5);
        assert_eq!(model.normalizer("gnn_g").unwrap().dim(), 4);
        assert!(model.normalizer("nope").is_none());

        let norm = Normalizer::identity(4);
        model.set_normalizer("gnn_g", norm.clone()).unwrap();
        assert!(matches!(
            model.set_normalizer("gnn_p", norm.clone()),
            Err(QorError::Shape(_))
        ));
        assert!(matches!(
            model.set_normalizer("bogus", norm),
            Err(QorError::Corrupt(_))
        ));
    }

    #[test]
    fn region_key_ignores_unrelated_pragmas() {
        let func = kernels::lower_kernel("mvt").unwrap();
        let first_inner = LoopId::from_path(&[0, 0]);
        let cfg1 = PragmaConfig::default();
        let mut cfg2 = PragmaConfig::default();
        // pragma on the *second* nest must not change the first nest's key
        cfg2.set_pipeline(LoopId::from_path(&[1, 0]), true);
        assert_eq!(
            region_key(&func, &cfg1, &first_inner, "mvt"),
            region_key(&func, &cfg2, &first_inner, "mvt"),
        );
        // but a pragma on the first nest does
        let mut cfg3 = PragmaConfig::default();
        cfg3.set_pipeline(first_inner.clone(), true);
        assert_ne!(
            region_key(&func, &cfg1, &first_inner, "mvt"),
            region_key(&func, &cfg3, &first_inner, "mvt"),
        );
    }
}
