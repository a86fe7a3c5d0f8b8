//! The hierarchical model: `GNN_p`, `GNN_np`, `GNN_g` (paper §III-C/D).

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use cdfg::{GraphBuilder, GraphOptions, SuperFeatures};
use gnn::{mape, Batch, ConvKind, Encoder, EncoderConfig, GraphData, Mlp, Normalizer};
use hir::Function;
use hlsim::Qor;
use pragma::{LoopId, PragmaConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use tensor::{AdamConfig, GradSet, Matrix, ParamStore, Tape, Var};

use crate::condensed::{array_partitions, CondensedSlot, CondensedSpec};
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

    /// Sets the mini-batch size (graphs).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
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

    /// Sets the progress print period in epochs (0 = silent).
    #[must_use]
    pub fn with_log_every(mut self, log_every: usize) -> Self {
        self.log_every = log_every;
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

    /// Returns `(il, latency, resources)` prediction vars (log space).
    fn forward(&self, store: &ParamStore, t: &mut Tape, batch: &Batch) -> (Var, Var, Var) {
        let pooled = self.encoder.forward_pooled(store, t, batch);
        let gf = t.leaf(batch.g_feats.clone());
        let pooled_gf = t.concat_cols(&[pooled, gf]);
        let il = self.head_il.forward(store, t, pooled_gf);
        let lat_in = t.concat_cols(&[il, gf]);
        let lat = self.head_lat.forward(store, t, lat_in);
        let res = self.head_res.forward(store, t, pooled_gf);
        (il, lat, res)
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

    fn forward(&self, store: &ParamStore, t: &mut Tape, batch: &Batch) -> (Var, Var) {
        let pooled = self.encoder.forward_pooled(store, t, batch);
        let gf = t.leaf(batch.g_feats.clone());
        let pooled_gf = t.concat_cols(&[pooled, gf]);
        (
            self.head_lat.forward(store, t, pooled_gf),
            self.head_res.forward(store, t, pooled_gf),
        )
    }
}

// --------------------------------------------------------------- samples

/// Inner-hierarchy training sample: subgraph + loop features + log targets
/// `[il, latency, lut, ff, dsp]`.
#[derive(Debug, Clone)]
struct InnerSample {
    graph: GraphData,
    y: [f32; 5],
}

#[derive(Debug, Clone)]
struct GlobalSample {
    graph: GraphData,
    /// `[latency, lut, ff, dsp]` in log space.
    y: [f32; 4],
}

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
    /// Returns [`QorError::UnknownKernel`] if a design references a kernel
    /// the dataset never registered.
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
    /// the dataset never registered.
    pub fn fit(&mut self, designs: &LabeledDesigns) -> Result<TrainStats, QorError> {
        let fit_sp = obs::span("fit");
        fit_sp.attr("designs", designs.len());
        let opts = self.opts;
        // 1. inner datasets, deduplicated across designs AND across splits
        // (an inner region already seen in training must not re-appear in
        // the test set)
        let mut seen = HashSet::new();
        let (p_train, np_train) = self.inner_samples(designs, &designs.train, &mut seen)?;
        let (p_val, np_val) = self.inner_samples(designs, &designs.val, &mut seen)?;
        let (p_test, np_test) = self.inner_samples(designs, &designs.test, &mut seen)?;

        // 2. fit target normalizers, train GNN_p and GNN_np, then freeze
        self.norm_p = Normalizer::fit(&p_train.iter().map(|s| s.y.to_vec()).collect::<Vec<_>>());
        self.norm_np = Normalizer::fit(&np_train.iter().map(|s| s.y.to_vec()).collect::<Vec<_>>());
        let mut rng = tensor::init::seeded_rng(opts.seed ^ 0xabcd);
        if opts.shared_inner {
            // ablation: one model for all inner loops (both dispatch paths
            // share the same trained weights)
            let combined: Vec<InnerSample> =
                p_train.iter().chain(np_train.iter()).cloned().collect();
            self.norm_p =
                Normalizer::fit(&combined.iter().map(|s| s.y.to_vec()).collect::<Vec<_>>());
            self.norm_np = self.norm_p.clone();
            train_inner(
                &mut self.store_p,
                &self.model_p,
                &combined,
                &self.norm_p,
                &opts,
                &mut rng,
                "GNN_shared",
            );
            // np inference routes through the shared model (see
            // `inner_model_for`); nothing to copy
        } else {
            train_inner(
                &mut self.store_p,
                &self.model_p,
                &p_train,
                &self.norm_p,
                &opts,
                &mut rng,
                "GNN_p",
            );
            train_inner(
                &mut self.store_np,
                &self.model_np,
                &np_train,
                &self.norm_np,
                &opts,
                &mut rng,
                "GNN_np",
            );
        }
        let _ = (&p_val, &np_val); // early stopping is handled by epochs here

        // 3. global dataset from frozen inner predictions
        let g_train = self.global_samples(designs, &designs.train)?;
        let g_test = self.global_samples(designs, &designs.test)?;
        self.norm_g = Normalizer::fit(&g_train.iter().map(|s| s.y.to_vec()).collect::<Vec<_>>());
        train_global(
            &mut self.store_g,
            &self.model_g,
            &g_train,
            &self.norm_g,
            &opts,
            &mut rng,
        );

        let (np_store, np_model, np_norm) = self.inner_model_for(false);
        Ok(TrainStats {
            pipelined: self.eval_inner(&self.store_p, &self.model_p, &self.norm_p, &p_test),
            non_pipelined: self.eval_inner(np_store, np_model, np_norm, &np_test),
            global: self.eval_global(&g_test),
            dataset_sizes: (
                p_train.len() + p_test.len() + p_val.len(),
                np_train.len() + np_test.len() + np_val.len(),
                designs.len(),
            ),
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
    /// and the condensed whole-design graph's skeleton.
    ///
    /// The result depends only on the function, the pragma configuration
    /// and the model's `graph_max_nodes` option — never on the weights —
    /// so it can be cached across queries and replayed with
    /// [`HierarchicalModel::predict_prepared`] for a bit-identical result.
    pub fn prepare(&self, func: Arc<Function>, cfg: PragmaConfig) -> PreparedDesign {
        let (inner, condensed) = self.prepare_parts(&func, &cfg);
        condensed.skeleton(&func);
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
        let hierarchy = split_hierarchy(func, cfg);
        let rows: Vec<SuperFeatures> = hierarchy.inner.iter().map(|r| supers[&r.id]).collect();
        let slot = self.condensed_slot(func, cfg, &hierarchy);
        slot.graph(func, &rows).0
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
        let batch = Batch::from_graphs(&[&pi.data], true);
        let mut t = Tape::new();
        let (il, lat, res) = model.forward(store, &mut t, &batch);
        let resm = t.value(res).clone();
        let mut y = [
            t.value(il)[(0, 0)],
            t.value(lat)[(0, 0)],
            resm[(0, 0)],
            resm[(0, 1)],
            resm[(0, 2)],
        ];
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
        let (data, built_skeleton) = condensed.graph(func, &supers);
        let batch = Batch::from_graph(data, true);
        let mut t = Tape::new();
        let (lat, res) = self.model_g.forward(&self.store_g, &mut t, &batch);
        let resm = t.value(res).clone();
        let mut y = [
            t.value(lat)[(0, 0)],
            resm[(0, 0)],
            resm[(0, 1)],
            resm[(0, 2)],
        ];
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

    /// Saves the three parameter stores and target normalizers to a
    /// directory (created if needed).
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn save(&self, dir: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for (name, store) in [
            ("gnn_p.params", &self.store_p),
            ("gnn_np.params", &self.store_np),
            ("gnn_g.params", &self.store_g),
        ] {
            let mut f = std::fs::File::create(dir.join(name))?;
            store.save(&mut f)?;
        }
        let mut norms = String::new();
        for (tag, norm) in [
            ("p", &self.norm_p),
            ("np", &self.norm_np),
            ("g", &self.norm_g),
        ] {
            norms.push_str(tag);
            for v in norm.mean().iter().chain(norm.std()) {
                norms.push_str(&format!(" {v}"));
            }
            norms.push('\n');
        }
        std::fs::write(dir.join("normalizers.txt"), norms)
    }

    /// Restores parameters and normalizers saved by
    /// [`HierarchicalModel::save`] into a model built with the **same**
    /// [`TrainOptions`] architecture.
    ///
    /// # Errors
    ///
    /// Returns filesystem or format errors (including architecture
    /// mismatches).
    pub fn load(&mut self, dir: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::BufReader;
        let dir = dir.as_ref();
        for (name, store) in [
            ("gnn_p.params", &mut self.store_p),
            ("gnn_np.params", &mut self.store_np),
            ("gnn_g.params", &mut self.store_g),
        ] {
            let f = std::fs::File::open(dir.join(name))?;
            store.load(BufReader::new(f))?;
        }
        let text = std::fs::read_to_string(dir.join("normalizers.txt"))?;
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad normalizer file");
        for line in text.lines() {
            let mut it = line.split_whitespace();
            let tag = it.next().ok_or_else(bad)?;
            let vals: Vec<f32> = it.filter_map(|v| v.parse().ok()).collect();
            if !vals.len().is_multiple_of(2) || vals.is_empty() {
                return Err(bad());
            }
            let width = vals.len() / 2;
            let norm = Normalizer::from_stats(vals[..width].to_vec(), vals[width..].to_vec());
            match tag {
                "p" => self.norm_p = norm,
                "np" => self.norm_np = norm,
                "g" => self.norm_g = norm,
                _ => return Err(bad()),
            }
        }
        Ok(())
    }

    // -------------------------------------------------------- internals

    fn inner_samples(
        &self,
        designs: &LabeledDesigns,
        subset: &[DesignSample],
        seen: &mut HashSet<u64>,
    ) -> Result<(Vec<InnerSample>, Vec<InnerSample>), QorError> {
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
                let s = InnerSample {
                    graph: prepared.data,
                    y: [
                        log1p(lq.il as f64),
                        log1p(lq.qor.latency as f64),
                        log1p(lq.qor.lut as f64),
                        log1p(lq.qor.ff as f64),
                        log1p(lq.qor.dsp as f64),
                    ],
                };
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
    ) -> Result<Vec<GlobalSample>, QorError> {
        // inner inference per design is pure given the frozen inner models,
        // so the condensation sweep fans out
        par::try_map("core/global_samples", subset, |_, sample| {
            let func = designs.function_of(sample)?;
            let (inner, condensed) = self.prepare_parts(func, &sample.config);
            let (supers, _) = self.supers_of(&inner, None);
            let (graph, _) = condensed.graph(func, &supers);
            Ok(GlobalSample {
                graph,
                y: [
                    log1p(sample.report.top.latency as f64),
                    log1p(sample.report.top.lut as f64),
                    log1p(sample.report.top.ff as f64),
                    log1p(sample.report.top.dsp as f64),
                ],
            })
        })
    }

    fn eval_inner(
        &self,
        store: &ParamStore,
        model: &InnerModel,
        norm: &Normalizer,
        test: &[InnerSample],
    ) -> InnerEval {
        if test.is_empty() {
            return InnerEval::default();
        }
        let sp = obs::span("eval_inner");
        sp.attr("samples", test.len());
        let mut pred = vec![Vec::new(); 5];
        let mut truth = vec![Vec::new(); 5];
        for chunk in test.chunks(64) {
            let graphs: Vec<&GraphData> = chunk.iter().map(|s| &s.graph).collect();
            let batch = Batch::from_graphs(&graphs, true);
            let mut t = Tape::new();
            let (il, lat, res) = model.forward(store, &mut t, &batch);
            let ilm = t.value(il).clone();
            let latm = t.value(lat).clone();
            let resm = t.value(res).clone();
            for (r, s) in chunk.iter().enumerate() {
                let mut outs = [
                    ilm[(r, 0)],
                    latm[(r, 0)],
                    resm[(r, 0)],
                    resm[(r, 1)],
                    resm[(r, 2)],
                ];
                norm.inverse(&mut outs);
                for m in 0..5 {
                    pred[m].push(expm1(outs[m]) as f32);
                    truth[m].push(expm1(s.y[m]) as f32);
                }
            }
        }
        InnerEval {
            il_mape: mape(&pred[0], &truth[0]),
            latency_mape: mape(&pred[1], &truth[1]),
            lut_mape: mape(&pred[2], &truth[2]),
            ff_mape: mape(&pred[3], &truth[3]),
            dsp_mape: mape(&pred[4], &truth[4]),
            n: test.len(),
        }
    }

    fn eval_global(&self, test: &[GlobalSample]) -> GlobalEval {
        if test.is_empty() {
            return GlobalEval::default();
        }
        let sp = obs::span("eval_global");
        sp.attr("samples", test.len());
        let mut pred = vec![Vec::new(); 4];
        let mut truth = vec![Vec::new(); 4];
        for chunk in test.chunks(64) {
            let graphs: Vec<&GraphData> = chunk.iter().map(|s| &s.graph).collect();
            let batch = Batch::from_graphs(&graphs, true);
            let mut t = Tape::new();
            let (lat, res) = self.model_g.forward(&self.store_g, &mut t, &batch);
            let latm = t.value(lat).clone();
            let resm = t.value(res).clone();
            for (r, s) in chunk.iter().enumerate() {
                let mut outs = [latm[(r, 0)], resm[(r, 0)], resm[(r, 1)], resm[(r, 2)]];
                self.norm_g.inverse(&mut outs);
                for m in 0..4 {
                    pred[m].push(expm1(outs[m]) as f32);
                    truth[m].push(expm1(s.y[m]) as f32);
                }
            }
        }
        GlobalEval {
            latency_mape: mape(&pred[0], &truth[0]),
            lut_mape: mape(&pred[1], &truth[1]),
            ff_mape: mape(&pred[2], &truth[2]),
            dsp_mape: mape(&pred[3], &truth[3]),
            n: test.len(),
        }
    }
}

/// Step learning-rate schedule: full rate for the first 60% of epochs,
/// then 0.3x, then 0.1x for the final 15%.
fn lr_decay(epoch: usize, total: usize) -> f32 {
    let frac = (epoch as f32 + 0.5) / total.max(1) as f32;
    if frac < 0.6 {
        1.0
    } else if frac < 0.85 {
        0.3
    } else {
        0.1
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

fn train_inner(
    store: &mut ParamStore,
    model: &InnerModel,
    train: &[InnerSample],
    norm: &Normalizer,
    opts: &TrainOptions,
    rng: &mut StdRng,
    tag: &str,
) {
    if train.is_empty() {
        return;
    }
    let sp = obs::span("train_inner");
    sp.attr("model", tag);
    sp.attr("samples", train.len());
    sp.attr("epochs", opts.inner_epochs);
    let mut order: Vec<usize> = (0..train.len()).collect();
    for epoch in 0..opts.inner_epochs {
        let adam = AdamConfig {
            clip: 2.0,
            ..AdamConfig::with_lr(opts.lr * lr_decay(epoch, opts.inner_epochs))
        };
        order.shuffle(rng);
        let mut total = 0.0;
        let mut batches = 0;
        let mut ape_sum = 0.0f64;
        let mut ape_n = 0usize;
        for chunk in order.chunks(opts.batch_size.max(1)) {
            // fixed micro-batch geometry: the same chunks are formed for any
            // worker count, and losses/gradients are merged in chunk order,
            // so the update is bit-identical to the sequential path
            let micros: Vec<&[usize]> = chunk.chunks(gnn::MICRO_BATCH).collect();
            let weight = chunk.len() as f32;
            let shared: &ParamStore = store;
            let parts = par::map("core/train_inner", &micros, |_, ids| {
                let graphs: Vec<&GraphData> = ids.iter().map(|&i| &train[i].graph).collect();
                let batch = Batch::from_graphs(&graphs, true);
                let mut y_il = Matrix::zeros(ids.len(), 1);
                let mut y_lat = Matrix::zeros(ids.len(), 1);
                let mut y_res = Matrix::zeros(ids.len(), 3);
                for (r, &i) in ids.iter().enumerate() {
                    let mut y = train[i].y;
                    norm.transform(&mut y);
                    y_il[(r, 0)] = y[0];
                    y_lat[(r, 0)] = y[1];
                    y_res[(r, 0)] = y[2];
                    y_res[(r, 1)] = y[3];
                    y_res[(r, 2)] = y[4];
                }
                let mut t = Tape::new();
                let (il, lat, res) = model.forward(shared, &mut t, &batch);
                let t_il = t.leaf(y_il);
                let t_lat = t.leaf(y_lat);
                let t_res = t.leaf(y_res);
                let l1 = t.mse(il, t_il);
                let l2 = t.mse(lat, t_lat);
                let l3 = t.mse(res, t_res);
                let l12 = t.add(l1, l2);
                let l123 = t.add(l12, l3);
                let loss = t.scale(l123, ids.len() as f32 / weight);
                let mut micro_ape = (0.0f64, 0usize);
                if obs::collecting() {
                    // per-epoch latency MAPE in normalized (log) space, from
                    // the predictions already on the tape — free when obs is
                    // off
                    let latm = t.value(lat);
                    let latt = t.value(t_lat);
                    for r in 0..ids.len() {
                        let truth = f64::from(latt[(r, 0)]);
                        micro_ape.0 +=
                            f64::from((latm[(r, 0)] - latt[(r, 0)]).abs()) / truth.abs().max(1e-6);
                        micro_ape.1 += 1;
                    }
                }
                t.backward(loss);
                (t.value(loss).item(), micro_ape, shared.grads_of(&t))
            });
            let mut grads: Option<GradSet> = None;
            for (l, (a_sum, a_n), g) in parts {
                total += l;
                ape_sum += a_sum;
                ape_n += a_n;
                match &mut grads {
                    Some(acc) => acc.accumulate(&g),
                    slot @ None => *slot = Some(g),
                }
            }
            batches += 1;
            if let Some(g) = grads {
                store.adam_step_with(g, &adam);
            }
        }
        let epoch_loss = total / batches.max(1) as f32;
        obs::metrics::series_push(
            &format!("train/{tag}/loss"),
            epoch as u64,
            f64::from(epoch_loss),
        );
        if ape_n > 0 {
            obs::metrics::series_push(
                &format!("train/{tag}/latency_mape"),
                epoch as u64,
                100.0 * ape_sum / ape_n as f64,
            );
        }
        if opts.log_every > 0 && epoch % opts.log_every == 0 {
            obs::tracef!(1, "{tag} epoch {epoch}: loss {epoch_loss:.4}");
        }
    }
}

fn train_global(
    store: &mut ParamStore,
    model: &GlobalModel,
    train: &[GlobalSample],
    norm: &Normalizer,
    opts: &TrainOptions,
    rng: &mut StdRng,
) {
    if train.is_empty() {
        return;
    }
    let sp = obs::span("train_global");
    sp.attr("model", "GNN_g");
    sp.attr("samples", train.len());
    sp.attr("epochs", opts.global_epochs);
    let mut order: Vec<usize> = (0..train.len()).collect();
    for epoch in 0..opts.global_epochs {
        let adam = AdamConfig {
            clip: 2.0,
            ..AdamConfig::with_lr(opts.lr * lr_decay(epoch, opts.global_epochs))
        };
        order.shuffle(rng);
        let mut total = 0.0;
        let mut batches = 0;
        let mut ape_sum = 0.0f64;
        let mut ape_n = 0usize;
        for chunk in order.chunks(opts.batch_size.max(1)) {
            // same fixed-geometry micro-batching as `train_inner`
            let micros: Vec<&[usize]> = chunk.chunks(gnn::MICRO_BATCH).collect();
            let weight = chunk.len() as f32;
            let shared: &ParamStore = store;
            let parts = par::map("core/train_global", &micros, |_, ids| {
                let graphs: Vec<&GraphData> = ids.iter().map(|&i| &train[i].graph).collect();
                let batch = Batch::from_graphs(&graphs, true);
                let mut y_lat = Matrix::zeros(ids.len(), 1);
                let mut y_res = Matrix::zeros(ids.len(), 3);
                for (r, &i) in ids.iter().enumerate() {
                    let mut y = train[i].y;
                    norm.transform(&mut y);
                    y_lat[(r, 0)] = y[0];
                    y_res[(r, 0)] = y[1];
                    y_res[(r, 1)] = y[2];
                    y_res[(r, 2)] = y[3];
                }
                let mut t = Tape::new();
                let (lat, res) = model.forward(shared, &mut t, &batch);
                let t_lat = t.leaf(y_lat);
                let t_res = t.leaf(y_res);
                let l1 = t.mse(lat, t_lat);
                let l2 = t.mse(res, t_res);
                let l12 = t.add(l1, l2);
                let loss = t.scale(l12, ids.len() as f32 / weight);
                let mut micro_ape = (0.0f64, 0usize);
                if obs::collecting() {
                    let latm = t.value(lat);
                    let latt = t.value(t_lat);
                    for r in 0..ids.len() {
                        let truth = f64::from(latt[(r, 0)]);
                        micro_ape.0 +=
                            f64::from((latm[(r, 0)] - latt[(r, 0)]).abs()) / truth.abs().max(1e-6);
                        micro_ape.1 += 1;
                    }
                }
                t.backward(loss);
                (t.value(loss).item(), micro_ape, shared.grads_of(&t))
            });
            let mut grads: Option<GradSet> = None;
            for (l, (a_sum, a_n), g) in parts {
                total += l;
                ape_sum += a_sum;
                ape_n += a_n;
                match &mut grads {
                    Some(acc) => acc.accumulate(&g),
                    slot @ None => *slot = Some(g),
                }
            }
            batches += 1;
            if let Some(g) = grads {
                store.adam_step_with(g, &adam);
            }
        }
        let epoch_loss = total / batches.max(1) as f32;
        obs::metrics::series_push("train/GNN_g/loss", epoch as u64, f64::from(epoch_loss));
        if ape_n > 0 {
            obs::metrics::series_push(
                "train/GNN_g/latency_mape",
                epoch as u64,
                100.0 * ape_sum / ape_n as f64,
            );
        }
        if opts.log_every > 0 && epoch % opts.log_every == 0 {
            obs::tracef!(1, "GNN_g epoch {epoch}: loss {epoch_loss:.4}");
        }
    }
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
    fn save_load_roundtrip_preserves_predictions() {
        let opts = tiny_opts();
        let model = HierarchicalModel::new(&opts);
        let func = kernels::lower_kernel("gemm").unwrap();
        let cfg = PragmaConfig::default();
        let before = model.predict(&func, &cfg);

        let dir = std::env::temp_dir().join("hier_hls_qor_model_test");
        model.save(&dir).unwrap();
        let mut restored = HierarchicalModel::new(&TrainOptions {
            seed: 99, // different init; load must overwrite it
            ..opts
        });
        restored.load(&dir).unwrap();
        let after = restored.predict(&func, &cfg);
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&dir);
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
