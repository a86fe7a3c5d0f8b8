//! Generic graph-regression model and the one training loop every model
//! in the workspace runs: `GNN_p`, `GNN_np`, `GNN_g` and the flat
//! baselines.
//!
//! Training is data-parallel over fixed-width micro-batches: each optimizer
//! step splits its mini-batch into [`MICRO_BATCH`]-sized slices, runs
//! forward/backward per slice on the `par` worker pool, and accumulates the
//! slice gradients in slice order before one Adam update. Because the slice
//! geometry and the reduction order depend only on the batch — never on the
//! worker count — losses and weights are bit-identical for any
//! `QOR_THREADS` setting.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use tensor::{init, AdamConfig, GradSet, Matrix, ParamStore, Tape, Var};

use crate::convs::{Encoder, EncoderConfig};
use crate::graph::{Batch, GraphData};
use crate::layers::Mlp;

/// A model [`train_regression`] can fit: a forward pass with one
/// prediction per head, in target-column order.
///
/// A head's width is its number of target columns, and the widths of all
/// heads sum to the target width.
pub trait Regressor: Sync {
    /// The target column whose training-set MAPE (in normalised space) is
    /// recorded per epoch as the `train/<tag>/latency_mape` series.
    const LATENCY_COL: usize = 0;

    /// Forward pass: one `[n_graphs, width]` variable per head.
    fn heads(&self, store: &ParamStore, t: &mut Tape, batch: &Batch) -> Vec<Var>;

    /// Inference without gradient tracking: every head's output side by
    /// side, `[n_graphs, target width]`.
    fn outputs(&self, store: &ParamStore, batch: &Batch) -> Matrix {
        let mut t = Tape::new();
        let heads = self.heads(store, &mut t, batch);
        let out = match heads[..] {
            [one] => one,
            _ => t.concat_cols(&heads),
        };
        t.value(out).clone()
    }
}

/// Encoder + MLP head predicting a fixed-size vector per graph.
///
/// The pooled graph embedding is concatenated with the batch's graph-level
/// features (if any) before the head — this is how loop-level features
/// such as II and TC enter the latency models.
#[derive(Debug, Clone)]
pub struct RegressionModel {
    encoder: Encoder,
    head: Mlp,
    g_feat_dim: usize,
}

impl RegressionModel {
    /// Builds a model with `g_feat_dim` graph-level features and `out_dim`
    /// regression outputs; `seed` controls weight initialization.
    pub fn new(
        store: &mut ParamStore,
        cfg: &EncoderConfig,
        g_feat_dim: usize,
        out_dim: usize,
        seed: u64,
    ) -> Self {
        let mut rng = init::seeded_rng(seed);
        let encoder = Encoder::new(store, "encoder", cfg, &mut rng);
        let head_in = encoder.pooled_dim() + g_feat_dim;
        let head = Mlp::new(store, "head", &[head_in, cfg.hidden * 2, out_dim], &mut rng);
        RegressionModel {
            encoder,
            head,
            g_feat_dim,
        }
    }

    /// Forward pass, returning the `[n_graphs, out_dim]` prediction variable.
    ///
    /// # Panics
    ///
    /// Panics if the batch's graph-feature width differs from the model's.
    pub fn forward(&self, store: &ParamStore, t: &mut Tape, batch: &Batch) -> Var {
        assert_eq!(
            batch.g_feats.cols(),
            self.g_feat_dim,
            "graph feature width mismatch"
        );
        let pooled = self.encoder.forward_pooled(store, t, batch);
        let with_feats = if self.g_feat_dim > 0 {
            let gf = t.leaf(batch.g_feats.clone());
            t.concat_cols(&[pooled, gf])
        } else {
            pooled
        };
        self.head.forward(store, t, with_feats)
    }

    /// Convenience inference over a slice of graphs (no gradient tracking).
    pub fn predict(&self, store: &ParamStore, graphs: &[&GraphData]) -> Matrix {
        self.outputs(store, &Batch::from_graphs(graphs, true))
    }

    /// The underlying encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Number of regression outputs.
    pub fn out_dim(&self) -> usize {
        self.head.out_dim()
    }
}

impl Regressor for RegressionModel {
    fn heads(&self, store: &ParamStore, t: &mut Tape, batch: &Batch) -> Vec<Var> {
        vec![self.forward(store, t, batch)]
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Graphs per mini-batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// AdamW weight decay.
    pub weight_decay: f32,
    /// Print a progress line every N epochs (`0` silences).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            batch_size: 32,
            lr: 3e-3,
            weight_decay: 1e-5,
            log_every: 0,
        }
    }
}

/// Fixed micro-batch width for data-parallel gradient computation.
///
/// A constant (rather than `batch_size / workers`) so the floating-point
/// reduction tree is a function of the batch alone and results cannot drift
/// with the worker count.
pub const MICRO_BATCH: usize = 8;

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

/// Trains `model` on `(graph, target row)` pairs: per-head MSE, Adam with
/// gradient clipping at 2.0 under the step learning-rate schedule, and
/// `rng` shuffling the samples every epoch.
///
/// Targets are used as-is: callers that want log-space or standardized
/// training (as the QoR pipeline does) transform them before calling.
/// Each epoch's mean loss is recorded as the `train/<tag>/loss` series.
///
/// # Panics
///
/// Panics if a target row's width differs from the model's heads.
pub fn train_regression<M: Regressor>(
    tag: &str,
    store: &mut ParamStore,
    model: &M,
    data: &[(GraphData, Vec<f32>)],
    cfg: &TrainConfig,
    rng: &mut StdRng,
) {
    if data.is_empty() {
        return;
    }
    let sp = obs::span("train");
    sp.attr("model", tag);
    sp.attr("samples", data.len());
    sp.attr("epochs", cfg.epochs);
    let mut order: Vec<usize> = (0..data.len()).collect();
    for epoch in 0..cfg.epochs {
        let adam = AdamConfig {
            lr: cfg.lr * lr_decay(epoch, cfg.epochs),
            weight_decay: cfg.weight_decay,
            clip: 2.0,
            ..AdamConfig::default()
        };
        order.shuffle(rng);
        let mut total = 0.0;
        let mut batches = 0;
        let (mut ape_sum, mut ape_n) = (0.0f64, 0usize);
        for batch in order.chunks(cfg.batch_size.max(1)) {
            // fixed micro-batch geometry: the same slices are formed for
            // any worker count, and losses/gradients are merged in slice
            // order, so the update is bit-identical to the sequential path
            let micros: Vec<&[usize]> = batch.chunks(MICRO_BATCH).collect();
            let weight = batch.len() as f32;
            let shared: &ParamStore = store;
            let parts = par::map("gnn/train", &micros, |_, ids| {
                micro_step(shared, model, data, ids, weight)
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
        let step = epoch as u64;
        obs::metrics::series_push(&format!("train/{tag}/loss"), step, f64::from(epoch_loss));
        if ape_n > 0 {
            let mape = 100.0 * ape_sum / ape_n as f64;
            obs::metrics::series_push(&format!("train/{tag}/latency_mape"), step, mape);
        }
        if cfg.log_every > 0 && epoch % cfg.log_every == 0 {
            obs::tracef!(1, "{tag} epoch {epoch}: loss {epoch_loss:.4}");
        }
    }
}

/// Forward and backward over one micro-batch: the summed per-head MSE,
/// weighted by the micro-batch's share of its mini-batch so the micro
/// losses sum to the mini-batch loss. Returns that loss, the latency
/// column's absolute-percentage-error sum and count (only while obs
/// collects), and the gradients.
fn micro_step<M: Regressor>(
    store: &ParamStore,
    model: &M,
    data: &[(GraphData, Vec<f32>)],
    ids: &[usize],
    weight: f32,
) -> (f32, (f64, usize), GradSet) {
    let graphs: Vec<&GraphData> = ids.iter().map(|&i| &data[i].0).collect();
    let mut t = Tape::new();
    let heads = model.heads(store, &mut t, &Batch::from_graphs(&graphs, true));
    let mut col = 0;
    let mut latency = (0, 0);
    let mut targets = Vec::with_capacity(heads.len());
    for (h, &pred) in heads.iter().enumerate() {
        let width = t.value(pred).cols();
        if (col..col + width).contains(&M::LATENCY_COL) {
            latency = (h, M::LATENCY_COL - col);
        }
        let y = Matrix::from_fn(ids.len(), width, |r, c| data[ids[r]].1[col + c]);
        targets.push(t.leaf(y));
        col += width;
    }
    assert!(
        ids.iter().all(|&i| data[i].1.len() == col),
        "target width mismatch"
    );
    let losses: Vec<Var> = heads
        .iter()
        .zip(&targets)
        .map(|(&pred, &y)| t.mse(pred, y))
        .collect();
    let sum = losses[1..].iter().fold(losses[0], |acc, &l| t.add(acc, l));
    let loss = t.scale(sum, ids.len() as f32 / weight);
    let mut ape = (0.0f64, 0usize);
    if obs::collecting() {
        // training MAPE from the predictions already on the tape — free
        // when obs is off
        let (head, c) = latency;
        let pred = t.value(heads[head]);
        for (r, &i) in ids.iter().enumerate() {
            let y = data[i].1[M::LATENCY_COL];
            ape.0 += f64::from((pred[(r, c)] - y).abs()) / f64::from(y).abs().max(1e-6);
            ape.1 += 1;
        }
    }
    t.backward(loss);
    (t.value(loss).item(), ape, store.grads_of(&t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convs::ConvKind;
    use crate::metrics::mape;

    /// Synthetic task: predict the number of nodes and total edge count of
    /// random path graphs — learnable from structure alone.
    fn synth_dataset(n: usize, seed: u64) -> Vec<(GraphData, Vec<f32>)> {
        let mut rng = init::seeded_rng(seed);
        use rand::Rng;
        (0..n)
            .map(|_| {
                let nodes = rng.gen_range(3..10usize);
                let x = Matrix::from_fn(nodes, 2, |r, _| 0.1 * r as f32 + 0.5);
                let src: Vec<u32> = (0..nodes as u32 - 1).collect();
                let dst: Vec<u32> = (1..nodes as u32).collect();
                let y = vec![nodes as f32 / 10.0];
                (GraphData::new(x, src, dst), y)
            })
            .collect()
    }

    /// MAPE of `model`'s predictions over a labeled set.
    fn mape_on(store: &ParamStore, model: &RegressionModel, data: &[(GraphData, Vec<f32>)]) -> f32 {
        let graphs: Vec<&GraphData> = data.iter().map(|(g, _)| g).collect();
        let pred = model.predict(store, &graphs);
        let truth: Vec<f32> = data.iter().flat_map(|(_, y)| y.iter().copied()).collect();
        mape(pred.as_slice(), &truth)
    }

    #[test]
    fn regression_learns_graph_size() {
        let train = synth_dataset(60, 1);
        let val = synth_dataset(20, 2);
        let mut store = ParamStore::new();
        let model = RegressionModel::new(
            &mut store,
            &EncoderConfig::new(ConvKind::Sage, 2, 8),
            0,
            1,
            7,
        );
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 16,
            lr: 5e-3,
            ..TrainConfig::default()
        };
        let mut rng = init::seeded_rng(0);
        train_regression("size", &mut store, &model, &train, &cfg, &mut rng);
        let m = mape_on(&store, &model, &val);
        assert!(m < 12.0, "val MAPE too high: {m}");
    }

    #[test]
    fn graph_features_reach_head() {
        // target equals the graph-level feature: trivially learnable only if
        // g_feats are plumbed through
        let mut data = Vec::new();
        for i in 0..40 {
            let x = Matrix::zeros(3, 2);
            let mut g = GraphData::new(x, vec![0, 1], vec![1, 2]);
            let f = (i % 7) as f32 / 7.0;
            g.g_feats = vec![f];
            data.push((g, vec![f]));
        }
        let mut store = ParamStore::new();
        let model = RegressionModel::new(
            &mut store,
            &EncoderConfig::new(ConvKind::Gcn, 2, 4),
            1,
            1,
            3,
        );
        let cfg = TrainConfig {
            epochs: 80,
            batch_size: 8,
            lr: 1e-2,
            ..TrainConfig::default()
        };
        let mut rng = init::seeded_rng(0);
        train_regression("feats", &mut store, &model, &data, &cfg, &mut rng);
        let m = mape_on(&store, &model, &data);
        assert!(m < 8.0, "MAPE too high: {m}");
    }
}
