//! Graph convolution layers: GCN, GraphSAGE, GAT, TransformerConv, PNA.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use rand::rngs::StdRng;

use tensor::{init, Matrix, ParamStore, Tape, Var};

use crate::graph::Batch;
use crate::layers::Linear;

/// The propagation-layer families evaluated in the paper (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvKind {
    /// Graph convolutional network (Kipf & Welling).
    Gcn,
    /// Graph attention network (Veličković et al.).
    Gat,
    /// GraphSAGE with mean aggregation (Hamilton et al.).
    Sage,
    /// Unified message-passing transformer convolution (Shi et al.).
    Transformer,
    /// Principal neighbourhood aggregation (Corso et al.).
    Pna,
}

impl ConvKind {
    /// All layer kinds, in the order Table III reports them.
    pub fn all() -> [ConvKind; 5] {
        [
            ConvKind::Gcn,
            ConvKind::Gat,
            ConvKind::Sage,
            ConvKind::Transformer,
            ConvKind::Pna,
        ]
    }

    /// Stable one-byte serialization code (checkpoint format).
    ///
    /// Codes are append-only: existing values must never be renumbered, or
    /// previously written checkpoints would silently change architecture.
    pub fn code(self) -> u8 {
        match self {
            ConvKind::Gcn => 0,
            ConvKind::Gat => 1,
            ConvKind::Sage => 2,
            ConvKind::Transformer => 3,
            ConvKind::Pna => 4,
        }
    }

    /// Inverse of [`ConvKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<ConvKind> {
        ConvKind::all().into_iter().find(|k| k.code() == code)
    }
}

impl fmt::Display for ConvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConvKind::Gcn => "GCN",
            ConvKind::Gat => "GAT",
            ConvKind::Sage => "GraphSage",
            ConvKind::Transformer => "Transformer",
            ConvKind::Pna => "PNA",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing a [`ConvKind`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConvKindError(String);

impl fmt::Display for ParseConvKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown GNN conv kind: {:?}", self.0)
    }
}

impl std::error::Error for ParseConvKindError {}

impl FromStr for ConvKind {
    type Err = ParseConvKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "gcn" => Ok(ConvKind::Gcn),
            "gat" => Ok(ConvKind::Gat),
            "sage" | "graphsage" => Ok(ConvKind::Sage),
            "transformer" | "transformerconv" => Ok(ConvKind::Transformer),
            "pna" => Ok(ConvKind::Pna),
            other => Err(ParseConvKindError(other.to_string())),
        }
    }
}

/// One propagation layer of any [`ConvKind`].
#[derive(Debug, Clone)]
enum Conv {
    Gcn {
        lin: Linear,
    },
    Sage {
        self_lin: Linear,
        neigh_lin: Linear,
    },
    Gat {
        // two attention heads, each producing out_dim/2 features
        heads: Vec<GatHead>,
    },
    Transformer {
        heads: Vec<TransformerHead>,
        skip: Linear,
    },
    Pna {
        pre: Linear,
        post: Linear,
    },
}

#[derive(Debug, Clone)]
struct GatHead {
    lin: Linear,
    att_src: tensor::ParamId,
    att_dst: tensor::ParamId,
}

#[derive(Debug, Clone)]
struct TransformerHead {
    q: Linear,
    k: Linear,
    v: Linear,
}

const GAT_HEADS: usize = 2;
const TRANSFORMER_HEADS: usize = 2;
/// PNA aggregators (mean, max, min, std) x scalers (id, amp, att).
const PNA_EXPANSION: usize = 12;

impl Conv {
    fn new(
        store: &mut ParamStore,
        name: &str,
        kind: ConvKind,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        match kind {
            ConvKind::Gcn => Conv::Gcn {
                lin: Linear::new(store, &format!("{name}.gcn"), in_dim, out_dim, rng),
            },
            ConvKind::Sage => Conv::Sage {
                self_lin: Linear::new(store, &format!("{name}.sage_self"), in_dim, out_dim, rng),
                neigh_lin: Linear::new(store, &format!("{name}.sage_neigh"), in_dim, out_dim, rng),
            },
            ConvKind::Gat => {
                let head_dim = (out_dim / GAT_HEADS).max(1);
                let heads = (0..GAT_HEADS)
                    .map(|h| GatHead {
                        lin: Linear::new(store, &format!("{name}.gat{h}"), in_dim, head_dim, rng),
                        att_src: store.add(
                            format!("{name}.gat{h}.att_src"),
                            init::xavier(rng, head_dim, 1),
                        ),
                        att_dst: store.add(
                            format!("{name}.gat{h}.att_dst"),
                            init::xavier(rng, head_dim, 1),
                        ),
                    })
                    .collect();
                Conv::Gat { heads }
            }
            ConvKind::Transformer => {
                let head_dim = (out_dim / TRANSFORMER_HEADS).max(1);
                let heads = (0..TRANSFORMER_HEADS)
                    .map(|h| TransformerHead {
                        q: Linear::new(store, &format!("{name}.tr{h}.q"), in_dim, head_dim, rng),
                        k: Linear::new(store, &format!("{name}.tr{h}.k"), in_dim, head_dim, rng),
                        v: Linear::new(store, &format!("{name}.tr{h}.v"), in_dim, head_dim, rng),
                    })
                    .collect();
                Conv::Transformer {
                    heads,
                    skip: Linear::new(store, &format!("{name}.tr.skip"), in_dim, out_dim, rng),
                }
            }
            ConvKind::Pna => Conv::Pna {
                pre: Linear::new(store, &format!("{name}.pna_pre"), in_dim, out_dim, rng),
                post: Linear::new(
                    store,
                    &format!("{name}.pna_post"),
                    out_dim * PNA_EXPANSION + in_dim,
                    out_dim,
                    rng,
                ),
            },
        }
    }

    fn out_dim(&self) -> usize {
        match self {
            Conv::Gcn { lin } => lin.out_dim(),
            Conv::Sage { self_lin, .. } => self_lin.out_dim(),
            Conv::Gat { heads } => heads.iter().map(|h| h.lin.out_dim()).sum(),
            Conv::Transformer { skip, .. } => skip.out_dim(),
            Conv::Pna { post, .. } => post.out_dim(),
        }
    }

    fn forward(&self, store: &ParamStore, t: &mut Tape, x: Var, batch: &Batch) -> Var {
        let n = batch.num_nodes();
        match self {
            Conv::Gcn { lin } => {
                let xw = lin.forward(store, t, x);
                let coef = t.leaf(batch.gcn_coef.clone());
                t.gather_scatter(
                    xw,
                    Arc::clone(&batch.gcn_src),
                    coef,
                    Arc::clone(&batch.gcn_dst),
                    n,
                )
            }
            Conv::Sage {
                self_lin,
                neigh_lin,
            } => {
                let own = self_lin.forward(store, t, x);
                let mean = t.gather_mean(x, Arc::clone(&batch.src), Arc::clone(&batch.dst), n);
                let neigh = neigh_lin.forward(store, t, mean);
                t.add(own, neigh)
            }
            Conv::Gat { heads } => {
                let mut outs = Vec::with_capacity(heads.len());
                for head in heads {
                    let xw = head.lin.forward(store, t, x);
                    let a_src = t.param(store, head.att_src);
                    let a_dst = t.param(store, head.att_dst);
                    let alpha_src = t.matmul(xw, a_src); // [N,1]
                    let alpha_dst = t.matmul(xw, a_dst); // [N,1]
                    let es = t.gather_rows(alpha_src, Arc::clone(&batch.src));
                    let ed = t.gather_rows(alpha_dst, Arc::clone(&batch.dst));
                    let logits_raw = t.add(es, ed);
                    let logits = t.leaky_relu(logits_raw, 0.2);
                    let att = t.segment_softmax(logits, Arc::clone(&batch.dst), n);
                    outs.push(aggregate(t, xw, att, batch));
                }
                t.concat_cols(&outs)
            }
            Conv::Transformer { heads, skip } => {
                let mut outs = Vec::with_capacity(heads.len());
                for head in heads {
                    let q = head.q.forward(store, t, x);
                    let k = head.k.forward(store, t, x);
                    let v = head.v.forward(store, t, x);
                    let qd = t.gather_rows(q, Arc::clone(&batch.dst));
                    let ks = t.gather_rows(k, Arc::clone(&batch.src));
                    let qk = t.mul(qd, ks);
                    let dots = t.sum_cols(qk);
                    let scale = 1.0 / (head.q.out_dim() as f32).sqrt();
                    let logits = t.scale(dots, scale);
                    let att = t.segment_softmax(logits, Arc::clone(&batch.dst), n);
                    outs.push(aggregate(t, v, att, batch));
                }
                let attended = t.concat_cols(&outs);
                let skipped = skip.forward(store, t, x);
                t.add(attended, skipped)
            }
            Conv::Pna { pre, post } => {
                let h = pre.forward(store, t, x);
                let msgs = t.gather_rows(h, Arc::clone(&batch.src));
                // aggregators over incoming messages
                let mean = t.segment_mean(msgs, Arc::clone(&batch.dst), n);
                let maxv = t.segment_max(msgs, Arc::clone(&batch.dst), n);
                let neg = t.scale(msgs, -1.0);
                let negmax = t.segment_max(neg, Arc::clone(&batch.dst), n);
                let minv = t.scale(negmax, -1.0);
                let sq = t.mul(msgs, msgs);
                let mean_sq = t.segment_mean(sq, Arc::clone(&batch.dst), n);
                let mean2 = t.mul(mean, mean);
                let var = t.sub(mean_sq, mean2);
                let var_pos = t.relu(var);
                let std = t.sqrt(var_pos, 1e-6);
                // degree scalers: identity, amplification, attenuation
                let (amp, att) = degree_scalers(&batch.in_deg);
                let amp_v = t.leaf(amp);
                let att_v = t.leaf(att);
                let mut parts = Vec::with_capacity(PNA_EXPANSION + 1);
                for agg in [mean, maxv, minv, std] {
                    parts.push(agg);
                    parts.push(t.mul_col(agg, amp_v));
                    parts.push(t.mul_col(agg, att_v));
                }
                parts.push(x); // self features
                let cat = t.concat_cols(&parts);
                post.forward(store, t, cat)
            }
        }
    }
}

/// Attention-weighted sum of `x` over each node's incoming edges.
fn aggregate(t: &mut Tape, x: Var, att: Var, batch: &Batch) -> Var {
    let n = batch.num_nodes();
    t.gather_scatter(x, Arc::clone(&batch.src), att, Arc::clone(&batch.dst), n)
}

/// PNA amplification/attenuation scalers `log(d+1)/delta` and
/// `delta/log(d+1)` with `delta` the batch-average `log(d+1)`.
fn degree_scalers(in_deg: &[f32]) -> (Matrix, Matrix) {
    let logs: Vec<f32> = in_deg.iter().map(|d| (d + 1.0).ln()).collect();
    let delta = (logs.iter().sum::<f32>() / logs.len().max(1) as f32).max(1e-3);
    let amp = Matrix::col_vector(&logs.iter().map(|l| l / delta).collect::<Vec<_>>());
    let att = Matrix::col_vector(&logs.iter().map(|l| delta / l.max(1e-3)).collect::<Vec<_>>());
    (amp, att)
}

/// Configuration of a GNN encoder stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Propagation-layer family.
    pub conv: ConvKind,
    /// Node feature dimension.
    pub in_dim: usize,
    /// Hidden width of each propagation layer.
    pub hidden: usize,
    /// Number of propagation layers (the paper uses three).
    pub layers: usize,
}

impl EncoderConfig {
    /// Three-layer encoder, as in the paper.
    pub fn new(conv: ConvKind, in_dim: usize, hidden: usize) -> Self {
        EncoderConfig {
            conv,
            in_dim,
            hidden,
            layers: 3,
        }
    }
}

/// A stack of propagation layers plus sum ⊕ max pooling.
///
/// # Example
///
/// ```
/// use gnn::{Batch, ConvKind, Encoder, EncoderConfig, GraphData};
/// use tensor::{init, Matrix, ParamStore, Tape};
///
/// let mut store = ParamStore::new();
/// let mut rng = init::seeded_rng(0);
/// let enc = Encoder::new(&mut store, "enc", &EncoderConfig::new(ConvKind::Gcn, 3, 8), &mut rng);
/// let g = GraphData::new(Matrix::zeros(4, 3), vec![0, 1, 2], vec![1, 2, 3]);
/// let batch = Batch::from_graphs(&[&g], true);
/// let mut tape = Tape::new();
/// let pooled = enc.forward_pooled(&store, &mut tape, &batch);
/// assert_eq!(tape.value(pooled).shape(), (1, 17)); // mean ⊕ max ⊕ size
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    convs: Vec<Conv>,
    config: EncoderConfig,
}

impl Encoder {
    /// Builds an encoder; parameters are registered in `store` under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        config: &EncoderConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert!(config.layers >= 1, "encoder needs at least one layer");
        let mut convs = Vec::with_capacity(config.layers);
        let mut dim = config.in_dim;
        for i in 0..config.layers {
            let conv = Conv::new(
                store,
                &format!("{name}.conv{i}"),
                config.conv,
                dim,
                config.hidden,
                rng,
            );
            dim = conv.out_dim();
            convs.push(conv);
        }
        Encoder {
            convs,
            config: *config,
        }
    }

    /// Node embeddings after all propagation layers, `[num_nodes, hidden]`.
    pub fn forward_nodes(&self, store: &ParamStore, t: &mut Tape, batch: &Batch) -> Var {
        let mut h = t.leaf(batch.x.clone());
        for conv in &self.convs {
            h = conv.forward(store, t, h, batch);
            h = t.relu(h);
        }
        h
    }

    /// Graph embeddings via mean ⊕ max pooling plus a log-size feature,
    /// `[n_graphs, 2 * hidden + 1]`.
    ///
    /// Mean pooling keeps embedding magnitudes size-independent (so deep
    /// regression heads stay numerically stable); the explicit
    /// `log(1 + num_nodes)` column restores the graph-size signal a sum
    /// pool would carry.
    pub fn forward_pooled(&self, store: &ParamStore, t: &mut Tape, batch: &Batch) -> Var {
        let nodes = self.forward_nodes(store, t, batch);
        let mean = t.segment_mean(nodes, Arc::clone(&batch.graph_of_node), batch.n_graphs);
        let max = t.segment_max(nodes, Arc::clone(&batch.graph_of_node), batch.n_graphs);
        let mut counts = vec![0u32; batch.n_graphs];
        for &g in batch.graph_of_node.iter() {
            counts[g as usize] += 1;
        }
        let sizes = Matrix::col_vector(
            &counts
                .iter()
                .map(|&c| (c as f32 + 1.0).ln())
                .collect::<Vec<_>>(),
        );
        let size_var = t.leaf(sizes);
        t.concat_cols(&[mean, max, size_var])
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Dimension of the pooled graph embedding.
    pub fn pooled_dim(&self) -> usize {
        2 * self.convs.last().expect("non-empty").out_dim() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphData;

    fn toy_batch() -> Batch {
        let g1 = GraphData::new(
            Matrix::from_fn(4, 3, |r, c| (r as f32 * 0.3) - (c as f32 * 0.2)),
            vec![0, 1, 2, 0],
            vec![1, 2, 3, 3],
        );
        let g2 = GraphData::new(
            Matrix::from_fn(3, 3, |r, c| (r + c) as f32 * 0.1),
            vec![0, 1],
            vec![1, 2],
        );
        Batch::from_graphs(&[&g1, &g2], true)
    }

    #[test]
    fn all_convs_produce_expected_shapes() {
        let batch = toy_batch();
        for kind in ConvKind::all() {
            let mut store = ParamStore::new();
            let mut rng = init::seeded_rng(11);
            let enc = Encoder::new(&mut store, "e", &EncoderConfig::new(kind, 3, 8), &mut rng);
            let mut t = Tape::new();
            let pooled = enc.forward_pooled(&store, &mut t, &batch);
            assert_eq!(
                t.value(pooled).shape(),
                (2, enc.pooled_dim()),
                "bad pooled shape for {kind}"
            );
            assert!(
                t.value(pooled).as_slice().iter().all(|v| v.is_finite()),
                "non-finite embedding for {kind}"
            );
        }
    }

    #[test]
    fn all_convs_are_trainable() {
        // one gradient step must change the pooled embedding
        let batch = toy_batch();
        for kind in ConvKind::all() {
            let mut store = ParamStore::new();
            let mut rng = init::seeded_rng(23);
            let enc = Encoder::new(&mut store, "e", &EncoderConfig::new(kind, 3, 8), &mut rng);
            let before = {
                let mut t = Tape::new();
                let pooled = enc.forward_pooled(&store, &mut t, &batch);
                t.value(pooled).clone()
            };
            let mut t = Tape::new();
            let pooled = enc.forward_pooled(&store, &mut t, &batch);
            let target = t.leaf(Matrix::full(2, enc.pooled_dim(), 1.0));
            let loss = t.mse(pooled, target);
            t.backward(loss);
            store.adam_step(&t, &tensor::AdamConfig::with_lr(0.05));
            let after = {
                let mut t = Tape::new();
                let pooled = enc.forward_pooled(&store, &mut t, &batch);
                t.value(pooled).clone()
            };
            assert!(
                before.sub(&after).norm() > 1e-6,
                "params did not move for {kind}"
            );
        }
    }

    #[test]
    fn conv_kind_round_trips_through_str() {
        for kind in ConvKind::all() {
            let parsed: ConvKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<ConvKind>().is_err());
    }

    #[test]
    fn conv_kind_codes_round_trip_and_are_stable() {
        for kind in ConvKind::all() {
            assert_eq!(ConvKind::from_code(kind.code()), Some(kind));
        }
        // the on-disk contract: these exact numbers are in checkpoints
        assert_eq!(ConvKind::Gcn.code(), 0);
        assert_eq!(ConvKind::Sage.code(), 2);
        assert_eq!(ConvKind::Pna.code(), 4);
        assert_eq!(ConvKind::from_code(250), None);
    }

    #[test]
    fn degree_scalers_balance() {
        let (amp, att) = degree_scalers(&[1.0, 1.0, 1.0]);
        for i in 0..3 {
            assert!((amp[(i, 0)] - 1.0).abs() < 1e-5);
            assert!((att[(i, 0)] - 1.0).abs() < 1e-5);
        }
    }
}
