//! Node and loop-level feature annotation (paper §III-B, Table II).

use cdfg::{Graph, Node, NodeKind, SuperFeatures};
use gnn::GraphData;
use hir::Function;
use hlsim::{OpCost, OpLibrary};
use pragma::{LoopId, PragmaConfig};
use tensor::Matrix;

/// Operation mnemonics in one-hot order.
pub const MNEMONICS: &[&str] = &[
    "add", "sub", "mul", "div", "rem", "fadd", "fsub", "fmul", "fdiv", "icmp", "fcmp", "and", "or",
    "not", "select", "sqrt", "exp", "abs", "max", "min", "cast", "load", "store", "phi", "param",
    "br", "port", "super",
];

/// Numeric features appended after the one-hot optype:
/// `#invocation, in-degree, out-degree, #cycle, delay, LUT, FF, DSP,
/// super-latency, super-TC, super-II, hardware-weight` (all compressed
/// with `log1p` except delay, which is normalized by the clock period).
pub const NUM_FEATURES: usize = 12;

/// Total node-feature dimension.
pub const FEATURE_DIM: usize = MNEMONICS.len() + NUM_FEATURES;

/// Loop-level (graph-level) features for the inner-hierarchy models:
/// `log1p(II), log1p(TC), pipelined flag, log1p(unroll factor),
/// log1p(II*TC)` — the last being the dominant term of a pipelined loop's
/// latency `IL + II*(TC-1)`.
pub const LOOP_FEATURE_DIM: usize = 5;

/// Graph-level aggregate features (see [`graph_aggregates`]).
pub const AGG_DIM: usize = 9;

fn log1p(v: f64) -> f32 {
    (v.max(0.0) + 1.0).ln() as f32
}

/// Cost features of a node by mnemonic (zero for ports/supers/synthetic
/// control, per the paper's treatment of non-arithmetic operations).
fn mnemonic_cost(lib: &OpLibrary, mnemonic: &str) -> OpCost {
    use hir::{AccessPattern, CmpOp, OpKind};
    let kind = match mnemonic {
        "add" => OpKind::Add,
        "sub" => OpKind::Sub,
        "mul" => OpKind::Mul,
        "div" => OpKind::Div,
        "rem" => OpKind::Rem,
        "fadd" => OpKind::FAdd,
        "fsub" => OpKind::FSub,
        "fmul" => OpKind::FMul,
        "fdiv" => OpKind::FDiv,
        "icmp" | "br" => OpKind::ICmp(CmpOp::Lt),
        "fcmp" => OpKind::FCmp(CmpOp::Lt),
        "and" => OpKind::And,
        "or" => OpKind::Or,
        "not" => OpKind::Not,
        "select" => OpKind::Select,
        "sqrt" => OpKind::Sqrt,
        "exp" => OpKind::Exp,
        "abs" => OpKind::Abs,
        "max" => OpKind::Max,
        "min" => OpKind::Min,
        "cast" => OpKind::Cast,
        "load" => OpKind::Load {
            array: String::new(),
            access: AccessPattern::Dynamic { rank: 1 },
        },
        "store" => OpKind::Store {
            array: String::new(),
            access: AccessPattern::Dynamic { rank: 1 },
        },
        "phi" => OpKind::Phi,
        _ => OpKind::Phi, // param/port/super: zero-cost placeholder
    };
    lib.cost(&kind)
}

/// Index of `mnemonic` in [`MNEMONICS`], or `MNEMONICS.len()` for a
/// mnemonic outside the table (no one-hot bit, zero-cost placeholder).
pub(crate) fn mnemonic_index(mnemonic: &str) -> usize {
    MNEMONICS
        .iter()
        .position(|m| *m == mnemonic)
        .unwrap_or(MNEMONICS.len())
}

/// One mnemonic's operator cost: the five feature columns after the
/// counts (`#cycle, delay, LUT, FF, DSP`) and the raw values the
/// aggregates sum.
struct Cost {
    cols: [f32; 5],
    cycles: u32,
    lut: u32,
    ff: u32,
    dsp: u32,
}

/// [`Cost`] per [`mnemonic_index`], computed once per process.
fn cost_of(index: usize) -> &'static Cost {
    static TABLE: std::sync::OnceLock<Vec<Cost>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let lib = OpLibrary::zcu102();
        (0..=MNEMONICS.len())
            .map(|i| {
                let c = mnemonic_cost(&lib, MNEMONICS.get(i).copied().unwrap_or(""));
                Cost {
                    cols: [
                        log1p(f64::from(c.cycles)),
                        c.delay_ns / lib.clock_ns,
                        log1p(f64::from(c.lut)),
                        log1p(f64::from(c.ff)),
                        log1p(f64::from(c.dsp)),
                    ],
                    cycles: c.cycles,
                    lut: c.lut,
                    ff: c.ff,
                    dsp: c.dsp,
                }
            })
            .collect()
    });
    &table[index]
}

/// The weight-independent columns of a node's feature row:
/// `log1p` of `#invocation`, in-degree, out-degree and hardware weight.
pub(crate) fn count_features(invocations: u64, in_deg: u32, out_deg: u32, hw: u64) -> [f32; 4] {
    [
        log1p(invocations as f64),
        log1p(f64::from(in_deg)),
        log1p(f64::from(out_deg)),
        log1p(hw as f64),
    ]
}

/// Writes one node's feature row (see [`graph_to_gnn`]): the one-hot
/// optype of mnemonic `index`, the [`count_features`], and either the
/// operator costs or, for a super node, its QoR annotation.
pub(crate) fn write_row(
    row: &mut [f32],
    index: usize,
    counts: &[f32; 4],
    features: Option<&SuperFeatures>,
) {
    if index < MNEMONICS.len() {
        row[index] = 1.0;
    }
    let base = MNEMONICS.len();
    row[base..base + 3].copy_from_slice(&counts[..3]);
    row[base + 11] = counts[3];
    match features {
        Some(f) => {
            row[base + 3] = log1p(f.il);
            row[base + 4] = (f.ii / 64.0) as f32;
            row[base + 5] = log1p(f.lut);
            row[base + 6] = log1p(f.ff);
            row[base + 7] = log1p(f.dsp);
            row[base + 8] = log1p(f.latency);
            row[base + 9] = log1p(f.tc);
            row[base + 10] = log1p(f.ii);
        }
        // super-only columns stay zero
        None => row[base + 3..base + 8].copy_from_slice(&cost_of(index).cols),
    }
}

/// The running sums behind [`graph_aggregates`], fed node by node in
/// graph order.
#[derive(Default)]
pub(crate) struct AggregateSums {
    inv: f64,
    cycles: f64,
    lut: f64,
    ff: f64,
    dsp: f64,
    work: f64,
    super_lat: f64,
}

impl AggregateSums {
    /// Adds one node: mnemonic `index`, its invocations and hardware
    /// weight, and its annotation when it is a super node.
    pub(crate) fn add(
        &mut self,
        index: usize,
        invocations: u64,
        hw_weight: u64,
        features: Option<&SuperFeatures>,
    ) {
        let hw = hw_weight as f64;
        self.inv += invocations as f64 * hw;
        match features {
            Some(f) => {
                self.lut += f.lut * hw;
                self.ff += f.ff * hw;
                self.dsp += f.dsp * hw;
                self.super_lat += f.latency * invocations as f64;
            }
            None => {
                let c = cost_of(index);
                self.cycles += f64::from(c.cycles);
                self.lut += f64::from(c.lut) * hw;
                self.ff += f64::from(c.ff) * hw;
                self.dsp += f64::from(c.dsp) * hw;
                self.work += invocations as f64 * hw * f64::from(c.cycles.max(1));
            }
        }
    }

    /// The [`AGG_DIM`] aggregates of a graph with `nodes` nodes and
    /// `edges` edges.
    pub(crate) fn finish(&self, nodes: usize, edges: usize) -> Vec<f32> {
        vec![
            log1p(nodes as f64),
            log1p(edges as f64),
            log1p(self.inv),
            log1p(self.cycles),
            log1p(self.lut),
            log1p(self.ff),
            log1p(self.dsp),
            log1p(self.work),
            log1p(self.super_lat),
        ]
    }
}

/// The annotation of a super node, `None` for any other node.
fn super_features(node: &Node) -> Option<&SuperFeatures> {
    match &node.kind {
        NodeKind::Super { features, .. } => Some(features),
        _ => None,
    }
}

/// Converts a [`Graph`] into GNN input, annotating every node with the
/// Table II features.
///
/// Extra columns carry super-node annotations (predicted latency/TC/II) and
/// are zero for ordinary nodes; super nodes place their predicted LUT/FF/DSP
/// in the same columns ordinary nodes use for operator costs — exactly the
/// paper's "super nodes hold a complete set of node features" design.
pub fn graph_to_gnn(graph: &Graph) -> GraphData {
    let n = graph.num_nodes();
    let in_deg = graph.in_degrees();
    let out_deg = graph.out_degrees();
    let mut x = Matrix::zeros(n, FEATURE_DIM);
    for (i, node) in graph.nodes.iter().enumerate() {
        let counts = count_features(node.invocations, in_deg[i], out_deg[i], node.hw_weight);
        write_row(
            x.row_mut(i),
            mnemonic_index(node.mnemonic),
            &counts,
            super_features(node),
        );
    }
    let src: Vec<u32> = graph.edges.iter().map(|e| e.src).collect();
    let dst: Vec<u32> = graph.edges.iter().map(|e| e.dst).collect();
    GraphData::new(x, src, dst)
}

/// Graph-level aggregates, all `log1p`-compressed:
/// `[#nodes, #edges, Σ invocations, Σ cycles, Σ LUT, Σ FF, Σ DSP,
///   Σ invocations·cycles (total work), Σ super-node latency]`.
///
/// These are exactly the quantities a sum-pooling readout would expose;
/// providing them explicitly keeps the learned embedding magnitudes
/// size-independent (mean ⊕ max pooling) without losing the extensive
/// signals that resource totals depend on.
pub fn graph_aggregates(graph: &Graph) -> Vec<f32> {
    let mut sums = AggregateSums::default();
    for node in &graph.nodes {
        sums.add(
            mnemonic_index(node.mnemonic),
            node.invocations,
            node.hw_weight,
            super_features(node),
        );
    }
    sums.finish(graph.num_nodes(), graph.num_edges())
}

/// Loop-level features of one inner-hierarchy loop under `cfg`:
/// `[log1p(II), log1p(TC), pipelined, log1p(unroll)]`.
///
/// II comes from the analytic formula (`hlsim::analytic_ii`), TC from the
/// IR — both available without running any tool flow, as the paper
/// requires. IL is the learned quantity and is *not* part of this vector.
pub fn loop_level_features(
    func: &Function,
    cfg: &PragmaConfig,
    loop_id: &LoopId,
    pipelined: bool,
) -> Vec<f32> {
    let ii = hlsim::analytic_ii(func, cfg, loop_id);
    let meta = func.loop_meta(loop_id);
    let tc = meta.map(|m| m.trip_count).unwrap_or(1);
    let unroll = cfg.loop_pragma(loop_id).unroll.factor(tc.max(1));
    vec![
        log1p(ii as f64),
        log1p(tc as f64),
        f32::from(u8::from(pipelined)),
        log1p(unroll as f64),
        log1p(ii as f64 * tc.div_ceil(unroll.max(1)) as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::GraphBuilder;

    fn sample() -> (Function, PragmaConfig) {
        let f = kernels::lower_kernel("gemm").unwrap();
        (f, PragmaConfig::default())
    }

    #[test]
    fn feature_matrix_shape_and_onehot() {
        let (f, cfg) = sample();
        let g = GraphBuilder::new(&f, &cfg).build();
        let data = graph_to_gnn(&g);
        assert_eq!(data.feat_dim(), FEATURE_DIM);
        assert_eq!(data.num_nodes(), g.num_nodes());
        // every node has exactly one active one-hot slot
        for i in 0..data.num_nodes() {
            let hot: f32 = data.x.row(i)[..MNEMONICS.len()].iter().sum();
            assert_eq!(hot, 1.0, "node {i} one-hot malformed");
        }
    }

    #[test]
    fn degrees_enter_features() {
        let (f, cfg) = sample();
        let g = GraphBuilder::new(&f, &cfg).build();
        let data = graph_to_gnn(&g);
        let in_col = MNEMONICS.len() + 1;
        let any_nonzero = (0..data.num_nodes()).any(|i| data.x[(i, in_col)] > 0.0);
        assert!(any_nonzero, "in-degree feature never set");
    }

    #[test]
    fn fadd_nodes_carry_library_costs() {
        let (f, cfg) = sample();
        let g = GraphBuilder::new(&f, &cfg).build();
        let data = graph_to_gnn(&g);
        let fadd_pos = MNEMONICS.iter().position(|m| *m == "fadd").unwrap();
        let lut_col = MNEMONICS.len() + 5;
        for i in 0..data.num_nodes() {
            if data.x[(i, fadd_pos)] == 1.0 {
                assert!(data.x[(i, lut_col)] > 0.0, "fadd LUT feature missing");
            }
        }
    }

    #[test]
    fn loop_features_reflect_pragmas() {
        let f = kernels::lower_kernel("gemm").unwrap();
        let inner = LoopId::from_path(&[0, 0, 0]);
        let mut cfg = PragmaConfig::default();
        cfg.set_pipeline(inner.clone(), true);
        let lf = loop_level_features(&f, &cfg, &inner, true);
        assert_eq!(lf.len(), LOOP_FEATURE_DIM);
        assert!(lf[0] > 0.0, "II feature");
        assert!((lf[1] - ((16.0f64 + 1.0).ln() as f32)).abs() < 1e-5, "TC");
        assert_eq!(lf[2], 1.0, "pipelined flag");
    }

    #[test]
    fn mnemonic_table_covers_graph_nodes() {
        for k in kernels::all() {
            let f = kernels::lower_kernel(k.name).unwrap();
            let g = GraphBuilder::new(&f, &PragmaConfig::default()).build();
            for node in &g.nodes {
                assert!(
                    MNEMONICS.contains(&node.mnemonic),
                    "{}: mnemonic {:?} missing from table",
                    k.name,
                    node.mnemonic
                );
            }
        }
    }
}
