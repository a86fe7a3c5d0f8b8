//! Graph containers and mini-batch collation.

use std::sync::{Arc, OnceLock};

use tensor::Matrix;

/// A single attributed directed graph.
///
/// `src[e] -> dst[e]` is edge `e`; messages flow from source to destination
/// during propagation. Optional graph-level features (`g_feats`) are
/// concatenated to the pooled embedding by [`RegressionModel`].
///
/// [`RegressionModel`]: crate::RegressionModel
///
/// # Example
///
/// ```
/// use gnn::GraphData;
/// use tensor::Matrix;
/// let g = GraphData::new(Matrix::zeros(2, 3), vec![0], vec![1]);
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GraphData {
    /// Node feature matrix, `num_nodes x feat_dim`.
    pub x: Matrix,
    /// Edge source node indices.
    pub src: Vec<u32>,
    /// Edge destination node indices.
    pub dst: Vec<u32>,
    /// Optional graph-level feature vector.
    pub g_feats: Vec<f32>,
}

impl GraphData {
    /// Creates a graph without graph-level features.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` lengths differ or reference nonexistent nodes.
    pub fn new(x: Matrix, src: Vec<u32>, dst: Vec<u32>) -> Self {
        Self::with_features(x, src, dst, Vec::new())
    }

    /// Creates a graph with graph-level features.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` lengths differ or reference nonexistent nodes.
    pub fn with_features(x: Matrix, src: Vec<u32>, dst: Vec<u32>, g_feats: Vec<f32>) -> Self {
        assert_eq!(src.len(), dst.len(), "edge list length mismatch");
        let n = x.rows() as u32;
        for (&s, &d) in src.iter().zip(&dst) {
            assert!(s < n && d < n, "edge ({s},{d}) out of bounds for {n} nodes");
        }
        GraphData {
            x,
            src,
            dst,
            g_feats,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.x.rows()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Node feature dimension.
    pub fn feat_dim(&self) -> usize {
        self.x.cols()
    }
}

/// A collated mini-batch of graphs forming one block-diagonal super-graph.
///
/// Construction offsets node indices, optionally mirrors edges (so directed
/// CDFGs propagate information both ways) and counts per-node in-degrees.
/// The GCN view of the edges ([`Batch::gcn`]) is built on first use, so
/// batches that never meet a GCN layer never pay for it.
///
/// A batch's rows are its nodes, except in a quotient batch
/// ([`Batch::quotient`]), whose rows are classes of nodes.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Stacked row features, `rows x feat_dim`.
    pub x: Matrix,
    /// Edge sources, as rows (after offsetting/mirroring).
    pub src: Arc<Vec<u32>>,
    /// Edge destinations, as rows (after offsetting/mirroring).
    pub dst: Arc<Vec<u32>>,
    /// Graph id of each node.
    pub graph_of_node: Arc<Vec<u32>>,
    /// Number of graphs in the batch.
    pub n_graphs: usize,
    /// In-degree (message count) per row, excluding self-loops.
    pub in_deg: Vec<f32>,
    /// Stacked graph-level features, `n_graphs x g_feat_dim` (may be `n x 0`).
    pub g_feats: Matrix,
    /// In a quotient batch, the row of each node; `None` when every node
    /// is its own row.
    pub classes: Option<Arc<Vec<u32>>>,
    gcn: OnceLock<GcnEdges>,
}

/// The edges a GCN layer propagates over: every batch edge plus one
/// self-loop per node, each with its symmetric normalization coefficient.
#[derive(Debug, Clone)]
pub struct GcnEdges {
    /// Edge sources, self-loops last.
    pub src: Arc<Vec<u32>>,
    /// Edge destinations, self-loops last.
    pub dst: Arc<Vec<u32>>,
    /// `1 / sqrt(d_src * d_dst)` per edge, degrees counting the self-loop.
    pub coef: Matrix,
}

/// Appends `g`'s edges, shifted by `offset`, and their mirrors when
/// `mirror` is set (a self-loop is never mirrored).
fn push_edges(src: &mut Vec<u32>, dst: &mut Vec<u32>, g: &GraphData, offset: u32, mirror: bool) {
    for (&s, &d) in g.src.iter().zip(&g.dst) {
        src.push(s + offset);
        dst.push(d + offset);
        if mirror && s != d {
            src.push(d + offset);
            dst.push(s + offset);
        }
    }
}

impl Batch {
    /// Collates graphs into a batch.
    ///
    /// When `mirror` is true, each edge `s -> d` also contributes a reverse
    /// edge `d -> s`, which is the standard treatment for CDFGs where QoR
    /// effects flow against def-use direction too.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or feature dimensions are inconsistent.
    pub fn from_graphs(graphs: &[&GraphData], mirror: bool) -> Self {
        assert!(!graphs.is_empty(), "cannot batch zero graphs");
        let feat_dim = graphs[0].feat_dim();
        let g_feat_dim = graphs[0].g_feats.len();
        let total_nodes: usize = graphs.iter().map(|g| g.num_nodes()).sum();

        let mut x = Matrix::zeros(total_nodes, feat_dim);
        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut graph_of_node = Vec::with_capacity(total_nodes);
        let mut g_feats = Matrix::zeros(graphs.len(), g_feat_dim);

        let mut offset = 0u32;
        for (gi, g) in graphs.iter().enumerate() {
            assert_eq!(g.feat_dim(), feat_dim, "inconsistent node feature dims");
            assert_eq!(
                g.g_feats.len(),
                g_feat_dim,
                "inconsistent graph feature dims"
            );
            for r in 0..g.num_nodes() {
                x.row_mut(offset as usize + r).copy_from_slice(g.x.row(r));
                graph_of_node.push(gi as u32);
            }
            push_edges(&mut src, &mut dst, g, offset, mirror);
            for (j, &v) in g.g_feats.iter().enumerate() {
                g_feats[(gi, j)] = v;
            }
            offset += g.num_nodes() as u32;
        }
        Self::assemble(x, src, dst, graph_of_node, graphs.len(), g_feats)
    }

    /// A batch of one graph, taking its feature matrix instead of copying
    /// it; equal to `Batch::from_graphs(&[&graph], mirror)`.
    pub fn from_graph(graph: GraphData, mirror: bool) -> Self {
        let mut src = Vec::new();
        let mut dst = Vec::new();
        push_edges(&mut src, &mut dst, &graph, 0, mirror);
        let n = graph.num_nodes();
        let g_feats = Matrix::from_vec(1, graph.g_feats.len(), graph.g_feats);
        Self::assemble(graph.x, src, dst, vec![0; n], 1, g_feats)
    }

    /// A batch of one graph given by its quotient: `graph.x` holds one row
    /// per class of nodes, `graph.src`/`graph.dst` each class
    /// representative's in-edges, already mirrored, with both ends as
    /// classes, and `classes[i]` is the class of node `i`.
    ///
    /// When the classes are stable (every node of a class has the same
    /// input row and the same in-neighbour classes in edge order) and
    /// each representative's in-edges keep their batch order, every
    /// propagation layer's rows equal, bit for bit, the representatives'
    /// rows of the full mirrored batch: each row reads only its own input
    /// and its in-edges in order, GCN's degrees are class-invariant and
    /// its self-loops still come last. Pooling gathers the last layer back
    /// to the nodes in node order, and PNA's δ averages over the nodes, so
    /// the graph embedding equals the full batch's too.
    ///
    /// Every edge end and every class must be a row. Debug builds check
    /// that here; otherwise the first layer reading an index past the rows
    /// panics.
    pub fn quotient(graph: GraphData, classes: Arc<Vec<u32>>) -> Self {
        let rows = graph.num_nodes() as u32;
        debug_assert!(
            classes
                .iter()
                .chain(&graph.src)
                .chain(&graph.dst)
                .all(|&c| c < rows),
            "quotient index out of bounds for {rows} rows"
        );
        let n = classes.len();
        let g_feats = Matrix::from_vec(1, graph.g_feats.len(), graph.g_feats);
        let mut batch = Self::assemble(graph.x, graph.src, graph.dst, vec![0; n], 1, g_feats);
        batch.classes = Some(classes);
        batch
    }

    fn assemble(
        x: Matrix,
        src: Vec<u32>,
        dst: Vec<u32>,
        graph_of_node: Vec<u32>,
        n_graphs: usize,
        g_feats: Matrix,
    ) -> Self {
        let mut in_deg = vec![0.0f32; x.rows()];
        for &d in &dst {
            in_deg[d as usize] += 1.0;
        }
        Batch {
            x,
            src: Arc::new(src),
            dst: Arc::new(dst),
            graph_of_node: Arc::new(graph_of_node),
            n_graphs,
            in_deg,
            g_feats,
            classes: None,
            gcn: OnceLock::new(),
        }
    }

    /// The GCN edge list with self-loops and normalization coefficients,
    /// built on the first call.
    pub fn gcn(&self) -> &GcnEdges {
        self.gcn.get_or_init(|| {
            // self-loops added, symmetric normalization 1/sqrt(d_i * d_j)
            // where degrees count the self-loop
            let total_nodes = self.num_rows();
            let mut src = self.src.as_ref().clone();
            let mut dst = self.dst.as_ref().clone();
            for i in 0..total_nodes as u32 {
                src.push(i);
                dst.push(i);
            }
            let mut deg_loop = vec![1.0f32; total_nodes];
            for &d in self.dst.iter() {
                deg_loop[d as usize] += 1.0;
            }
            let mut coef = Matrix::zeros(src.len(), 1);
            for e in 0..src.len() {
                let ds = deg_loop[src[e] as usize];
                let dd = deg_loop[dst[e] as usize];
                coef[(e, 0)] = 1.0 / (ds * dd).sqrt();
            }
            GcnEdges {
                src: Arc::new(src),
                dst: Arc::new(dst),
                coef,
            }
        })
    }

    /// Total rows in the batch: its nodes, or a quotient's classes.
    pub fn num_rows(&self) -> usize {
        self.x.rows()
    }

    /// Total nodes in the batch.
    pub fn num_nodes(&self) -> usize {
        self.graph_of_node.len()
    }

    /// Total (possibly mirrored) edges in the batch.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, edges: &[(u32, u32)]) -> GraphData {
        let x = Matrix::from_fn(n, 2, |r, c| (r * 2 + c) as f32);
        GraphData::new(
            x,
            edges.iter().map(|e| e.0).collect(),
            edges.iter().map(|e| e.1).collect(),
        )
    }

    #[test]
    fn batch_offsets_node_indices() {
        let a = toy(2, &[(0, 1)]);
        let b = toy(3, &[(0, 2), (1, 2)]);
        let batch = Batch::from_graphs(&[&a, &b], false);
        assert_eq!(batch.num_nodes(), 5);
        assert_eq!(batch.num_edges(), 3);
        assert_eq!(batch.src.as_slice(), &[0, 2, 3]);
        assert_eq!(batch.dst.as_slice(), &[1, 4, 4]);
        assert_eq!(batch.graph_of_node.as_slice(), &[0, 0, 1, 1, 1]);
    }

    #[test]
    fn mirroring_doubles_edges() {
        let a = toy(3, &[(0, 1), (1, 2)]);
        let batch = Batch::from_graphs(&[&a], true);
        assert_eq!(batch.num_edges(), 4);
        assert_eq!(batch.in_deg, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn gcn_self_loops_present() {
        let a = toy(2, &[(0, 1)]);
        let batch = Batch::from_graphs(&[&a], false);
        assert_eq!(batch.gcn().src.len(), 1 + 2);
        // isolated-ish node 0 has degree 1 (self loop only)
        let coef_self_0 = batch.gcn().coef[(1, 0)];
        assert!((coef_self_0 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn owned_single_graph_batch_equals_collated() {
        let mut a = toy(4, &[(0, 1), (1, 2), (2, 2), (3, 0)]);
        a.g_feats = vec![5.0, 6.0];
        let collated = Batch::from_graphs(&[&a], true);
        let owned = Batch::from_graph(a, true);
        assert_eq!(owned.x, collated.x);
        assert_eq!(owned.src, collated.src);
        assert_eq!(owned.dst, collated.dst);
        assert_eq!(owned.graph_of_node, collated.graph_of_node);
        assert_eq!(owned.in_deg, collated.in_deg);
        assert_eq!(owned.g_feats, collated.g_feats);
        assert_eq!(owned.gcn().coef, collated.gcn().coef);
    }

    #[test]
    fn graph_features_stack() {
        let mut a = toy(2, &[(0, 1)]);
        a.g_feats = vec![1.0, 2.0];
        let mut b = toy(2, &[(0, 1)]);
        b.g_feats = vec![3.0, 4.0];
        let batch = Batch::from_graphs(&[&a, &b], false);
        assert_eq!(batch.g_feats.row(0), &[1.0, 2.0]);
        assert_eq!(batch.g_feats.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_edge_panics() {
        let _ = GraphData::new(Matrix::zeros(2, 1), vec![0], vec![5]);
    }
}
