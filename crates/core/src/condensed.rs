//! The condensed whole-design graph of §III-C.2, split into the part a
//! design's source and pragmas fix and the part the weights fill in.
//!
//! `GNN_g` reads a CDFG in which every inner region is one super node
//! carrying that region's predicted QoR. Only those super-node rows (and
//! the aggregates that sum them) depend on the inner models; every other
//! node, every edge and every count is fixed by the source and the
//! pragmas. A [`Skeleton`] stores that fixed part once, compactly, and
//! [`Skeleton::materialize`] writes the super rows and the aggregates
//! into it per prediction, producing exactly the bytes `graph_to_gnn` +
//! `graph_aggregates` produce for the condensed [`GraphBuilder`] graph.
//! Training reads that whole graph; inference reads its [`Quotient`] through
//! [`Skeleton::materialize_quotient`]: one row per class of nodes whose
//! `GNN_g` activations are equal under any weights.
//!
//! The structure depends on less than the whole configuration, so many
//! designs share one skeleton. A [`CondensedSpec`] is that projection:
//!
//! * which loops are region roots (not whether they are pipelined);
//! * the unroll factors the builder reads: those of loops outside every
//!   region, plus — because an unrolled loop sizes its replicas by its
//!   subtree's node estimate — every factor below an unrolled outer loop;
//! * every array's partitions.
//!
//! Two designs with equal specs build equal skeletons; the skeleton is
//! built from the spec's own restricted configuration, so it is a
//! function of the spec by construction.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

use cdfg::{Graph, GraphBuilder, GraphOptions, NodeKind, SuperFeatures};
use gnn::GraphData;
use hir::{Function, HirLoop, Item};
use pragma::{ArrayPartition, LoopId, PragmaConfig, Unroll};
use tensor::Matrix;

use crate::features::{count_features, mnemonic_index, write_row, AggregateSums, FEATURE_DIM};
use crate::hash::Fnv1aHasher;

/// What a design's condensed-graph structure depends on (see the
/// [module docs](self)). Loops are indices into [`Function::loops`].
#[derive(Debug, PartialEq)]
pub struct CondensedSpec {
    /// Region roots, in hierarchy order: region `r` of a skeleton is
    /// `roots[r]`.
    roots: Vec<u32>,
    /// `(loop, factor)` for every loop the builder reads whose unroll
    /// factor is above 1, in pre-order.
    factors: Vec<(u32, u64)>,
    /// Every array's partitions, arrays in order, dimensions flattened.
    partitions: Vec<ArrayPartition>,
    /// The builder's node budget.
    max_nodes: usize,
    fingerprint: u64,
}

impl CondensedSpec {
    /// The spec of a design whose inner regions are `roots` (hierarchy
    /// order), whose arrays are partitioned as `partitions` (one entry
    /// per [`Function::arrays`], dimension-indexed from 0), and whose
    /// loops, by index into [`Function::loops`], are unrolled as `unroll`
    /// says, built under a `max_nodes` budget. `unroll` is asked for
    /// exactly the loops the condensed build reads, in pre-order.
    pub(crate) fn new<P: AsRef<Vec<ArrayPartition>>>(
        func: &Function,
        max_nodes: usize,
        roots: &[LoopId],
        partitions: &[P],
        mut unroll: impl FnMut(usize) -> Unroll,
    ) -> Self {
        let mut factors = Vec::new();
        for item in &func.body.items {
            if let Item::Loop(l) = item {
                read_factors(func, l, roots, false, &mut unroll, &mut factors);
            }
        }
        let partitions: Vec<ArrayPartition> = partitions
            .iter()
            .flat_map(|p| p.as_ref().iter().copied())
            .collect();
        let roots: Vec<u32> = roots.iter().map(|id| loop_index(func, id)).collect();
        let mut h = Fnv1aHasher::new();
        h.write_u64(max_nodes as u64);
        for &r in &roots {
            h.write_u32(r);
        }
        h.write(&[0xfe]);
        for &(i, f) in &factors {
            h.write_u32(i);
            h.write_u64(f);
        }
        h.write(&[0xfe]);
        for p in &partitions {
            h.write(&[p.kind as u8]);
            h.write_u32(p.factor);
        }
        CondensedSpec {
            roots,
            factors,
            partitions,
            max_nodes,
            fingerprint: h.finish(),
        }
    }

    /// Stable FNV-1a fingerprint of the whole spec.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The region roots and the restricted configuration (the read unroll
    /// factors and every partition) the skeleton is built from.
    fn restricted(&self, func: &Function) -> (Vec<LoopId>, PragmaConfig) {
        let id = |i: u32| func.loops()[i as usize].id.clone();
        let mut cfg = PragmaConfig::new();
        for &(i, factor) in &self.factors {
            let unroll = u32::try_from(factor).map_or(Unroll::Full, Unroll::Factor);
            cfg.set_unroll(id(i), unroll);
        }
        let mut parts = self.partitions.iter();
        for info in &func.arrays {
            for d in 1..=info.dims.len() as u32 {
                let p = parts.next().expect("condensed: a partition per dimension");
                cfg.set_partition(info.name.clone(), d, *p);
            }
        }
        (self.roots.iter().map(|&r| id(r)).collect(), cfg)
    }
}

/// The index of loop `id` in [`Function::loops`].
fn loop_index(func: &Function, id: &LoopId) -> u32 {
    func.loops()
        .iter()
        .position(|meta| meta.id == *id)
        .expect("condensed: a loop of the function") as u32
}

/// Records the factor of `l` when the condensed build reads it, then
/// visits its children. A region's interior is never emitted, so only an
/// unrolled loop above it, estimating its replicas' size, reads the
/// factors inside.
fn read_factors(
    func: &Function,
    l: &HirLoop,
    roots: &[LoopId],
    unrolled_above: bool,
    unroll: &mut impl FnMut(usize) -> Unroll,
    factors: &mut Vec<(u32, u64)>,
) {
    let root = roots.contains(&l.id);
    if root && !unrolled_above {
        return;
    }
    let index = loop_index(func, &l.id);
    let factor = unroll(index as usize).factor(l.trip_count().max(1));
    if factor > 1 {
        factors.push((index, factor));
    }
    let unrolled = unrolled_above || (!root && factor > 1);
    for c in l.children() {
        read_factors(func, c, roots, unrolled, unroll, factors);
    }
}

/// A [`CondensedSpec`] plus its [`Skeleton`], built by the first caller
/// that needs it (see [`CondensedSlot::skeleton`]).
///
/// Equality compares the specs only: the skeleton is a function of the
/// spec and the function, which one slot never changes.
pub struct CondensedSlot {
    spec: Arc<CondensedSpec>,
    skeleton: OnceLock<Skeleton>,
}

impl CondensedSlot {
    /// An empty slot for `spec`.
    pub(crate) fn new(spec: Arc<CondensedSpec>) -> Self {
        CondensedSlot {
            spec,
            skeleton: OnceLock::new(),
        }
    }

    /// The skeleton, built from `func` on the first call, and whether
    /// this call built it. Concurrent first calls build once: the others
    /// wait for it.
    ///
    /// Every call on one slot must pass the function the spec was taken
    /// from.
    pub(crate) fn skeleton(&self, func: &Function) -> (&Skeleton, bool) {
        let mut built = false;
        let skeleton = self.skeleton.get_or_init(|| {
            built = true;
            Skeleton::build(func, &self.spec)
        });
        (skeleton, built)
    }

    /// The condensed graph whose region `r` carries `supers[r]` (see
    /// [`Skeleton::materialize`]), and whether this call built the
    /// skeleton.
    pub(crate) fn graph(&self, func: &Function, supers: &[SuperFeatures]) -> (GraphData, bool) {
        let (skeleton, built) = self.skeleton(func);
        (skeleton.materialize(supers), built)
    }
}

impl PartialEq for CondensedSlot {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
    }
}

impl std::fmt::Debug for CondensedSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CondensedSlot")
            .field("spec", &self.spec)
            .field("built", &self.skeleton.get().is_some())
            .finish()
    }
}

/// The weight-independent part of one condensed graph, in node order.
///
/// Unroll replicas repeat the same rows, so each distinct row is kept
/// once and every node names its row.
pub(crate) struct Skeleton {
    /// The distinct node rows.
    rows: Vec<NodeRow>,
    /// Per node: its index into `rows`.
    nodes: Vec<u32>,
    /// Each edge once, `src, dst` per edge in graph order.
    edges: Indices,
    /// Per super node, in node order: its position and its region's
    /// index into the spec's roots.
    supers: Vec<(u32, u32)>,
    /// The colour-refinement quotient `GNN_g` inference runs over, built
    /// by the first inference that reads it (or by
    /// `HierarchicalModel::prepare`); training never does.
    quotient: OnceLock<Quotient>,
}

/// Node indices of one graph: two bytes each when every node index fits,
/// four otherwise. Edges outnumber nodes three to one, so this halves
/// most skeletons.
enum Indices {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Indices {
    /// `values`, node indices of a graph of `nodes` nodes, at exact
    /// capacity.
    fn new(nodes: usize, values: &[u32]) -> Self {
        if u16::try_from(nodes).is_ok() {
            Indices::Narrow(values.iter().map(|&v| v as u16).collect())
        } else {
            Indices::Wide(values.to_vec())
        }
    }

    fn len(&self) -> usize {
        match self {
            Indices::Narrow(v) => v.len(),
            Indices::Wide(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> u32 {
        match self {
            Indices::Narrow(v) => u32::from(v[i]),
            Indices::Wide(v) => v[i],
        }
    }

    /// Pairs of consecutive indices (edges), unzipped into their first
    /// and second ends.
    fn unzip(&self) -> (Vec<u32>, Vec<u32>) {
        match self {
            Indices::Narrow(v) => v
                .chunks_exact(2)
                .map(|e| (u32::from(e[0]), u32::from(e[1])))
                .unzip(),
            Indices::Wide(v) => v.chunks_exact(2).map(|e| (e[0], e[1])).unzip(),
        }
    }
}

/// The classes of a skeleton's nodes whose `GNN_g` activations are equal,
/// bit for bit, under any weights and any super features, and the edges
/// one row per class reads.
///
/// Colour refinement over the mirrored edges `Batch::from_graph(_, true)`
/// builds — per edge `s → d`, then `d → s` unless `s == d`. The start
/// classes are the distinct rows, each super node alone; each round, a
/// node's new class is its old class and its in-neighbours' old classes
/// in edge order; refinement stops when the class count stops rising.
/// At that fixed point every node of a class has an equal input row and
/// equal in-neighbour classes in edge order, so every propagation layer
/// gives its nodes equal rows, at any depth (see `gnn::Batch::quotient`).
pub(crate) struct Quotient {
    /// Per node: its class, shared with every batch built over the
    /// quotient.
    classes: Arc<Vec<u32>>,
    /// Per class: its representative, the class's first node; ascending.
    reps: Indices,
    /// The representatives' mirrored in-edges in batch order, `src, dst`
    /// per edge, both ends as classes.
    edges: Indices,
}

/// One refinement key's hash step (an FxHash-style mix).
fn mix(h: u64, v: u32) -> u64 {
    (h.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x517c_c1b7_2722_0a95)
}

impl Quotient {
    fn of(skeleton: &Skeleton) -> Self {
        let n = skeleton.num_nodes();
        // the mirrored edges, in batch order
        let (src, dst) = skeleton.edges.unzip();
        let mut mirrored = Vec::with_capacity(2 * src.len());
        for (&s, &d) in src.iter().zip(&dst) {
            mirrored.push((s, d));
            if s != d {
                mirrored.push((d, s));
            }
        }
        // each node's in-neighbours in edge order: `nbrs[start[v]..start[v + 1]]`
        let mut start = vec![0usize; n + 1];
        for &(_, d) in &mirrored {
            start[d as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut nbrs = vec![0u32; mirrored.len()];
        for &(s, d) in &mirrored {
            nbrs[fill[d as usize]] = s;
            fill[d as usize] += 1;
        }

        // start classes: the distinct rows, each super node alone, numbered
        // in order of first occurrence
        let mut class = vec![0u32; n];
        let mut first = vec![u32::MAX; skeleton.rows.len()];
        let mut count = 0u32;
        let mut supers = skeleton.supers.iter().map(|&(i, _)| i as usize).peekable();
        for (v, c) in class.iter_mut().enumerate() {
            let row = &mut first[skeleton.nodes[v] as usize];
            if supers.next_if_eq(&v).is_some() {
                *c = count;
            } else if *row == u32::MAX {
                *row = count;
                *c = count;
            } else {
                *c = *row;
                continue;
            }
            count += 1;
        }

        // refine; a key is (own class, in-neighbour classes), hashed into
        // an open-addressed table of `(hash, class)` and checked exactly
        // against its class's representative
        const EMPTY: u32 = u32::MAX;
        let mask = (2 * n).next_power_of_two() - 1;
        let mut table = vec![(0u64, EMPTY); mask + 1];
        let mut next = vec![0u32; n];
        let mut reps: Vec<u32> = Vec::new();
        loop {
            table.fill((0, EMPTY));
            reps.clear();
            let key = |v: usize| (class[v], &nbrs[start[v]..start[v + 1]]);
            for (v, new) in next.iter_mut().enumerate() {
                let (own, ins) = key(v);
                let h = ins
                    .iter()
                    .fold(mix(0, own), |h, &u| mix(h, class[u as usize]));
                let mut slot = h as usize & mask;
                *new = loop {
                    let (sh, c) = table[slot];
                    if c == EMPTY {
                        table[slot] = (h, reps.len() as u32);
                        reps.push(v as u32);
                        break reps.len() as u32 - 1;
                    }
                    let (rep_own, rep_ins) = key(reps[c as usize] as usize);
                    if sh == h
                        && rep_own == own
                        && rep_ins.len() == ins.len()
                        && rep_ins
                            .iter()
                            .zip(ins)
                            .all(|(&a, &b)| class[a as usize] == class[b as usize])
                    {
                        break c;
                    }
                    slot = (slot + 1) & mask;
                };
            }
            std::mem::swap(&mut class, &mut next);
            let rose = reps.len() as u32 > count;
            count = reps.len() as u32;
            if !rose {
                break;
            }
        }

        // the representatives' in-edges, in batch order, as classes
        let mut edges = Vec::new();
        for &(s, d) in &mirrored {
            let cd = class[d as usize];
            if reps[cd as usize] == d {
                edges.extend([class[s as usize], cd]);
            }
        }
        Quotient {
            classes: Arc::new(class),
            reps: Indices::new(n, &reps),
            edges: Indices::new(n, &edges),
        }
    }
}

/// What a node's feature row and its share of the aggregates read, apart
/// from a super node's annotation.
struct NodeRow {
    /// Its [`mnemonic_index`].
    mnemonic: u8,
    /// Its [`count_features`].
    counts: [f32; 4],
    invocations: u64,
    hw_weight: u64,
}

impl NodeRow {
    /// The row's identity, floats by their bits.
    fn key(&self) -> (u8, [u32; 4], u64, u64) {
        (
            self.mnemonic,
            self.counts.map(f32::to_bits),
            self.invocations,
            self.hw_weight,
        )
    }
}

impl Skeleton {
    /// Builds the condensed graph of `spec` with placeholder super
    /// features and keeps its skeleton.
    fn build(func: &Function, spec: &CondensedSpec) -> Self {
        let (roots, cfg) = spec.restricted(func);
        let placeholders = roots
            .iter()
            .map(|id| (id.clone(), SuperFeatures::default()))
            .collect();
        let graph = GraphBuilder::new(func, &cfg)
            .options(GraphOptions {
                max_nodes: spec.max_nodes,
            })
            .condense(placeholders)
            .build();
        Skeleton::of(&graph, &roots)
    }

    /// The skeleton of a condensed `graph` whose super nodes stand for
    /// `roots`.
    pub(crate) fn of(graph: &Graph, roots: &[LoopId]) -> Self {
        let in_deg = graph.in_degrees();
        let out_deg = graph.out_degrees();
        let mut rows = Vec::new();
        let mut row_of = HashMap::new();
        let mut nodes = Vec::with_capacity(graph.num_nodes());
        let mut supers = Vec::new();
        for (i, node) in graph.nodes.iter().enumerate() {
            if let NodeKind::Super { loop_id, .. } = &node.kind {
                let region = roots
                    .iter()
                    .position(|r| r == loop_id)
                    .expect("condensed: every super node is a region root");
                supers.push((i as u32, region as u32));
            }
            let row = NodeRow {
                mnemonic: mnemonic_index(node.mnemonic) as u8,
                counts: count_features(node.invocations, in_deg[i], out_deg[i], node.hw_weight),
                invocations: node.invocations,
                hw_weight: node.hw_weight,
            };
            let index = *row_of.entry(row.key()).or_insert_with(|| {
                rows.push(row);
                rows.len() as u32 - 1
            });
            nodes.push(index);
        }
        rows.shrink_to_fit();
        let ends: Vec<u32> = graph.edges.iter().flat_map(|e| [e.src, e.dst]).collect();
        Skeleton {
            rows,
            nodes,
            edges: Indices::new(graph.num_nodes(), &ends),
            supers,
            quotient: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The GNN input of the condensed graph whose region `r` carries
    /// `supers[r]`: node features, edges and graph aggregates, equal to
    /// `graph_to_gnn` + `graph_aggregates` of that graph.
    pub(crate) fn materialize(&self, supers: &[SuperFeatures]) -> GraphData {
        let (x, g_feats) = self.write(supers, None);
        let (src, dst) = self.edges.unzip();
        GraphData {
            x,
            src,
            dst,
            g_feats,
        }
    }

    /// The input of `gnn::Batch::quotient` for the condensed graph whose
    /// region `r` carries `supers[r]`: the quotient classes'
    /// representatives' rows of [`Skeleton::materialize`], their mirrored
    /// in-edges as classes, the aggregates of every node, and the class of
    /// every node.
    pub(crate) fn materialize_quotient(
        &self,
        supers: &[SuperFeatures],
    ) -> (GraphData, Arc<Vec<u32>>) {
        let quotient = self.quotient();
        let (x, g_feats) = self.write(supers, Some(&quotient.reps));
        let (src, dst) = quotient.edges.unzip();
        let data = GraphData {
            x,
            src,
            dst,
            g_feats,
        };
        (data, Arc::clone(&quotient.classes))
    }

    /// The skeleton's quotient, refined on the first call.
    pub(crate) fn quotient(&self) -> &Quotient {
        self.quotient.get_or_init(|| Quotient::of(self))
    }

    /// The feature rows of the nodes `reps` lists (ascending; every node
    /// when `None`) and the graph aggregates over every node, in node
    /// order, for region `r` carrying `supers[r]`.
    fn write(&self, supers: &[SuperFeatures], reps: Option<&Indices>) -> (Matrix, Vec<f32>) {
        let n = self.num_nodes();
        let mut x = Matrix::zeros(reps.map_or(n, Indices::len), FEATURE_DIM);
        let mut out = 0;
        let mut sums = AggregateSums::default();
        let mut next = self.supers.iter().peekable();
        for i in 0..n {
            let features = match next.peek() {
                Some(&&(row, region)) if row as usize == i => {
                    next.next();
                    Some(&supers[region as usize])
                }
                _ => None,
            };
            let row = &self.rows[self.nodes[i] as usize];
            let index = usize::from(row.mnemonic);
            if out < x.rows() && reps.is_none_or(|r| r.get(out) as usize == i) {
                write_row(x.row_mut(out), index, &row.counts, features);
                out += 1;
            }
            sums.add(index, row.invocations, row.hw_weight, features);
        }
        (x, sums.finish(n, self.edges.len() / 2))
    }
}

/// One array's partitions under `cfg`, dimension-indexed from 0: the
/// value of its `ArrayCfg` input and its entry in a [`CondensedSpec`].
pub(crate) fn array_partitions(
    func: &Function,
    cfg: &PragmaConfig,
    array: usize,
) -> Vec<ArrayPartition> {
    let info = &func.arrays[array];
    (1..=info.dims.len() as u32)
        .map(|d| cfg.partition(&info.name, d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{graph_aggregates, graph_to_gnn};
    use cdfg::{EdgeKind, Node};

    /// A chain of `n` nodes with a super node at `n / 2`, condensed from
    /// region `[0]`.
    fn chain(n: usize, features: SuperFeatures) -> Graph {
        let mut g = Graph::default();
        for i in 0..n {
            let (kind, mnemonic) = if i == n / 2 {
                let loop_id = LoopId::from_path(&[0]);
                (NodeKind::Super { loop_id, features }, "super")
            } else {
                let kind = NodeKind::Instr {
                    op: None,
                    replica: 0,
                };
                (kind, ["fadd", "load", "port", "br"][i % 4])
            };
            g.add_node(Node {
                kind,
                mnemonic,
                loop_path: LoopId::root(),
                invocations: 1 + (i % 7) as u64,
                hw_weight: 1 + (i % 3) as u64,
            });
        }
        for i in 1..n as u32 {
            g.add_edge(i - 1, i, EdgeKind::Data);
        }
        g.add_edge(n as u32 - 1, 0, EdgeKind::Control);
        g
    }

    fn check(n: usize) {
        let features = SuperFeatures {
            latency: 900.0,
            il: 12.0,
            ii: 3.0,
            tc: 40.0,
            lut: 700.0,
            ff: 800.0,
            dsp: 5.0,
        };
        let graph = chain(n, features);
        let skeleton = Skeleton::of(&graph, &[LoopId::from_path(&[0])]);
        assert_eq!(skeleton.num_nodes(), n);
        let got = skeleton.materialize(&[features]);
        let mut want = graph_to_gnn(&graph);
        want.g_feats = graph_aggregates(&graph);
        assert_eq!(got, want);
    }

    #[test]
    fn narrow_edges_materialize_the_graph() {
        check(300);
    }

    #[test]
    fn wide_edges_materialize_the_graph() {
        // more nodes than a two-byte index can name
        check(usize::from(u16::MAX) + 10);
    }

    /// Adds a node of `mnemonic`; a super node stands for region `[r]`.
    fn node(g: &mut Graph, mnemonic: &'static str, region: Option<u16>) -> u32 {
        let kind = match region {
            Some(r) => NodeKind::Super {
                loop_id: LoopId::from_path(&[r]),
                features: SuperFeatures::default(),
            },
            None => NodeKind::Instr {
                op: None,
                replica: 0,
            },
        };
        g.add_node(Node {
            kind,
            mnemonic,
            loop_path: LoopId::root(),
            invocations: 4,
            hw_weight: 1,
        })
    }

    /// The quotient class of every node of `g`, whose super nodes stand
    /// for regions `[0]`, `[1]`, ...
    fn classes(g: &Graph) -> Vec<u32> {
        let supers = g
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Super { .. }))
            .count();
        let roots: Vec<LoopId> = (0..supers as u16)
            .map(|r| LoopId::from_path(&[r]))
            .collect();
        let features = vec![SuperFeatures::default(); supers];
        Skeleton::of(g, &roots)
            .materialize_quotient(&features)
            .1
            .to_vec()
    }

    #[test]
    fn unroll_replicas_share_a_class() {
        // a load feeding two replicas of `fmul -> store`
        let mut g = Graph::default();
        let load = node(&mut g, "load", None);
        for _ in 0..2 {
            let mul = node(&mut g, "fmul", None);
            let store = node(&mut g, "store", None);
            g.add_edge(load, mul, EdgeKind::Data);
            g.add_edge(mul, store, EdgeKind::Data);
        }
        assert_eq!(classes(&g), [0, 1, 2, 1, 2]);
    }

    #[test]
    fn equal_rows_with_reordered_neighbours_differ() {
        // `x` hears `a` then `b`, `y` hears `b` then `a`
        let mut g = Graph::default();
        let a = node(&mut g, "fadd", None);
        let b = node(&mut g, "load", None);
        let x = node(&mut g, "fmul", None);
        let y = node(&mut g, "fmul", None);
        g.add_edge(a, x, EdgeKind::Data);
        g.add_edge(b, x, EdgeKind::Data);
        g.add_edge(b, y, EdgeKind::Data);
        g.add_edge(a, y, EdgeKind::Data);
        let rows = Skeleton::of(&g, &[]).nodes;
        assert_eq!(rows[x as usize], rows[y as usize]);
        assert_eq!(classes(&g), [0, 1, 2, 3]);
    }

    #[test]
    fn a_self_loop_differs_from_a_pass_through() {
        // both have one in- and one out-edge, so equal rows; mirrored, the
        // self-loop hears one message and the pass-through two
        let mut g = Graph::default();
        let looped = node(&mut g, "fadd", None);
        let from = node(&mut g, "fadd", None);
        let through = node(&mut g, "fadd", None);
        let to = node(&mut g, "fadd", None);
        g.add_edge(looped, looped, EdgeKind::Data);
        g.add_edge(from, through, EdgeKind::Data);
        g.add_edge(through, to, EdgeKind::Data);
        let rows = Skeleton::of(&g, &[]).nodes;
        assert_eq!(rows[looped as usize], rows[through as usize]);
        assert_eq!(classes(&g), [0, 1, 2, 3]);
    }

    #[test]
    fn super_nodes_never_merge() {
        // two super nodes with equal rows in symmetric places
        let mut g = Graph::default();
        let port = node(&mut g, "port", None);
        let first = node(&mut g, "super", Some(0));
        let second = node(&mut g, "super", Some(1));
        g.add_edge(port, first, EdgeKind::Data);
        g.add_edge(port, second, EdgeKind::Data);
        assert_eq!(classes(&g), [0, 1, 2]);
    }

    #[test]
    fn wide_graphs_refine() {
        // replicas of one chain past a two-byte index: a port and then
        // `fmul -> store` pairs, two classes among them
        let pairs = usize::from(u16::MAX) / 2 + 8;
        let mut g = Graph::default();
        let port = node(&mut g, "port", None);
        for _ in 0..pairs {
            let mul = node(&mut g, "fmul", None);
            let store = node(&mut g, "store", None);
            g.add_edge(port, mul, EdgeKind::Data);
            g.add_edge(mul, store, EdgeKind::Data);
        }
        let c = classes(&g);
        assert_eq!(c.len(), 1 + 2 * pairs);
        assert_eq!(c[..5], [0, 1, 2, 1, 2]);
        assert_eq!(c.iter().max(), Some(&2));
    }
}
