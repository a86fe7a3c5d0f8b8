//! The pragma-aware graph emitter.

use std::collections::{BTreeMap, HashMap};

use hir::{Block, Function, HirLoop, Item, OpId, OpKind, Operand};
use pragma::{LoopId, PragmaConfig};

use crate::banks::bank_candidates;
use crate::graph::{EdgeKind, Graph, Node, NodeKind, SuperFeatures};

/// Builder options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphOptions {
    /// Soft cap on emitted nodes. When unrolling would exceed the cap,
    /// fewer replicas are materialized and the `#invocation` feature of the
    /// emitted ones is scaled up to preserve totals.
    pub max_nodes: usize,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions { max_nodes: 640 }
    }
}

/// Builds [`Graph`]s from a function + pragma configuration.
///
/// See the [crate docs](crate) for the construction rules.
#[derive(Debug)]
pub struct GraphBuilder<'a> {
    func: &'a Function,
    cfg: &'a PragmaConfig,
    opts: GraphOptions,
    condense: BTreeMap<LoopId, SuperFeatures>,
    scope: Option<LoopId>,
}

impl<'a> GraphBuilder<'a> {
    /// Creates a builder for the whole function.
    pub fn new(func: &'a Function, cfg: &'a PragmaConfig) -> Self {
        GraphBuilder {
            func,
            cfg,
            opts: GraphOptions::default(),
            condense: BTreeMap::new(),
            scope: None,
        }
    }

    /// Overrides the default options.
    pub fn options(mut self, opts: GraphOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Restricts construction to the subgraph of one loop (the paper's
    /// inner-hierarchy extraction).
    pub fn subgraph(mut self, loop_id: LoopId) -> Self {
        self.scope = Some(loop_id);
        self
    }

    /// Replaces the given loops by super nodes carrying `features` (the
    /// paper's condensation step for the outer hierarchy).
    pub fn condense(mut self, supers: BTreeMap<LoopId, SuperFeatures>) -> Self {
        self.condense = supers;
        self
    }

    /// Builds the graph.
    ///
    /// # Panics
    ///
    /// Panics if a requested subgraph loop does not exist.
    pub fn build(self) -> Graph {
        let sp = obs::span("cdfg_build");
        sp.attr("func", self.func.name.as_str());
        let mut em = Emitter {
            func: self.func,
            cfg: self.cfg,
            opts: self.opts,
            condense: &self.condense,
            graph: Graph::default(),
            ports: HashMap::new(),
        };
        let mut env: Env = HashMap::new();
        let residues = HashMap::new();
        match &self.scope {
            Some(id) => {
                let l = self
                    .func
                    .find_loop(id)
                    .unwrap_or_else(|| panic!("subgraph loop {id} not found"));
                em.emit_loop(l, &mut env, &residues, 1, 1, None);
            }
            None => {
                em.emit_block(&self.func.body, &mut env, &residues, 1, 1, None);
            }
        }
        sp.attr("nodes", em.graph.nodes.len());
        sp.attr("edges", em.graph.edges.len());
        obs::metrics::counter_add("cdfg/graphs_built", 1);
        obs::metrics::counter_add("cdfg/nodes_emitted", em.graph.nodes.len() as u64);
        em.graph
    }
}

type Env = HashMap<OpId, u32>;
type Residues = HashMap<LoopId, (u32, u32)>;

struct Emitter<'a> {
    func: &'a Function,
    cfg: &'a PragmaConfig,
    opts: GraphOptions,
    condense: &'a BTreeMap<LoopId, SuperFeatures>,
    graph: Graph,
    ports: HashMap<(String, u32), u32>,
}

impl<'a> Emitter<'a> {
    fn port_node(&mut self, array: &str, bank: u32) -> u32 {
        if let Some(&n) = self.ports.get(&(array.to_string(), bank)) {
            return n;
        }
        let idx = self.graph.add_node(Node {
            kind: NodeKind::MemPort {
                array: array.to_string(),
                bank,
            },
            mnemonic: "port",
            loop_path: LoopId::root(),
            invocations: 1,
            hw_weight: 1,
        });
        self.ports.insert((array.to_string(), bank), idx);
        idx
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_block(
        &mut self,
        block: &Block,
        env: &mut Env,
        residues: &Residues,
        invocations: u64,
        hw: u64,
        ctrl: Option<u32>,
    ) {
        for item in &block.items {
            match item {
                Item::Op(id) => {
                    self.emit_op(*id, env, residues, invocations, hw, ctrl, 0);
                }
                Item::Loop(l) => {
                    self.emit_loop(l, env, residues, invocations, hw, ctrl);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_op(
        &mut self,
        id: OpId,
        env: &mut Env,
        residues: &Residues,
        invocations: u64,
        hw: u64,
        ctrl: Option<u32>,
        replica: u32,
    ) -> u32 {
        let op = self.func.op(id);
        let idx = self.graph.add_node(Node {
            kind: NodeKind::Instr {
                op: Some(id),
                replica,
            },
            mnemonic: op.kind.mnemonic(),
            loop_path: op.in_loop.clone(),
            invocations,
            hw_weight: hw,
        });
        for operand in &op.operands {
            if let Operand::Value(v) = operand {
                if let Some(&src) = env.get(v) {
                    self.graph.add_edge(src, idx, EdgeKind::Data);
                }
            }
        }
        if let Some(c) = op.ctrl {
            if let Some(&src) = env.get(&c) {
                self.graph.add_edge(src, idx, EdgeKind::Control);
            }
        }
        if let Some(br) = ctrl {
            self.graph.add_edge(br, idx, EdgeKind::Control);
        }
        // memory-port edges
        match &op.kind {
            OpKind::Load { array, access } => {
                if let Some(info) = self.func.array(array) {
                    for bank in bank_candidates(info, self.cfg, access, residues) {
                        let p = self.port_node(array, bank);
                        self.graph.add_edge(p, idx, EdgeKind::Memory);
                    }
                }
            }
            OpKind::Store { array, access } => {
                if let Some(info) = self.func.array(array) {
                    for bank in bank_candidates(info, self.cfg, access, residues) {
                        let p = self.port_node(array, bank);
                        self.graph.add_edge(idx, p, EdgeKind::Memory);
                    }
                }
            }
            _ => {}
        }
        env.insert(id, idx);
        idx
    }

    fn emit_loop(
        &mut self,
        l: &HirLoop,
        env: &mut Env,
        residues: &Residues,
        invocations: u64,
        hw: u64,
        _ctrl: Option<u32>,
    ) {
        if let Some(features) = self.condense.get(&l.id) {
            self.emit_super(l, env, invocations, hw, *features);
            return;
        }

        let p = self.cfg.loop_pragma(&l.id);
        let tc = l.trip_count().max(1);
        let unroll = p.unroll.factor(tc);
        let iterations = tc.div_ceil(unroll.max(1));

        // node-budget clamping: emit fewer replicas, scale invocations
        let subtree = self.estimate_nodes(l);
        let remaining = self
            .opts
            .max_nodes
            .saturating_sub(self.graph.num_nodes())
            .max(subtree); // always allow at least one replica
        let emit_r = unroll.min((remaining / subtree.max(1)) as u64).max(1);
        let fold = unroll.div_ceil(emit_r); // replicas represented per emitted one
        let node_inv = invocations * iterations;
        let node_hw = hw * fold;

        let mut prev_env: Option<Env> = None;
        let mut first_phis: Vec<(OpId, u32)> = Vec::new();
        let mut last_env: Option<Env> = None;

        for j in 0..emit_r {
            let mut residues_j = residues.clone();
            if emit_r == unroll && unroll > 1 && l.step == 1 {
                residues_j.insert(l.id.clone(), (j as u32, unroll as u32));
            }

            // loop control: exit compare + branch
            let icmp = self.graph.add_node(Node {
                kind: NodeKind::Instr {
                    op: None,
                    replica: j as u32,
                },
                mnemonic: "icmp",
                loop_path: l.id.clone(),
                invocations: node_inv,
                hw_weight: node_hw,
            });
            let br = self.graph.add_node(Node {
                kind: NodeKind::Instr {
                    op: None,
                    replica: j as u32,
                },
                mnemonic: "br",
                loop_path: l.id.clone(),
                invocations: node_inv,
                hw_weight: node_hw,
            });
            self.graph.add_edge(icmp, br, EdgeKind::Data);
            self.graph.add_edge(br, icmp, EdgeKind::Control);

            let mut env_j = env.clone();

            // phis: initial value for replica 0, chained for later replicas
            for &phi in &l.phis {
                let phi_idx = self.graph.add_node(Node {
                    kind: NodeKind::Instr {
                        op: Some(phi),
                        replica: j as u32,
                    },
                    mnemonic: "phi",
                    loop_path: l.id.clone(),
                    invocations: node_inv,
                    hw_weight: node_hw,
                });
                let op = self.func.op(phi);
                if j == 0 {
                    if let Operand::Value(init) = &op.operands[0] {
                        if let Some(&src) = env.get(init) {
                            self.graph.add_edge(src, phi_idx, EdgeKind::Data);
                        }
                    }
                    first_phis.push((phi, phi_idx));
                } else if let Some(prev) = &prev_env {
                    if let Operand::Value(back) = &op.operands[1] {
                        if let Some(&src) = prev.get(back) {
                            self.graph.add_edge(src, phi_idx, EdgeKind::Data);
                        }
                    }
                }
                env_j.insert(phi, phi_idx);
            }

            self.emit_block(
                &l.body,
                &mut env_j,
                &residues_j,
                node_inv,
                node_hw,
                Some(br),
            );

            prev_env = Some(env_j.clone());
            last_env = Some(env_j);
        }

        // loop-carried edge: last replica's back-edge producers feed the
        // first replica's phis (closing the cycle across iterations)
        if let Some(last) = &last_env {
            for (phi, phi_idx) in &first_phis {
                if let Operand::Value(back) = &self.func.op(*phi).operands[1] {
                    if let Some(&src) = last.get(back) {
                        self.graph.add_edge(src, *phi_idx, EdgeKind::Data);
                    }
                }
            }
        }

        // values defined inside become visible to later consumers
        if let Some(last) = last_env {
            env.extend(last);
        }
    }

    fn emit_super(
        &mut self,
        l: &HirLoop,
        env: &mut Env,
        invocations: u64,
        hw: u64,
        features: SuperFeatures,
    ) {
        let idx = self.graph.add_node(Node {
            kind: NodeKind::Super {
                loop_id: l.id.clone(),
                features,
            },
            mnemonic: "super",
            loop_path: l.id.clone(),
            invocations,
            hw_weight: hw,
        });
        // data-in edges: external values consumed inside the region, in op
        // order (the set answers membership only: its iteration order
        // changes from build to build)
        let mut inside = std::collections::HashSet::new();
        let members: Vec<OpId> = self
            .func
            .ops_in_loop(&l.id, true)
            .into_iter()
            .chain(l.phis.iter().copied())
            .filter(|&op_id| inside.insert(op_id))
            .collect();
        for &op_id in &members {
            for operand in &self.func.op(op_id).operands {
                if let Operand::Value(v) = operand {
                    if !inside.contains(v) {
                        if let Some(&src) = env.get(v) {
                            self.graph.add_edge(src, idx, EdgeKind::Data);
                        }
                    }
                }
            }
        }
        // memory edges: one per accessed array bank
        for use_ in hir::array_uses(self.func, &l.id, true) {
            if let Some(info) = self.func.array(&use_.array) {
                let banks = self.cfg.array_banks(&use_.array, &info.dims) as u32;
                for bank in 0..banks {
                    let p = self.port_node(&use_.array, bank);
                    if use_.loads > 0 {
                        self.graph.add_edge(p, idx, EdgeKind::Memory);
                    }
                    if use_.stores > 0 {
                        self.graph.add_edge(idx, p, EdgeKind::Memory);
                    }
                }
            }
        }
        // all interior values now resolve to the super node
        for op_id in members {
            env.insert(op_id, idx);
        }
    }

    /// Estimated nodes for one replica of the loop subtree under the
    /// current configuration (body ops + control + phis, recursively with
    /// nested replication).
    fn estimate_nodes(&self, l: &HirLoop) -> usize {
        let own: usize = l
            .body
            .items
            .iter()
            .filter(|i| matches!(i, Item::Op(_)))
            .count()
            + 2
            + l.phis.len();
        let nested: usize = l
            .children()
            .map(|c| {
                let tc = c.trip_count().max(1);
                let u = self.cfg.loop_pragma(&c.id).unroll.factor(tc) as usize;
                self.estimate_nodes(c) * u.max(1)
            })
            .sum();
        own + nested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pragma::{ArrayPartition, PartitionKind, Unroll};

    fn func(src: &str, name: &str) -> Function {
        hir::lower(&frontc::parse(src).unwrap())
            .unwrap()
            .function(name)
            .unwrap()
            .clone()
    }

    const SCALE: &str = "void k(float a[16], float b[16]) {
        for (int i = 0; i < 16; i++) { b[i] = a[i] * 2.0; }
    }";

    #[test]
    fn pipelining_leaves_graph_unchanged() {
        let f = func(SCALE, "k");
        let base = GraphBuilder::new(&f, &PragmaConfig::default()).build();
        let mut cfg = PragmaConfig::default();
        cfg.set_pipeline(LoopId::from_path(&[0]), true);
        let piped = GraphBuilder::new(&f, &cfg).build();
        assert_eq!(base.num_nodes(), piped.num_nodes());
        assert_eq!(base.num_edges(), piped.num_edges());
    }

    #[test]
    fn unrolling_replicates_body_nodes() {
        let f = func(SCALE, "k");
        let base = GraphBuilder::new(&f, &PragmaConfig::default()).build();
        let mut cfg = PragmaConfig::default();
        cfg.set_unroll(LoopId::from_path(&[0]), Unroll::Factor(4));
        let unrolled = GraphBuilder::new(&f, &cfg).build();
        assert_eq!(
            unrolled.count_mnemonic("load"),
            4 * base.count_mnemonic("load")
        );
        assert_eq!(
            unrolled.count_mnemonic("store"),
            4 * base.count_mnemonic("store")
        );
    }

    #[test]
    fn partitioning_splits_port_nodes_and_residues_pin_banks() {
        let f = func(SCALE, "k");
        let mut cfg = PragmaConfig::default();
        cfg.set_unroll(LoopId::from_path(&[0]), Unroll::Factor(4));
        for arr in ["a", "b"] {
            cfg.set_partition(
                arr,
                1,
                ArrayPartition {
                    kind: PartitionKind::Cyclic,
                    factor: 4,
                },
            );
        }
        let g = GraphBuilder::new(&f, &cfg).build();
        assert_eq!(g.ports_of("a").len(), 4);
        assert_eq!(g.ports_of("b").len(), 4);
        // each load replica touches exactly one bank: 4 memory edges into
        // loads of `a` overall
        let mem_edges_from_a_ports: usize = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Memory && g.ports_of("a").contains(&e.src))
            .count();
        assert_eq!(mem_edges_from_a_ports, 4);
    }

    #[test]
    fn unpartitioned_unrolled_loads_fan_into_single_port() {
        let f = func(SCALE, "k");
        let mut cfg = PragmaConfig::default();
        cfg.set_unroll(LoopId::from_path(&[0]), Unroll::Factor(4));
        let g = GraphBuilder::new(&f, &cfg).build();
        assert_eq!(g.ports_of("a").len(), 1);
        let port = g.ports_of("a")[0];
        let fanout = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Memory && e.src == port)
            .count();
        assert_eq!(fanout, 4, "all four replicas read the single bank");
    }

    #[test]
    fn accumulator_chains_across_replicas() {
        let src = "void dot(float a[16], float b[16], float o[1]) {
            float acc = 0.0;
            for (int i = 0; i < 16; i++) { acc += a[i] * b[i]; }
            o[0] = acc;
        }";
        let f = func(src, "dot");
        let mut cfg = PragmaConfig::default();
        cfg.set_unroll(LoopId::from_path(&[0]), Unroll::Factor(4));
        let g = GraphBuilder::new(&f, &cfg).build();
        // 4 phis (one per replica), each later phi fed by the previous
        // replica's fadd; plus the loop-carried cycle edge
        assert_eq!(g.count_mnemonic("phi"), 4);
        assert_eq!(g.count_mnemonic("fadd"), 4);
        let phi_in_edges = g
            .edges
            .iter()
            .filter(|e| g.nodes[e.dst as usize].mnemonic == "phi" && e.kind == EdgeKind::Data)
            .count();
        // replica 0: init edge (const init -> none, actually no producer) +
        // cycle edge; replicas 1..3: one chain edge each
        assert!(phi_in_edges >= 4, "phi chain edges missing: {phi_in_edges}");
    }

    #[test]
    fn node_budget_folds_replicas_preserving_invocations() {
        let f = func(SCALE, "k");
        let mut cfg = PragmaConfig::default();
        cfg.set_unroll(LoopId::from_path(&[0]), Unroll::Factor(16));
        let g = GraphBuilder::new(&f, &cfg)
            .options(GraphOptions { max_nodes: 24 })
            .build();
        assert!(g.num_nodes() <= 40, "cap blown: {}", g.num_nodes());
        // total hardware x invocation mass of loads must still be 16
        let total: u64 = g
            .nodes
            .iter()
            .filter(|n| n.mnemonic == "load")
            .map(|n| n.invocations * n.hw_weight)
            .sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn subgraph_extracts_single_loop() {
        let src = "void two(float a[8], float b[8]) {
            for (int i = 0; i < 8; i++) { a[i] = a[i] + 1.0; }
            for (int i = 0; i < 8; i++) { b[i] = b[i] * 2.0; }
        }";
        let f = func(src, "two");
        let g0 = GraphBuilder::new(&f, &PragmaConfig::default())
            .subgraph(LoopId::from_path(&[0]))
            .build();
        assert!(g0.count_mnemonic("fadd") == 1 && g0.count_mnemonic("fmul") == 0);
        let g1 = GraphBuilder::new(&f, &PragmaConfig::default())
            .subgraph(LoopId::from_path(&[1]))
            .build();
        assert!(g1.count_mnemonic("fadd") == 0 && g1.count_mnemonic("fmul") == 1);
    }

    #[test]
    fn condensation_replaces_loop_with_super_node() {
        let src = "void nest(float a[8][8], float s[1]) {
            float acc = 0.0;
            for (int i = 0; i < 8; i++) {
                for (int j = 0; j < 8; j++) {
                    acc += a[i][j];
                }
            }
            s[0] = acc;
        }";
        let f = func(src, "nest");
        let inner = LoopId::from_path(&[0, 0]);
        let mut supers = BTreeMap::new();
        supers.insert(
            inner,
            SuperFeatures {
                latency: 100.0,
                il: 10.0,
                ii: 4.0,
                tc: 8.0,
                lut: 500.0,
                ff: 700.0,
                dsp: 2.0,
            },
        );
        let full = GraphBuilder::new(&f, &PragmaConfig::default()).build();
        let condensed = GraphBuilder::new(&f, &PragmaConfig::default())
            .condense(supers)
            .build();
        assert!(condensed.num_nodes() < full.num_nodes());
        assert_eq!(condensed.count_mnemonic("super"), 1);
        // the super node reads from array `a`'s port
        let super_idx = condensed
            .nodes
            .iter()
            .position(|n| n.mnemonic == "super")
            .unwrap() as u32;
        assert!(condensed
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Memory && e.dst == super_idx));
    }

    #[test]
    fn outer_unroll_replicates_super_nodes() {
        let src = "void nest(float a[8][8], float o[8]) {
            for (int i = 0; i < 8; i++) {
                float acc = 0.0;
                for (int j = 0; j < 8; j++) {
                    acc += a[i][j];
                }
                o[i] = acc;
            }
        }";
        let f = func(src, "nest");
        let mut cfg = PragmaConfig::default();
        cfg.set_unroll(LoopId::from_path(&[0]), Unroll::Factor(2));
        let mut supers = BTreeMap::new();
        supers.insert(LoopId::from_path(&[0, 0]), SuperFeatures::default());
        let g = GraphBuilder::new(&f, &cfg).condense(supers).build();
        assert_eq!(
            g.count_mnemonic("super"),
            2,
            "outer unroll must replicate the super node"
        );
    }

    #[test]
    fn super_node_inputs_follow_op_order() {
        // the inner loop reads three values computed outside it, so its
        // super node gets data-in edges from three distinct nodes
        let src = "void k(float a[8][8], float b[8], float o[8][8]) {
            for (int i = 0; i < 8; i++) {
                float p = b[i];
                float q = p * 2.0;
                float r = p + 3.0;
                for (int j = 0; j < 8; j++) {
                    o[i][j] = a[i][j] * p + q * r;
                }
            }
        }";
        let f = func(src, "k");
        let build = || {
            let mut supers = BTreeMap::new();
            supers.insert(LoopId::from_path(&[0, 0]), SuperFeatures::default());
            GraphBuilder::new(&f, &PragmaConfig::default())
                .condense(supers)
                .build()
        };
        let first = build();
        let super_idx = first
            .nodes
            .iter()
            .position(|n| n.mnemonic == "super")
            .unwrap() as u32;
        let mut sources: Vec<u32> = first
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Data && e.dst == super_idx)
            .map(|e| e.src)
            .collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), 3, "{:?}", first.edges);
        for _ in 0..50 {
            assert_eq!(build().edges, first.edges);
        }
    }

    #[test]
    fn invocation_counts_multiply_through_nesting() {
        let src = "void nest(float a[4][4]) {
            for (int i = 0; i < 4; i++) {
                for (int j = 0; j < 4; j++) {
                    a[i][j] = a[i][j] + 1.0;
                }
            }
        }";
        let f = func(src, "nest");
        let g = GraphBuilder::new(&f, &PragmaConfig::default()).build();
        let fadd = g.nodes.iter().find(|n| n.mnemonic == "fadd").unwrap();
        assert_eq!(fadd.invocations, 16, "4x4 executions");
    }
}
