//! Genome encoding over a kernel's legal pragma space.
//!
//! A [`SpaceModel`] flattens a [`DesignSpace`] loop tree into a fixed gene
//! vector so strategies can mutate, cross over, and step designs without
//! knowing the tree. Per loop (pre-order) there is a *pipeline* gene and an
//! *unroll* gene (an index into the loop's trip-count-legal factors); every
//! non-leaf perfect chain head additionally carries a *flatten* gene.
//!
//! Decoding mirrors [`DesignSpace::enumerate`]'s legality rules exactly —
//! loops under a pipelined ancestor are forced `Unroll::Full`, a set
//! flatten gene applies the whole chain family (flatten every level,
//! pipeline the innermost), factor 1 becomes `Unroll::Off`, and array
//! partitioning is derived through [`DesignSpace::apply_bindings`] — so
//! **every genome decodes to a configuration inside the enumerated
//! space**. That closure property is what makes ADRS-vs-exhaustive
//! comparisons meaningful: the heuristics search the same space the sweep
//! enumerates, just lazily.

use pragma::{DesignSpace, LoopId, LoopShape, PragmaConfig, Unroll};
use qor_core::wire::{put_u16, Cursor};
use qor_core::QorError;
use rand::rngs::StdRng;
use rand::Rng;

/// One decoded design candidate: a flat vector of gene values, one per
/// slot of the [`SpaceModel`] that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Genome(pub Vec<u16>);

impl Genome {
    /// Serializes the gene vector (`u16` length + genes) via `wire`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u16(out, self.0.len() as u16);
        for g in &self.0 {
            put_u16(out, *g);
        }
    }

    /// Reads a gene vector written by [`Genome::encode`].
    ///
    /// # Errors
    ///
    /// [`QorError::Corrupt`] on truncation.
    pub fn decode_from(c: &mut Cursor<'_>) -> Result<Genome, QorError> {
        let len = c.u16("genome length")? as usize;
        let mut genes = Vec::new();
        for _ in 0..len {
            genes.push(c.u16("gene")?);
        }
        Ok(Genome(genes))
    }
}

/// One gene slot: how many values it takes (which loop and pragma it
/// controls is tracked on the [`NodeSlots`] side).
#[derive(Debug, Clone)]
struct Slot {
    cardinality: u16,
}

/// Per-loop slot bookkeeping (loops in pre-order).
#[derive(Debug, Clone)]
struct NodeSlots {
    id: LoopId,
    /// Unroll factors legal for this loop's trip count, in space order.
    factors: Vec<u32>,
    pipeline_slot: usize,
    unroll_slot: usize,
    flatten_slot: Option<usize>,
}

/// A [`DesignSpace`] flattened into gene slots (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct SpaceModel {
    space: DesignSpace,
    slots: Vec<Slot>,
    nodes: Vec<NodeSlots>,
}

impl SpaceModel {
    /// Flattens `space` into gene slots.
    ///
    /// # Errors
    ///
    /// [`QorError::Shape`] when the space has no loops or a loop admits no
    /// legal unroll factor (empty `unroll_factors`, or all above the trip
    /// count).
    pub fn new(space: DesignSpace) -> Result<SpaceModel, QorError> {
        let mut slots = Vec::new();
        let mut nodes = Vec::new();
        fn walk(
            space: &DesignSpace,
            shape: &LoopShape,
            slots: &mut Vec<Slot>,
            nodes: &mut Vec<NodeSlots>,
        ) -> Result<(), QorError> {
            let factors: Vec<u32> = space
                .unroll_factors
                .iter()
                .copied()
                .filter(|&f| u64::from(f) <= shape.trip_count)
                .collect();
            if factors.is_empty() {
                return Err(QorError::Shape(format!(
                    "loop {:?} (trip count {}) admits no unroll factor from {:?}",
                    shape.id.path(),
                    shape.trip_count,
                    space.unroll_factors
                )));
            }
            let pipeline_slot = slots.len();
            slots.push(Slot { cardinality: 2 });
            let unroll_slot = slots.len();
            slots.push(Slot {
                cardinality: factors.len() as u16,
            });
            let flatten_slot = if !shape.children.is_empty() && shape.is_perfect_chain() {
                let s = slots.len();
                slots.push(Slot { cardinality: 2 });
                Some(s)
            } else {
                None
            };
            nodes.push(NodeSlots {
                id: shape.id.clone(),
                factors,
                pipeline_slot,
                unroll_slot,
                flatten_slot,
            });
            for c in &shape.children {
                walk(space, c, slots, nodes)?;
            }
            Ok(())
        }
        for root in &space.roots {
            walk(&space, root, &mut slots, &mut nodes)?;
        }
        if nodes.is_empty() {
            return Err(QorError::Shape(format!(
                "kernel {:?} has no loops to search over",
                space.kernel
            )));
        }
        Ok(SpaceModel {
            space,
            slots,
            nodes,
        })
    }

    /// The model for a bundled kernel's pragma space, optionally with
    /// overridden unroll factors (the construction
    /// [`crate::SearchRun::for_kernel`] performs).
    ///
    /// # Errors
    ///
    /// [`QorError::UnknownKernel`] for names outside the bundled set;
    /// [`QorError::Shape`] for degenerate spaces (see [`SpaceModel::new`]).
    pub fn for_kernel(
        kernel: &str,
        unroll_factors: Option<&[u32]>,
    ) -> Result<SpaceModel, QorError> {
        let func = kernels::lower_kernel(kernel)
            .map_err(|_| QorError::UnknownKernel(kernel.to_string()))?;
        let mut space = kernels::design_space(&func);
        if let Some(factors) = unroll_factors {
            space.unroll_factors = factors.to_vec();
        }
        SpaceModel::new(space)
    }

    /// The wrapped design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// Number of gene slots (the genome length).
    pub fn genome_len(&self) -> usize {
        self.slots.len()
    }

    /// A uniformly random genome.
    pub fn random_genome(&self, rng: &mut StdRng) -> Genome {
        Genome(
            self.slots
                .iter()
                .map(|s| rng.gen_range(0..s.cardinality))
                .collect(),
        )
    }

    /// Gene value at `slot`, clamped into the slot's cardinality so stale
    /// or hand-built genomes can never panic the decoder.
    fn gene(&self, g: &Genome, slot: usize) -> u16 {
        g.0.get(slot).copied().unwrap_or(0) % self.slots[slot].cardinality
    }

    fn node(&self, id: &LoopId) -> &NodeSlots {
        self.nodes
            .iter()
            .find(|n| &n.id == id)
            .expect("every shape id has a node entry")
    }

    /// Decodes a genome into a legal [`PragmaConfig`] (see the
    /// [module docs](self) for the legality rules mirrored here).
    pub fn decode(&self, g: &Genome) -> PragmaConfig {
        let mut cfg = PragmaConfig::new();
        for root in &self.space.roots {
            self.decode_loop(root, g, false, &mut cfg);
        }
        self.space.apply_bindings(&mut cfg);
        cfg
    }

    fn decode_loop(
        &self,
        shape: &LoopShape,
        g: &Genome,
        forced_full: bool,
        cfg: &mut PragmaConfig,
    ) {
        let node = self.node(&shape.id);
        if forced_full {
            cfg.set_pipeline(shape.id.clone(), false);
            cfg.set_unroll(shape.id.clone(), Unroll::Full);
            cfg.set_flatten(shape.id.clone(), false);
            for c in &shape.children {
                self.decode_loop(c, g, true, cfg);
            }
            return;
        }
        if let Some(fslot) = node.flatten_slot {
            if self.gene(g, fslot) == 1 {
                // chain family: flatten every level, pipeline the innermost
                let mut cur = shape;
                loop {
                    let leaf = cur.children.is_empty();
                    cfg.set_pipeline(cur.id.clone(), leaf);
                    cfg.set_unroll(cur.id.clone(), Unroll::Off);
                    cfg.set_flatten(cur.id.clone(), true);
                    if leaf {
                        return;
                    }
                    cur = &cur.children[0];
                }
            }
        }
        let pipeline = self.gene(g, node.pipeline_slot) == 1;
        let factor = node.factors[self.gene(g, node.unroll_slot) as usize];
        let unroll = if factor == 1 {
            Unroll::Off
        } else {
            Unroll::Factor(factor)
        };
        cfg.set_pipeline(shape.id.clone(), pipeline);
        cfg.set_unroll(shape.id.clone(), unroll);
        cfg.set_flatten(shape.id.clone(), false);
        for c in &shape.children {
            self.decode_loop(c, g, pipeline, cfg);
        }
    }

    /// One annealing move: flip a pipeline bit, step an unroll factor,
    /// step a partition factor (through its array binding's loop), or
    /// toggle a chain flatten. Returns a new genome one move away.
    pub fn neighbor(&self, g: &Genome, rng: &mut StdRng) -> Genome {
        // collect the applicable move classes for this space
        let steppable: Vec<usize> = self
            .nodes
            .iter()
            .filter(|n| n.factors.len() > 1)
            .map(|n| n.unroll_slot)
            .collect();
        let bound_steppable: Vec<usize> = self
            .space
            .bindings
            .iter()
            .filter_map(|b| self.nodes.iter().find(|n| n.id == b.loop_id))
            .filter(|n| n.factors.len() > 1)
            .map(|n| n.unroll_slot)
            .collect();
        let flattenable: Vec<usize> = self.nodes.iter().filter_map(|n| n.flatten_slot).collect();

        let mut moves: Vec<u8> = vec![0]; // flip pipeline is always available
        if !steppable.is_empty() {
            moves.push(1);
        }
        if !bound_steppable.is_empty() {
            moves.push(2);
        }
        if !flattenable.is_empty() {
            moves.push(3);
        }

        let mut out = g.clone();
        match moves[rng.gen_range(0..moves.len())] {
            0 => {
                let n = &self.nodes[rng.gen_range(0..self.nodes.len())];
                out.0[n.pipeline_slot] = 1 - self.gene(g, n.pipeline_slot);
            }
            1 => {
                let slot = steppable[rng.gen_range(0..steppable.len())];
                out.0[slot] = self.step_gene(g, slot, rng);
            }
            2 => {
                // "step partition factor": partitioning is bound to unroll,
                // so stepping the bound loop's unroll gene steps the
                // derived partition factor with it
                let slot = bound_steppable[rng.gen_range(0..bound_steppable.len())];
                out.0[slot] = self.step_gene(g, slot, rng);
            }
            _ => {
                let slot = flattenable[rng.gen_range(0..flattenable.len())];
                out.0[slot] = 1 - self.gene(g, slot);
            }
        }
        out
    }

    /// Steps a multi-valued gene by ±1, reflecting at the ends so the move
    /// always changes the value.
    fn step_gene(&self, g: &Genome, slot: usize, rng: &mut StdRng) -> u16 {
        let card = self.slots[slot].cardinality;
        debug_assert!(card > 1);
        let cur = self.gene(g, slot);
        let up = rng.gen_bool(0.5);
        if up && cur + 1 < card {
            cur + 1
        } else if !up && cur > 0 {
            cur - 1
        } else if cur + 1 < card {
            cur + 1
        } else {
            cur - 1
        }
    }

    /// Single-point crossover of two parents.
    pub fn crossover(&self, a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
        let len = self.genome_len();
        if len < 2 {
            return a.clone();
        }
        let cut = rng.gen_range(1..len);
        let mut genes = Vec::with_capacity(len);
        for slot in 0..len {
            let src = if slot < cut { a } else { b };
            genes.push(self.gene(src, slot));
        }
        Genome(genes)
    }

    /// Resamples each gene independently with probability `rate`.
    pub fn mutate(&self, g: &mut Genome, rate: f64, rng: &mut StdRng) {
        for (slot, s) in self.slots.iter().enumerate() {
            if rng.gen_bool(rate) {
                g.0[slot] = rng.gen_range(0..s.cardinality);
            }
        }
        // normalize out-of-range genes so equality on genomes is equality
        // on decoded configurations for in-model genomes
        for slot in 0..g.0.len().min(self.slots.len()) {
            g.0[slot] %= self.slots[slot].cardinality;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn model(kernel: &str, factors: Vec<u32>) -> SpaceModel {
        let func = kernels::lower_kernel(kernel).unwrap();
        let mut space = kernels::design_space(&func);
        space.unroll_factors = factors;
        SpaceModel::new(space).unwrap()
    }

    #[test]
    fn every_random_genome_decodes_into_the_enumerated_space() {
        for kernel in ["mvt", "bicg", "fir", "jacobi1d"] {
            let m = model(kernel, vec![1, 4]);
            let enumerated: HashSet<u64> = m
                .space()
                .enumerate()
                .iter()
                .map(PragmaConfig::fingerprint)
                .collect();
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..200 {
                let g = m.random_genome(&mut rng);
                let fp = m.decode(&g).fingerprint();
                assert!(
                    enumerated.contains(&fp),
                    "{kernel}: genome {g:?} decodes outside the enumerated space"
                );
            }
        }
    }

    #[test]
    fn random_genomes_cover_the_whole_small_space() {
        let m = model("fir", vec![1, 4]);
        let n = m.space().enumerate().len();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = HashSet::new();
        for _ in 0..2_000 {
            seen.insert(m.decode(&m.random_genome(&mut rng)).fingerprint());
        }
        assert_eq!(seen.len(), n, "random sampling must reach every design");
    }

    #[test]
    fn neighbor_moves_stay_in_space_and_change_the_genome() {
        let m = model("mvt", vec![1, 2, 4]);
        let enumerated: HashSet<u64> = m
            .space()
            .enumerate()
            .iter()
            .map(PragmaConfig::fingerprint)
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = m.random_genome(&mut rng);
        for _ in 0..300 {
            let next = m.neighbor(&g, &mut rng);
            assert_ne!(next, g, "a move must change at least one gene");
            assert!(enumerated.contains(&m.decode(&next).fingerprint()));
            g = next;
        }
    }

    #[test]
    fn crossover_and_mutation_stay_in_space() {
        let m = model("bicg", vec![1, 2, 4]);
        let enumerated: HashSet<u64> = m
            .space()
            .enumerate()
            .iter()
            .map(PragmaConfig::fingerprint)
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let a = m.random_genome(&mut rng);
            let b = m.random_genome(&mut rng);
            let mut child = m.crossover(&a, &b, &mut rng);
            m.mutate(&mut child, 0.3, &mut rng);
            assert!(enumerated.contains(&m.decode(&child).fingerprint()));
        }
    }

    #[test]
    fn out_of_range_genes_are_clamped_not_panicking() {
        let m = model("fir", vec![1, 4]);
        let g = Genome(vec![u16::MAX; m.genome_len()]);
        let fp = m.decode(&g).fingerprint();
        let enumerated: HashSet<u64> = m
            .space()
            .enumerate()
            .iter()
            .map(PragmaConfig::fingerprint)
            .collect();
        assert!(enumerated.contains(&fp));
        // short genomes read as zeros
        let short = Genome(vec![]);
        assert!(enumerated.contains(&m.decode(&short).fingerprint()));
    }

    #[test]
    fn genome_wire_round_trip() {
        let g = Genome(vec![0, 3, 1, 65535]);
        let mut out = Vec::new();
        g.encode(&mut out);
        let mut c = Cursor::new(&out);
        assert_eq!(Genome::decode_from(&mut c).unwrap(), g);
        assert!(c.done());
        let mut truncated = Cursor::new(&out[..3]);
        assert!(Genome::decode_from(&mut truncated).is_err());
    }

    #[test]
    fn degenerate_spaces_are_rejected_typed() {
        let func = kernels::lower_kernel("fir").unwrap();
        let mut space = kernels::design_space(&func);
        space.unroll_factors = vec![1024];
        assert!(matches!(SpaceModel::new(space), Err(QorError::Shape(_))));
        let empty = DesignSpace::new("none", vec![], vec![], vec![]);
        assert!(matches!(SpaceModel::new(empty), Err(QorError::Shape(_))));
    }
}
