//! Design-space description and enumeration.

use frontc::PartitionKind;

use crate::config::{ArrayPartition, LoopId, PragmaConfig, Unroll};

/// Shape of one loop in a kernel's loop nest (enough structure to enumerate
/// pragma configurations without the full IR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopShape {
    /// The loop's identifier.
    pub id: LoopId,
    /// Static trip count.
    pub trip_count: u64,
    /// Nested loops.
    pub children: Vec<LoopShape>,
    /// Whether this loop body contains nothing but its single child loop
    /// (a perfect-nest level, eligible for `loop_flatten`).
    pub perfect: bool,
}

impl LoopShape {
    /// A leaf (innermost) loop.
    pub fn leaf(id: LoopId, trip_count: u64) -> Self {
        LoopShape {
            id,
            trip_count,
            children: Vec::new(),
            perfect: false,
        }
    }

    /// A nest level with children.
    pub fn nest(id: LoopId, trip_count: u64, perfect: bool, children: Vec<LoopShape>) -> Self {
        LoopShape {
            id,
            trip_count,
            children,
            perfect,
        }
    }

    /// Whether the subtree rooted here is a perfect chain down to a leaf.
    pub fn is_perfect_chain(&self) -> bool {
        if self.children.is_empty() {
            true
        } else {
            self.children.len() == 1 && self.perfect && self.children[0].is_perfect_chain()
        }
    }

    /// All loop ids in the subtree (pre-order).
    pub fn ids(&self) -> Vec<LoopId> {
        let mut out = vec![self.id.clone()];
        for c in &self.children {
            out.extend(c.ids());
        }
        out
    }
}

/// Ties an array dimension's partitioning factor to a loop's unroll factor,
/// as the paper does ("partitioning factors consistent with unroll factors").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayBinding {
    /// Array name.
    pub array: String,
    /// 1-based dimension.
    pub dim: u32,
    /// Loop whose unroll factor drives the partitioning.
    pub loop_id: LoopId,
}

/// The pragma design space of one kernel.
///
/// # Example
///
/// ```
/// use pragma::{DesignSpace, LoopId, LoopShape};
///
/// let inner = LoopShape::leaf(LoopId::from_path(&[0, 0]), 16);
/// let outer = LoopShape::nest(LoopId::from_path(&[0]), 16, true, vec![inner]);
/// let space = DesignSpace::new("toy", vec![outer], vec![], vec![]);
/// let configs = space.enumerate();
/// assert!(configs.len() > 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpace {
    /// Kernel name.
    pub kernel: String,
    /// Top-level loop nests.
    pub roots: Vec<LoopShape>,
    /// Arrays and their dimensions.
    pub arrays: Vec<(String, Vec<usize>)>,
    /// Partition-to-unroll bindings.
    pub bindings: Vec<ArrayBinding>,
    /// Unroll factors explored (the paper uses `{1, 2, 4, 8, 16}`).
    pub unroll_factors: Vec<u32>,
}

/// Pragma choices for one loop subtree, as `(loop, pragma)` assignments.
type Assignment = Vec<(LoopId, crate::config::LoopPragma)>;

impl DesignSpace {
    /// Creates a design space with the paper's default unroll factors.
    pub fn new(
        kernel: impl Into<String>,
        roots: Vec<LoopShape>,
        arrays: Vec<(String, Vec<usize>)>,
        bindings: Vec<ArrayBinding>,
    ) -> Self {
        DesignSpace {
            kernel: kernel.into(),
            roots,
            arrays,
            bindings,
            unroll_factors: vec![1, 2, 4, 8, 16],
        }
    }

    /// Enumerates every legal pragma configuration.
    ///
    /// Legality rules (mirroring Vitis HLS semantics used in the paper):
    ///
    /// * loops strictly inside a pipelined loop are fully unrolled,
    /// * `loop_flatten` is only offered on perfect nest chains, together with
    ///   pipelining the innermost level,
    /// * unroll factors above the trip count collapse to full unrolling,
    /// * duplicate configurations (by fingerprint) are pruned.
    pub fn enumerate(&self) -> Vec<PragmaConfig> {
        let sp = obs::span("pragma_enumerate");
        let mut per_root: Vec<Vec<Assignment>> = Vec::new();
        for root in &self.roots {
            per_root.push(self.enumerate_loop(root, false));
        }
        // cross product over roots
        let mut combos: Vec<Assignment> = vec![Vec::new()];
        for choices in per_root {
            let mut next = Vec::with_capacity(combos.len() * choices.len());
            for base in &combos {
                for choice in &choices {
                    let mut merged = base.clone();
                    merged.extend(choice.iter().cloned());
                    next.push(merged);
                }
            }
            combos = next;
        }

        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(combos.len());
        for combo in combos {
            let mut cfg = PragmaConfig::new();
            for (id, p) in &combo {
                cfg.set_pipeline(id.clone(), p.pipeline);
                cfg.set_unroll(id.clone(), p.unroll);
                cfg.set_flatten(id.clone(), p.flatten);
            }
            self.apply_bindings(&mut cfg);
            if seen.insert(cfg.fingerprint()) {
                out.push(cfg);
            }
        }
        sp.attr("configs", out.len());
        out
    }

    /// Deterministically subsamples the space to at most `n` configurations
    /// (always keeping the pragma-free design if present).
    pub fn enumerate_capped(&self, n: usize) -> Vec<PragmaConfig> {
        let all = self.enumerate();
        if all.len() <= n || n == 0 {
            return all;
        }
        let stride = all.len() as f64 / n as f64;
        let mut out = Vec::with_capacity(n);
        let mut cursor = 0.0f64;
        while out.len() < n {
            let idx = (cursor as usize).min(all.len() - 1);
            out.push(all[idx].clone());
            cursor += stride;
        }
        out
    }

    /// Derives array partitioning from the loop unroll factors via bindings
    /// (cyclic partitioning, factor = effective unroll factor).
    ///
    /// Public so heuristic explorers that synthesize configurations outside
    /// [`DesignSpace::enumerate`] (the genome decoder in `crates/search`)
    /// land in exactly the same configuration space as the exhaustive
    /// enumeration — partitioning is always *derived*, never an independent
    /// search dimension.
    pub fn apply_bindings(&self, cfg: &mut PragmaConfig) {
        for b in &self.bindings {
            let pragma = cfg.loop_pragma(&b.loop_id);
            let tc = self
                .find_loop(&b.loop_id)
                .map(|l| l.trip_count)
                .unwrap_or(1);
            let factor = pragma.unroll.factor(tc) as u32;
            if factor > 1 {
                cfg.set_partition(
                    b.array.clone(),
                    b.dim,
                    ArrayPartition {
                        kind: PartitionKind::Cyclic,
                        factor,
                    },
                );
            }
        }
    }

    fn find_loop(&self, id: &LoopId) -> Option<&LoopShape> {
        fn walk<'a>(shape: &'a LoopShape, id: &LoopId) -> Option<&'a LoopShape> {
            if &shape.id == id {
                return Some(shape);
            }
            shape.children.iter().find_map(|c| walk(c, id))
        }
        self.roots.iter().find_map(|r| walk(r, id))
    }

    /// Enumerates pragma assignments for the subtree rooted at `node`.
    ///
    /// `forced_full` is set when an ancestor pipeline requires this loop to
    /// be fully unrolled.
    fn enumerate_loop(&self, node: &LoopShape, forced_full: bool) -> Vec<Assignment> {
        use crate::config::LoopPragma;

        if forced_full {
            let mut assignment = vec![(
                node.id.clone(),
                LoopPragma {
                    pipeline: false,
                    unroll: Unroll::Full,
                    flatten: false,
                },
            )];
            for c in &node.children {
                // exactly one choice below a pipeline
                assignment.extend(self.enumerate_loop(c, true).remove(0));
            }
            return vec![assignment];
        }

        let mut out: Vec<Assignment> = Vec::new();

        // (a) pipeline here (+ optional partial unroll); children fully unroll
        for &f in &self.unroll_factors {
            if u64::from(f) > node.trip_count {
                continue;
            }
            let unroll = if f == 1 {
                Unroll::Off
            } else {
                Unroll::Factor(f)
            };
            let mut assignment = vec![(
                node.id.clone(),
                LoopPragma {
                    pipeline: true,
                    unroll,
                    flatten: false,
                },
            )];
            for c in &node.children {
                assignment.extend(self.enumerate_loop(c, true).remove(0));
            }
            out.push(assignment);
        }

        // (b) no pipeline here: choose an unroll factor and recurse
        let child_choice_sets: Vec<Vec<Assignment>> = node
            .children
            .iter()
            .map(|c| self.enumerate_loop(c, false))
            .collect();
        let mut child_combos: Vec<Assignment> = vec![Vec::new()];
        for set in &child_choice_sets {
            let mut next = Vec::with_capacity(child_combos.len() * set.len());
            for base in &child_combos {
                for choice in set {
                    let mut merged = base.clone();
                    merged.extend(choice.iter().cloned());
                    next.push(merged);
                }
            }
            child_combos = next;
        }
        for &f in &self.unroll_factors {
            if u64::from(f) > node.trip_count {
                continue;
            }
            let unroll = if f == 1 {
                Unroll::Off
            } else {
                Unroll::Factor(f)
            };
            for children in &child_combos {
                let mut assignment = vec![(
                    node.id.clone(),
                    LoopPragma {
                        pipeline: false,
                        unroll,
                        flatten: false,
                    },
                )];
                assignment.extend(children.iter().cloned());
                out.push(assignment);
            }
        }

        // (c) flatten + pipeline the innermost level of a perfect chain
        if !node.children.is_empty() && node.is_perfect_chain() {
            let mut assignment = Vec::new();
            let mut cur = node;
            loop {
                if cur.children.is_empty() {
                    assignment.push((
                        cur.id.clone(),
                        LoopPragma {
                            pipeline: true,
                            unroll: Unroll::Off,
                            flatten: true,
                        },
                    ));
                    break;
                }
                assignment.push((
                    cur.id.clone(),
                    LoopPragma {
                        pipeline: false,
                        unroll: Unroll::Off,
                        flatten: true,
                    },
                ));
                cur = &cur.children[0];
            }
            out.push(assignment);
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_nest() -> LoopShape {
        let inner = LoopShape::leaf(LoopId::from_path(&[0, 0]), 16);
        LoopShape::nest(LoopId::from_path(&[0]), 16, true, vec![inner])
    }

    #[test]
    fn enumeration_covers_expected_families() {
        let space = DesignSpace::new("k", vec![two_level_nest()], vec![], vec![]);
        let configs = space.enumerate();
        let outer = LoopId::from_path(&[0]);
        let inner = LoopId::from_path(&[0, 0]);

        // outer pipeline, inner forced full
        assert!(configs.iter().any(|c| {
            c.loop_pragma(&outer).pipeline && c.loop_pragma(&inner).unroll == Unroll::Full
        }));
        // inner pipeline only
        assert!(configs
            .iter()
            .any(|c| !c.loop_pragma(&outer).pipeline && c.loop_pragma(&inner).pipeline));
        // flatten chain
        assert!(configs.iter().any(|c| {
            c.loop_pragma(&outer).flatten
                && c.loop_pragma(&inner).flatten
                && c.loop_pragma(&inner).pipeline
        }));
        // pragma-free design present
        assert!(configs.iter().any(PragmaConfig::is_trivial));
    }

    #[test]
    fn enumeration_size_in_paper_range_for_two_nests() {
        let n1 = two_level_nest();
        let inner2 = LoopShape::leaf(LoopId::from_path(&[1, 0]), 16);
        let n2 = LoopShape::nest(LoopId::from_path(&[1]), 16, true, vec![inner2]);
        let space = DesignSpace::new("k", vec![n1, n2], vec![], vec![]);
        let n = space.enumerate().len();
        // the paper's DSE spaces have 1972..2796 configurations
        assert!((1000..6000).contains(&n), "unexpected space size {n}");
    }

    #[test]
    fn bindings_tie_partition_to_unroll() {
        let space = DesignSpace::new(
            "k",
            vec![two_level_nest()],
            vec![("a".into(), vec![16])],
            vec![ArrayBinding {
                array: "a".into(),
                dim: 1,
                loop_id: LoopId::from_path(&[0, 0]),
            }],
        );
        let configs = space.enumerate();
        let inner = LoopId::from_path(&[0, 0]);
        for cfg in &configs {
            let unroll = cfg.loop_pragma(&inner).unroll.factor(16) as u32;
            let banks = cfg.array_banks("a", &[16]) as u32;
            assert_eq!(banks, unroll.max(1), "partition must follow unroll");
        }
    }

    #[test]
    fn no_duplicate_fingerprints() {
        let space = DesignSpace::new("k", vec![two_level_nest()], vec![], vec![]);
        let configs = space.enumerate();
        let mut fps: Vec<u64> = configs.iter().map(PragmaConfig::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), configs.len());
    }

    #[test]
    fn capped_enumeration_subsamples() {
        let space = DesignSpace::new("k", vec![two_level_nest()], vec![], vec![]);
        let all = space.enumerate();
        let capped = space.enumerate_capped(10);
        assert_eq!(capped.len(), 10.min(all.len()));
    }

    #[test]
    fn pipelined_inner_loops_forced_full_below_pipeline() {
        let space = DesignSpace::new("k", vec![two_level_nest()], vec![], vec![]);
        for cfg in space.enumerate() {
            let outer = cfg.loop_pragma(&LoopId::from_path(&[0]));
            let inner = cfg.loop_pragma(&LoopId::from_path(&[0, 0]));
            if outer.pipeline {
                assert_eq!(inner.unroll, Unroll::Full);
                assert!(!inner.pipeline);
            }
        }
    }
}
