//! The source→features pipeline expressed as incremental queries.
//!
//! This module instantiates the generic [`incr::QueryDb`] with the
//! concrete key/value types of the prepare pipeline, turning
//! [`HierarchicalModel::prepare`](crate::HierarchicalModel::prepare) into
//! a dependency-tracked computation where a one-pragma edit recomputes
//! only the loop subtree that reads it.
//!
//! # Key scheme
//!
//! One database serves one kernel under one set of graph-construction
//! options: the owning [`SharedCache`](crate::SharedCache) keys its
//! entries by `(prepare fingerprint, kernel hash)`. The lowered HIR and
//! `graph_max_nodes` are therefore fixed for the database's lifetime and
//! travel as execution context ([`prepare_design`]'s arguments), not as
//! inputs. Keys name loops and arrays by their index into
//! [`Function::loops`] and [`Function::arrays`], so they are `Copy` and
//! cheap to hash — a revisit re-validates dozens of them.
//!
//! Inputs (set by [`prepare_design`] from the full `PragmaConfig` before
//! every query; unchanged sets are no-ops):
//!
//! * [`PipeKey::LoopCfg`] — one loop's [`LoopPragma`] (explicit defaults
//!   included, one input per loop in the function).
//! * [`PipeKey::ArrayCfg`] — one array's per-dimension partitions.
//!
//! Derived queries:
//!
//! * [`PipeKey::Hierarchy`] — the §III-C.1 hierarchy split. Reads every
//!   loop pragma; cheap, and *backdates* when a pragma edit does not move
//!   any loop between hierarchy levels.
//! * [`PipeKey::LoopRole`] — one loop's slice of the hierarchy (is it an
//!   inner region root, and is it pipelined). A narrow projection so that
//!   downstream per-loop queries do not depend on the whole hierarchy
//!   value.
//! * [`PipeKey::RegionCfg`] — the restricted pragma configuration a
//!   loop's region can observe: its subtree's loop pragmas plus the
//!   partitions of arrays used in the subtree. This mirrors the training
//!   dedup key (`region_key` in `model.rs`) and is the precision lever:
//!   editing loop `L` leaves every other loop's `RegionCfg` value equal,
//!   so their `LoopPrepared` memos stay green.
//! * [`PipeKey::LoopPrepared`] — the expensive query: CDFG subgraph +
//!   GNN feature tensors + analytic II for one inner loop, computed by
//!   the *same function* (`prepare_one_inner`) the batch path calls,
//!   against the restricted config. Byte-identity with the full config is
//!   guaranteed by the restriction being exactly the region's read
//!   support (and enforced by the differential test suite).
//! * [`PipeKey::CondensedCfg`] — the projection of the configuration the
//!   condensed whole-design graph's structure depends on: the region
//!   roots (not their pipelined flags), the unroll factors the condensed
//!   build reads and every array's partitions (see `condensed.rs`).
//!   It backdates when an edit leaves the structure alone, e.g. a region
//!   switching between pipelined and not.
//! * [`PipeKey::Condensed`] — the condensed-graph skeleton slot. It reads
//!   only `CondensedCfg`, so its version cache finds a skeleton again for
//!   every design that shares the projection. Executing it only allocates
//!   an empty slot; the first prediction that needs the skeleton builds
//!   it after the database's lock is released.
//!
//! [`prepare_design`] then assembles a [`PreparedDesign`] from the
//! hierarchy order, the per-loop `Arc`s and the skeleton slot — no tensor
//! is copied — and stamps it with the caller's full configuration.

use std::hash::Hasher;
use std::sync::Arc;

use cdfg::GraphOptions;
use hir::Function;
use incr::{Key, QueryDb, Value};
use pragma::{ArrayPartition, LoopId, LoopPragma, PragmaConfig};

use crate::condensed::{array_partitions, CondensedSlot, CondensedSpec};
use crate::hash::Fnv1aHasher;
use crate::hierarchy::{split_hierarchy, Hierarchy};
use crate::model::{prepare_one_inner, PreparedDesign, PreparedInner};

/// Query keys of the prepare pipeline of one kernel. Loop and array
/// operands index [`Function::loops`] and [`Function::arrays`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeKey {
    /// Input: one loop's pragma entry.
    LoopCfg(u32),
    /// Input: one array's per-dimension partitions.
    ArrayCfg(u32),
    /// Derived: the hierarchy split.
    Hierarchy,
    /// Derived: one loop's role in the hierarchy.
    LoopRole(u32),
    /// Derived: the restricted config observable by one loop's region.
    RegionCfg(u32),
    /// Derived: one inner loop's prepared subgraph + features.
    LoopPrepared(u32),
    /// Derived: what the condensed graph's structure depends on.
    CondensedCfg,
    /// Derived: the condensed-graph skeleton slot.
    Condensed,
}

impl Key for PipeKey {
    fn kind(&self) -> &'static str {
        match self {
            PipeKey::LoopCfg(_) => "loop_cfg",
            PipeKey::ArrayCfg(_) => "array_cfg",
            PipeKey::Hierarchy => "hierarchy",
            PipeKey::LoopRole(_) => "loop_role",
            PipeKey::RegionCfg(_) => "region_cfg",
            PipeKey::LoopPrepared(_) => "loop_prepared",
            PipeKey::CondensedCfg => "condensed_cfg",
            PipeKey::Condensed => "condensed",
        }
    }

    fn fingerprint(&self) -> u64 {
        let (tag, index) = match *self {
            PipeKey::LoopCfg(i) => (0, i),
            PipeKey::ArrayCfg(i) => (1, i),
            PipeKey::Hierarchy => (2, 0),
            PipeKey::LoopRole(i) => (3, i),
            PipeKey::RegionCfg(i) => (4, i),
            PipeKey::LoopPrepared(i) => (5, i),
            PipeKey::CondensedCfg => (6, 0),
            PipeKey::Condensed => (7, 0),
        };
        let mut h = Fnv1aHasher::new();
        h.write(&[tag]);
        h.write_u32(index);
        h.finish()
    }
}

/// Query values. Large payloads are `Arc`-wrapped (clones are pointer
/// bumps) and expensive content fingerprints are computed once at
/// construction and carried alongside.
#[derive(Debug, Clone)]
pub enum PipeVal {
    /// One loop's pragma.
    LoopCfg(LoopPragma),
    /// One array's partitions, dimension-indexed from 0.
    ArrayCfg(Arc<Vec<ArrayPartition>>),
    /// The hierarchy split.
    Hierarchy(Arc<Hierarchy>),
    /// `Some(pipelined)` when the loop is an inner region root.
    LoopRole(Option<bool>),
    /// Restricted region config plus its fingerprint.
    RegionCfg(Arc<PragmaConfig>, u64),
    /// Prepared inner loop plus an input-derived identity fingerprint
    /// (the value is a pure function of its query inputs).
    LoopPrepared(Arc<PreparedInner>, u64),
    /// The condensed-graph projection (its fingerprint is its own).
    CondensedCfg(Arc<CondensedSpec>),
    /// A skeleton slot plus an input-derived identity fingerprint.
    Condensed(Arc<CondensedSlot>, u64),
}

impl Value for PipeVal {
    fn eq_value(&self, other: &Self) -> bool {
        match (self, other) {
            (PipeVal::LoopCfg(a), PipeVal::LoopCfg(b)) => a == b,
            (PipeVal::ArrayCfg(a), PipeVal::ArrayCfg(b)) => a == b,
            (PipeVal::Hierarchy(a), PipeVal::Hierarchy(b)) => a == b,
            (PipeVal::LoopRole(a), PipeVal::LoopRole(b)) => a == b,
            (PipeVal::RegionCfg(a, _), PipeVal::RegionCfg(b, _)) => a == b,
            // Digest first (cheap), then deep equality: backdating must
            // never conflate designs on a 64-bit collision, or memo hits
            // could return non-identical bytes.
            (PipeVal::LoopPrepared(a, fa), PipeVal::LoopPrepared(b, fb)) => fa == fb && a == b,
            (PipeVal::CondensedCfg(a), PipeVal::CondensedCfg(b)) => a == b,
            (PipeVal::Condensed(a, fa), PipeVal::Condensed(b, fb)) => fa == fb && a == b,
            _ => false,
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            PipeVal::LoopCfg(p) => {
                let mut h = Fnv1aHasher::new();
                h.write(&[u8::from(p.pipeline), u8::from(p.flatten)]);
                match p.unroll {
                    pragma::Unroll::Off => h.write(&[0]),
                    pragma::Unroll::Factor(f) => {
                        h.write(&[1]);
                        h.write_u32(f);
                    }
                    pragma::Unroll::Full => h.write(&[2]),
                }
                h.finish()
            }
            PipeVal::ArrayCfg(parts) => {
                let mut h = Fnv1aHasher::new();
                for p in parts.iter() {
                    h.write(&[p.kind as u8 + 1]);
                    h.write_u32(p.factor);
                }
                h.finish()
            }
            PipeVal::Hierarchy(hier) => {
                let mut h = Fnv1aHasher::new();
                for inner in &hier.inner {
                    for seg in inner.id.path() {
                        h.write_u16(*seg);
                    }
                    h.write(&[0xfe, inner.category as u8, u8::from(inner.pipelined)]);
                }
                h.finish()
            }
            PipeVal::LoopRole(role) => match role {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            },
            PipeVal::RegionCfg(_, fp)
            | PipeVal::LoopPrepared(_, fp)
            | PipeVal::Condensed(_, fp) => *fp,
            PipeVal::CondensedCfg(spec) => spec.fingerprint(),
        }
    }
}

/// The query database of one kernel's prepare pipeline, owned by a
/// [`SharedCache`](crate::SharedCache) entry behind a mutex.
pub type PipelineDb = QueryDb<PipeKey, PipeVal>;

/// Bound on the cross-revision version caches of one
/// [`SharedCache`](crate::SharedCache), summed over its kernel databases.
/// A full sweep of the largest held-out space (`mvt`, 7,978 query
/// executions: one `Hierarchy` and one `CondensedCfg` per design, one
/// `Condensed` per skeleton and the per-region queries) fits, so a second
/// sweep of any held-out space executes no query.
pub const VERSION_CAP: usize = 8192;

/// The fixed context of one kernel database: its lowered function and the
/// graph-construction bound.
struct Pipeline<'a> {
    func: &'a Function,
    max_nodes: usize,
}

impl Pipeline<'_> {
    /// Fetches `key`, executing derived queries through [`Self::execute`].
    fn get(&self, db: &mut PipelineDb, key: &PipeKey) -> PipeVal {
        db.get(key, &|db: &mut PipelineDb, key: &PipeKey| {
            self.execute(db, key)
        })
    }

    fn loop_cfg(&self, db: &mut PipelineDb, index: usize) -> LoopPragma {
        match self.get(db, &PipeKey::LoopCfg(index as u32)) {
            PipeVal::LoopCfg(p) => p,
            _ => unreachable!("incr: LoopCfg key holds non-LoopCfg value"),
        }
    }

    fn array_cfg(&self, db: &mut PipelineDb, index: usize) -> Arc<Vec<ArrayPartition>> {
        match self.get(db, &PipeKey::ArrayCfg(index as u32)) {
            PipeVal::ArrayCfg(p) => p,
            _ => unreachable!("incr: ArrayCfg key holds non-ArrayCfg value"),
        }
    }

    fn hierarchy(&self, db: &mut PipelineDb) -> Arc<Hierarchy> {
        match self.get(db, &PipeKey::Hierarchy) {
            PipeVal::Hierarchy(h) => h,
            _ => unreachable!("incr: Hierarchy key holds non-Hierarchy value"),
        }
    }

    /// Executes one derived query. Every read goes back through `db` so
    /// the engine records it as a dependency edge.
    fn execute(&self, db: &mut PipelineDb, key: &PipeKey) -> PipeVal {
        let func = self.func;
        let loop_id = |i: u32| &func.loops()[i as usize].id;
        match *key {
            PipeKey::LoopCfg(_) | PipeKey::ArrayCfg(_) => {
                unreachable!(
                    "incr: input query '{}' fetched before prepare_design seeded it",
                    key.kind()
                )
            }
            PipeKey::Hierarchy => {
                let mut cfg = PragmaConfig::new();
                for (i, meta) in func.loops().iter().enumerate() {
                    let p = self.loop_cfg(db, i);
                    cfg.set_pipeline(meta.id.clone(), p.pipeline);
                    cfg.set_unroll(meta.id.clone(), p.unroll);
                    cfg.set_flatten(meta.id.clone(), p.flatten);
                }
                PipeVal::Hierarchy(Arc::new(split_hierarchy(func, &cfg)))
            }
            PipeKey::LoopRole(i) => PipeVal::LoopRole(
                self.hierarchy(db)
                    .inner
                    .iter()
                    .find(|inner| inner.id == *loop_id(i))
                    .map(|inner| inner.pipelined),
            ),
            PipeKey::RegionCfg(i) => {
                let id = loop_id(i);
                let mut restricted = PragmaConfig::new();
                for (j, meta) in func.loops().iter().enumerate() {
                    if id.contains(&meta.id) {
                        let p = self.loop_cfg(db, j);
                        restricted.set_pipeline(meta.id.clone(), p.pipeline);
                        restricted.set_unroll(meta.id.clone(), p.unroll);
                        restricted.set_flatten(meta.id.clone(), p.flatten);
                    }
                }
                for use_ in hir::array_uses(func, id, true) {
                    let a = func
                        .arrays
                        .iter()
                        .position(|info| info.name == use_.array)
                        .expect("incr: a used array is declared");
                    let parts = self.array_cfg(db, a);
                    for (d, p) in parts.iter().enumerate() {
                        restricted.set_partition(use_.array.clone(), d as u32 + 1, *p);
                    }
                }
                let fp = restricted.fingerprint();
                PipeVal::RegionCfg(Arc::new(restricted), fp)
            }
            PipeKey::LoopPrepared(i) => {
                let pipelined = match self.get(db, &PipeKey::LoopRole(i)) {
                    PipeVal::LoopRole(role) => role.unwrap_or(false),
                    _ => unreachable!("incr: LoopRole key holds non-LoopRole value"),
                };
                let (rcfg, rcfg_fp) = match self.get(db, &PipeKey::RegionCfg(i)) {
                    PipeVal::RegionCfg(c, fp) => (c, fp),
                    _ => unreachable!("incr: RegionCfg key holds non-RegionCfg value"),
                };
                let options = GraphOptions {
                    max_nodes: self.max_nodes,
                };
                let inner = prepare_one_inner(func, &rcfg, loop_id(i), pipelined, options);
                // the value is a pure function of its inputs (the kernel and
                // graph options are fixed per database), so its identity
                // fingerprint is derived from the input fingerprints —
                // hashing the tensors themselves would cost a fraction of
                // rebuilding them on every recompute
                let mut h = Fnv1aHasher::new();
                h.write_u64(key.fingerprint());
                h.write(&[u8::from(pipelined)]);
                h.write_u64(rcfg_fp);
                PipeVal::LoopPrepared(Arc::new(inner), h.finish())
            }
            PipeKey::CondensedCfg => {
                let hier = self.hierarchy(db);
                let roots: Vec<LoopId> = hier.inner.iter().map(|r| r.id.clone()).collect();
                let parts: Vec<_> = (0..func.arrays.len())
                    .map(|a| self.array_cfg(db, a))
                    .collect();
                // reads only the loop pragmas the condensed build reads, so
                // an edit inside a region leaves this query green
                let spec = CondensedSpec::new(func, self.max_nodes, &roots, &parts, |i| {
                    self.loop_cfg(db, i).unroll
                });
                PipeVal::CondensedCfg(Arc::new(spec))
            }
            PipeKey::Condensed => {
                let spec = match self.get(db, &PipeKey::CondensedCfg) {
                    PipeVal::CondensedCfg(spec) => spec,
                    _ => unreachable!("incr: CondensedCfg key holds non-CondensedCfg value"),
                };
                let mut h = Fnv1aHasher::new();
                h.write_u64(key.fingerprint());
                h.write_u64(spec.fingerprint());
                PipeVal::Condensed(Arc::new(CondensedSlot::new(spec)), h.finish())
            }
        }
    }
}

/// Builds a [`PreparedDesign`] through the kernel database `db`: seeds the
/// inputs from `cfg`, fetches the hierarchy, each inner loop's prepared
/// subgraph and the condensed-graph skeleton slot (all memoized), and
/// assembles the result around the caller's full configuration. The slot
/// may still be empty: the first prediction that needs it fills it.
///
/// `db` must only ever see this `func` and `max_nodes`. The result is
/// byte-identical to `HierarchicalModel::prepare` with the same
/// `graph_max_nodes` — on a cold database because both run
/// `prepare_one_inner` on equivalent inputs, and on a warm one because
/// memo hits replay values those exact executions produced.
pub fn prepare_design(
    db: &mut PipelineDb,
    func: &Arc<Function>,
    cfg: &PragmaConfig,
    max_nodes: usize,
) -> PreparedDesign {
    for (i, meta) in func.loops().iter().enumerate() {
        db.set_input(
            PipeKey::LoopCfg(i as u32),
            PipeVal::LoopCfg(cfg.loop_pragma(&meta.id)),
        );
    }
    for i in 0..func.arrays.len() {
        db.set_input(
            PipeKey::ArrayCfg(i as u32),
            PipeVal::ArrayCfg(Arc::new(array_partitions(func, cfg, i))),
        );
    }
    let pipeline = Pipeline { func, max_nodes };
    let hier = pipeline.hierarchy(db);
    let inner: Vec<Arc<PreparedInner>> = hier
        .inner
        .iter()
        .map(|inner| {
            let i = func
                .loops()
                .iter()
                .position(|meta| meta.id == inner.id)
                .expect("incr: an inner region is a loop");
            match pipeline.get(db, &PipeKey::LoopPrepared(i as u32)) {
                PipeVal::LoopPrepared(p, _) => p,
                _ => unreachable!("incr: LoopPrepared key holds non-LoopPrepared value"),
            }
        })
        .collect();
    let condensed = match pipeline.get(db, &PipeKey::Condensed) {
        PipeVal::Condensed(slot, _) => slot,
        _ => unreachable!("incr: Condensed key holds non-Condensed value"),
    };
    PreparedDesign {
        func: func.clone(),
        cfg: cfg.clone(),
        inner,
        condensed,
    }
}
