#![warn(missing_docs)]
//! A deterministic, dependency-tracked incremental query database.
//!
//! [`QueryDb`] memoizes *derived queries* over a set of *inputs* and
//! recomputes the minimum necessary when inputs change — the salsa-style
//! red-green algorithm used by incremental compilers, restructured for the
//! HLS QoR pipeline: per-function HIR, per-loop CDFG subgraphs and
//! per-bank feature tensors become query values, and a one-pragma edit
//! invalidates only the loop subtree that reads it.
//!
//! # Model
//!
//! * **Inputs** are set explicitly with [`QueryDb::set_input`]. Setting an
//!   input to a value equal to its current one (per [`Value::eq_value`]) is
//!   a no-op; otherwise the database's *revision* advances and the input is
//!   stamped `changed_at = revision`.
//! * **Derived queries** are computed by a host-supplied `exec` function
//!   passed to [`QueryDb::get`]. While `exec` runs, every nested
//!   [`QueryDb::get`] (and input read) is recorded as a dependency edge of
//!   the query being computed, in read order.
//! * **Red-green validation.** A memo carries `verified_at` (last revision
//!   it was known good) and `changed_at` (revision its value last actually
//!   changed). On a fetch at a newer revision, dependencies are revalidated
//!   recursively: if none changed since `verified_at`, the memo is marked
//!   green and returned without executing — even if intermediate deps were
//!   themselves recomputed but *backdated* (recomputed to an equal value,
//!   keeping their old `changed_at`). This gives the early-cutoff property:
//!   an edit whose derived effects are value-identical stops propagating at
//!   the first equal value.
//! * **Version cache.** Beyond the single current memo per key, the
//!   database keeps a bounded FIFO cache of previously computed values
//!   keyed by `(query key, dependency-trace fingerprint)`. When validation
//!   fails, the old dependency trace is re-evaluated under the current
//!   inputs and its fingerprint looked up before executing — so flipping an
//!   input A→B→A (the dominant pattern in DSE neighbor walks and
//!   hill-climb recombination) answers from cache instead of recomputing.
//!   A deterministic query is a pure function of the values its reads
//!   return, and reads happen in order, so the ordered
//!   `(dep key, dep value fingerprint)` trace identifies the execution:
//!   matching fingerprints imply (modulo 64-bit collision) a matching
//!   result.
//! * **Conditional reads.** A query whose read set depends on what it has
//!   read so far executes with different dependency lists in different
//!   revisions, and a probe with the current memo's list cannot match a
//!   version recorded under another list. Once a key has executed with
//!   more than one list, the database remembers its distinct lists (at
//!   most [`SHAPES_PER_KEY`], the most recent) and probes the version
//!   cache with each in turn. Queries with a fixed read set never pay for
//!   this.
//!
//! # Determinism
//!
//! The database holds no clocks, no randomness and no thread state; every
//! answer is either a memo of, or a fresh run of, the host's `exec` on
//! values that are pure functions of the inputs. Two databases driven with
//! the same operation sequence produce byte-identical answers *and*
//! byte-identical stats; databases driven with different interleavings
//! (e.g. different `QOR_THREADS` arrival orders) may differ in hit/miss
//! counts but never in answer bytes.
//!
//! # Example
//!
//! ```
//! use incr::{Key, QueryDb, Value};
//!
//! #[derive(Clone, PartialEq, Eq, Hash, Debug)]
//! enum K { In(u8), Sum }
//! impl Key for K {
//!     fn kind(&self) -> &'static str {
//!         match self { K::In(_) => "in", K::Sum => "sum" }
//!     }
//!     fn fingerprint(&self) -> u64 {
//!         match self { K::In(i) => u64::from(*i), K::Sum => u64::MAX }
//!     }
//! }
//! #[derive(Clone)]
//! struct V(i64);
//! impl Value for V {
//!     fn eq_value(&self, other: &Self) -> bool { self.0 == other.0 }
//!     fn fingerprint(&self) -> u64 { self.0 as u64 }
//! }
//!
//! let exec = |db: &mut QueryDb<K, V>, key: &K| match key {
//!     K::Sum => V(db.get(&K::In(0), &|db, k| unreachable!()).0
//!         + db.get(&K::In(1), &|db, k| unreachable!()).0),
//!     K::In(_) => unreachable!("inputs are set, never executed"),
//! };
//! let mut db = QueryDb::new(16);
//! db.set_input(K::In(0), V(2));
//! db.set_input(K::In(1), V(3));
//! assert_eq!(db.get(&K::Sum, &exec).0, 5);
//! assert_eq!(db.get(&K::Sum, &exec).0, 5); // memo hit, no execution
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hasher;

use obs::hash::{Fnv1aHasher, FnvBuildHasher};

/// A query key: cheap to clone, hashable, self-describing.
pub trait Key: Clone + Eq + std::hash::Hash {
    /// Stable short tag naming the query family (e.g. `"loop_prepared"`);
    /// the unit of stats aggregation and metric labels.
    fn kind(&self) -> &'static str;
    /// Stable 64-bit fingerprint of the key itself (seed-free FNV-1a over
    /// the key's identity), used to key the version cache.
    fn fingerprint(&self) -> u64;
}

/// A query value: cloneable (clones should be cheap — wrap large payloads
/// in `Arc`), comparable for backdating, and content-fingerprintable.
pub trait Value: Clone {
    /// Deep value equality: drives input change detection and backdating.
    fn eq_value(&self, other: &Self) -> bool;
    /// Stable 64-bit content fingerprint. Must agree with [`eq_value`]:
    /// equal values must produce equal fingerprints. Called once per
    /// dependency edge per validation, so hosts should precompute it for
    /// large payloads.
    ///
    /// [`eq_value`]: Value::eq_value
    fn fingerprint(&self) -> u64;
}

/// Per-kind hit/miss/recompute counters.
///
/// `hits` counts every fetch answered without running `exec`
/// (same-revision memo, green validation, or version-cache reuse);
/// `validated` and `reused` break out the latter two. `misses` counts
/// first-ever computations of a key; `recomputes` counts re-executions of
/// a previously computed key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Fetches answered from memo (fast path + validated + reused).
    pub hits: u64,
    /// First-ever computations.
    pub misses: u64,
    /// Re-executions after a dependency actually changed.
    pub recomputes: u64,
    /// Hits that required walking dependencies (green validation).
    pub validated: u64,
    /// Hits answered from the cross-revision version cache.
    pub reused: u64,
}

impl KindStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &KindStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recomputes += other.recomputes;
        self.validated += other.validated;
        self.reused += other.reused;
    }

    /// Counter-wise `self - other` (saturating); used for per-request and
    /// per-job deltas.
    pub fn delta(&self, other: &KindStats) -> KindStats {
        KindStats {
            hits: self.hits.saturating_sub(other.hits),
            misses: self.misses.saturating_sub(other.misses),
            recomputes: self.recomputes.saturating_sub(other.recomputes),
            validated: self.validated.saturating_sub(other.validated),
            reused: self.reused.saturating_sub(other.reused),
        }
    }

    /// Labels this thread's open flight unit (see [`obs::flight()`]) with
    /// `incr_hits`, `incr_misses` and `incr_recomputes` when any query ran.
    pub fn label_flight(&self) {
        if self.hits + self.misses + self.recomputes > 0 {
            obs::flight::attr("incr_hits", self.hits);
            obs::flight::attr("incr_misses", self.misses);
            obs::flight::attr("incr_recomputes", self.recomputes);
        }
    }
}

struct Input<V> {
    value: V,
    changed_at: u64,
}

struct Memo<K, V> {
    value: V,
    /// Revision at which the value last actually changed (backdated when a
    /// recompute produced an equal value).
    changed_at: u64,
    /// Revision at which the memo was last verified green.
    verified_at: u64,
    /// Ordered read trace: every key this computation fetched.
    deps: Vec<K>,
}

struct Version<K, V> {
    value: V,
    deps: Vec<K>,
}

/// Distinct dependency lists remembered per key for version-cache probes
/// (see the crate docs on conditional reads).
pub const SHAPES_PER_KEY: usize = 16;

/// The incremental query database.
///
/// Generic over the host's key and value types; the host supplies the
/// execution function on every [`get`](QueryDb::get) so the database never
/// stores a closure (and stays trivially `Send`).
pub struct QueryDb<K: Key, V: Value> {
    revision: u64,
    inputs: HashMap<K, Input<V>, FnvBuildHasher>,
    memos: HashMap<K, Memo<K, V>, FnvBuildHasher>,
    versions: HashMap<(K, u64), Version<K, V>, FnvBuildHasher>,
    version_order: VecDeque<(K, u64)>,
    version_cap: usize,
    /// Per key that has executed with more than one dependency list: its
    /// distinct lists, oldest first, at most [`SHAPES_PER_KEY`].
    shapes: HashMap<K, VecDeque<Vec<K>>, FnvBuildHasher>,
    /// Keys currently executing (cycle detection + dependency recording).
    stack: Vec<(K, Vec<K>)>,
    stats: BTreeMap<&'static str, KindStats>,
}

impl<K: Key, V: Value> QueryDb<K, V> {
    /// An empty database whose cross-revision version cache holds at most
    /// `version_cap` entries (0 disables it; red validation still works).
    pub fn new(version_cap: usize) -> Self {
        QueryDb {
            revision: 0,
            inputs: HashMap::default(),
            memos: HashMap::default(),
            versions: HashMap::default(),
            version_order: VecDeque::new(),
            version_cap,
            shapes: HashMap::default(),
            stack: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    /// The current revision (bumped once per actual input change).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of memoized derived queries.
    pub fn memo_count(&self) -> usize {
        self.memos.len()
    }

    /// Number of entries in the cross-revision version cache.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// Sets an input. Returns `true` (and advances the revision) only if
    /// the value actually changed per [`Value::eq_value`].
    pub fn set_input(&mut self, key: K, value: V) -> bool {
        assert!(
            self.stack.is_empty(),
            "incr: set_input during query execution"
        );
        match self.inputs.get_mut(&key) {
            Some(slot) => {
                if slot.value.eq_value(&value) {
                    return false;
                }
                self.revision += 1;
                slot.value = value;
                slot.changed_at = self.revision;
                true
            }
            None => {
                self.revision += 1;
                self.inputs.insert(
                    key,
                    Input {
                        value,
                        changed_at: self.revision,
                    },
                );
                true
            }
        }
    }

    /// Fetches a query value, recording it as a dependency of the query
    /// currently executing (if any).
    ///
    /// For inputs this returns the stored value; for derived queries it
    /// returns a memo when green, a version-cache entry when the current
    /// dependency trace matches a previously seen one, and otherwise runs
    /// `exec(self, key)` — which must be deterministic and must read all
    /// its inputs through `self` so dependencies are tracked.
    ///
    /// # Panics
    ///
    /// Panics on a dependency cycle, and if `key` is a derived query that
    /// `exec` does not know (host programming errors).
    pub fn get<F>(&mut self, key: &K, exec: &F) -> V
    where
        F: Fn(&mut Self, &K) -> V,
    {
        let value = self.fetch(key, exec);
        if let Some((_, deps)) = self.stack.last_mut() {
            deps.push(key.clone());
        }
        value
    }

    /// Per-kind counters accumulated since construction.
    pub fn stats(&self) -> Vec<(&'static str, KindStats)> {
        self.stats.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Sum of all per-kind counters.
    pub fn totals(&self) -> KindStats {
        let mut t = KindStats::default();
        for s in self.stats.values() {
            t.absorb(s);
        }
        t
    }

    // ------------------------------------------------------------ internals

    fn fetch<F>(&mut self, key: &K, exec: &F) -> V
    where
        F: Fn(&mut Self, &K) -> V,
    {
        if let Some(input) = self.inputs.get(key) {
            return input.value.clone();
        }
        if self.stack.iter().any(|(k, _)| k == key) {
            let chain: Vec<&str> = self
                .stack
                .iter()
                .map(|(k, _)| k.kind())
                .chain([key.kind()])
                .collect();
            panic!("incr: dependency cycle: {}", chain.join(" -> "));
        }
        // Fast path: memo already verified at this revision.
        if let Some(memo) = self.memos.get(key) {
            if memo.verified_at == self.revision {
                let value = memo.value.clone();
                self.bump(key.kind(), |s| s.hits += 1);
                return value;
            }
        }
        if self.memos.contains_key(key) {
            // Green validation: if no dependency changed since this memo
            // was last verified, mark it green without executing.
            let (deps, verified_at) = {
                let memo = &self.memos[key];
                (memo.deps.clone(), memo.verified_at)
            };
            let mut changed = false;
            for dep in &deps {
                if self.dep_changed_since(dep, verified_at, exec) {
                    changed = true;
                    break;
                }
            }
            if !changed {
                let revision = self.revision;
                let memo = self.memos.get_mut(key).unwrap();
                memo.verified_at = revision;
                let value = memo.value.clone();
                self.bump(key.kind(), |s| {
                    s.hits += 1;
                    s.validated += 1;
                });
                return value;
            }
            // Red: before executing, evaluate the old dependency trace
            // (and any other list the key has executed with) under the
            // current inputs and probe the version cache.
            if self.version_cap > 0 {
                if let Some((value, vdeps)) = self.probe_versions(key, &deps, exec) {
                    self.install(key, value.clone(), vdeps, None);
                    self.bump(key.kind(), |s| {
                        s.hits += 1;
                        s.reused += 1;
                    });
                    return value;
                }
            }
        }
        // Execute.
        self.stack.push((key.clone(), Vec::new()));
        let value = exec(self, key);
        let (_, deps) = self.stack.pop().expect("incr: stack underflow");
        let first = !self.memos.contains_key(key);
        if self.version_cap > 0 && !first {
            let old = &self.memos[key].deps;
            if *old != deps || self.shapes.contains_key(key) {
                let old = old.clone();
                self.remember_shape(key, &old, &deps);
            }
        }
        let trace_fp = self.trace_fingerprint(&deps, exec);
        self.install(key, value.clone(), deps, Some(trace_fp));
        self.bump(key.kind(), |s| {
            if first {
                s.misses += 1;
            } else {
                s.recomputes += 1;
            }
        });
        value
    }

    /// Whether `dep`'s value changed after revision `since`, bringing the
    /// dep's memo up to date first if it is itself stale.
    fn dep_changed_since<F>(&mut self, dep: &K, since: u64, exec: &F) -> bool
    where
        F: Fn(&mut Self, &K) -> V,
    {
        if let Some(input) = self.inputs.get(dep) {
            return input.changed_at > since;
        }
        // Derived dep: make sure it is current (this may recompute it, and
        // the recompute may backdate), then compare its changed_at.
        self.fetch(dep, exec);
        match self.memos.get(dep) {
            Some(memo) => memo.changed_at > since,
            None => true,
        }
    }

    /// A version of `key` whose dependency trace matches the current
    /// inputs: probed with `deps` (the current memo's list), then with each
    /// other list the key has executed with.
    fn probe_versions<F>(&mut self, key: &K, deps: &[K], exec: &F) -> Option<(V, Vec<K>)>
    where
        F: Fn(&mut Self, &K) -> V,
    {
        let found = self.probe_with(key, deps, exec);
        if found.is_some() {
            return found;
        }
        // out of the map while probing: a trace evaluation never reads
        // `key`'s own shapes (that would be a cycle)
        let shapes = self.shapes.remove(key)?;
        let found = shapes
            .iter()
            .rev()
            .filter(|list| list.as_slice() != deps)
            .find_map(|list| self.probe_with(key, list, exec));
        self.shapes.insert(key.clone(), shapes);
        found
    }

    /// The version of `key` recorded under dependency list `deps`, if the
    /// list reads the same values now as it did then.
    fn probe_with<F>(&mut self, key: &K, deps: &[K], exec: &F) -> Option<(V, Vec<K>)>
    where
        F: Fn(&mut Self, &K) -> V,
    {
        let trace_fp = self.trace_fingerprint(deps, exec);
        let version = self.versions.get(&(key.clone(), trace_fp))?;
        Some((version.value.clone(), version.deps.clone()))
    }

    /// Records that `key` executed with `deps`; a key is tracked once its
    /// list differs from its previous memo's `old`.
    fn remember_shape(&mut self, key: &K, old: &[K], deps: &[K]) {
        if !self.shapes.contains_key(key) {
            if old == deps {
                return;
            }
            self.shapes
                .insert(key.clone(), VecDeque::from([old.to_vec()]));
        }
        let shapes = self.shapes.get_mut(key).expect("inserted above");
        if shapes.iter().any(|s| s == deps) {
            return;
        }
        shapes.push_back(deps.to_vec());
        if shapes.len() > SHAPES_PER_KEY {
            shapes.pop_front();
        }
    }

    /// FNV-1a over the ordered `(key fingerprint, current value
    /// fingerprint)` pairs of a dependency trace, evaluated under the
    /// current inputs (stale derived deps are brought up to date).
    fn trace_fingerprint<F>(&mut self, deps: &[K], exec: &F) -> u64
    where
        F: Fn(&mut Self, &K) -> V,
    {
        let mut h = Fnv1aHasher::new();
        for dep in deps {
            let vfp = if let Some(input) = self.inputs.get(dep) {
                input.value.fingerprint()
            } else {
                self.fetch(dep, exec);
                self.memos[dep].value.fingerprint()
            };
            h.write_u64(dep.fingerprint());
            h.write_u64(vfp);
        }
        h.finish()
    }

    /// Installs a (re)computed or reused value as the current memo,
    /// backdating `changed_at` when the value is unchanged, and records it
    /// in the version cache under `trace_fp` when given.
    fn install(&mut self, key: &K, value: V, deps: Vec<K>, trace_fp: Option<u64>) {
        let changed_at = match self.memos.get(key) {
            Some(old) if old.value.eq_value(&value) => old.changed_at,
            _ => self.revision,
        };
        if let Some(fp) = trace_fp {
            self.remember_version(key, fp, value.clone(), deps.clone());
        }
        self.memos.insert(
            key.clone(),
            Memo {
                value,
                changed_at,
                verified_at: self.revision,
                deps,
            },
        );
    }

    fn remember_version(&mut self, key: &K, trace_fp: u64, value: V, deps: Vec<K>) {
        if self.version_cap == 0 {
            return;
        }
        let vkey = (key.clone(), trace_fp);
        if self
            .versions
            .insert(vkey.clone(), Version { value, deps })
            .is_none()
        {
            self.version_order.push_back(vkey);
            while self.version_order.len() > self.version_cap {
                if let Some(evict) = self.version_order.pop_front() {
                    self.versions.remove(&evict);
                }
            }
        }
    }

    fn bump(&mut self, kind: &'static str, f: impl FnOnce(&mut KindStats)) {
        f(self.stats.entry(kind).or_default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Inputs `In(i)`; `Parity(i) = In(i) & 1`; `Sum = Σ Parity(i)` over
    /// inputs 0..n (n fixed at 2 for these tests).
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    enum K {
        In(u32),
        Parity(u32),
        Sum,
    }

    impl Key for K {
        fn kind(&self) -> &'static str {
            match self {
                K::In(_) => "in",
                K::Parity(_) => "parity",
                K::Sum => "sum",
            }
        }
        fn fingerprint(&self) -> u64 {
            match self {
                K::In(i) => 0x1000 + u64::from(*i),
                K::Parity(i) => 0x2000 + u64::from(*i),
                K::Sum => 0x3000,
            }
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    struct V(i64);

    impl Value for V {
        fn eq_value(&self, other: &Self) -> bool {
            self.0 == other.0
        }
        fn fingerprint(&self) -> u64 {
            self.0 as u64
        }
    }

    type Db = QueryDb<K, V>;

    /// Host with an execution log for asserting exactly what recomputed.
    struct Host {
        log: RefCell<Vec<K>>,
    }

    impl Host {
        fn new() -> Self {
            Host {
                log: RefCell::new(Vec::new()),
            }
        }

        fn exec(&self) -> impl Fn(&mut Db, &K) -> V + '_ {
            move |db: &mut Db, key: &K| {
                self.log.borrow_mut().push(key.clone());
                match key {
                    K::In(_) => panic!("inputs are never executed"),
                    K::Parity(i) => {
                        let v = db.get(&K::In(*i), &self.exec());
                        V(v.0 & 1)
                    }
                    K::Sum => {
                        let a = db.get(&K::Parity(0), &self.exec());
                        let b = db.get(&K::Parity(1), &self.exec());
                        V(a.0 + b.0)
                    }
                }
            }
        }

        fn ran(&self) -> Vec<K> {
            self.log.borrow().clone()
        }

        fn clear(&self) {
            self.log.borrow_mut().clear();
        }
    }

    fn seeded(a: i64, b: i64) -> Db {
        let mut db = Db::new(16);
        db.set_input(K::In(0), V(a));
        db.set_input(K::In(1), V(b));
        db
    }

    #[test]
    fn memoizes_within_a_revision() {
        let host = Host::new();
        let mut db = seeded(2, 3);
        assert_eq!(db.get(&K::Sum, &host.exec()).0, 1);
        host.clear();
        assert_eq!(db.get(&K::Sum, &host.exec()).0, 1);
        assert!(host.ran().is_empty(), "second fetch must be a memo hit");
        let sum = db.stats().iter().find(|(k, _)| *k == "sum").unwrap().1;
        assert_eq!((sum.hits, sum.misses, sum.recomputes), (1, 1, 0));
    }

    #[test]
    fn unchanged_input_set_is_a_noop() {
        let host = Host::new();
        let mut db = seeded(2, 3);
        db.get(&K::Sum, &host.exec());
        let rev = db.revision();
        assert!(!db.set_input(K::In(0), V(2)));
        assert_eq!(db.revision(), rev);
        host.clear();
        db.get(&K::Sum, &host.exec());
        assert!(host.ran().is_empty());
    }

    #[test]
    fn input_change_recomputes_only_the_affected_subtree() {
        let host = Host::new();
        let mut db = seeded(2, 3);
        db.get(&K::Sum, &host.exec());
        host.clear();
        // 3 -> 5: parity(1) recomputes but backdates (1 == 1), so Sum goes
        // green without re-running; parity(0) is never touched.
        db.set_input(K::In(1), V(5));
        assert_eq!(db.get(&K::Sum, &host.exec()).0, 1);
        assert_eq!(host.ran(), vec![K::Parity(1)]);
        let sum = db.stats().iter().find(|(k, _)| *k == "sum").unwrap().1;
        assert_eq!(sum.recomputes, 0);
        assert_eq!(sum.validated, 1);
    }

    #[test]
    fn value_change_propagates() {
        let host = Host::new();
        let mut db = seeded(2, 3);
        db.get(&K::Sum, &host.exec());
        host.clear();
        db.set_input(K::In(0), V(3)); // parity flips 0 -> 1
        assert_eq!(db.get(&K::Sum, &host.exec()).0, 2);
        assert!(host.ran().contains(&K::Sum));
    }

    #[test]
    fn version_cache_reuses_across_alternation() {
        let host = Host::new();
        let mut db = seeded(2, 3);
        db.get(&K::Sum, &host.exec());
        db.set_input(K::In(0), V(3));
        db.get(&K::Sum, &host.exec());
        host.clear();
        // Flip back: both Parity(0) and Sum must come from the version
        // cache — no executions at all.
        db.set_input(K::In(0), V(2));
        assert_eq!(db.get(&K::Sum, &host.exec()).0, 1);
        assert!(host.ran().is_empty(), "A->B->A must be answered from cache");
        let parity = db.stats().iter().find(|(k, _)| *k == "parity").unwrap().1;
        assert!(parity.reused >= 1);
    }

    #[test]
    fn version_cache_reuses_across_changing_read_sets() {
        // `Pick` reads In(0) and then In(1) only when In(0) is odd, so
        // its dependency list differs between the two configurations
        #[derive(Clone, PartialEq, Eq, Hash, Debug)]
        enum P {
            In(u32),
            Pick,
        }
        impl Key for P {
            fn kind(&self) -> &'static str {
                match self {
                    P::In(_) => "in",
                    P::Pick => "pick",
                }
            }
            fn fingerprint(&self) -> u64 {
                match self {
                    P::In(i) => u64::from(*i),
                    P::Pick => u64::MAX,
                }
            }
        }
        let runs = RefCell::new(0);
        let exec = |db: &mut QueryDb<P, V>, _: &P| {
            *runs.borrow_mut() += 1;
            let none = |_: &mut QueryDb<P, V>, _: &P| -> V { unreachable!() };
            let a = db.get(&P::In(0), &none).0;
            if a % 2 == 1 {
                V(a + db.get(&P::In(1), &none).0)
            } else {
                V(a)
            }
        };
        let mut db = QueryDb::new(16);
        db.set_input(P::In(1), V(10));
        for (round, a) in [1, 2, 1, 2, 3].into_iter().enumerate() {
            db.set_input(P::In(0), V(a));
            let want = if a % 2 == 1 { a + 10 } else { a };
            assert_eq!(db.get(&P::Pick, &exec).0, want, "round {round}");
        }
        // 1 and 2 execute once each; their revisits are reused; 3 is new
        assert_eq!(*runs.borrow(), 3);
        let pick = db.stats().iter().find(|(k, _)| *k == "pick").unwrap().1;
        assert_eq!((pick.misses, pick.recomputes, pick.reused), (1, 2, 2));
    }

    #[test]
    fn version_cache_capacity_is_bounded() {
        let host = Host::new();
        let mut db = Db::new(1);
        db.set_input(K::In(0), V(0));
        db.set_input(K::In(1), V(0));
        for round in 0..6i64 {
            db.set_input(K::In(0), V(round % 3));
            db.get(&K::Sum, &host.exec());
        }
        assert!(db.versions.len() <= 1);
        assert!(db.version_order.len() <= 1);
    }

    #[test]
    fn stats_identical_for_identical_operation_sequences() {
        let drive = || {
            let host = Host::new();
            let mut db = seeded(2, 3);
            for v in [2i64, 4, 2, 7, 4, 2] {
                db.set_input(K::In(0), V(v));
                db.get(&K::Sum, &host.exec());
            }
            let out = (db.get(&K::Sum, &host.exec()).0, db.stats());
            out
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn cycles_panic() {
        #[derive(Clone, PartialEq, Eq, Hash)]
        struct Loopy;
        impl Key for Loopy {
            fn kind(&self) -> &'static str {
                "loopy"
            }
            fn fingerprint(&self) -> u64 {
                1
            }
        }
        fn exec(db: &mut QueryDb<Loopy, V>, _key: &Loopy) -> V {
            db.get(&Loopy, &exec)
        }
        let mut db: QueryDb<Loopy, V> = QueryDb::new(0);
        db.get(&Loopy, &exec);
    }

    #[test]
    fn totals_sum_across_kinds() {
        let host = Host::new();
        let mut db = seeded(2, 3);
        db.get(&K::Sum, &host.exec());
        let t = db.totals();
        assert_eq!(t.misses, 3); // sum, parity(0), parity(1)
        assert_eq!(t.recomputes, 0);
    }
}
