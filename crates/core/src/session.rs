//! Inference sessions: a trained model plus memoized front halves.
//!
//! End-to-end prediction splits into an expensive, weight-independent
//! front half (`lower` → hierarchy split → CDFG subgraph construction →
//! feature annotation; see [`HierarchicalModel::prepare`]) and a cheap GNN
//! forward pass. DSE-style workloads query the same kernel under thousands
//! of pragma configurations — and frequently revisit configurations — so a
//! [`Session`] memoizes the front half in a [`SharedCache`]: one LRU map
//! of **kernels**, keyed by `(model prepare fingerprint, kernel hash)`
//! with the kernel hash an FNV-1a over `(top name, source)`. Each entry holds the kernel's lowered [`Function`]
//! and the kernel's own incremental query database ([`PipelineDb`], see
//! [`crate::incr`]), and every prepare runs through that database:
//!
//! * a pragma neighbor re-executes only the loop regions whose read
//!   support changed;
//! * a whole-design repeat executes no query at all — the database's
//!   version cache answers A→B→A revisits — and is what the statistics
//!   count as a prepared-cache hit.
//!
//! The map holds at most `QOR_CACHE_CAP` kernels (default
//! [`DEFAULT_CACHE_CAP`]; `0` retains nothing, so every predict lowers and
//! prepares from scratch), and the version caches of all retained
//! databases hold at most [`VERSION_CAP`] entries together: when a prepare
//! pushes the sum over, the least recently used other kernels drop their
//! databases (their lowered functions stay). Memory stays bounded however
//! many distinct sources and configurations clients send.
//!
//! Because the front half never reads model *weights* (only the graph
//! construction options, folded into the prepare fingerprint), one
//! `SharedCache` can back **many sessions**: a model registry serving
//! several named model versions — or hot-swapping one version for a
//! retrain of the same architecture — keeps every memoized design warm
//! across the swap. [`Session::with_shared`] wires a session onto an
//! existing cache; the single-model constructors allocate a private one.
//!
//! Kernel hashes use [`crate::Fnv1aHasher`], so they are stable across
//! processes, and eviction follows a use-order clock, never map iteration
//! order, so hit and eviction patterns are reproducible. A 64-bit hash is
//! not collision resistant, so every entry keeps its `top` and source and
//! a hit must match them: a colliding kernel misses, is lowered afresh and
//! leaves the resident entry in place.
//!
//! The memoized regions also carry the back half's first step: each
//! prepared inner region keeps the `GNN_p`/`GNN_np` outputs last computed
//! for it, tagged with the computing session's token, a number unique
//! within the process. A session's model never changes, so a slot holding
//! the session's own token holds exactly what a fresh forward pass would
//! return, and a region reached from many designs is predicted once per
//! session. Sessions sharing a cache overwrite each other's slots. The
//! slots live and die with the region memos, so the kernel LRU and the
//! version budget bound them too.
//!
//! Hit/miss/eviction counts are kept in cache-local counters (exported by
//! [`Session::stats`] / [`SharedCache::stats`]) and mirrored into the
//! `obs` metrics registry under `session/cache/*`, `session/kernel/*`,
//! `session/inner/*` and `incr/*` whenever collection is on.
//!
//! A `Session` is `Sync`: the map and each kernel database sit behind
//! their own mutexes, so prepares of different kernels run concurrently,
//! the model is immutable, and prepared designs are shared as [`Arc`]s — so
//! a server (or `par::map` fan-out) can serve predictions from many
//! threads.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use hir::Function;
use hlsim::Qor;
use incr::KindStats;
use obs::log::Level;
use obs::Json;
use pragma::PragmaConfig;

use crate::error::QorError;
use crate::hash::Fnv1aHasher;
use crate::incr::{PipelineDb, VERSION_CAP};
use crate::model::{HierarchicalModel, PreparedDesign};

/// Kernel capacity of a cache when `QOR_CACHE_CAP` is not set.
pub const DEFAULT_CACHE_CAP: usize = 256;

/// Point-in-time cache statistics of a [`SharedCache`].
///
/// When several sessions share one cache the counters aggregate over all
/// of them — that is the point: the statistics describe the memo store,
/// not any single model version reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Prepares that executed no query (whole-design repeats).
    pub hits: u64,
    /// Prepares that executed at least one query.
    pub misses: u64,
    /// Kernels evicted by the LRU policy.
    pub evictions: u64,
    /// Lowered-kernel lookups answered from the map.
    pub kernel_hits: u64,
    /// Lowered-kernel lookups that missed (parse + lower paid). Calls
    /// racing to lower the same kernel count one miss: the call whose
    /// entry is kept.
    pub kernel_misses: u64,
    /// Kernels currently retained.
    pub len: usize,
    /// Kernel capacity (0 = retain nothing).
    pub capacity: usize,
    /// Incremental queries answered from memo (all query kinds).
    pub incr_hits: u64,
    /// Incremental queries computed for the first time.
    pub incr_misses: u64,
    /// Incremental queries re-executed after an input changed.
    pub incr_recomputes: u64,
    /// Inner-region forward passes answered from the region's output slot.
    pub inner_hits: u64,
    /// Inner-region forward passes run (and stored in the region's slot).
    pub inner_misses: u64,
    /// Condensed-graph skeletons built (one per distinct condensed
    /// structure while its slot stays memoized).
    pub skeleton_builds: u64,
}

impl CacheStats {
    /// Fraction of all lookups (kernel and whole-design) answered without
    /// work, in `0..=1`; zero when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits + self.kernel_hits;
        let total = hits + self.misses + self.kernel_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// One prediction plus which caches answered.
///
/// Returned by [`Session::predict_kernel_report`] /
/// [`Session::predict_source_report`]; servers turn this into flight-record
/// cache hit/miss counts without a second stats diff. Where the time went
/// is read from the prediction's `lower`, `prepare` and `infer` spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictReport {
    /// The predicted quality of result.
    pub qor: Qor,
    /// Whether the lowered kernel came from the kernel map, also when a
    /// racing call inserted it while this one was lowering.
    pub kernel_cache_hit: bool,
    /// Whether the prepare executed no query (a whole-design repeat).
    pub prepared_cache_hit: bool,
    /// Incremental query counts of this prediction's prepare.
    pub incr: KindStats,
}

impl PredictReport {
    /// Cache hits in this prediction (0..=2: kernel map, whole design).
    pub fn cache_hits(&self) -> u64 {
        u64::from(self.kernel_cache_hit) + u64::from(self.prepared_cache_hit)
    }

    /// Cache misses in this prediction (0..=2: kernel map, whole design).
    pub fn cache_misses(&self) -> u64 {
        2 - self.cache_hits()
    }
}

/// One retained kernel: its lowered function and its query database.
struct Entry {
    /// What `func` was lowered from; a lookup must match both.
    top: Box<str>,
    source: Box<str>,
    func: Arc<Function>,
    db: Mutex<PipelineDb>,
    /// `db`'s version count after its last prepare, readable under the
    /// map's lock alone.
    versions: AtomicUsize,
}

impl Entry {
    /// Whether this entry is `top` of `source`, not merely a kernel whose
    /// key collides with it.
    fn holds(&self, top: &str, source: &str) -> bool {
        *self.top == *top && *self.source == *source
    }
}

/// `(model prepare fingerprint, kernel hash)`.
type EntryKey = (u64, u64);

/// The kernel map with least-recently-used order: `order` maps each
/// entry's last-use stamp to its key, so the oldest entry is the first.
#[derive(Default)]
struct Lru {
    clock: u64,
    map: HashMap<EntryKey, (u64, Arc<Entry>)>,
    order: BTreeMap<u64, EntryKey>,
}

impl Lru {
    /// Looks `key` up and marks it most recently used.
    fn get(&mut self, key: EntryKey) -> Option<Arc<Entry>> {
        let (stamp, entry) = self.map.get_mut(&key)?;
        self.order.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.order.insert(self.clock, key);
        Some(entry.clone())
    }

    /// Inserts `entry` unless `key` is taken, then evicts down to
    /// `capacity`. A racing thread's entry for the same kernel wins, so
    /// both threads share one database; a colliding kernel's entry keeps
    /// its slot and `entry` comes back unretained. Returns the entry to
    /// use and the eviction count.
    fn insert(&mut self, key: EntryKey, entry: Arc<Entry>, capacity: usize) -> (Arc<Entry>, u64) {
        if let Some(existing) = self.get(key) {
            let kept = if existing.holds(&entry.top, &entry.source) {
                existing
            } else {
                entry
            };
            return (kept, 0);
        }
        self.clock += 1;
        self.map.insert(key, (self.clock, entry.clone()));
        self.order.insert(self.clock, key);
        let mut evicted = 0;
        while self.map.len() > capacity {
            let (_, oldest) = self.order.pop_first().expect("order mirrors map");
            self.map.remove(&oldest);
            evicted += 1;
        }
        (entry, evicted)
    }
}

/// The memoization store behind one or more [`Session`]s: an LRU map of
/// kernels, each with its own query database (see the `session` module
/// docs).
///
/// Create one with [`SharedCache::new`] / [`SharedCache::with_capacity`]
/// and hand clones of the `Arc` to [`Session::with_shared`]; every session
/// on the cache shares the memo and the statistics counters.
pub struct SharedCache {
    capacity: usize,
    /// Version entries all retained databases may hold together.
    version_cap: usize,
    lru: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    kernel_hits: AtomicU64,
    kernel_misses: AtomicU64,
    inner_hits: AtomicU64,
    inner_misses: AtomicU64,
    skeleton_builds: AtomicU64,
    /// Cumulative per-kind query counters; they outlive evicted kernels.
    queries: Mutex<BTreeMap<&'static str, KindStats>>,
}

impl std::fmt::Debug for SharedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "SharedCache {{ capacity: {}, cached: {}, hits: {}, misses: {} }}",
            stats.capacity, stats.len, stats.hits, stats.misses
        )
    }
}

impl Default for SharedCache {
    fn default() -> Self {
        SharedCache::new()
    }
}

impl SharedCache {
    /// A cache with the kernel capacity from `QOR_CACHE_CAP` (default
    /// [`DEFAULT_CACHE_CAP`]).
    ///
    /// `QOR_CACHE_CAP=0` is a *valid* setting, not an error: it retains
    /// nothing — every lookup misses, nothing is stored, and the eviction
    /// path never runs. Unset or unparsable values fall back to the
    /// default.
    pub fn new() -> Self {
        Self::with_capacity(env_cache_cap())
    }

    /// A cache retaining at most `capacity` kernels (`0` retains nothing).
    pub fn with_capacity(capacity: usize) -> Self {
        SharedCache {
            capacity,
            version_cap: VERSION_CAP,
            lru: Mutex::new(Lru::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            kernel_hits: AtomicU64::new(0),
            kernel_misses: AtomicU64::new(0),
            inner_hits: AtomicU64::new(0),
            inner_misses: AtomicU64::new(0),
            skeleton_builds: AtomicU64::new(0),
            queries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Current statistics, aggregated over every session on this cache.
    pub fn stats(&self) -> CacheStats {
        let len = lock(&self.lru).map.len();
        let mut incr = KindStats::default();
        for stats in lock(&self.queries).values() {
            incr.absorb(stats);
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            kernel_hits: self.kernel_hits.load(Ordering::Relaxed),
            kernel_misses: self.kernel_misses.load(Ordering::Relaxed),
            len,
            capacity: self.capacity,
            incr_hits: incr.hits,
            incr_misses: incr.misses,
            incr_recomputes: incr.recomputes,
            inner_hits: self.inner_hits.load(Ordering::Relaxed),
            inner_misses: self.inner_misses.load(Ordering::Relaxed),
            skeleton_builds: self.skeleton_builds.load(Ordering::Relaxed),
        }
    }

    /// Per-query-kind incremental counters, cumulative over the cache's
    /// lifetime (evicted kernels included), sorted by kind name. Servers
    /// export these as `qor_incr_query_{hits,misses,recomputes}_total{kind=...}`.
    pub fn incr_kind_stats(&self) -> Vec<(&'static str, KindStats)> {
        let queries = lock(&self.queries);
        queries
            .iter()
            .map(|(kind, stats)| (*kind, *stats))
            .collect()
    }

    /// Drops every retained kernel and its query database (counters are
    /// kept: they are cumulative over the cache's lifetime).
    pub fn clear(&self) {
        *lock(&self.lru) = Lru::default();
    }

    /// Keeps the version caches of all retained kernels within
    /// `version_cap` entries together: while they hold more, the least
    /// recently used kernel other than `keep` drops its database.
    fn trim_versions(&self, keep: &Arc<Entry>) {
        let victims: Vec<Arc<Entry>> = {
            let lru = lock(&self.lru);
            let held = |entry: &Entry| entry.versions.load(Ordering::Relaxed);
            let total: usize = lru.map.values().map(|(_, entry)| held(entry)).sum();
            let mut excess = total.saturating_sub(self.version_cap);
            let mut victims = Vec::new();
            for key in lru.order.values() {
                if excess == 0 {
                    break;
                }
                let entry = &lru.map[key].1;
                if held(entry) > 0 && !Arc::ptr_eq(entry, keep) {
                    excess = excess.saturating_sub(held(entry));
                    victims.push(entry.clone());
                }
            }
            victims
        };
        // each database is locked on its own, never under the map's lock
        for entry in victims {
            *lock(&entry.db) = PipelineDb::new(self.version_cap);
            entry.versions.store(0, Ordering::Relaxed);
        }
    }

    /// Counts one kernel-map lookup as a hit or a miss.
    fn count_kernel(&self, hit: bool) {
        let (counter, name) = if hit {
            (&self.kernel_hits, "session/kernel/hits")
        } else {
            (&self.kernel_misses, "session/kernel/misses")
        };
        counter.fetch_add(1, Ordering::Relaxed);
        obs::metrics::counter_add(name, 1);
    }

    /// Folds one prepare's per-kind counter delta (`before` → `after`
    /// snapshots of one database) into the cumulative counters; returns
    /// the delta summed over kinds.
    fn record_queries(
        &self,
        before: &[(&'static str, KindStats)],
        after: &[(&'static str, KindStats)],
    ) -> KindStats {
        let mut total = KindStats::default();
        let mut queries = lock(&self.queries);
        for (kind, now) in after {
            let was = before
                .iter()
                .find(|(k, _)| k == kind)
                .map_or_else(KindStats::default, |(_, s)| *s);
            let delta = now.delta(&was);
            queries.entry(kind).or_default().absorb(&delta);
            total.absorb(&delta);
        }
        total
    }
}

/// A loaded model plus memoized inference front halves (see the `session`
/// module docs).
pub struct Session {
    model: HierarchicalModel,
    /// Folds the prepare-affecting model options into cache keys, so
    /// sessions with different graph construction never share entries.
    prepare_fp: u64,
    /// Unique within the process: tags the inner-region outputs this
    /// session's model computed (see [`Session::predict_source_report`]).
    token: u64,
    cache: Arc<SharedCache>,
}

/// The next [`Session`] token.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "Session {{ capacity: {}, cached: {}, hits: {}, misses: {} }}",
            stats.capacity, stats.len, stats.hits, stats.misses
        )
    }
}

impl Session {
    /// Wraps a model with a private cache sized from `QOR_CACHE_CAP`
    /// (default [`DEFAULT_CACHE_CAP`]; see [`SharedCache::new`]).
    pub fn new(model: HierarchicalModel) -> Self {
        Self::with_shared(model, Arc::new(SharedCache::new()))
    }

    /// Wraps a model with a private cache retaining at most `capacity`
    /// kernels (`0` retains nothing).
    pub fn with_capacity(model: HierarchicalModel, capacity: usize) -> Self {
        Self::with_shared(model, Arc::new(SharedCache::with_capacity(capacity)))
    }

    /// Wraps a model onto an existing [`SharedCache`], sharing memoized
    /// kernels and their query databases with every other session on it.
    pub fn with_shared(model: HierarchicalModel, cache: Arc<SharedCache>) -> Self {
        Session {
            prepare_fp: model.prepare_fingerprint(),
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            model,
            cache,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &HierarchicalModel {
        &self.model
    }

    /// The cache this session reads and writes (shared or private).
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.cache
    }

    /// Current cache statistics (aggregated across sessions when the cache
    /// is shared).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every retained kernel (counters are kept: they are
    /// cumulative over the cache's lifetime).
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// Predicts the QoR of a bundled benchmark kernel under `cfg`.
    ///
    /// # Errors
    ///
    /// [`QorError::UnknownKernel`] when the name is not in the bundled
    /// set; otherwise as [`Session::predict_source`].
    pub fn predict_kernel(&self, kernel: &str, cfg: &PragmaConfig) -> Result<Qor, QorError> {
        Ok(self.predict_kernel_report(kernel, cfg)?.qor)
    }

    /// As [`Session::predict_kernel`], but also reports per-stage timings
    /// and cache hit/miss flags.
    ///
    /// # Errors
    ///
    /// As [`Session::predict_kernel`].
    pub fn predict_kernel_report(
        &self,
        kernel: &str,
        cfg: &PragmaConfig,
    ) -> Result<PredictReport, QorError> {
        self.predict_source_report(kernel, bundled_source(kernel)?, cfg)
    }

    /// Predicts the QoR of `top` in an arbitrary HLS-C `source` under
    /// `cfg`, caching the lowered function and its query database.
    ///
    /// # Errors
    ///
    /// Front-end/lowering errors for broken sources and
    /// [`QorError::UnknownKernel`] when `source` does not define `top`.
    pub fn predict_source(
        &self,
        top: &str,
        source: &str,
        cfg: &PragmaConfig,
    ) -> Result<Qor, QorError> {
        Ok(self.predict_source_report(top, source, cfg)?.qor)
    }

    /// As [`Session::predict_source`], but also reports cache hit/miss
    /// flags.
    ///
    /// The prediction runs in three spans, `lower` (the kernel-map lookup
    /// and, on a miss, parsing and lowering), `prepare` and `infer`: under
    /// a [flight unit](obs::flight()) they are its stages.
    ///
    /// Every session prediction goes through here. Its inner-region forward
    /// passes read and fill the output slots of the memoized regions under
    /// this session's token, so each distinct region runs `GNN_p`/`GNN_np`
    /// once per session; the public `HierarchicalModel::predict*` paths
    /// never touch the slots.
    ///
    /// Emits one `session.predict` debug event (see [`obs::log`]) carrying
    /// the active trace context and the three spans' durations, so a
    /// request trace can be followed from the HTTP layer into the cache
    /// layers.
    ///
    /// # Errors
    ///
    /// As [`Session::predict_source`].
    pub fn predict_source_report(
        &self,
        top: &str,
        source: &str,
        cfg: &PragmaConfig,
    ) -> Result<PredictReport, QorError> {
        // the spans read the clock only when a flight unit, the span arena
        // or the debug event below uses their durations
        let debug = obs::log::enabled(Level::Debug);
        let open = if debug { obs::timer } else { obs::span };
        let lower = open("lower");
        let (entry, kernel_cache_hit) = self.entry(top, source)?;
        let lower = lower.finish();
        let prepare = open("prepare");
        let (prepared, mut report) = self.prepare(&entry, kernel_cache_hit, cfg);
        let prepare = prepare.finish();
        let infer = open("infer");
        let forward = self.model.predict_prepared_memo(&prepared, self.token);
        let infer = infer.finish();
        report.qor = forward.qor;
        let hits = forward.inner_hits as u64;
        let misses = prepared.num_inner() as u64 - hits;
        self.cache.inner_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache.inner_misses.fetch_add(misses, Ordering::Relaxed);
        obs::metrics::counter_add("session/inner/hits", hits);
        obs::metrics::counter_add("session/inner/misses", misses);
        if forward.built_skeleton {
            self.cache.skeleton_builds.fetch_add(1, Ordering::Relaxed);
            obs::metrics::counter_add("session/skeleton/builds", 1);
        }
        if debug {
            let us = |d: std::time::Duration| Json::UInt(d.as_micros() as u64);
            obs::log::event(
                Level::Debug,
                "session.predict",
                &[
                    ("top", Json::str(top)),
                    ("kernel_hit", Json::Bool(report.kernel_cache_hit)),
                    ("prepared_hit", Json::Bool(report.prepared_cache_hit)),
                    ("lower_us", us(lower)),
                    ("prepare_us", us(prepare)),
                    ("infer_us", us(infer)),
                ],
            );
        }
        Ok(report)
    }

    /// The lowered function of a bundled kernel, from the kernel map when
    /// retained (DSE oracles need the [`Function`] itself).
    ///
    /// # Errors
    ///
    /// [`QorError::UnknownKernel`] for names outside the bundled set.
    pub fn kernel_function(&self, kernel: &str) -> Result<Arc<Function>, QorError> {
        let (entry, _) = self.entry(kernel, bundled_source(kernel)?)?;
        Ok(entry.func.clone())
    }

    /// Builds the prepared front half of a bundled kernel without running
    /// inference; returns the design and a report whose `qor` is zeroed.
    ///
    /// This is the benchmarking entry point: `qor-bench incr_sweep` uses
    /// it to time prepare cost in isolation and to compare incremental
    /// against from-scratch designs by [`PreparedDesign::digest`].
    ///
    /// # Errors
    ///
    /// [`QorError::UnknownKernel`] when the name is not in the bundled
    /// set; otherwise front-end/lowering errors.
    pub fn prepare_kernel(
        &self,
        kernel: &str,
        cfg: &PragmaConfig,
    ) -> Result<(Arc<PreparedDesign>, PredictReport), QorError> {
        let (entry, kernel_cache_hit) = self.entry(kernel, bundled_source(kernel)?)?;
        Ok(self.prepare(&entry, kernel_cache_hit, cfg))
    }

    /// Looks up (or lowers and inserts) the kernel entry; returns it and
    /// whether the map answered.
    fn entry(&self, top: &str, source: &str) -> Result<(Arc<Entry>, bool), QorError> {
        let cache = &*self.cache;
        let key = (self.prepare_fp, kernel_key(top, source));
        let resident = lock(&cache.lru).get(key);
        if let Some(entry) = resident.filter(|entry| entry.holds(top, source)) {
            cache.count_kernel(true);
            return Ok((entry, true));
        }
        // lower outside the lock: parsing is the expensive part, and two
        // racing threads produce identical functions anyway
        let program = frontc::parse(source)?;
        let module = hir::lower(&program)?;
        let func = module
            .function(top)
            .ok_or_else(|| QorError::UnknownKernel(top.to_string()))?
            .clone();
        let entry = Arc::new(Entry {
            top: top.into(),
            source: source.into(),
            func: Arc::new(func),
            db: Mutex::new(PipelineDb::new(cache.version_cap)),
            versions: AtomicUsize::new(0),
        });
        if cache.capacity == 0 {
            cache.count_kernel(false);
            return Ok((entry, false));
        }
        let mut lru = lock(&cache.lru);
        let (kept, evicted) = lru.insert(key, Arc::clone(&entry), cache.capacity);
        let len = lru.map.len();
        drop(lru);
        if evicted > 0 {
            cache.evictions.fetch_add(evicted, Ordering::Relaxed);
            obs::metrics::counter_add("session/cache/evictions", evicted);
        }
        obs::metrics::gauge_set("session/cache/size", len as f64);
        // a racing call that inserted the kernel first answers this one
        // too, so only the call whose entry is kept counts the miss
        let hit = !Arc::ptr_eq(&kept, &entry);
        cache.count_kernel(hit);
        Ok((kept, hit))
    }

    /// Runs the front half of `entry` under `cfg` through the kernel's
    /// query database; returns the design and a report with a zeroed `qor`.
    fn prepare(
        &self,
        entry: &Arc<Entry>,
        kernel_cache_hit: bool,
        cfg: &PragmaConfig,
    ) -> (Arc<PreparedDesign>, PredictReport) {
        // one lock per kernel: prepares of different kernels run in
        // parallel, while neighbors of one kernel share its memos
        let mut db = lock(&entry.db);
        let before = db.stats();
        let prepared = crate::incr::prepare_design(
            &mut db,
            &entry.func,
            cfg,
            self.model.options().graph_max_nodes,
        );
        let incr = self.cache.record_queries(&before, &db.stats());
        entry.versions.store(db.version_count(), Ordering::Relaxed);
        drop(db);
        let prepared_cache_hit = incr.misses + incr.recomputes == 0;
        if !prepared_cache_hit {
            self.cache.trim_versions(entry);
        }

        let cache = &*self.cache;
        if prepared_cache_hit {
            cache.hits.fetch_add(1, Ordering::Relaxed);
            obs::metrics::counter_add("session/cache/hits", 1);
        } else {
            cache.misses.fetch_add(1, Ordering::Relaxed);
            obs::metrics::counter_add("session/cache/misses", 1);
        }
        obs::metrics::counter_add("incr/hits", incr.hits);
        obs::metrics::counter_add("incr/misses", incr.misses);
        obs::metrics::counter_add("incr/recomputes", incr.recomputes);
        let report = PredictReport {
            qor: Qor::default(),
            kernel_cache_hit,
            prepared_cache_hit,
            incr,
        };
        (Arc::new(prepared), report)
    }
}

/// Locks one of the cache's mutexes. Every critical section leaves its
/// data consistent, but a panic inside one (a bug) must not be papered
/// over.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("a session cache lock holder panicked")
}

/// The source of a bundled kernel.
fn bundled_source(kernel: &str) -> Result<&'static str, QorError> {
    kernels::kernel_source(kernel).ok_or_else(|| QorError::UnknownKernel(kernel.to_string()))
}

/// Kernel capacity from the `QOR_CACHE_CAP` environment variable.
///
/// `"0"` deliberately parses to a capacity of zero (retain nothing); only
/// an unset or unparsable value falls back to [`DEFAULT_CACHE_CAP`].
fn env_cache_cap() -> usize {
    match std::env::var("QOR_CACHE_CAP") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(DEFAULT_CACHE_CAP),
        Err(_) => DEFAULT_CACHE_CAP,
    }
}

/// Stable key of a kernel: FNV-1a over `top NUL source`.
fn kernel_key(top: &str, source: &str) -> u64 {
    let mut h = Fnv1aHasher::new();
    h.write(top.as_bytes());
    h.write(&[0]);
    h.write(source.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainOptions;
    use pragma::LoopId;

    fn tiny_session(capacity: usize) -> Session {
        let opts = TrainOptions::quick().with_hidden(12).with_epochs(1);
        Session::with_capacity(HierarchicalModel::new(&opts), capacity)
    }

    impl SharedCache {
        /// The retained kernels, in no particular order.
        fn entries(&self) -> Vec<Arc<Entry>> {
            let lru = lock(&self.lru);
            lru.map.values().map(|(_, entry)| entry.clone()).collect()
        }

        fn memo_count(&self) -> usize {
            let entries = self.entries();
            entries.iter().map(|e| lock(&e.db).memo_count()).sum()
        }

        fn version_count(&self) -> usize {
            let entries = self.entries();
            entries.iter().map(|e| lock(&e.db).version_count()).sum()
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache_and_match() {
        let session = tiny_session(8);
        let cfg = PragmaConfig::default();
        let first = session.predict_kernel("gemm", &cfg).unwrap();
        let second = session.predict_kernel("gemm", &cfg).unwrap();
        assert_eq!(first, second);
        let stats = session.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.kernel_misses, 1);
        assert_eq!(stats.kernel_hits, 1);
        assert!(stats.hit_rate() > 0.4);
    }

    #[test]
    fn racing_lookups_of_one_kernel_count_one_miss() {
        const THREADS: usize = 4;
        for _ in 0..5 {
            let session = tiny_session(8);
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        start.wait();
                        session.kernel_function("mvt").unwrap();
                    });
                }
            });
            let stats = session.stats();
            assert_eq!(
                (stats.kernel_misses, stats.kernel_hits),
                (1, THREADS as u64 - 1),
                "{stats:?}"
            );
        }
    }

    #[test]
    fn cached_prediction_matches_direct_model_path() {
        let session = tiny_session(8);
        let func = kernels::lower_kernel("mvt").unwrap();
        let mut cfg = PragmaConfig::default();
        cfg.set_pipeline(LoopId::from_path(&[0, 0]), true);
        let direct = session.model().predict(&func, &cfg);
        // twice: once through the miss path, once through the hit path
        assert_eq!(session.predict_kernel("mvt", &cfg).unwrap(), direct);
        assert_eq!(session.predict_kernel("mvt", &cfg).unwrap(), direct);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_kernel() {
        let session = tiny_session(2);
        let cfg = PragmaConfig::default();
        session.predict_kernel("gemm", &cfg).unwrap(); // {gemm}
        session.predict_kernel("mvt", &cfg).unwrap(); // {gemm, mvt}
        session.predict_kernel("gemm", &cfg).unwrap(); // touch gemm
        session.predict_kernel("bicg", &cfg).unwrap(); // evicts mvt
        session.predict_kernel("gemm", &cfg).unwrap(); // still retained
        let stats = session.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        assert_eq!((stats.kernel_hits, stats.kernel_misses), (2, 3));
        assert_eq!(stats.hits, 2, "gemm repeats execute no query");
        // mvt was evicted with its database: querying it again lowers and
        // prepares from scratch
        let report = session.predict_kernel_report("mvt", &cfg).unwrap();
        assert!(!report.kernel_cache_hit && !report.prepared_cache_hit);
        assert_eq!(session.stats().evictions, 2, "gemm is now the oldest");
    }

    #[test]
    fn revisited_design_executes_no_query() {
        let session = tiny_session(8);
        let space = kernels::design_space(&kernels::lower_kernel("mvt").unwrap());
        let configs = space.enumerate_capped(2);
        let (a, b) = (&configs[0], &configs[1]);
        let first = session.predict_kernel_report("mvt", a).unwrap();
        assert!(!first.prepared_cache_hit);
        assert!(first.incr.misses > 0);
        assert!(
            !session
                .predict_kernel_report("mvt", b)
                .unwrap()
                .prepared_cache_hit
        );
        // A -> B -> A: the version cache answers every query of the revisit
        let again = session.predict_kernel_report("mvt", a).unwrap();
        assert!(again.prepared_cache_hit, "{again:?}");
        assert_eq!((again.incr.misses, again.incr.recomputes), (0, 0));
        assert!(again.incr.reused > 0, "{again:?}");
        assert_eq!(again.qor, first.qor);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let session = tiny_session(0);
        let cfg = PragmaConfig::default();
        let a = session.predict_kernel("gemm", &cfg).unwrap();
        let b = session.predict_kernel("gemm", &cfg).unwrap();
        assert_eq!(a, b);
        let stats = session.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.len, 0);
        assert_eq!((stats.kernel_hits, stats.kernel_misses), (0, 2));
        assert_eq!(session.shared_cache().memo_count(), 0);
    }

    #[test]
    fn distinct_sources_stay_bounded() {
        // a server fed ever-new inline sources: retained kernels and their
        // memos plateau at the capacity instead of growing with the stream
        const SOURCES: u64 = 10_000;
        // derived memos of one synthetic kernel: a hierarchy plus a role,
        // region config and prepared region per loop (about 7 on average;
        // one database per model would hold ~70,000 after this stream)
        const MEMOS_PER_KERNEL: usize = 32;
        let opts = TrainOptions::quick().with_hidden(4).with_epochs(1);
        let session = Session::with_capacity(HierarchicalModel::new(&opts), DEFAULT_CACHE_CAP);
        let cfg = PragmaConfig::default();
        let mut predicted = 0;
        for seed in 0..SOURCES {
            let source = kernels::synthetic_kernel(seed);
            if session
                .predict_source(&format!("synth{seed}"), &source, &cfg)
                .is_ok()
            {
                predicted += 1;
            }
        }
        let stats = session.stats();
        assert!(predicted > SOURCES / 2, "only {predicted} predictions");
        assert_eq!(stats.kernel_misses, SOURCES);
        assert!(stats.len <= DEFAULT_CACHE_CAP, "{stats:?}");
        assert!(stats.evictions >= predicted - DEFAULT_CACHE_CAP as u64);
        let memos = session.shared_cache().memo_count();
        assert!(
            memos < MEMOS_PER_KERNEL * DEFAULT_CACHE_CAP,
            "{memos} memos retained"
        );
        assert!(session.shared_cache().version_count() <= VERSION_CAP);
    }

    #[test]
    fn version_caches_share_one_budget() {
        // several configurations of several kernels: no database alone
        // reaches the budget, but together they execute more queries
        const BUDGET: usize = 24;
        let mut cache = SharedCache::with_capacity(8);
        cache.version_cap = BUDGET;
        let opts = TrainOptions::quick().with_hidden(12).with_epochs(1);
        let session = Session::with_shared(HierarchicalModel::new(&opts), Arc::new(cache));
        let names = ["gemm", "mvt", "bicg"];
        let funcs: Vec<Function> = names
            .iter()
            .map(|name| kernels::lower_kernel(name).unwrap())
            .collect();
        let spaces: Vec<Vec<PragmaConfig>> = funcs
            .iter()
            .map(|func| kernels::design_space(func).enumerate_capped(4))
            .collect();
        for round in 0..4 {
            for ((name, func), configs) in names.iter().zip(&funcs).zip(&spaces) {
                let cfg = &configs[round];
                let got = session.predict_kernel(name, cfg).unwrap();
                assert_eq!(got, session.model().predict(func, cfg), "{name} #{round}");
                let versions = session.shared_cache().version_count();
                assert!(
                    versions <= BUDGET,
                    "{versions} versions after {name} #{round}"
                );
            }
        }
        let stats = session.stats();
        let executions = stats.incr_misses + stats.incr_recomputes;
        assert!(executions > BUDGET as u64, "{stats:?}");
        assert_eq!(stats.len, names.len(), "trimming keeps every kernel");
        assert_eq!(stats.kernel_misses, names.len() as u64);
    }

    #[test]
    fn cache_cap_env_var_zero_disables_caching_without_churn() {
        // the only test in this binary that touches QOR_CACHE_CAP or calls
        // Session::new, so the process-global env var cannot race; all
        // sub-cases run sequentially inside this one test for the same
        // reason
        let opts = TrainOptions::quick().with_hidden(12).with_epochs(1);
        let model = || HierarchicalModel::new(&opts);

        std::env::set_var("QOR_CACHE_CAP", "0");
        let session = Session::new(model());
        assert_eq!(session.stats().capacity, 0);
        let cfg = PragmaConfig::default();
        let a = session.predict_kernel("gemm", &cfg).unwrap();
        let b = session.predict_kernel("gemm", &cfg).unwrap();
        assert_eq!(a, b, "disabled cache must not change predictions");
        let stats = session.stats();
        assert_eq!(stats.hits, 0, "all lookups must miss");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0, "no eviction churn with cap 0");
        assert_eq!(stats.len, 0, "nothing may be stored");

        std::env::set_var("QOR_CACHE_CAP", " 3 ");
        assert_eq!(Session::new(model()).stats().capacity, 3);

        std::env::set_var("QOR_CACHE_CAP", "not-a-number");
        assert_eq!(Session::new(model()).stats().capacity, DEFAULT_CACHE_CAP);

        std::env::remove_var("QOR_CACHE_CAP");
        assert_eq!(Session::new(model()).stats().capacity, DEFAULT_CACHE_CAP);
    }

    #[test]
    fn unknown_kernel_and_missing_top_are_typed() {
        let session = tiny_session(4);
        assert!(matches!(
            session.predict_kernel("nope", &PragmaConfig::default()),
            Err(QorError::UnknownKernel(_))
        ));
        let src = "void f(float a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i]; } }";
        assert!(matches!(
            session.predict_source("g", src, &PragmaConfig::default()),
            Err(QorError::UnknownKernel(_))
        ));
    }

    #[test]
    fn arbitrary_sources_are_cached_by_content() {
        let session = tiny_session(4);
        let src =
            "void f(float a[8], float b[8]) { for (int i = 0; i < 8; i++) { b[i] = a[i] * 2.0; } }";
        let cfg = PragmaConfig::default();
        let q1 = session.predict_source("f", src, &cfg).unwrap();
        let q2 = session.predict_source("f", src, &cfg).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(session.stats().kernel_hits, 1);
        // same top name, different body: a distinct cache entry
        let src2 =
            "void f(float a[8], float b[8]) { for (int i = 0; i < 8; i++) { b[i] = a[i] + 1.0; } }";
        session.predict_source("f", src2, &cfg).unwrap();
        assert_eq!(session.stats().kernel_misses, 2);
    }

    #[test]
    fn colliding_kernel_key_is_a_miss_that_keeps_the_resident_entry() {
        let session = tiny_session(4);
        let cfg = PragmaConfig::default();
        let a = kernels::kernel_source("gemm").unwrap();
        let b = kernels::kernel_source("mvt").unwrap();
        session.predict_source("gemm", a, &cfg).unwrap();
        // plant gemm's entry under mvt's key, as a hash collision would
        let key_b = (session.prepare_fp, kernel_key("mvt", b));
        let planted = {
            let mut lru = lock(&session.cache.lru);
            let planted = lru
                .get((session.prepare_fp, kernel_key("gemm", a)))
                .unwrap();
            lru.insert(key_b, planted.clone(), 4);
            planted
        };
        let uncached = session
            .model()
            .predict(&kernels::lower_kernel("mvt").unwrap(), &cfg);
        for _ in 0..2 {
            let report = session.predict_source_report("mvt", b, &cfg).unwrap();
            assert!(!report.kernel_cache_hit, "{report:?}");
            assert_eq!(report.qor, uncached);
        }
        assert_eq!(session.stats().kernel_misses, 3);
        let resident = lock(&session.cache.lru).get(key_b).unwrap();
        assert!(Arc::ptr_eq(&resident, &planted), "resident entry replaced");
    }

    #[test]
    fn clear_empties_caches_but_keeps_counters() {
        let session = tiny_session(4);
        let cfg = PragmaConfig::default();
        session.predict_kernel("gemm", &cfg).unwrap();
        session.clear();
        assert_eq!(session.stats().len, 0);
        session.predict_kernel("gemm", &cfg).unwrap();
        let stats = session.stats();
        assert_eq!(stats.misses, 2, "cleared entry must be recomputed");
        assert_eq!(stats.kernel_misses, 2);
    }

    #[test]
    fn sessions_share_prepared_designs_through_one_cache() {
        let opts = TrainOptions::quick().with_hidden(12).with_epochs(1);
        let cache = Arc::new(SharedCache::with_capacity(16));
        // two model versions with identical prepare options (different
        // weight seeds): the second session's first query must be a hit
        let a = Session::with_shared(HierarchicalModel::new(&opts), cache.clone());
        let b = Session::with_shared(HierarchicalModel::new(&opts.with_seed(99)), cache.clone());
        let cfg = PragmaConfig::default();
        a.predict_kernel("gemm", &cfg).unwrap();
        b.predict_kernel("gemm", &cfg).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "front half computed once: {stats:?}");
        assert_eq!(stats.hits, 1, "second session reuses it: {stats:?}");
        assert_eq!(stats.kernel_misses, 1);
        assert_eq!(stats.kernel_hits, 1);
    }

    #[test]
    fn prepare_fingerprint_splits_incompatible_models() {
        let opts = TrainOptions::quick().with_hidden(12).with_epochs(1);
        let mut other = opts;
        other.graph_max_nodes = 64; // different graph construction
        let cache = Arc::new(SharedCache::with_capacity(16));
        let a = Session::with_shared(HierarchicalModel::new(&opts), cache.clone());
        let b = Session::with_shared(HierarchicalModel::new(&other), cache.clone());
        assert_ne!(
            a.model().prepare_fingerprint(),
            b.model().prepare_fingerprint()
        );
        let cfg = PragmaConfig::default();
        a.predict_kernel("gemm", &cfg).unwrap();
        b.predict_kernel("gemm", &cfg).unwrap();
        let stats = cache.stats();
        assert_eq!(
            stats.misses, 2,
            "incompatible prepare options must not share entries: {stats:?}"
        );
        assert_eq!(stats.hits, 0);
    }
}
