//! The cross-request batching queue: coalesces `POST /v1/predict` items
//! from many concurrent connections into `par`-fanned micro-batches.
//!
//! # Why
//!
//! A DSE client hammers the server with thousands of small predictions;
//! thread-per-connection serving pays per-request overhead (and worse,
//! races identical cold configurations through `prepare` concurrently —
//! each racer pays the full front half because the session deliberately
//! computes outside its cache lock). The batcher turns that traffic into
//! micro-batches:
//!
//! 1. Connection threads decode their requests and *submit* each request
//!    body's work items to one dispatcher thread as one message over an
//!    MPSC channel, then block on a private response channel.
//! 2. The dispatcher collects bodies until either **`max_batch`** items are
//!    pending or **`max_wait`** has elapsed since the first item of the
//!    flush — whichever comes first — then flushes. A body never splits
//!    across flushes unless it alone holds more than `max_batch` items: one
//!    that does not fit the pending flush starts the next one.
//! 3. A flush groups items by requested model, resolves each model name
//!    **once per group** (so a hot-reload can never split one batch across
//!    generations — mixed-version batches are impossible by construction),
//!    **single-flights** duplicate designs (identical `(kernel/source,
//!    config)` items compute once and share the result), and fans the
//!    unique work through the deterministic [`par::map`] executor.
//!
//! # Determinism
//!
//! Batch *composition* is timing-dependent, but every item's result is a
//! pure function of `(model generation, kernel/source, config)`: `par::map`
//! is bit-deterministic for any worker count, single-flighted duplicates
//! by definition return the same bits, and each item's result is returned
//! to its own request in submission order. A workload checksum over
//! responses in request order is therefore byte-identical whatever batches
//! happened to form — the contract `qor-bench --smoke` enforces in CI.

use std::collections::BTreeMap;
use std::hash::Hasher as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::trace;
use pragma::PragmaConfig;
use qor_core::{Fnv1aHasher, PredictReport, Session};

use crate::error::{ApiCode, ApiError};
use crate::registry::{ModelEntry, ModelRegistry};

/// Flush policy of the batching queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Flush as soon as this many items are pending.
    pub max_batch: usize,
    /// Flush this long after the first pending item arrived, even if the
    /// batch is not full (bounds the queueing latency a lone request pays).
    pub max_wait: Duration,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            max_batch: 32,
            max_wait: Duration::from_micros(500),
        }
    }
}

impl BatchOptions {
    /// Options from `QOR_BATCH_MAX` / `QOR_BATCH_WAIT_US` (defaults 32 and
    /// 500 µs; unparsable values fall back to the defaults).
    pub fn from_env() -> BatchOptions {
        let defaults = BatchOptions::default();
        let uint = |key: &str| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        };
        BatchOptions {
            max_batch: uint("QOR_BATCH_MAX")
                .and_then(|v| usize::try_from(v).ok())
                .filter(|&v| v >= 1)
                .unwrap_or(defaults.max_batch),
            max_wait: uint("QOR_BATCH_WAIT_US")
                .map(Duration::from_micros)
                .unwrap_or(defaults.max_wait),
        }
    }
}

/// One decoded prediction item, ready to batch.
pub struct PredictItem {
    /// Requested model name (`None` = the registry default).
    pub model: Option<String>,
    /// Bundled kernel name (exactly one of `kernel`/`source` is set).
    pub kernel: Option<String>,
    /// Inline `(top, source)` pair.
    pub source: Option<(String, String)>,
    /// The pragma configuration to score.
    pub cfg: PragmaConfig,
    /// Raw trace id of the originating request; workers adopt it so cache
    /// events stay attributable across the batching boundary.
    pub trace: u64,
}

impl PredictItem {
    /// Single-flight key: items with equal keys within one model group are
    /// the same design and compute once.
    fn design_key(&self) -> u64 {
        let mut h = Fnv1aHasher::new();
        match (&self.kernel, &self.source) {
            (Some(k), _) => {
                h.write(b"kernel");
                h.write(k.as_bytes());
            }
            (_, Some((top, source))) => {
                h.write(b"source");
                h.write(top.as_bytes());
                h.write(&[0]);
                h.write(source.as_bytes());
            }
            _ => h.write(b"invalid"),
        }
        h.write_u64(self.cfg.fingerprint());
        h.finish()
    }

    /// Predicts this item through `session`.
    pub(crate) fn predict(&self, session: &Session) -> Result<PredictReport, ApiError> {
        match (&self.kernel, &self.source) {
            (Some(kernel), _) => session.predict_kernel_report(kernel, &self.cfg),
            (_, Some((top, source))) => session.predict_source_report(top, source, &self.cfg),
            _ => Err(qor_core::QorError::UnknownKernel(
                "item names neither kernel nor source".into(),
            )),
        }
        .map_err(ApiError::from)
    }
}

/// What one item gets back from its batch.
#[derive(Debug, Clone)]
pub struct ItemOutcome {
    /// The prediction, or the typed error to serialize for this item.
    pub result: Result<PredictReport, ApiError>,
    /// Resolved model name (the requested name when resolution failed).
    pub model: String,
    /// Resolved model generation (0 when resolution failed).
    pub generation: u64,
    /// Id of the (flush, model-group) batch that served this item.
    pub batch_id: u64,
    /// Items the batch carried (before single-flight dedup).
    pub batch_size: usize,
    /// Whether this item shared its computation with at least one other
    /// item of the batch.
    pub deduped: bool,
}

struct WorkItem {
    item: PredictItem,
    /// Position in the submitting request's item list.
    index: usize,
    respond: SyncSender<(usize, ItemOutcome)>,
}

/// Cumulative batcher counters (`GET /debug/vars` → `"batcher"`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Flushes executed (each may span several model groups).
    pub batches: u64,
    /// Flushes triggered by reaching `max_batch` (or by a body that would
    /// not fit under it).
    pub flush_full: u64,
    /// Flushes triggered by the `max_wait` deadline.
    pub flush_timeout: u64,
    /// Items batched in total.
    pub items: u64,
    /// Items answered by another item's computation (single-flight).
    pub deduped: u64,
    /// Largest flush observed.
    pub max_batch_seen: u64,
}

struct Shared {
    registry: Arc<ModelRegistry>,
    batch_seq: AtomicU64,
    batches: AtomicU64,
    flush_full: AtomicU64,
    flush_timeout: AtomicU64,
    items: AtomicU64,
    deduped: AtomicU64,
    max_batch_seen: AtomicU64,
}

/// The batching queue (see the [module docs](self)). Owns the dispatcher
/// thread; dropping the batcher (or calling [`Batcher::shutdown`]) drains
/// pending work and stops it.
pub struct Batcher {
    tx: Option<SyncSender<Vec<WorkItem>>>,
    opts: BatchOptions,
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

/// Channel depth (request bodies) between connection threads and the
/// dispatcher. Deep enough that submission almost never blocks; bounded so
/// a stalled dispatcher applies backpressure instead of unbounded queue
/// growth.
const QUEUE_DEPTH: usize = 1024;

impl Batcher {
    /// Starts the dispatcher thread over `registry`.
    pub fn new(registry: Arc<ModelRegistry>, opts: BatchOptions) -> Batcher {
        let (tx, rx) = mpsc::sync_channel::<Vec<WorkItem>>(QUEUE_DEPTH);
        let shared = Arc::new(Shared {
            registry,
            batch_seq: AtomicU64::new(1),
            batches: AtomicU64::new(0),
            flush_full: AtomicU64::new(0),
            flush_timeout: AtomicU64::new(0),
            items: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            max_batch_seen: AtomicU64::new(0),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("qor-batcher".into())
                .spawn(move || dispatch_loop(&rx, &shared, opts))
                .expect("spawning the batcher dispatcher")
        };
        Batcher {
            tx: Some(tx),
            opts,
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// The flush policy this batcher runs.
    pub fn options(&self) -> BatchOptions {
        self.opts
    }

    /// Cumulative counters.
    pub fn stats(&self) -> BatcherStats {
        let s = &self.shared;
        BatcherStats {
            batches: s.batches.load(Ordering::Relaxed),
            flush_full: s.flush_full.load(Ordering::Relaxed),
            flush_timeout: s.flush_timeout.load(Ordering::Relaxed),
            items: s.items.load(Ordering::Relaxed),
            deduped: s.deduped.load(Ordering::Relaxed),
            max_batch_seen: s.max_batch_seen.load(Ordering::Relaxed),
        }
    }

    /// Submits `items` and blocks until every one has an outcome, returned
    /// in submission order. The items travel to the dispatcher together and
    /// share one flush unless there are more than `max_batch` of them;
    /// each outcome names the batch that served it.
    ///
    /// Never returns fewer outcomes than items: if the dispatcher is gone
    /// (shutdown race), the missing entries are filled with
    /// [`ApiCode::Internal`] errors.
    pub fn submit_wait(&self, items: Vec<PredictItem>) -> Vec<ItemOutcome> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let unavailable = |msg: &str| ItemOutcome {
            result: Err(ApiError::new(ApiCode::Internal, msg)),
            model: String::new(),
            generation: 0,
            batch_id: 0,
            batch_size: 0,
            deduped: false,
        };
        let Some(tx) = &self.tx else {
            return vec![unavailable("batcher is shut down"); n];
        };
        let (respond, outcomes) = mpsc::sync_channel::<(usize, ItemOutcome)>(n.max(1));
        let body: Vec<WorkItem> = items
            .into_iter()
            .enumerate()
            .map(|(index, item)| WorkItem {
                item,
                index,
                respond: respond.clone(),
            })
            .collect();
        drop(respond);
        // dispatcher gone: every item stays unanswered
        let submitted = if tx.send(body).is_ok() { n } else { 0 };
        let mut out: Vec<Option<ItemOutcome>> = (0..n).map(|_| None).collect();
        for _ in 0..submitted {
            match outcomes.recv() {
                Ok((index, outcome)) => out[index] = Some(outcome),
                Err(_) => break, // dispatcher dropped our responder
            }
        }
        out.into_iter()
            .map(|o| o.unwrap_or_else(|| unavailable("batcher dropped the item")))
            .collect()
    }

    /// Stops the dispatcher after it drains already-queued work. Called by
    /// the server's shutdown path; idempotent.
    pub fn shutdown(&mut self) {
        self.tx.take(); // disconnects the channel; the loop exits on drain
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dispatcher: block for the first body, then collect bodies until the
/// flush fills or its deadline passes, then execute. A body that would
/// overflow the flush is carried over to start the next one. Exits when
/// every sender is gone and the queue is drained: a receiver hands out
/// queued bodies before it reports the disconnect.
fn dispatch_loop(rx: &mpsc::Receiver<Vec<WorkItem>>, shared: &Shared, opts: BatchOptions) {
    let mut carried: Option<Vec<WorkItem>> = None;
    loop {
        let mut batch = match carried.take().map_or_else(|| rx.recv(), Ok) {
            Ok(body) => body,
            Err(_) => return, // all senders dropped, queue drained
        };
        // a body larger than a flush splits by size
        while batch.len() > opts.max_batch {
            let rest = batch.split_off(opts.max_batch);
            shared.flush_full.fetch_add(1, Ordering::Relaxed);
            execute_flush(shared, std::mem::replace(&mut batch, rest));
        }
        let deadline = Instant::now() + opts.max_wait;
        let mut timed_out = false;
        while batch.len() < opts.max_batch {
            let now = Instant::now();
            if now >= deadline {
                timed_out = true;
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(body) if batch.len() + body.len() > opts.max_batch => {
                    carried = Some(body);
                    break;
                }
                Ok(body) => batch.extend(body),
                Err(RecvTimeoutError::Timeout) => {
                    timed_out = true;
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if timed_out {
            shared.flush_timeout.fetch_add(1, Ordering::Relaxed);
        } else {
            // filled to max_batch, or the next body did not fit (or the
            // tail flush at disconnect)
            shared.flush_full.fetch_add(1, Ordering::Relaxed);
        }
        execute_flush(shared, batch);
    }
}

/// Executes one flush: group by model → resolve each model once →
/// single-flight duplicates → fan unique work through `par::map` →
/// distribute outcomes.
fn execute_flush(shared: &Shared, batch: Vec<WorkItem>) {
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .items
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    shared
        .max_batch_seen
        .fetch_max(batch.len() as u64, Ordering::Relaxed);
    obs::metrics::counter_add("serve/batch/flushes", 1);
    obs::metrics::histogram_record("serve/batch/size", batch.len() as f64);

    // group by requested model name; BTreeMap so group order (and thus
    // batch-id assignment) is deterministic given a flush's contents
    let mut groups: BTreeMap<String, Vec<WorkItem>> = BTreeMap::new();
    for work in batch {
        let key = work.item.model.clone().unwrap_or_default();
        groups.entry(key).or_default().push(work);
    }
    for (requested, members) in groups {
        let entry = if requested.is_empty() {
            shared.registry.default_entry()
        } else {
            shared.registry.get(&requested)
        };
        match entry {
            Ok(entry) => run_group(shared, &entry, members),
            Err(e) => {
                // resolution failed: every member gets the same typed error
                let batch_id = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
                let size = members.len();
                for work in members {
                    let outcome = ItemOutcome {
                        result: Err(e.clone()),
                        model: requested.clone(),
                        generation: 0,
                        batch_id,
                        batch_size: size,
                        deduped: false,
                    };
                    let _ = work.respond.send((work.index, outcome));
                }
            }
        }
    }
}

/// Runs one model group of a flush against its resolved entry. Every item
/// here serves from the same `Arc<ModelEntry>` — one generation, by
/// construction.
fn run_group(shared: &Shared, entry: &Arc<ModelEntry>, members: Vec<WorkItem>) {
    let batch_id = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
    let size = members.len();

    // single-flight: first occurrence of a design computes; later
    // occurrences share its slot
    let mut slot_of_key: BTreeMap<u64, usize> = BTreeMap::new();
    let mut uniques: Vec<&WorkItem> = Vec::with_capacity(size);
    let mut slots: Vec<usize> = Vec::with_capacity(size);
    for work in &members {
        let key = work.item.design_key();
        let slot = *slot_of_key.entry(key).or_insert_with(|| {
            uniques.push(work);
            uniques.len() - 1
        });
        slots.push(slot);
    }
    let dup_count = (size - uniques.len()) as u64;
    shared.deduped.fetch_add(dup_count, Ordering::Relaxed);
    if dup_count > 0 {
        obs::metrics::counter_add("serve/batch/deduped", dup_count);
    }

    // fan the unique designs through the deterministic executor; each
    // worker adopts its item's request trace
    let results: Vec<Result<PredictReport, ApiError>> =
        par::map("serve/batch", &uniques, |_, work| {
            let _g = trace::adopt_raw(work.item.trace);
            work.item.predict(entry.session())
        });

    // count served predictions per model version (one per *item*: dedup is
    // an implementation detail, each request logically got a prediction)
    let shared_slots: Vec<bool> = {
        let mut seen = vec![0u32; uniques.len()];
        for &slot in &slots {
            seen[slot] += 1;
        }
        seen.into_iter().map(|c| c > 1).collect()
    };
    for (work, &slot) in members.iter().zip(&slots) {
        entry.count_prediction();
        let outcome = ItemOutcome {
            result: results[slot].clone(),
            model: entry.name.clone(),
            generation: entry.generation,
            batch_id,
            batch_size: size,
            deduped: shared_slots[slot],
        };
        let _ = work.respond.send((work.index, outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use qor_core::{HierarchicalModel, TrainOptions};

    fn registry() -> Arc<ModelRegistry> {
        let opts = TrainOptions::quick().with_hidden(12).with_epochs(1);
        Arc::new(ModelRegistry::with_default(
            HierarchicalModel::new(&opts),
            64,
        ))
    }

    fn item(kernel: &str, cfg_json_pipeline: bool) -> PredictItem {
        let mut cfg = PragmaConfig::default();
        if cfg_json_pipeline {
            cfg.set_pipeline(pragma::LoopId::from_path(&[0]), true);
        }
        PredictItem {
            model: None,
            kernel: Some(kernel.to_string()),
            source: None,
            cfg,
            trace: 0,
        }
    }

    #[test]
    fn a_lone_item_flushes_on_the_wait_deadline() {
        let batcher = Batcher::new(
            registry(),
            BatchOptions {
                max_batch: 64,
                max_wait: Duration::from_millis(5),
            },
        );
        let out = batcher.submit_wait(vec![item("gemm", false)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].result.is_ok());
        assert_eq!(out[0].model, "default");
        assert_eq!(out[0].generation, 1);
        assert_eq!(out[0].batch_size, 1);
        let stats = batcher.stats();
        assert_eq!(stats.flush_timeout, 1, "{stats:?}");
        assert_eq!(stats.flush_full, 0, "{stats:?}");
    }

    #[test]
    fn a_full_submission_flushes_on_size() {
        let batcher = Batcher::new(
            registry(),
            BatchOptions {
                max_batch: 3,
                // long enough that hitting the deadline would hang the test
                // noticeably — a pass proves the size trigger fired
                max_wait: Duration::from_secs(2),
            },
        );
        let t0 = Instant::now();
        let out = batcher.submit_wait(vec![
            item("gemm", false),
            item("gemm", true),
            item("mvt", false),
        ]);
        assert!(out.iter().all(|o| o.result.is_ok()));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "size flush must not wait for the deadline"
        );
        let stats = batcher.stats();
        assert_eq!(stats.flush_full, 1, "{stats:?}");
        assert_eq!(stats.items, 3);
    }

    #[test]
    fn a_deadline_flush_never_splits_a_body() {
        // a zero deadline expires before any second message could arrive,
        // so a body sent item by item would land in several flushes
        let batcher = Batcher::new(
            registry(),
            BatchOptions {
                max_batch: 64,
                max_wait: Duration::ZERO,
            },
        );
        for _ in 0..20 {
            let out = batcher.submit_wait(vec![
                item("gemm", false),
                item("mvt", false),
                item("gemm", false),
            ]);
            assert!(out.iter().all(|o| o.batch_id == out[0].batch_id));
            assert!(out.iter().all(|o| o.batch_size == 3));
            assert!(out[0].deduped && out[2].deduped && !out[1].deduped);
        }
    }

    #[test]
    fn an_oversized_body_splits_by_size() {
        let batcher = Batcher::new(
            registry(),
            BatchOptions {
                max_batch: 2,
                max_wait: Duration::from_millis(5),
            },
        );
        let kernels = ["gemm", "mvt", "bicg", "gemm", "mvt"];
        let out = batcher.submit_wait(kernels.iter().map(|k| item(k, false)).collect());
        let sizes: Vec<usize> = out.iter().map(|o| o.batch_size).collect();
        assert_eq!(sizes, [2, 2, 2, 2, 1]);
        for (i, o) in out.iter().enumerate() {
            assert!(o.result.is_ok(), "item {i}");
        }
        let stats = batcher.stats();
        assert_eq!((stats.flush_full, stats.flush_timeout), (2, 1), "{stats:?}");
        assert!(batcher.submit_wait(Vec::new()).is_empty());
        assert_eq!(batcher.stats().batches, 3);
    }

    #[test]
    fn duplicates_single_flight_and_share_bits() {
        let batcher = Batcher::new(
            registry(),
            BatchOptions {
                max_batch: 4,
                max_wait: Duration::from_secs(2),
            },
        );
        let out = batcher.submit_wait(vec![
            item("gemm", false),
            item("gemm", false),
            item("gemm", false),
            item("gemm", true),
        ]);
        let q0 = out[0].result.as_ref().unwrap().qor;
        assert_eq!(out[1].result.as_ref().unwrap().qor, q0);
        assert_eq!(out[2].result.as_ref().unwrap().qor, q0);
        assert_ne!(out[3].result.as_ref().unwrap().qor, q0);
        assert!(out[0].deduped && out[1].deduped && out[2].deduped);
        assert!(!out[3].deduped);
        assert_eq!(batcher.stats().deduped, 2);
        // all four rode one batch
        assert!(out.iter().all(|o| o.batch_id == out[0].batch_id));
        assert_eq!(out[0].batch_size, 4);
    }

    #[test]
    fn unknown_models_fail_every_member_with_a_typed_error() {
        let batcher = Batcher::new(registry(), BatchOptions::default());
        let mut a = item("gemm", false);
        a.model = Some("missing".into());
        let out = batcher.submit_wait(vec![a]);
        let err = out[0].result.as_ref().unwrap_err();
        assert_eq!(err.code, ApiCode::UnknownModel);
        assert_eq!(out[0].generation, 0);
    }

    #[test]
    fn item_errors_stay_per_item() {
        let batcher = Batcher::new(
            registry(),
            BatchOptions {
                max_batch: 2,
                max_wait: Duration::from_secs(2),
            },
        );
        let out = batcher.submit_wait(vec![item("gemm", false), item("no-such-kernel", false)]);
        assert!(out[0].result.is_ok());
        assert_eq!(
            out[1].result.as_ref().unwrap_err().code,
            ApiCode::UnknownKernel
        );
    }

    #[test]
    fn concurrent_submitters_coalesce_into_shared_batches() {
        let batcher = Arc::new(Batcher::new(
            registry(),
            BatchOptions {
                max_batch: 8,
                max_wait: Duration::from_millis(20),
            },
        ));
        let outs: Vec<ItemOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let batcher = Arc::clone(&batcher);
                    scope.spawn(move || {
                        batcher
                            .submit_wait(vec![item(if i % 2 == 0 { "gemm" } else { "mvt" }, false)])
                            .remove(0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(outs.iter().all(|o| o.result.is_ok()));
        let stats = batcher.stats();
        assert_eq!(stats.items, 8);
        assert!(
            stats.batches < 8,
            "some coalescing must happen under concurrent load: {stats:?}"
        );
        assert!(
            outs.iter().any(|o| o.batch_size > 1),
            "at least one multi-item batch expected"
        );
    }

    #[test]
    fn shutdown_answers_submissions_with_internal_errors() {
        let mut batcher = Batcher::new(registry(), BatchOptions::default());
        batcher.shutdown();
        let out = batcher.submit_wait(vec![item("gemm", false)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].result.as_ref().unwrap_err().code, ApiCode::Internal);
    }
}
