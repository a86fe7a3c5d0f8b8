#![warn(missing_docs)]
//! Model serving: versioned checkpoints, a hot-reloadable model registry,
//! a cross-request batching queue, and a std-only `/v1` HTTP server.
//!
//! The paper's headline use case is replacing hours-long HLS + place &
//! route runs with millisecond model inference inside a DSE loop. This
//! crate packages the trained [`qor_core::HierarchicalModel`] for that
//! role:
//!
//! * [`checkpoint`] — a versioned, checksummed binary format that
//!   round-trips all three GNN banks (and the full hierarchical model)
//!   bit-exactly, and rejects corrupt or future-format files with typed
//!   [`qor_core::QorError`]s instead of panicking.
//! * [`registry`] — named model versions over one shared
//!   [`qor_core::SharedCache`]: install/reload/remove `name → checkpoint`
//!   mappings atomically while requests are in flight; every reload bumps
//!   a monotone generation so `(name, generation)` identifies weights
//!   forever.
//! * [`batcher`] — the latency/size-bounded cross-request batching queue:
//!   concurrent `POST /v1/predict` items coalesce into micro-batches
//!   (flush on `max_batch` items or `max_wait` elapsed), duplicate
//!   designs are single-flighted, and unique work fans through the
//!   deterministic `par` executor.
//! * [`server`] — an HTTP/1.1 server over raw `std::net` (the build is
//!   offline; no hyper) exposing the versioned `/v1` surface: `predict`,
//!   `models` (list/get/hot-reload/remove), `dse`, `healthz`, `metrics`.
//!   Every non-2xx response is the
//!   [`error`] envelope `{"code","message","trace"}`.
//! * [`error`] — the stable [`error::ApiCode`] taxonomy mapping 1:1 onto
//!   [`qor_core::QorError`] plus the serving-layer codes.
//! * [`http`] / [`json`] — the minimal substrates the server stands on:
//!   bounded request parsing and a strict JSON parser for request bodies
//!   (`obs::Json` is write-only).
//!
//! The `qor-serve` binary wires these together; `qor-serve --self-test`
//! runs an in-process end-to-end smoke test (batched predictions through
//! the queue, both flush paths, a hot-reload cycle, clean shutdown) used
//! by CI.

pub mod batcher;
pub mod checkpoint;
pub mod error;
pub mod http;
pub mod json;
pub mod registry;
pub mod server;

pub use batcher::{BatchOptions, Batcher, BatcherStats, ItemOutcome, PredictItem};
pub use checkpoint::{
    load_bank_into, load_model, load_model_file, save_bank, save_model, save_model_file,
    FORMAT_VERSION, MAGIC,
};
pub use error::{ApiCode, ApiError};
pub use registry::{ModelEntry, ModelRegistry, DEFAULT_MODEL};
pub use server::{DispatchMode, Server, ServerConfig, ServerHandle};

// the server shares sessions and the registry across connection threads
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<qor_core::Session>();
    assert_send_sync::<registry::ModelRegistry>();
    assert_send_sync::<batcher::Batcher>();
};
