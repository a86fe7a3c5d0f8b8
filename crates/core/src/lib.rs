#![warn(missing_docs)]
//! The paper's contribution: hierarchical source-to-post-route QoR
//! prediction with GNNs.
//!
//! The crate wires the substrates together into the methodology of §III:
//!
//! 1. [`features`] — annotates CDFG nodes with the Table II features
//!    (optype one-hot, #invocation, degrees, #cycle, delay, LUT/DSP/FF from
//!    the operator library) and builds graph-level loop features (II from
//!    the analytic formula, TC from the IR).
//! 2. [`hierarchy`] — splits a configured design into **inner-hierarchy**
//!    loops (the paper's four categories) and the **outer hierarchy**.
//! 3. [`dataset`] — generates labeled datasets by sweeping pragma
//!    configurations through the simulated tool flow ([`hlsim`]).
//! 4. [`HierarchicalModel`] — `GNN_p` / `GNN_np` for pipelined and
//!    non-pipelined inner loops, super-node condensation, and `GNN_g` for
//!    the full application; hierarchical training (inner models frozen
//!    before the global model trains on their outputs) and end-to-end
//!    source-to-QoR inference.
//!
//! # Example
//!
//! ```no_run
//! use qor_core::{HierarchicalModel, TrainOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let opts = TrainOptions::quick();
//! let (model, stats) = HierarchicalModel::train_on_kernels(&opts)?;
//! println!("GNN_g latency MAPE: {:.2}%", stats.global.latency_mape);
//!
//! let func = kernels::lower_kernel("gemm")?;
//! let qor = model.predict(&func, &pragma::PragmaConfig::default());
//! println!("predicted latency: {} cycles", qor.latency);
//! # Ok(())
//! # }
//! ```

mod condensed;
pub mod dataset;
pub mod error;
pub mod features;
pub mod hash;
pub mod hierarchy;
pub mod incr;
mod model;
mod session;
pub mod wire;

pub use ::incr::KindStats;
pub use dataset::{
    generate, generate_for, generate_from_functions, DataOptions, DesignSample, LabeledDesigns,
};
pub use error::QorError;
pub use features::{
    graph_aggregates, graph_to_gnn, loop_level_features, AGG_DIM, FEATURE_DIM, LOOP_FEATURE_DIM,
};
pub use hash::{fnv1a, Fnv1aHasher, FnvBuildHasher};
pub use hierarchy::{split_hierarchy, Hierarchy, InnerCategory, InnerLoop};
pub use model::{
    GlobalEval, HierarchicalModel, InnerEval, PreparedDesign, TrainOptions, TrainStats, BANKS,
};
pub use session::{CacheStats, PredictReport, Session, SharedCache, DEFAULT_CACHE_CAP};
