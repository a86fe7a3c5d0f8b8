#![warn(missing_docs)]
//! Graph neural network layers and training utilities, built on the
//! [`tensor`] autograd crate.
//!
//! The crate provides the five propagation-layer families evaluated in the
//! paper — GCN, GAT, GraphSAGE, TransformerConv and PNA — together with
//! sum ⊕ max graph pooling, MLP heads, mini-batch collation and a generic
//! regression trainer.
//!
//! # Example
//!
//! ```
//! use gnn::{Batch, ConvKind, EncoderConfig, GraphData, RegressionModel};
//! use tensor::{Matrix, ParamStore, Tape};
//!
//! let mut store = ParamStore::new();
//! let cfg = EncoderConfig::new(ConvKind::Sage, 4, 8);
//! let model = RegressionModel::new(&mut store, &cfg, 0, 2, 1);
//!
//! // a 3-node path graph with 4 features per node
//! let g = GraphData::new(
//!     Matrix::from_fn(3, 4, |r, c| (r + c) as f32),
//!     vec![0, 1],
//!     vec![1, 2],
//! );
//! let batch = Batch::from_graphs(&[&g], true);
//! let mut tape = Tape::new();
//! let out = model.forward(&store, &mut tape, &batch);
//! assert_eq!(tape.value(out).shape(), (1, 2));
//! ```

mod convs;
mod graph;
mod layers;
mod metrics;
mod norm;
mod trainer;

pub use convs::{ConvKind, Encoder, EncoderConfig};
pub use graph::{Batch, GcnEdges, GraphData};
pub use layers::{Linear, Mlp};
pub use metrics::{mape, r_squared, rmse};
pub use norm::Normalizer;
pub use trainer::{train_regression, RegressionModel, TrainConfig, TrainReport, MICRO_BATCH};
