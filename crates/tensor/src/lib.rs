#![warn(missing_docs)]
//! Dense `f32` matrices with tape-based reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate for the GNN stack in this workspace.
//! It provides:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the usual linear-algebra
//!   helpers,
//! * [`Tape`] — a dynamic computation tape recording forward operations and
//!   replaying them backwards to produce gradients,
//! * [`ParamStore`] — named trainable parameters with Adam optimizer state,
//! * segment/scatter operations (`gather_rows`, `scatter_add_rows`,
//!   `segment_max`, `segment_mean`, `segment_softmax`, …) which are the
//!   message-passing primitives used by graph neural networks.
//!
//! # Example
//!
//! ```
//! use tensor::{Matrix, ParamStore, Tape};
//!
//! let mut params = ParamStore::new();
//! let w = params.add("w", Matrix::from_vec(2, 1, vec![0.5, -0.25]));
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
//! let wv = tape.param(&params, w);
//! let y = tape.matmul(x, wv);
//! let target = tape.leaf(Matrix::zeros(3, 1));
//! let loss = tape.mse(y, target);
//! tape.backward(loss);
//! params.adam_step(&tape, &tensor::AdamConfig::with_lr(1e-2));
//! ```

mod matrix;
mod param;
mod tape;

pub mod check;
pub mod init;

pub use matrix::{Matrix, RECYCLE_CAP_BYTES, RECYCLE_MIN_BYTES};
pub use param::{AdamConfig, GradSet, ImportError, ParamId, ParamStore};
pub use tape::{Tape, Var};
