//! Trainable parameters with Adam optimizer state.

use std::fmt;
use std::io::{self, Write};

use crate::matrix::Matrix;
use crate::tape::Tape;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

struct Entry {
    name: String,
    value: Matrix,
    m: Matrix,
    v: Matrix,
}

/// Failure importing a parameter value by name (checkpoint restore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportError {
    /// No parameter is registered under this name.
    UnknownParam(String),
    /// The imported value's shape differs from the registered parameter.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape the store registered.
        expected: (usize, usize),
        /// Shape the import carried.
        found: (usize, usize),
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::UnknownParam(name) => write!(f, "unknown parameter {name:?}"),
            ImportError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "parameter {name:?} expects shape {}x{}, import has {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

impl std::error::Error for ImportError {}

/// Adam hyper-parameters.
///
/// # Example
///
/// ```
/// let cfg = tensor::AdamConfig::with_lr(3e-3);
/// assert_eq!(cfg.lr, 3e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// L2 weight decay (decoupled, AdamW-style).
    pub weight_decay: f32,
    /// Global gradient-norm clip (0 disables clipping).
    pub clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            clip: 0.0,
        }
    }
}

impl AdamConfig {
    /// Default configuration with the given learning rate.
    pub fn with_lr(lr: f32) -> Self {
        AdamConfig {
            lr,
            ..AdamConfig::default()
        }
    }
}

/// Per-parameter gradients extracted from one or more tapes, aligned with
/// the [`ParamStore`] that produced them.
///
/// `None` entries are parameters no gradient reached. Accumulation is
/// position-wise and order-sensitive only in the floating-point sense:
/// callers that need bit-reproducible results must accumulate sets in a
/// deterministic order (the `par` executor's ordered merge provides one).
#[derive(Debug, Clone)]
pub struct GradSet {
    grads: Vec<Option<Matrix>>,
}

impl GradSet {
    /// Adds `other` into `self`, position-wise.
    ///
    /// # Panics
    ///
    /// Panics if the sets come from stores of different sizes.
    pub fn accumulate(&mut self, other: &GradSet) {
        assert_eq!(self.grads.len(), other.grads.len(), "gradient set mismatch");
        for (a, b) in self.grads.iter_mut().zip(&other.grads) {
            match (a, b) {
                (Some(ga), Some(gb)) => ga.add_assign(gb),
                (slot @ None, Some(gb)) => *slot = Some(gb.clone()),
                (_, None) => {}
            }
        }
    }

    /// Scales every gradient by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for g in self.grads.iter_mut().flatten() {
            *g = g.scale(s);
        }
    }
}

/// Collection of named trainable parameters.
///
/// Models store [`ParamId`] handles; the values (and the Adam moments) live
/// here so optimizer steps and (de)serialization are centralized.
///
/// # Example
///
/// ```
/// use tensor::{Matrix, ParamStore};
/// let mut store = ParamStore::new();
/// let id = store.add("layer.weight", Matrix::zeros(4, 4));
/// assert_eq!(store.value(id).shape(), (4, 4));
/// ```
pub struct ParamStore {
    entries: Vec<Entry>,
    step: u64,
}

impl fmt::Debug for ParamStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ParamStore {{ params: {}, scalars: {}, step: {} }}",
            self.entries.len(),
            self.num_scalars(),
            self.step
        )
    }
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore {
            entries: Vec::new(),
            step: 0,
        }
    }

    /// Registers a parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.entries.push(Entry {
            name: name.into(),
            value,
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].value
    }

    /// Name the parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Collects the per-parameter gradients recorded on `tape` into a
    /// [`GradSet`] aligned with this store.
    ///
    /// The tape must have had [`Tape::backward`] run. Parameters bound more
    /// than once on the tape have their gradients summed. Gradient sets from
    /// several tapes (e.g. data-parallel micro-batches) can be combined with
    /// [`GradSet::accumulate`] and applied with [`ParamStore::adam_step_with`].
    pub fn grads_of(&self, tape: &Tape) -> GradSet {
        let mut grads: Vec<Option<Matrix>> = vec![None; self.entries.len()];
        for &(id, var) in tape.bindings() {
            let g = tape.grad(var);
            match &mut grads[id.0] {
                Some(acc) => acc.add_assign(&g),
                slot @ None => *slot = Some(g),
            }
        }
        GradSet { grads }
    }

    /// Applies one Adam update using the gradients recorded on `tape`.
    ///
    /// The tape must have had [`Tape::backward`] run. Parameters bound more
    /// than once on the tape have their gradients summed.
    pub fn adam_step(&mut self, tape: &Tape, cfg: &AdamConfig) {
        let grads = self.grads_of(tape);
        self.adam_step_with(grads, cfg);
    }

    /// Applies one Adam update from an explicit gradient set (the
    /// data-parallel entry point: accumulate micro-batch gradients in a
    /// fixed order, then step once).
    ///
    /// # Panics
    ///
    /// Panics if `grads` was built against a store with a different number
    /// of parameters.
    pub fn adam_step_with(&mut self, grads: GradSet, cfg: &AdamConfig) {
        assert_eq!(
            grads.grads.len(),
            self.entries.len(),
            "gradient set does not match this store"
        );
        obs::metrics::counter_add("tensor/adam_steps", 1);
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - cfg.beta1.powf(t);
        let bc2 = 1.0 - cfg.beta2.powf(t);
        let mut grads = grads.grads;
        // global gradient-norm clipping
        if cfg.clip > 0.0 {
            let norm: f32 = grads
                .iter()
                .flatten()
                .map(|g| g.as_slice().iter().map(|v| v * v).sum::<f32>())
                .sum::<f32>()
                .sqrt();
            if norm > cfg.clip {
                let scale = cfg.clip / norm;
                for g in grads.iter_mut().flatten() {
                    *g = g.scale(scale);
                }
            }
        }
        for (idx, g) in grads.into_iter().enumerate() {
            let Some(g) = g else { continue };
            let e = &mut self.entries[idx];
            assert_eq!(g.len(), e.value.len(), "gradient shape of {}", e.name);
            let moments = e.m.as_mut_slice().iter_mut().zip(e.v.as_mut_slice());
            let values = e.value.as_mut_slice().iter_mut().zip(moments);
            for ((w, (m, v)), &gr) in values.zip(g.as_slice()) {
                let gi = gr + cfg.weight_decay * *w;
                *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * gi;
                *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * gi * gi;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
            }
        }
    }

    /// Iterates `(name, value)` pairs in registration order.
    ///
    /// This is the weight-export entry point for external serializers
    /// (e.g. the `serve` checkpoint format); registration order is stable
    /// for a fixed model architecture, so exported record order is too.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.entries.iter().map(|e| (e.name.as_str(), &e.value))
    }

    /// Replaces the value of the named parameter (weight import).
    ///
    /// Adam moments are left untouched: importing restores *inference*
    /// state, matching the plain-text snapshot semantics of
    /// [`ParamStore::save`].
    ///
    /// # Errors
    ///
    /// Returns [`ImportError::UnknownParam`] for an unregistered name and
    /// [`ImportError::ShapeMismatch`] when the shapes disagree.
    pub fn import(&mut self, name: &str, value: Matrix) -> Result<(), ImportError> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.name == name)
            .ok_or_else(|| ImportError::UnknownParam(name.to_string()))?;
        if entry.value.shape() != value.shape() {
            return Err(ImportError::ShapeMismatch {
                name: name.to_string(),
                expected: entry.value.shape(),
                found: value.shape(),
            });
        }
        entry.value = value;
        Ok(())
    }

    /// Serializes all parameter values as a plain text snapshot.
    ///
    /// Format: one `name rows cols v0 v1 ...` line per parameter. Adam
    /// moments are not persisted.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "paramstore v1 {}", self.entries.len())?;
        for e in &self.entries {
            write!(w, "{} {} {}", e.name, e.value.rows(), e.value.cols())?;
            for v in e.value.as_slice() {
                write!(w, " {}", v)?;
            }
            writeln!(w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_reduces_quadratic_loss() {
        // minimize (w - 3)^2 via the tape
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::scalar(0.0));
        let cfg = AdamConfig::with_lr(0.1);
        for _ in 0..300 {
            let mut t = Tape::new();
            let wv = t.param(&store, w);
            let target = t.leaf(Matrix::scalar(3.0));
            let loss = t.mse(wv, target);
            t.backward(loss);
            store.adam_step(&t, &cfg);
        }
        assert!((store.value(w).item() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn entries_export_in_registration_order() {
        let mut store = ParamStore::new();
        store.add("w1", Matrix::zeros(2, 3));
        store.add("w0", Matrix::zeros(1, 1));
        let names: Vec<&str> = store.entries().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["w1", "w0"]);
        let shapes: Vec<(usize, usize)> = store.entries().map(|(_, m)| m.shape()).collect();
        assert_eq!(shapes, vec![(2, 3), (1, 1)]);
    }

    #[test]
    fn import_replaces_values_and_rejects_mismatches() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 2));
        store
            .import("w", Matrix::from_vec(1, 2, vec![4.0, 5.0]))
            .unwrap();
        assert_eq!(store.value(w).as_slice(), &[4.0, 5.0]);

        assert_eq!(
            store.import("nope", Matrix::zeros(1, 2)),
            Err(ImportError::UnknownParam("nope".into()))
        );
        assert!(matches!(
            store.import("w", Matrix::zeros(2, 1)),
            Err(ImportError::ShapeMismatch { .. })
        ));
        // failed imports must not clobber the value
        assert_eq!(store.value(w).as_slice(), &[4.0, 5.0]);
    }

    #[test]
    fn duplicate_bindings_sum_gradients() {
        // loss = (w + w) => dw = 2
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::scalar(1.0));
        let mut t = Tape::new();
        let w1 = t.param(&store, w);
        let w2 = t.param(&store, w);
        let s = t.add(w1, w2);
        t.backward(s);
        // both bindings carry gradient 1; adam should see total 2 and move w
        // in the negative direction
        let before = store.value(w).item();
        store.adam_step(&t, &AdamConfig::with_lr(0.5));
        assert!(store.value(w).item() < before);
    }
}
