//! Dynamic computation tape with reverse-mode differentiation.

use std::sync::Arc;

use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};

/// Handle to a value recorded on a [`Tape`].
///
/// `Var` is a cheap copyable index; it is only meaningful together with the
/// tape that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Index list shared between forward and backward passes.
type Idx = Arc<Vec<u32>>;

/// Recorded operation descriptors. Some payload fields exist only for
/// forward-pass bookkeeping and are not re-read during backward; they are
/// kept for debuggability.
#[allow(dead_code)]
enum Op {
    /// Input with no gradient flowing further back.
    Leaf,
    /// Trainable parameter (gradient is collected by [`ParamStore::adam_step`]).
    Param,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `x[r,c] + bias[1,c]` broadcast over rows.
    AddRow(Var, Var),
    /// `x[r,c] * a[r,1]` broadcast over columns.
    MulCol(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Exp(Var),
    /// `sqrt(x + eps)`.
    Sqrt(Var, f32),
    ConcatCols(Vec<Var>),
    GatherRows(Var, Idx),
    ScatterAddRows(Var, Idx, usize),
    SegmentMean(Var, Idx, usize),
    /// `segment_mean(gather_rows(x, src), dst, n)`; `aux` holds the counts.
    GatherMean(Var, Idx, Idx),
    /// `scatter_add_rows(mul_col(gather_rows(x, src), w), dst, n)`.
    GatherScatter(Var, Idx, Var, Idx),
    /// Per-(segment, column) max; `aux` stores the winning source row.
    SegmentMax(Var, Idx, usize),
    SegmentSoftmax(Var, Idx, usize),
    SumCols(Var),
    MeanAll(Var),
    Mse(Var, Var),
    /// Mean absolute error.
    Mae(Var, Var),
}

struct Node {
    op: Op,
    value: Matrix,
    /// Auxiliary forward data needed by backward (e.g. argmax rows).
    aux: Vec<u32>,
}

/// A computation tape.
///
/// Operations are recorded in execution order; [`Tape::backward`] walks the
/// tape in reverse accumulating gradients. Values and gradients are dense
/// [`Matrix`] instances.
///
/// # Example
///
/// ```
/// use tensor::{Matrix, Tape};
/// let mut t = Tape::new();
/// let x = t.leaf(Matrix::scalar(3.0));
/// let y = t.mul(x, x);
/// t.backward(y);
/// assert_eq!(t.grad(x).item(), 6.0); // d(x^2)/dx = 2x
/// ```
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
    bindings: Vec<(ParamId, Var)>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::new(),
            grads: Vec::new(),
            bindings: Vec::new(),
        }
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.push_aux(op, value, Vec::new())
    }

    fn push_aux(&mut self, op: Op, value: Matrix, aux: Vec<u32>) -> Var {
        self.nodes.push(Node { op, value, aux });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    /// Records an input value (constant w.r.t. differentiation).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Records a trainable parameter from `store`.
    ///
    /// The returned variable participates in differentiation, and the
    /// `(param, var)` binding is remembered so optimizer steps can collect the
    /// gradient after [`Tape::backward`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.push(Op::Param, store.value(id).clone());
        self.bindings.push((id, v));
        v
    }

    /// Parameter/variable bindings recorded by [`Tape::param`].
    pub fn bindings(&self) -> &[(ParamId, Var)] {
        &self.bindings
    }

    /// Forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of the last [`Tape::backward`] loss w.r.t. `v`.
    ///
    /// Returns an all-zero matrix if no gradient reached `v`.
    pub fn grad(&self, v: Var) -> Matrix {
        match &self.grads[v.0] {
            Some(g) => g.clone(),
            None => Matrix::zeros(self.nodes[v.0].value.rows(), self.nodes[v.0].value.cols()),
        }
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    // ---------------------------------------------------------------- ops

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(Op::MatMul(a, b), value)
    }

    /// Element-wise sum (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(Op::Add(a, b), value)
    }

    /// Element-wise difference (same shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.push(Op::Sub(a, b), value)
    }

    /// Element-wise product (same shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(Op::Mul(a, b), value)
    }

    /// Adds a `1 x c` bias row to every row of `x` (`r x c`).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x c`.
    pub fn add_row(&mut self, x: Var, bias: Var) -> Var {
        let (r, c) = self.shape(x);
        assert_eq!(self.shape(bias), (1, c), "bias must be 1x{c}");
        let mut out = self.nodes[x.0].value.clone();
        let bm = self.nodes[bias.0].value.as_slice();
        for i in 0..r {
            for (o, &b) in out.row_mut(i).iter_mut().zip(bm) {
                *o += b;
            }
        }
        self.push(Op::AddRow(x, bias), out)
    }

    /// Multiplies every column of `x` (`r x c`) by the column vector `a` (`r x 1`).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not `r x 1`.
    pub fn mul_col(&mut self, x: Var, a: Var) -> Var {
        let r = self.shape(x).0;
        assert_eq!(self.shape(a), (r, 1), "scale vector must be {r}x1");
        let mut out = self.nodes[x.0].value.clone();
        for (i, &s) in self.nodes[a.0].value.as_slice().iter().enumerate() {
            for o in out.row_mut(i) {
                *o *= s;
            }
        }
        self.push(Op::MulCol(x, a), out)
    }

    /// Scales all elements by a constant.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let value = self.nodes[x.0].value.scale(s);
        self.push(Op::Scale(x, s), value)
    }

    /// Adds a constant to all elements.
    pub fn add_scalar(&mut self, x: Var, s: f32) -> Var {
        let value = self.nodes[x.0].value.map(|v| v + s);
        self.push(Op::AddScalar(x, s), value)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let value = self.nodes[x.0].value.map(|v| v.max(0.0));
        self.push(Op::Relu(x), value)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, x: Var, alpha: f32) -> Var {
        let value = self.nodes[x.0]
            .value
            .map(|v| if v > 0.0 { v } else { alpha * v });
        self.push(Op::LeakyRelu(x, alpha), value)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let value = self.nodes[x.0].value.map(|v| 1.0 / (1.0 + (-v).exp()));
        self.push(Op::Sigmoid(x), value)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let value = self.nodes[x.0].value.map(f32::tanh);
        self.push(Op::Tanh(x), value)
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, x: Var) -> Var {
        let value = self.nodes[x.0].value.map(f32::exp);
        self.push(Op::Exp(x), value)
    }

    /// Element-wise `sqrt(x + eps)`; `eps` keeps the gradient finite at 0.
    pub fn sqrt(&mut self, x: Var, eps: f32) -> Var {
        let value = self.nodes[x.0].value.map(|v| (v + eps).max(0.0).sqrt());
        self.push(Op::Sqrt(x, eps), value)
    }

    /// Concatenates matrices with equal row counts along the column axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = self.shape(parts[0]).0;
        let total: usize = parts.iter().map(|&p| self.shape(p).1).sum();
        let mut out = Matrix::zeros(rows, total);
        let mut off = 0;
        for &p in parts {
            let pm = &self.nodes[p.0].value;
            assert_eq!(pm.rows(), rows, "concat_cols row mismatch");
            let pc = pm.cols();
            for i in 0..rows {
                out.row_mut(i)[off..off + pc].copy_from_slice(pm.row(i));
            }
            off += pc;
        }
        self.push(Op::ConcatCols(parts.to_vec()), out)
    }

    /// Selects rows: `out[i] = x[idx[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&mut self, x: Var, idx: Arc<Vec<u32>>) -> Var {
        let xm = &self.nodes[x.0].value;
        let cols = xm.cols();
        let mut out = Matrix::zeros(idx.len(), cols);
        for (i, &s) in idx.iter().enumerate() {
            let s = s as usize;
            assert!(s < xm.rows(), "gather index {} out of bounds", s);
            out.row_mut(i).copy_from_slice(xm.row(s));
        }
        self.push(Op::GatherRows(x, idx), out)
    }

    /// Scatter-add rows: `out[idx[e]] += x[e]`, with `out` having `n_out` rows.
    ///
    /// This is the GNN message-aggregation primitive (sum over incoming
    /// edges). Also serves as `segment_sum`.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != x.rows()` or an index exceeds `n_out`.
    pub fn scatter_add_rows(&mut self, x: Var, idx: Arc<Vec<u32>>, n_out: usize) -> Var {
        let xm = &self.nodes[x.0].value;
        assert_eq!(idx.len(), xm.rows(), "scatter index length mismatch");
        let cols = xm.cols();
        let mut out = Matrix::zeros(n_out, cols);
        for (e, &d) in idx.iter().enumerate() {
            let d = d as usize;
            assert!(d < n_out, "scatter index {} out of bounds ({})", d, n_out);
            let src = xm.row(e);
            let dst = out.row_mut(d);
            for (o, &v) in dst.iter_mut().zip(src.iter()) {
                *o += v;
            }
        }
        self.push(Op::ScatterAddRows(x, idx, n_out), out)
    }

    /// Segment mean: averages the rows of `x` belonging to each segment.
    ///
    /// Empty segments yield zero rows.
    pub fn segment_mean(&mut self, x: Var, seg: Arc<Vec<u32>>, n_seg: usize) -> Var {
        let xm = &self.nodes[x.0].value;
        assert_eq!(seg.len(), xm.rows(), "segment index length mismatch");
        let cols = xm.cols();
        let mut out = Matrix::zeros(n_seg, cols);
        let mut counts = vec![0u32; n_seg];
        for (e, &s) in seg.iter().enumerate() {
            let s = s as usize;
            counts[s] += 1;
            let src = xm.row(e);
            let dst = out.row_mut(s);
            for (o, &v) in dst.iter_mut().zip(src.iter()) {
                *o += v;
            }
        }
        average_rows(&mut out, &counts);
        self.push_aux(Op::SegmentMean(x, seg, n_seg), out, counts)
    }

    /// Mean over incoming edges: `out[d]` averages `x[src[e]]` over the
    /// edges `e` with `dst[e] == d`, with `out` having `n` rows.
    ///
    /// Equal, value and gradient, bit for bit, to
    /// `segment_mean(gather_rows(x, src), dst, n)`: both passes visit the
    /// edges in stored order, so every row sums the same rounded terms in
    /// the same order, but no per-edge tensor is built.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length or an index is out of
    /// bounds.
    pub fn gather_mean(&mut self, x: Var, src: Idx, dst: Idx, n: usize) -> Var {
        let xm = &self.nodes[x.0].value;
        assert_eq!(src.len(), dst.len(), "edge index length mismatch");
        let mut out = Matrix::zeros(n, xm.cols());
        let mut counts = vec![0u32; n];
        for (&s, &d) in src.iter().zip(dst.iter()) {
            let (s, d) = (s as usize, d as usize);
            assert!(s < xm.rows(), "gather index {} out of bounds", s);
            counts[d] += 1;
            for (o, &v) in out.row_mut(d).iter_mut().zip(xm.row(s)) {
                *o += v;
            }
        }
        average_rows(&mut out, &counts);
        self.push_aux(Op::GatherMean(x, src, dst), out, counts)
    }

    /// Weighted sum over incoming edges: `out[d]` sums `x[src[e]] * w[e]`
    /// over the edges `e` with `dst[e] == d`, with `out` having `n` rows
    /// and `w` one weight per edge (`E x 1`).
    ///
    /// Equal, value and gradient, bit for bit, to
    /// `scatter_add_rows(mul_col(gather_rows(x, src), w), dst, n)`, for
    /// the same reason as [`Tape::gather_mean`].
    ///
    /// # Panics
    ///
    /// Panics if `src`, `dst` and `w` disagree in length or an index is
    /// out of bounds.
    pub fn gather_scatter(&mut self, x: Var, src: Idx, w: Var, dst: Idx, n: usize) -> Var {
        let xm = &self.nodes[x.0].value;
        let wm = &self.nodes[w.0].value;
        assert_eq!(src.len(), dst.len(), "edge index length mismatch");
        assert_eq!(
            wm.shape(),
            (src.len(), 1),
            "edge weights must be {}x1",
            src.len()
        );
        let mut out = Matrix::zeros(n, xm.cols());
        for ((&s, &d), &we) in src.iter().zip(dst.iter()).zip(wm.as_slice()) {
            let (s, d) = (s as usize, d as usize);
            assert!(s < xm.rows(), "gather index {} out of bounds", s);
            assert!(d < n, "scatter index {} out of bounds ({})", d, n);
            for (o, &v) in out.row_mut(d).iter_mut().zip(xm.row(s)) {
                *o += v * we;
            }
        }
        self.push(Op::GatherScatter(x, src, w, dst), out)
    }

    /// Segment max: per-(segment, column) maximum of the rows of `x`.
    ///
    /// Empty segments yield zero rows (no gradient flows to them).
    pub fn segment_max(&mut self, x: Var, seg: Arc<Vec<u32>>, n_seg: usize) -> Var {
        let xm = &self.nodes[x.0].value;
        assert_eq!(seg.len(), xm.rows(), "segment index length mismatch");
        let cols = xm.cols();
        let mut out = Matrix::full(n_seg, cols, f32::NEG_INFINITY);
        // aux[s * cols + j] = winning source row for (segment s, column j),
        // u32::MAX when the segment is empty.
        let mut arg = vec![u32::MAX; n_seg * cols];
        for (e, &s) in seg.iter().enumerate() {
            let s = s as usize;
            let best = out.row_mut(s);
            let won = &mut arg[s * cols..(s + 1) * cols];
            for ((b, w), &v) in best.iter_mut().zip(won).zip(xm.row(e)) {
                if v > *b {
                    *b = v;
                    *w = e as u32;
                }
            }
        }
        for v in out.as_mut_slice() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        self.push_aux(Op::SegmentMax(x, seg, n_seg), out, arg)
    }

    /// Per-segment softmax over a column vector of logits.
    ///
    /// `x` must be `n x 1`; entries within the same segment are normalized by
    /// a numerically stable softmax. This is the attention-normalization
    /// primitive for GAT/TransformerConv.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a column vector.
    pub fn segment_softmax(&mut self, x: Var, seg: Arc<Vec<u32>>, n_seg: usize) -> Var {
        let xm = &self.nodes[x.0].value;
        assert_eq!(xm.cols(), 1, "segment_softmax expects a column vector");
        assert_eq!(seg.len(), xm.rows(), "segment index length mismatch");
        let n = xm.rows();
        let mut seg_max = vec![f32::NEG_INFINITY; n_seg];
        for (e, &s) in seg.iter().enumerate() {
            let s = s as usize;
            seg_max[s] = seg_max[s].max(xm[(e, 0)]);
        }
        let mut seg_sum = vec![0.0f32; n_seg];
        let mut out = Matrix::zeros(n, 1);
        for (e, &s) in seg.iter().enumerate() {
            let s = s as usize;
            let v = (xm[(e, 0)] - seg_max[s]).exp();
            out[(e, 0)] = v;
            seg_sum[s] += v;
        }
        for (e, &s) in seg.iter().enumerate() {
            let s = s as usize;
            if seg_sum[s] > 0.0 {
                out[(e, 0)] /= seg_sum[s];
            }
        }
        self.push(Op::SegmentSoftmax(x, seg, n_seg), out)
    }

    /// Row-wise sum: `r x c -> r x 1`.
    pub fn sum_cols(&mut self, x: Var) -> Var {
        let xm = &self.nodes[x.0].value;
        let mut out = Matrix::zeros(xm.rows(), 1);
        for i in 0..xm.rows() {
            out[(i, 0)] = xm.row(i).iter().sum();
        }
        self.push(Op::SumCols(x), out)
    }

    /// Mean over all elements, producing a `1x1` scalar.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let xm = &self.nodes[x.0].value;
        let n = xm.len().max(1) as f32;
        let value = Matrix::scalar(xm.sum() / n);
        self.push(Op::MeanAll(x), value)
    }

    /// Mean squared error between `pred` and `target` (scalar output).
    ///
    /// Gradient flows to both operands.
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let p = &self.nodes[pred.0].value;
        let t = &self.nodes[target.0].value;
        assert_eq!(p.shape(), t.shape(), "mse shape mismatch");
        let n = p.len().max(1) as f32;
        let mut acc = 0.0;
        for (a, b) in p.as_slice().iter().zip(t.as_slice()) {
            let d = a - b;
            acc += d * d;
        }
        self.push(Op::Mse(pred, target), Matrix::scalar(acc / n))
    }

    /// Mean absolute error between `pred` and `target` (scalar output).
    pub fn mae(&mut self, pred: Var, target: Var) -> Var {
        let p = &self.nodes[pred.0].value;
        let t = &self.nodes[target.0].value;
        assert_eq!(p.shape(), t.shape(), "mae shape mismatch");
        let n = p.len().max(1) as f32;
        let acc: f32 = p
            .as_slice()
            .iter()
            .zip(t.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        self.push(Op::Mae(pred, target), Matrix::scalar(acc / n))
    }

    // ----------------------------------------------------------- backward

    /// Runs reverse-mode differentiation from `loss` (must be `1x1`).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.shape(loss), (1, 1), "backward requires a scalar loss");
        for g in &mut self.grads {
            *g = None;
        }
        self.grads[loss.0] = Some(Matrix::scalar(1.0));
        for i in (0..self.nodes.len()).rev() {
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            self.propagate(i, &g);
            self.grads[i] = Some(g);
        }
    }

    fn accumulate(&mut self, v: Var, delta: Matrix) {
        match &mut self.grads[v.0] {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    fn propagate(&mut self, i: usize, g: &Matrix) {
        // `op` borrows are resolved by cloning the lightweight descriptors.
        enum Step {
            One(Var, Matrix),
            Two(Var, Matrix, Var, Matrix),
            Many(Vec<(Var, Matrix)>),
            None,
        }
        let step = match &self.nodes[i].op {
            Op::Leaf | Op::Param => Step::None,
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.matmul(&self.nodes[b.0].value.transpose());
                let db = self.nodes[a.0].value.transpose().matmul(g);
                Step::Two(a, da, b, db)
            }
            Op::Add(a, b) => Step::Two(*a, g.clone(), *b, g.clone()),
            Op::Sub(a, b) => Step::Two(*a, g.clone(), *b, g.scale(-1.0)),
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.hadamard(&self.nodes[b.0].value);
                let db = g.hadamard(&self.nodes[a.0].value);
                Step::Two(a, da, b, db)
            }
            Op::AddRow(x, bias) => {
                let (x, bias) = (*x, *bias);
                let mut db = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (d, &v) in db.as_mut_slice().iter_mut().zip(g.row(r)) {
                        *d += v;
                    }
                }
                Step::Two(x, g.clone(), bias, db)
            }
            Op::MulCol(x, a) => {
                let (x, a) = (*x, *a);
                let am = self.nodes[a.0].value.as_slice();
                let xm = &self.nodes[x.0].value;
                let mut dx = g.clone();
                let mut da = Matrix::zeros(g.rows(), 1);
                for (r, (&s, acc)) in am.iter().zip(da.as_mut_slice()).enumerate() {
                    for (d, &v) in dx.row_mut(r).iter_mut().zip(xm.row(r)) {
                        *acc += *d * v;
                        *d *= s;
                    }
                }
                Step::Two(x, dx, a, da)
            }
            Op::Scale(x, s) => Step::One(*x, g.scale(*s)),
            Op::AddScalar(x, _) => Step::One(*x, g.clone()),
            Op::Relu(x) => {
                let x = *x;
                let xm = &self.nodes[x.0].value;
                let mut dx = g.clone();
                for (d, &v) in dx.as_mut_slice().iter_mut().zip(xm.as_slice()) {
                    if v <= 0.0 {
                        *d = 0.0;
                    }
                }
                Step::One(x, dx)
            }
            Op::LeakyRelu(x, alpha) => {
                let (x, alpha) = (*x, *alpha);
                let xm = &self.nodes[x.0].value;
                let mut dx = g.clone();
                for (d, &v) in dx.as_mut_slice().iter_mut().zip(xm.as_slice()) {
                    if v <= 0.0 {
                        *d *= alpha;
                    }
                }
                Step::One(x, dx)
            }
            Op::Sigmoid(x) => {
                let x = *x;
                let ym = &self.nodes[i].value;
                let mut dx = g.clone();
                for (d, &y) in dx.as_mut_slice().iter_mut().zip(ym.as_slice()) {
                    *d *= y * (1.0 - y);
                }
                Step::One(x, dx)
            }
            Op::Tanh(x) => {
                let x = *x;
                let ym = &self.nodes[i].value;
                let mut dx = g.clone();
                for (d, &y) in dx.as_mut_slice().iter_mut().zip(ym.as_slice()) {
                    *d *= 1.0 - y * y;
                }
                Step::One(x, dx)
            }
            Op::Exp(x) => {
                let x = *x;
                let ym = &self.nodes[i].value;
                Step::One(x, g.hadamard(ym))
            }
            Op::Sqrt(x, _) => {
                let x = *x;
                let ym = &self.nodes[i].value;
                let mut dx = g.clone();
                for (d, &y) in dx.as_mut_slice().iter_mut().zip(ym.as_slice()) {
                    *d *= 0.5 / y.max(1e-8);
                }
                Step::One(x, dx)
            }
            Op::ConcatCols(parts) => {
                let parts = parts.clone();
                let mut grads = Vec::with_capacity(parts.len());
                let mut off = 0;
                for p in parts {
                    let pc = self.nodes[p.0].value.cols();
                    let mut dp = Matrix::zeros(g.rows(), pc);
                    for r in 0..g.rows() {
                        dp.row_mut(r).copy_from_slice(&g.row(r)[off..off + pc]);
                    }
                    off += pc;
                    grads.push((p, dp));
                }
                Step::Many(grads)
            }
            Op::GatherRows(x, idx) => {
                let (x, idx) = (*x, Arc::clone(idx));
                let xm = &self.nodes[x.0].value;
                let mut dx = Matrix::zeros(xm.rows(), xm.cols());
                for (e, &s) in idx.iter().enumerate() {
                    let dst = dx.row_mut(s as usize);
                    for (d, &v) in dst.iter_mut().zip(g.row(e)) {
                        *d += v;
                    }
                }
                Step::One(x, dx)
            }
            Op::ScatterAddRows(x, idx, _) => {
                let (x, idx) = (*x, Arc::clone(idx));
                let xm = &self.nodes[x.0].value;
                let mut dx = Matrix::zeros(xm.rows(), xm.cols());
                for (e, &d) in idx.iter().enumerate() {
                    dx.row_mut(e).copy_from_slice(g.row(d as usize));
                }
                Step::One(x, dx)
            }
            Op::SegmentMean(x, seg, _) => {
                let (x, seg) = (*x, Arc::clone(seg));
                let counts = self.nodes[i].aux.clone();
                let xm = &self.nodes[x.0].value;
                let mut dx = Matrix::zeros(xm.rows(), xm.cols());
                for (e, &s) in seg.iter().enumerate() {
                    let s = s as usize;
                    let inv = 1.0 / counts[s].max(1) as f32;
                    for (d, &v) in dx.row_mut(e).iter_mut().zip(g.row(s)) {
                        *d = v * inv;
                    }
                }
                Step::One(x, dx)
            }
            Op::GatherMean(x, src, dst) => {
                let x = *x;
                let counts = &self.nodes[i].aux;
                let xm = &self.nodes[x.0].value;
                let mut dx = Matrix::zeros(xm.rows(), xm.cols());
                for (&s, &d) in src.iter().zip(dst.iter()) {
                    let inv = 1.0 / counts[d as usize].max(1) as f32;
                    for (o, &v) in dx.row_mut(s as usize).iter_mut().zip(g.row(d as usize)) {
                        *o += v * inv;
                    }
                }
                Step::One(x, dx)
            }
            Op::GatherScatter(x, src, w, dst) => {
                let (x, w) = (*x, *w);
                let xm = &self.nodes[x.0].value;
                let wm = self.nodes[w.0].value.as_slice();
                let mut dx = Matrix::zeros(xm.rows(), xm.cols());
                let mut dw = Matrix::zeros(wm.len(), 1);
                let edges = src.iter().zip(dst.iter()).zip(wm).zip(dw.as_mut_slice());
                for (((&s, &d), &we), dwe) in edges {
                    let gd = g.row(d as usize);
                    for (&gv, &v) in gd.iter().zip(xm.row(s as usize)) {
                        *dwe += gv * v;
                    }
                    for (o, &gv) in dx.row_mut(s as usize).iter_mut().zip(gd) {
                        *o += gv * we;
                    }
                }
                Step::Two(x, dx, w, dw)
            }
            Op::SegmentMax(x, _, n_seg) => {
                let (x, n_seg) = (*x, *n_seg);
                let arg = &self.nodes[i].aux;
                let xm = &self.nodes[x.0].value;
                let cols = xm.cols();
                let mut dx = Matrix::zeros(xm.rows(), cols);
                let dxs = dx.as_mut_slice();
                for s in 0..n_seg {
                    let won = &arg[s * cols..(s + 1) * cols];
                    for (j, (&e, &v)) in won.iter().zip(g.row(s)).enumerate() {
                        if e != u32::MAX {
                            dxs[e as usize * cols + j] += v;
                        }
                    }
                }
                Step::One(x, dx)
            }
            Op::SegmentSoftmax(x, seg, n_seg) => {
                let (x, seg, n_seg) = (*x, Arc::clone(seg), *n_seg);
                let ym = &self.nodes[i].value;
                // dL/dx_e = y_e * (g_e - sum_{j in seg} y_j g_j)
                let mut seg_dot = vec![0.0f32; n_seg];
                for (e, &s) in seg.iter().enumerate() {
                    seg_dot[s as usize] += ym[(e, 0)] * g[(e, 0)];
                }
                let mut dx = Matrix::zeros(ym.rows(), 1);
                for (e, &s) in seg.iter().enumerate() {
                    dx[(e, 0)] = ym[(e, 0)] * (g[(e, 0)] - seg_dot[s as usize]);
                }
                Step::One(x, dx)
            }
            Op::SumCols(x) => {
                let x = *x;
                let xm = &self.nodes[x.0].value;
                let mut dx = Matrix::zeros(xm.rows(), xm.cols());
                for (r, &gv) in g.as_slice().iter().enumerate() {
                    dx.row_mut(r).fill(gv);
                }
                Step::One(x, dx)
            }
            Op::MeanAll(x) => {
                let x = *x;
                let xm = &self.nodes[x.0].value;
                let inv = g.item() / xm.len().max(1) as f32;
                Step::One(x, Matrix::full(xm.rows(), xm.cols(), inv))
            }
            Op::Mse(p, t) => {
                let (p, t) = (*p, *t);
                let pm = &self.nodes[p.0].value;
                let tm = &self.nodes[t.0].value;
                let scale = 2.0 * g.item() / pm.len().max(1) as f32;
                let dp = pm.sub(tm).scale(scale);
                let dt = dp.scale(-1.0);
                Step::Two(p, dp, t, dt)
            }
            Op::Mae(p, t) => {
                let (p, t) = (*p, *t);
                let pm = &self.nodes[p.0].value;
                let tm = &self.nodes[t.0].value;
                let scale = g.item() / pm.len().max(1) as f32;
                let dp = pm.sub(tm).map(|d| scale * d.signum());
                let dt = dp.scale(-1.0);
                Step::Two(p, dp, t, dt)
            }
        };
        match step {
            Step::None => {}
            Step::One(a, da) => self.accumulate(a, da),
            Step::Two(a, da, b, db) => {
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Step::Many(grads) => {
                for (v, dv) in grads {
                    self.accumulate(v, dv);
                }
            }
        }
    }

    /// Number of recorded nodes (useful for memory diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Divides every row of `out` by its count; rows counting 0 stay zero.
fn average_rows(out: &mut Matrix, counts: &[u32]) {
    for (s, &count) in counts.iter().enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f32;
            for v in out.row_mut(s) {
                *v *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::numeric_grad;

    fn approx(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn backward_through_matmul() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let y = t.matmul(a, b); // 1*3 + 2*4 = 11
        t.backward(y);
        assert_eq!(t.value(y).item(), 11.0);
        assert_eq!(t.grad(a).as_slice(), &[3.0, 4.0]);
        assert_eq!(t.grad(b).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn chained_gradients_accumulate() {
        // y = x*x + x  => dy/dx = 2x + 1
        let mut t = Tape::new();
        let x = t.leaf(Matrix::scalar(3.0));
        let sq = t.mul(x, x);
        let y = t.add(sq, x);
        t.backward(y);
        assert_eq!(t.grad(x).item(), 7.0);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        let y = t.relu(x);
        let s = t.mean_all(y);
        t.backward(s);
        assert_eq!(t.grad(x).as_slice(), &[0.0, 0.5]);
    }

    #[test]
    fn segment_softmax_sums_to_one() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::col_vector(&[1.0, 2.0, 3.0, -1.0]));
        let seg = Arc::new(vec![0u32, 0, 1, 1]);
        let y = t.segment_softmax(x, seg, 2);
        let v = t.value(y);
        assert!(approx(v[(0, 0)] + v[(1, 0)], 1.0, 1e-6));
        assert!(approx(v[(2, 0)] + v[(3, 0)], 1.0, 1e-6));
        assert!(v[(2, 0)] > v[(3, 0)]);
    }

    #[test]
    fn scatter_gather_roundtrip_gradient() {
        let idx = Arc::new(vec![0u32, 1, 0]);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let s = t.scatter_add_rows(x, Arc::clone(&idx), 2);
        let l = t.mean_all(s);
        t.backward(l);
        // every input row contributes exactly once to the sum
        let g = t.grad(x);
        for v in g.as_slice() {
            assert!(approx(*v, 0.25, 1e-6));
        }
    }

    #[test]
    fn segment_max_selects_winner() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(3, 1, vec![1.0, 5.0, 3.0]));
        let seg = Arc::new(vec![0u32, 0, 1]);
        let y = t.segment_max(x, seg, 2);
        assert_eq!(t.value(y).as_slice(), &[5.0, 3.0]);
        let l = t.mean_all(y);
        t.backward(l);
        assert_eq!(t.grad(x).as_slice(), &[0.0, 0.5, 0.5]);
    }

    /// Edge lists `(src, dst)` over five nodes: duplicate edges (2 -> 1
    /// twice), self-loops (0 -> 0, 3 -> 3), an isolated node (4) and, in
    /// the second case, no edges at all. Nodes 0-3 each send and receive
    /// three or more messages, so a change of summation order shows.
    fn edge_cases() -> Vec<(Idx, Idx)> {
        vec![
            (
                Arc::new(vec![0, 2, 2, 1, 0, 3, 2, 1, 0, 3, 1, 3]),
                Arc::new(vec![1, 1, 1, 0, 0, 3, 3, 2, 2, 2, 3, 0]),
            ),
            (Arc::new(vec![]), Arc::new(vec![])),
        ]
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The value of `agg(x, w)` for 5 x 3 node features `x` and `edges`
    /// x 1 edge weights `w`, and the gradients of both under a loss that
    /// weights every output element differently, as raw bits.
    fn aggregate_bits(edges: usize, agg: impl Fn(&mut Tape, Var, Var) -> Var) -> [Vec<u32>; 3] {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_fn(5, 3, |r, c| {
            ((r * 3 + c) as f32 * 0.7).sin()
        }));
        let w = t.leaf(Matrix::from_fn(edges, 1, |r, _| (r as f32 * 1.3).cos()));
        let out = agg(&mut t, x, w);
        let (rows, cols) = t.value(out).shape();
        let spread = t.leaf(Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.37).sin() + 0.1
        }));
        let weighted = t.mul(out, spread);
        let loss = t.mean_all(weighted);
        t.backward(loss);
        [bits(t.value(out)), bits(&t.grad(x)), bits(&t.grad(w))]
    }

    #[test]
    fn gather_mean_equals_the_unfused_chain_bit_for_bit() {
        for (src, dst) in edge_cases() {
            let fused = aggregate_bits(src.len(), |t, x, _| {
                t.gather_mean(x, Arc::clone(&src), Arc::clone(&dst), 5)
            });
            let chain = aggregate_bits(src.len(), |t, x, _| {
                let msgs = t.gather_rows(x, Arc::clone(&src));
                t.segment_mean(msgs, Arc::clone(&dst), 5)
            });
            assert_eq!(fused, chain, "edges {src:?} -> {dst:?}");
        }
    }

    #[test]
    fn gather_scatter_equals_the_unfused_chain_bit_for_bit() {
        for (src, dst) in edge_cases() {
            let fused = aggregate_bits(src.len(), |t, x, w| {
                t.gather_scatter(x, Arc::clone(&src), w, Arc::clone(&dst), 5)
            });
            let chain = aggregate_bits(src.len(), |t, x, w| {
                let msgs = t.gather_rows(x, Arc::clone(&src));
                let weighted = t.mul_col(msgs, w);
                t.scatter_add_rows(weighted, Arc::clone(&dst), 5)
            });
            assert_eq!(fused, chain, "edges {src:?} -> {dst:?}");
        }
    }

    // Numerical gradient checks for every differentiable op.

    #[test]
    fn numcheck_matmul() {
        numeric_grad(3, 4, |t, x| {
            let w = t.leaf(Matrix::from_fn(4, 2, |r, c| {
                0.1 * (r as f32) - 0.2 * c as f32 + 0.05
            }));
            let y = t.matmul(x, w);
            t.mean_all(y)
        });
    }

    #[test]
    fn numcheck_activations() {
        numeric_grad(2, 3, |t, x| {
            let a = t.leaky_relu(x, 0.1);
            let b = t.sigmoid(a);
            let c = t.tanh(b);
            let d = t.exp(c);
            let e = t.sqrt(d, 1e-6);
            t.mean_all(e)
        });
    }

    #[test]
    fn numcheck_add_row_mul_col() {
        numeric_grad(3, 2, |t, x| {
            let b = t.leaf(Matrix::row_vector(&[0.3, -0.4]));
            let y = t.add_row(x, b);
            let a = t.leaf(Matrix::col_vector(&[0.5, 1.5, -0.7]));
            let z = t.mul_col(y, a);
            t.mean_all(z)
        });
    }

    #[test]
    fn numcheck_concat_sum_cols() {
        numeric_grad(2, 2, |t, x| {
            let y = t.concat_cols(&[x, x]);
            let s = t.sum_cols(y);
            t.mean_all(s)
        });
    }

    #[test]
    fn numcheck_gather_scatter() {
        let idx = Arc::new(vec![1u32, 0, 1, 1]);
        numeric_grad(2, 3, move |t, x| {
            let gathered = t.gather_rows(x, Arc::clone(&idx));
            let scattered = t.scatter_add_rows(gathered, Arc::new(vec![0, 0, 1, 1]), 2);
            t.mean_all(scattered)
        });
    }

    #[test]
    fn numcheck_segment_mean_max() {
        let seg = Arc::new(vec![0u32, 0, 1, 2]);
        numeric_grad(4, 2, move |t, x| {
            let m = t.segment_mean(x, Arc::clone(&seg), 3);
            let mx = t.segment_max(x, Arc::clone(&seg), 3);
            let c = t.concat_cols(&[m, mx]);
            t.mean_all(c)
        });
    }

    #[test]
    fn numcheck_fused_aggregation() {
        let (src, dst) = edge_cases().swap_remove(0);
        numeric_grad(5, 2, move |t, x| {
            let w = t.leaf(Matrix::from_fn(src.len(), 1, |r, _| 0.3 + 0.2 * r as f32));
            let mean = t.gather_mean(x, Arc::clone(&src), Arc::clone(&dst), 5);
            let sum = t.gather_scatter(x, Arc::clone(&src), w, Arc::clone(&dst), 5);
            let c = t.concat_cols(&[mean, sum]);
            t.mean_all(c)
        });
    }

    #[test]
    fn numcheck_segment_softmax() {
        let seg = Arc::new(vec![0u32, 0, 0, 1, 1]);
        numeric_grad(5, 1, move |t, x| {
            let sm = t.segment_softmax(x, Arc::clone(&seg), 2);
            // weight by a fixed vector so the loss is not constant (softmax
            // rows sum to one)
            let w = t.leaf(Matrix::col_vector(&[0.9, -0.3, 0.4, 1.2, -0.8]));
            let y = t.mul(sm, w);
            t.mean_all(y)
        });
    }

    #[test]
    fn numcheck_losses() {
        numeric_grad(2, 2, |t, x| {
            let target = t.leaf(Matrix::from_vec(2, 2, vec![0.5, -0.5, 1.0, 0.0]));
            t.mse(x, target)
        });
        numeric_grad(2, 2, |t, x| {
            let target = t.leaf(Matrix::from_vec(2, 2, vec![0.5, -0.5, 1.0, 0.0]));
            t.mae(x, target)
        });
    }

    #[test]
    fn numcheck_scale_add_scalar_sub() {
        numeric_grad(2, 2, |t, x| {
            let a = t.scale(x, 1.7);
            let b = t.add_scalar(a, -0.3);
            let c = t.sub(b, x);
            t.mean_all(c)
        });
    }
}
