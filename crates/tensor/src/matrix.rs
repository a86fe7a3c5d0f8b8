//! Row-major dense `f32` matrix, and the recycler behind its large buffers.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Buffers of at least this many bytes are recycled when their matrix is
/// dropped; smaller ones go straight back to the allocator.
pub const RECYCLE_MIN_BYTES: usize = 64 << 10;

/// Total bytes the recycler holds at most. A dropped buffer that would
/// push the free list past this goes back to the allocator instead.
pub const RECYCLE_CAP_BYTES: usize = 32 << 20;

/// Large buffers of dropped matrices, sorted by capacity.
///
/// A training step records its largest tensors (one row per edge) on a
/// tape and drops them all when the tape goes. Returned to the allocator,
/// that memory is often handed back to the OS and faulted in again by the
/// next step; kept here, the next step's constructors reuse it. The list
/// is process-wide rather than per thread because `par` starts fresh
/// workers for every call.
struct FreeList {
    bufs: Vec<Vec<f32>>,
    bytes: usize,
}

static FREE: Mutex<FreeList> = Mutex::new(FreeList {
    bufs: Vec::new(),
    bytes: 0,
});

/// The free list; it is consistent after any panic, so a poisoned lock is
/// simply taken over.
fn free_list() -> MutexGuard<'static, FreeList> {
    FREE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn byte_size(buf: &Vec<f32>) -> usize {
    buf.capacity() * std::mem::size_of::<f32>()
}

/// An empty buffer with room for `len` values: for a large `len`, the
/// smallest recycled buffer that fits. Callers overwrite all `len` values.
fn buffer(len: usize) -> Vec<f32> {
    if len * std::mem::size_of::<f32>() >= RECYCLE_MIN_BYTES {
        let mut list = free_list();
        let i = list.bufs.partition_point(|b| b.capacity() < len);
        if i < list.bufs.len() {
            let mut buf = list.bufs.remove(i);
            list.bytes -= byte_size(&buf);
            buf.clear();
            return buf;
        }
    }
    Vec::with_capacity(len)
}

/// Keeps a large `buf` for reuse while the free list has room.
fn recycle(buf: Vec<f32>) {
    let bytes = byte_size(&buf);
    if bytes < RECYCLE_MIN_BYTES {
        return;
    }
    let mut list = free_list();
    if list.bytes + bytes <= RECYCLE_CAP_BYTES {
        let i = list.bufs.partition_point(|b| b.capacity() < buf.capacity());
        list.bufs.insert(i, buf);
        list.bytes += bytes;
    }
}

/// A row-major dense matrix of `f32` values.
///
/// `Matrix` is the only value type flowing through the autograd [`Tape`]
/// (vectors are `r x 1` or `1 x c` matrices, scalars are `1 x 1`).
///
/// [`Tape`]: crate::Tape
///
/// # Example
///
/// ```
/// use tensor::Matrix;
/// let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
///
/// Dropping a matrix whose buffer is at least [`RECYCLE_MIN_BYTES`] hands
/// the buffer to a process-wide recycler (capped at [`RECYCLE_CAP_BYTES`]);
/// [`Matrix::zeros`], [`Matrix::full`], `clone`, [`Matrix::map`] and the
/// element-wise ops take their buffers from it and write every value.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:9.4}", self[(r, c)])?;
                if c + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut data = buffer(self.data.len());
        data.extend_from_slice(&self.data);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.data));
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::full(rows, cols, 0.0)
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut data = buffer(rows * cols);
        data.resize(rows * cols, value);
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for each element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Creates a `1x1` matrix holding a scalar.
    pub fn scalar(value: f32) -> Self {
        Matrix::from_vec(1, 1, vec![value])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `1x1` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `1x1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 matrix");
        self.data[0]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop contiguous for both
        // operands, which matters for the training throughput.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum with `rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut data = buffer(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds `rhs` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Scales all elements by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element (`f32::NEG_INFINITY` if empty).
    pub fn max(&self) -> f32 {
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "element-wise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut data = buffer(self.data.len());
        data.extend(self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let id = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).as_slice(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).as_slice(), &[3., 3., 3.]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1., -2., 3., 4.]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.max(), 4.0);
        assert!((a.norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn row_access() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// One test owns the process-wide free list at a time.
    static RECYCLER_TESTS: Mutex<()> = Mutex::new(());

    /// A matrix of `bytes` bytes, 64 columns wide.
    fn sized(bytes: usize, value: f32) -> Matrix {
        Matrix::full(bytes / (64 * 4), 64, value)
    }

    #[test]
    fn recycler_bounds_are_pinned() {
        assert_eq!(RECYCLE_MIN_BYTES, 64 << 10);
        assert_eq!(RECYCLE_CAP_BYTES, 32 << 20);
    }

    #[test]
    fn recycled_buffers_are_rewritten_in_full() {
        let _serial = RECYCLER_TESTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *free_list() = FreeList {
            bufs: Vec::new(),
            bytes: 0,
        };
        let ones = sized(2 * RECYCLE_MIN_BYTES, 1.0);
        let ptr = ones.as_slice().as_ptr();
        drop(ones);
        let zeros = sized(2 * RECYCLE_MIN_BYTES, 0.0);
        assert_eq!(zeros.as_slice().as_ptr(), ptr, "the buffer was not reused");
        assert!(zeros.as_slice().iter().all(|&v| v == 0.0));
        // a smaller request reuses the larger buffer and reads only its own
        // values
        drop(zeros);
        let small = Matrix::zeros(RECYCLE_MIN_BYTES / 4 + 1, 1);
        assert_eq!(small.as_slice().as_ptr(), ptr);
        assert_eq!(small.len(), RECYCLE_MIN_BYTES / 4 + 1);
        assert!(small.as_slice().iter().all(|&v| v == 0.0));
        drop(small);
        let a = Matrix::from_fn(RECYCLE_MIN_BYTES / 4, 1, |r, _| r as f32);
        let copy = a.clone();
        assert_eq!(copy.as_slice().as_ptr(), ptr);
        assert_eq!(copy, a);
        drop(copy);
        assert_eq!(a.map(|v| v + 1.0).as_slice()[7], 8.0);
        assert_eq!(a.add(&a).as_slice()[7], 14.0);
        assert_eq!(a.into_vec().len(), RECYCLE_MIN_BYTES / 4);
    }

    #[test]
    fn small_buffers_are_not_recycled() {
        let _serial = RECYCLER_TESTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let before = free_list().bytes;
        drop(sized(RECYCLE_MIN_BYTES / 2, 1.0));
        assert_eq!(free_list().bytes, before);
    }

    #[test]
    fn recycled_bytes_never_exceed_the_cap() {
        let _serial = RECYCLER_TESTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let live: Vec<Matrix> = (0..48).map(|_| sized(1 << 20, 1.0)).collect();
        for m in live {
            drop(m);
            let list = free_list();
            assert!(list.bytes <= RECYCLE_CAP_BYTES, "{} bytes", list.bytes);
            let held: usize = list.bufs.iter().map(byte_size).sum();
            assert_eq!(held, list.bytes);
            assert!(list.bufs.is_sorted_by_key(|b| b.capacity()));
        }
        assert!(free_list().bytes > RECYCLE_CAP_BYTES - (1 << 20));
    }

    #[test]
    fn a_poisoned_free_list_keeps_working() {
        let _serial = RECYCLER_TESTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let _ = std::thread::spawn(|| {
            let _list = FREE.lock();
            panic!("poisoning the free list");
        })
        .join();
        assert!(FREE.is_poisoned());
        drop(sized(RECYCLE_MIN_BYTES, 1.0));
        let zeros = sized(RECYCLE_MIN_BYTES, 0.0);
        assert!(zeros.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Matrix::scalar(7.5).item(), 7.5);
    }
}
