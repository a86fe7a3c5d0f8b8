//! Per-output target standardization.

/// Column-wise z-score normalizer for regression targets.
///
/// Regression in raw log space still spans several units; standardizing to
/// zero mean / unit variance keeps initial losses and gradients O(1), which
/// the GNN training loops rely on.
///
/// # Example
///
/// ```
/// use gnn::Normalizer;
/// let norm = Normalizer::fit(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
/// let mut y = vec![2.0, 20.0];
/// norm.transform(&mut y);
/// assert!(y[0].abs() < 1e-6 && y[1].abs() < 1e-6); // both are the means
/// norm.inverse(&mut y);
/// assert!((y[0] - 2.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Normalizer {
    /// Identity normalizer of the given width (used before fitting).
    pub fn identity(dim: usize) -> Self {
        Normalizer {
            mean: vec![0.0; dim],
            std: vec![1.0; dim],
        }
    }

    /// Fits means and standard deviations column-wise.
    ///
    /// Degenerate columns (zero variance, or empty input) get `std = 1`.
    pub fn fit(rows: &[Vec<f32>]) -> Self {
        let Some(first) = rows.first() else {
            return Normalizer::identity(0);
        };
        let dim = first.len();
        let n = rows.len() as f32;
        let mut mean = vec![0.0f32; dim];
        for r in rows {
            for (m, v) in mean.iter_mut().zip(r) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0f32; dim];
        for r in rows {
            for ((s, v), m) in std.iter_mut().zip(r).zip(&mean) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt();
            if *s < 1e-6 {
                *s = 1.0;
            }
        }
        Normalizer { mean, std }
    }

    /// Fits a normalizer to the target rows of `samples` and standardizes
    /// those rows in place.
    pub fn fit_targets<G>(samples: &mut [(G, Vec<f32>)]) -> Self {
        let norm = Normalizer::fit(&samples.iter().map(|(_, y)| y.clone()).collect::<Vec<_>>());
        for (_, y) in samples.iter_mut() {
            norm.transform(y);
        }
        norm
    }

    /// Builds a normalizer from explicit statistics.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn from_stats(mean: Vec<f32>, std: Vec<f32>) -> Self {
        assert_eq!(mean.len(), std.len(), "mean/std width mismatch");
        let std = std
            .into_iter()
            .map(|s| if s.abs() < 1e-6 { 1.0 } else { s })
            .collect();
        Normalizer { mean, std }
    }

    /// Column means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Column standard deviations.
    pub fn std(&self) -> &[f32] {
        &self.std
    }

    /// Width of the normalizer.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardizes a row in place.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn transform(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.dim(), "normalizer width mismatch");
        for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = (*v - m) / s;
        }
    }

    /// Undoes [`Normalizer::transform`] in place.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn inverse(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.dim(), "normalizer width mismatch");
        for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = *v * s + m;
        }
    }

    /// Un-standardizes a single column value.
    pub fn inverse_one(&self, col: usize, v: f32) -> f32 {
        v * self.std[col] + self.mean[col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let norm = Normalizer::fit(&[vec![1.0, -5.0], vec![3.0, 5.0], vec![5.0, 0.0]]);
        let original = vec![2.5, 4.0];
        let mut row = original.clone();
        norm.transform(&mut row);
        norm.inverse(&mut row);
        for (a, b) in row.iter().zip(&original) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn standardized_stats() {
        let rows = vec![vec![10.0], vec![20.0], vec![30.0], vec![40.0]];
        let norm = Normalizer::fit(&rows);
        let transformed: Vec<f32> = rows
            .iter()
            .map(|r| {
                let mut x = r.clone();
                norm.transform(&mut x);
                x[0]
            })
            .collect();
        let mean: f32 = transformed.iter().sum::<f32>() / 4.0;
        let var: f32 = transformed
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn degenerate_column_keeps_unit_std() {
        let norm = Normalizer::fit(&[vec![7.0], vec![7.0]]);
        let mut row = vec![9.0];
        norm.transform(&mut row);
        assert!((row[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn identity_passthrough() {
        let norm = Normalizer::identity(2);
        let mut row = vec![3.0, -4.0];
        norm.transform(&mut row);
        assert_eq!(row, vec![3.0, -4.0]);
    }
}
