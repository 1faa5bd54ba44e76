//! Row-major dense matrix container.

use crate::{SparseError, Value};
use rand::Rng;

/// A row-major dense matrix of [`Value`]s.
///
/// `Dense` is the container used for the dense operands of SpMM/SDDMM (the
/// `B` matrix, streamed `A` in SDDMM) and for all kernel outputs, so that
/// results from simulators and reference implementations compare with
/// `assert_eq!`.
///
/// # Examples
///
/// ```
/// use canon_sparse::Dense;
/// let mut m = Dense::zeros(2, 3);
/// m[(0, 1)] = 7;
/// assert_eq!(m[(0, 1)], 7);
/// assert_eq!(m.row(0), &[0, 7, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<Value>,
}

impl Dense {
    /// Creates a `rows`×`cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Value>) -> Result<Self, SparseError> {
        if data.len() != rows * cols {
            return Err(SparseError::DimensionMismatch {
                context: format!(
                    "data length {} does not match {}x{} = {}",
                    data.len(),
                    rows,
                    cols,
                    rows * cols
                ),
            });
        }
        Ok(Dense { rows, cols, data })
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<Value>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Dense {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix with entries drawn uniformly from the INT8-friendly
    /// range `[-4, 4]`, excluding zero so that "dense" really means dense.
    pub fn random<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| {
                let v: Value = rng.gen_range(-4..4);
                if v >= 0 {
                    v + 1
                } else {
                    v
                }
            })
            .collect();
        Dense { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the underlying row-major storage.
    pub fn as_slice(&self) -> &[Value] {
        &self.data
    }

    /// A single row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[Value] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of a single row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [Value] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the element at `(r, c)` or `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<Value> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// The transpose of this matrix.
    pub fn transpose(&self) -> Dense {
        let mut t = Dense::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0).count()
    }

    /// Fraction of entries that are zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / self.data.len() as f64
    }

    /// Elementwise sum of two matrices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when shapes differ.
    pub fn checked_add(&self, other: &Dense) -> Result<Dense, SparseError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SparseError::DimensionMismatch {
                context: format!(
                    "{}x{} + {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl std::ops::Index<(usize, usize)> for Dense {
    type Output = Value;
    fn index(&self, (r, c): (usize, usize)) -> &Value {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Dense {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Value {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::seeded_rng;

    #[test]
    fn zeros_and_index() {
        let mut m = Dense::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 0);
        m[(2, 3)] = -5;
        assert_eq!(m[(2, 3)], -5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Dense::from_vec(2, 2, vec![1, 2, 3]).is_err());
        let m = Dense::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(m[(1, 0)], 3);
    }

    #[test]
    fn from_rows_builds_row_major() {
        let m = Dense::from_rows(&[vec![1, 2], vec![3, 4]]);
        assert_eq!(m.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(m.row(1), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_rejects_ragged() {
        let _ = Dense::from_rows(&[vec![1], vec![2, 3]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = seeded_rng(3);
        let m = Dense::random(5, 7, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(6, 4)], m[(4, 6)]);
    }

    #[test]
    fn random_is_fully_dense() {
        let mut rng = seeded_rng(9);
        let m = Dense::random(8, 8, &mut rng);
        assert_eq!(m.nnz(), 64);
        assert_eq!(m.sparsity(), 0.0);
        assert!(m.as_slice().iter().all(|&v| (-4..=4).contains(&v)));
    }

    #[test]
    fn checked_add_shapes() {
        let a = Dense::from_rows(&[vec![1, 2]]);
        let b = Dense::from_rows(&[vec![10, 20]]);
        assert_eq!(a.checked_add(&b).unwrap().row(0), &[11, 22]);
        let c = Dense::zeros(2, 2);
        assert!(a.checked_add(&c).is_err());
    }

    #[test]
    fn get_bounds() {
        let m = Dense::zeros(2, 2);
        assert_eq!(m.get(1, 1), Some(0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let m = Dense::zeros(2, 2);
        let _ = m[(0, 2)];
    }
}
