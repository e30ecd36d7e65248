//! Row-major dense matrix type.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major `f64` matrix.
///
/// This is the single weight/data container used across the workspace: DNN
/// layer weights, zonotope generator matrices, LP tableaus and Jacobian
/// bounds all use it.
///
/// # Example
///
/// ```
/// use covern_tensor::Matrix;
///
/// let a = Matrix::identity(2);
/// let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a.matmul(&b), b);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow usize");
        Self { rows, cols, data: vec![0.0; len] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has inconsistent length");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must match shape");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
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

    /// Reads the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j]
    }

    /// Writes the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// Allocates; hot paths that only need to *traverse* a column should use
    /// the non-allocating [`col_iter`](Self::col_iter) instead.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn col(&self, j: usize) -> Vec<f64> {
        self.col_iter(j).collect()
    }

    /// Non-allocating view of column `j`: iterates the column top to bottom
    /// by striding the row-major buffer.
    ///
    /// This is the allocation-free alternative to [`col`](Self::col) for hot
    /// paths (operator norms, transpose packing) that walk columns without
    /// needing an owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    ///
    /// # Example
    ///
    /// ```
    /// use covern_tensor::Matrix;
    ///
    /// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// assert_eq!(m.col_iter(1).collect::<Vec<_>>(), vec![2.0, 4.0]);
    /// ```
    #[inline]
    pub fn col_iter(&self, j: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        assert!(j < self.cols, "column {j} out of bounds");
        self.data.iter().skip(j).step_by(self.cols.max(1)).copied().take(self.rows)
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi = acc;
        }
        y
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transposed dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            let row = self.row(i);
            for (j, a) in row.iter().enumerate() {
                y[j] += a * xi;
            }
        }
        y
    }

    /// Matrix product `self * other`.
    ///
    /// This is the easy-to-audit naive triple loop, kept as the differential
    /// baseline for [`crate::kernels::matmul`] (which is bit-identical on
    /// finite inputs and what the hot paths use).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.get(k, j);
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Entry-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Maximum absolute entry (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Entry-wise maximum absolute difference with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data.iter().zip(other.data.iter()).fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Entry-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in add");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Entry-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in sub");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Deserialize for Matrix {
    /// Decodes the `rows`/`cols`/`data` shape, rejecting a buffer that
    /// does not hold exactly `rows × cols` entries — the condition
    /// [`Matrix::from_vec`] asserts — so no decoded matrix can index out
    /// of bounds.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let rows = usize::from_value(value.field("rows")?)?;
        let cols = usize::from_value(value.field("cols")?)?;
        let data = Vec::<f64>::from_value(value.field("data")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DeError::custom(format!(
                "matrix data has {} entries, expected {rows} x {cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(i, j))?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_has_shape_and_zero_entries() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matvec_is_noop() {
        let m = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn from_rows_roundtrips_entries() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matvec_transposed_matches_transpose_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = vec![1.0, -1.0];
        assert_eq!(a.matvec_transposed(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_are_inverse() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, -0.5], &[1.5, -1.5]]);
        let s = &a + &b;
        assert_eq!(&s - &b, a);
    }

    #[test]
    fn max_abs_and_frobenius() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a}").is_empty());
    }

    fn small_matrix() -> impl Strategy<Value = Matrix> {
        (1usize..5, 1usize..5).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-10.0f64..10.0, r * c)
                .prop_map(move |data| Matrix::from_vec(r, c, data))
        })
    }

    proptest! {
        #[test]
        fn prop_matmul_identity_left(m in small_matrix()) {
            let id = Matrix::identity(m.rows());
            prop_assert_eq!(id.matmul(&m), m);
        }

        #[test]
        fn prop_transpose_involution(m in small_matrix()) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_matvec_linear(m in small_matrix(), s in -3.0f64..3.0) {
            let x: Vec<f64> = (0..m.cols()).map(|i| i as f64 - 1.0).collect();
            let sx: Vec<f64> = x.iter().map(|v| v * s).collect();
            let y1 = m.matvec(&sx);
            let y2: Vec<f64> = m.matvec(&x).iter().map(|v| v * s).collect();
            for (a, b) in y1.iter().zip(y2.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_matvec_transposed_consistent(m in small_matrix()) {
            let x: Vec<f64> = (0..m.rows()).map(|i| (i as f64) * 0.5 - 1.0).collect();
            let y1 = m.matvec_transposed(&x);
            let y2 = m.transpose().matvec(&x);
            for (a, b) in y1.iter().zip(y2.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
