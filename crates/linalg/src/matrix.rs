//! Dense row-major matrix of `f64` values.
//!
//! This is the storage substrate used throughout the workspace: the
//! load-balancing heuristic applies an SVD to the inverse cycle-time
//! matrix, and the executor runs real GEMM / LU / QR kernels on
//! [`Matrix`] blocks.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows x cols` matrix of `f64`, stored row-major.
///
/// Indexing is `m[(i, j)]` with `0 <= i < rows`, `0 <= j < cols`.
///
/// ```
/// use hetgrid_linalg::Matrix;
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices. All rows must have equal length.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix taking ownership of a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` iff the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        // Copied in 8 x 8 tiles — one cache line of `f64` each way — so
        // the eight strided lines a tile reads are used up before they
        // can be evicted, whatever the row length.
        const TILE: usize = 8;
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i0 in (0..t.rows).step_by(TILE) {
            for j0 in (0..t.cols).step_by(TILE) {
                for i in i0..(i0 + TILE).min(t.rows) {
                    for j in j0..(j0 + TILE).min(t.cols) {
                        t.data[i * t.cols + j] = self.data[j * self.cols + i];
                    }
                }
            }
        }
        t
    }

    /// Transposes a square matrix where it lies, without a second buffer.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn transpose_in_place(&mut self) {
        assert!(self.is_square(), "transpose_in_place: not square");
        // 8 x 8 tiles swapped pairwise across the diagonal, for the
        // reason `transpose` copies in tiles.
        const TILE: usize = 8;
        let n = self.rows;
        for i0 in (0..n).step_by(TILE) {
            for j0 in (i0..n).step_by(TILE) {
                for i in i0..(i0 + TILE).min(n) {
                    // A diagonal tile swaps its own upper half only.
                    for j in j0.max(i + 1)..(j0 + TILE).min(n) {
                        self.data.swap(i * n + j, j * n + i);
                    }
                }
            }
        }
    }

    /// Swap rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Extracts the sub-matrix of `nr x nc` starting at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block out of bounds"
        );
        let mut data = Vec::with_capacity(nr * nc);
        for i in r0..r0 + nr {
            data.extend_from_slice(&self.row(i)[c0..c0 + nc]);
        }
        Matrix::from_vec(nr, nc, data)
    }

    /// Writes `b` into this matrix starting at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, r0: usize, c0: usize, b: &Matrix) {
        assert!(
            r0 + b.rows <= self.rows && c0 + b.cols <= self.cols,
            "set_block out of bounds"
        );
        for i in 0..b.rows {
            self.row_mut(r0 + i)[c0..c0 + b.cols].copy_from_slice(b.row(i));
        }
    }

    /// Overwrites this matrix with the contents of `src` without
    /// reallocating — the pooled-buffer analogue of `clone()`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "copy_from: shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Element-wise map producing a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Returns `self * s` for a scalar `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Returns `self + other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Frobenius norm `sqrt(sum of squares)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry (the max norm). Zero for empty matrices.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Mean of all entries. Zero for empty matrices.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// `true` iff every corresponding entry differs by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn transpose_in_place_is_transpose() {
        for n in [0, 1, 7, 8, 19] {
            let m = Matrix::from_fn(n, n, |i, j| (i * n + j) as f64);
            let mut t = m.clone();
            t.transpose_in_place();
            assert_eq!(t, m.transpose(), "n = {n}");
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (5, 3));
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = m.block(1, 2, 2, 2);
        assert_eq!(b.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
        let mut n = Matrix::zeros(4, 4);
        n.set_block(1, 2, &b);
        assert_eq!(n[(2, 3)], 11.0);
        assert_eq!(n[(0, 0)], 0.0);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[3.0, 4.0]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn arithmetic_and_norms() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.mean(), 3.5);
        let b = a.add(&a).sub(&a);
        assert!(b.approx_eq(&a, 1e-12));
        assert!(a.scale(2.0).approx_eq(&a.add(&a), 1e-12));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_out_of_bounds_panics() {
        Matrix::zeros(2, 2).block(1, 1, 2, 2);
    }
}
