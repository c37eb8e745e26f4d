//! Householder QR decomposition (the kernel behind the paper's QR
//! discussion in Section 3.2; its parallelization is "analogous" to LU).

use crate::gemm::matmul;
use crate::{sub_scaled, Matrix};

/// QR factorization `A = Q * R` of an `m x n` matrix with `m >= n`,
/// computed with Householder reflections.
#[derive(Clone, Debug)]
pub struct QrFactors {
    /// Householder vectors stored below the diagonal, `R` on and above.
    packed: Matrix,
    /// Householder scalars `tau_k` (reflection `H = I - tau * v v^T`).
    taus: Vec<f64>,
}

impl QrFactors {
    /// The packed storage: Householder vectors below the diagonal, `R`
    /// on and above (the wire format of the distributed executor).
    pub fn packed(&self) -> &Matrix {
        &self.packed
    }

    /// The Householder scalars, one per reflector.
    pub fn taus(&self) -> &[f64] {
        &self.taus
    }

    /// Rebuilds factors from their packed representation (the receiving
    /// side of the distributed executor's reflector broadcast).
    ///
    /// # Panics
    /// Panics if `packed` has fewer rows than columns or `taus` has a
    /// length other than the column count.
    pub fn from_parts(packed: Matrix, taus: Vec<f64>) -> Self {
        assert!(
            packed.rows() >= packed.cols(),
            "QrFactors::from_parts: need rows >= cols"
        );
        assert_eq!(
            taus.len(),
            packed.cols(),
            "QrFactors::from_parts: one tau per column"
        );
        QrFactors { packed, taus }
    }

    /// The `m x n` "thin" orthogonal factor `Q1` (so `A = Q1 * R`).
    pub fn thin_q(&self) -> Matrix {
        let (m, n) = self.packed.shape();
        let mut q = Matrix::from_fn(m, n, |i, j| if i == j { 1.0 } else { 0.0 });
        // Accumulate H_0 H_1 ... H_{n-1} applied to the leading identity,
        // from the last reflector backwards.
        let (mut v, mut w) = (vec![0.0; m], vec![0.0; n]);
        for k in (0..n).rev() {
            self.house_vector(k, &mut v);
            apply_reflector_left(&v, self.taus[k], &mut q, k, 0, &mut w);
        }
        q
    }

    /// The `n x n` upper-triangular factor `R`.
    pub fn r(&self) -> Matrix {
        let n = self.packed.cols();
        Matrix::from_fn(n, n, |i, j| if i <= j { self.packed[(i, j)] } else { 0.0 })
    }

    /// Applies `Q^T` to `b` (useful for least squares: solve `R x = (Q^T b)_[0..n]`).
    pub fn qt_mul(&self, b: &Matrix) -> Matrix {
        let (m, n) = self.packed.shape();
        let mut x = b.clone();
        let (mut v, mut w) = (vec![0.0; m], vec![0.0; x.cols()]);
        for k in 0..n {
            self.house_vector(k, &mut v);
            apply_reflector_left(&v, self.taus[k], &mut x, k, 0, &mut w);
        }
        x
    }

    /// Solves the least-squares problem `min |A x - b|_2` via `R x = Q^T b`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Vec<f64> {
        let (m, n) = self.packed.shape();
        assert_eq!(b.len(), m, "solve_least_squares: rhs length mismatch");
        let bm = Matrix::from_fn(m, 1, |i, _| b[i]);
        let qtb = self.qt_mul(&bm);
        let r = self.r();
        let rhs = Matrix::from_fn(n, 1, |i, _| qtb[(i, 0)]);
        let x = crate::tri::solve_upper(&r, &rhs);
        (0..n).map(|i| x[(i, 0)]).collect()
    }

    /// Gathers the Householder vector of reflector `k` into `v[k..]`:
    /// unit leading 1 followed by the packed subdiagonal entries.
    fn house_vector(&self, k: usize, v: &mut [f64]) {
        v[k] = 1.0;
        for i in k + 1..self.packed.rows() {
            v[i] = self.packed[(i, k)];
        }
    }
}

/// Applies `H = I - tau v v^T` on the left to rows `k..m`, columns
/// `c0..` of `x`, as two sweeps along the rows of `x`: `w = v^T x`
/// accumulated row by row (each `w[j]` still sums `v_i * x_ij` from 0.0
/// for increasing `i`), then `x_i -= v_i * (tau w)`. `w` is scratch of
/// `x.cols()` entries.
fn apply_reflector_left(v: &[f64], tau: f64, x: &mut Matrix, k: usize, c0: usize, w: &mut [f64]) {
    if tau == 0.0 {
        return;
    }
    let w = &mut w[c0..];
    w.fill(0.0);
    for i in k..x.rows() {
        for (wj, xij) in w.iter_mut().zip(&x.row(i)[c0..]) {
            *wj += v[i] * xij;
        }
    }
    for wj in w.iter_mut() {
        *wj *= tau;
    }
    for i in k..x.rows() {
        sub_scaled(&mut x.row_mut(i)[c0..], v[i], w);
    }
}

/// Householder QR of an `m x n` matrix with `m >= n`.
///
/// # Panics
/// Panics if `m < n`.
pub fn qr_factor(a: &Matrix) -> QrFactors {
    let (m, n) = a.shape();
    assert!(m >= n, "qr_factor: need rows >= cols");
    let mut packed = a.clone();
    let mut taus = vec![0.0; n];
    let (mut v, mut w) = (vec![0.0; m], vec![0.0; n]);

    for k in 0..n {
        // Build the Householder reflector annihilating packed[k+1.., k],
        // from one gather of column k.
        let mut normx = 0.0;
        for i in k..m {
            v[i] = packed[(i, k)];
            normx += v[i] * v[i];
        }
        normx = normx.sqrt();
        if normx == 0.0 {
            continue;
        }
        let alpha = v[k];
        let beta = -alpha.signum() * normx;
        let tau = (beta - alpha) / beta;
        let scale = alpha - beta; // v = x - beta e1, normalized so v[k] = 1
        v[k] = 1.0;
        for vi in &mut v[k + 1..] {
            *vi /= scale;
        }
        // Apply H to the trailing columns k..n only: columns to the left
        // hold earlier Householder vectors and must not be touched.
        apply_reflector_left(&v, tau, &mut packed, k, k, &mut w);
        packed[(k, k)] = beta;
        // Store v below the diagonal.
        for i in k + 1..m {
            packed[(i, k)] = v[i];
        }
        taus[k] = tau;
    }
    QrFactors { packed, taus }
}

/// Convenience: returns `(Q_thin, R)` with `A = Q_thin * R`.
pub fn qr(a: &Matrix) -> (Matrix, Matrix) {
    let f = qr_factor(a);
    (f.thin_q(), f.r())
}

/// Right-looking *blocked* QR with panel width `b`: factor a panel of
/// `b` columns with Householder reflections, then apply the aggregated
/// reflectors to the trailing columns — the same phase structure the
/// parallel algorithm distributes (Section 3.2.2 notes QR parallelizes
/// like LU).
///
/// Returns `(Q_thin, R)` with `A = Q_thin * R`. Numerically equivalent
/// to [`qr`] up to reflector sign conventions; the factorization
/// product and `R`'s diagonal magnitudes agree.
///
/// # Panics
/// Panics if `m < n` or `b == 0`.
pub fn qr_blocked(a: &Matrix, b: usize) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    assert!(m >= n, "qr_blocked: need rows >= cols");
    assert!(b > 0, "qr_blocked: block size must be positive");
    let mut w = a.clone();
    // Full orthogonal accumulator: Q = Q_panel1 * Q_panel2 * ...
    let mut qfull = Matrix::identity(m);

    let mut k = 0;
    while k < n {
        let kb = b.min(n - k);
        // Factor the panel (rows k..m, columns k..k+kb).
        let panel = w.block(k, k, m - k, kb);
        let pf = qr_factor(&panel);
        // Apply Q_panel^T to the trailing columns.
        if k + kb < n {
            let trailing = w.block(k, k + kb, m - k, n - k - kb);
            w.set_block(k, k + kb, &pf.qt_mul(&trailing));
        }
        // Write the panel's R (zeros below its diagonal).
        let r_panel = pf.r();
        for i in 0..m - k {
            for j in 0..kb {
                w[(k + i, k + j)] = if i < kb && i <= j {
                    r_panel[(i, j)]
                } else {
                    0.0
                };
            }
        }
        // Accumulate Q := Q * diag(I_k, Q_panel). Since the reflectors
        // are symmetric, Q[:, k..] * Q_panel = (Q_panel^T * Q[:, k..]^T)^T.
        let qcols = qfull.block(0, k, m, m - k);
        let updated = pf.qt_mul(&qcols.transpose()).transpose();
        qfull.set_block(0, k, &updated);
        k += kb;
    }

    let q_thin = qfull.block(0, 0, m, n);
    let r = Matrix::from_fn(n, n, |i, j| if i <= j { w[(i, j)] } else { 0.0 });
    (q_thin, r)
}

/// Frobenius-norm reconstruction error `|A - Q R|_F`.
pub fn qr_residual(a: &Matrix) -> f64 {
    let (q, r) = qr(a);
    a.sub(&matmul(&q, &r)).frobenius_norm()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0xA24BAED4963EE407).wrapping_add(7);
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn reconstruction() {
        for &(m, n) in &[(1, 1), (4, 4), (8, 5), (20, 20), (35, 12)] {
            let a = test_matrix(m, n, (m * 100 + n) as u64);
            assert!(qr_residual(&a) < 1e-9, "m={} n={}", m, n);
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = test_matrix(10, 6, 42);
        let (q, _) = qr(&a);
        let qtq = matmul(&q.transpose(), &q);
        assert!(qtq.approx_eq(&Matrix::identity(6), 1e-10));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = test_matrix(7, 7, 9);
        let (_, r) = qr(&a);
        for i in 0..7 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn least_squares_exact_system() {
        let a = test_matrix(6, 6, 17);
        let x0: Vec<f64> = (0..6).map(|i| i as f64 * 0.5 - 1.0).collect();
        let b = crate::gemm::matvec(&a, &x0);
        let x = qr_factor(&a).solve_least_squares(&b);
        for i in 0..6 {
            assert!((x[i] - x0[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn least_squares_overdetermined_residual_orthogonal() {
        let a = test_matrix(10, 3, 23);
        let b: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let x = qr_factor(&a).solve_least_squares(&b);
        // Residual must be orthogonal to the column space: A^T (A x - b) = 0.
        let ax = crate::gemm::matvec(&a, &x);
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let atr = crate::gemm::matvec(&a.transpose(), &resid);
        for v in atr {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn blocked_qr_reconstructs_and_is_orthonormal() {
        for &(m, n) in &[(6, 6), (10, 7), (16, 16), (13, 5)] {
            for b in [1, 2, 3, 8] {
                let a = test_matrix(m, n, (m * 100 + n + b) as u64);
                let (q, r) = qr_blocked(&a, b);
                assert!(
                    matmul(&q, &r).approx_eq(&a, 1e-9),
                    "m={} n={} b={}",
                    m,
                    n,
                    b
                );
                assert!(
                    matmul(&q.transpose(), &q).approx_eq(&Matrix::identity(n), 1e-9),
                    "Q not orthonormal at m={} n={} b={}",
                    m,
                    n,
                    b
                );
                // R upper triangular.
                for i in 0..n {
                    for j in 0..i {
                        assert_eq!(r[(i, j)], 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_qr_r_matches_unblocked_up_to_sign() {
        let a = test_matrix(9, 6, 5);
        let (_, r0) = qr(&a);
        let (_, r1) = qr_blocked(&a, 2);
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    (r0[(i, j)].abs() - r1[(i, j)].abs()).abs() < 1e-9,
                    "R magnitude mismatch at ({}, {})",
                    i,
                    j
                );
            }
        }
    }

    #[test]
    fn rank_deficient_column_handled() {
        // Second column is zero: reflector is skipped (tau = 0), R has a
        // zero diagonal there, but reconstruction still holds.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0],
            vec![3.0, 0.0, 4.0],
            vec![5.0, 0.0, 6.0],
        ]);
        assert!(qr_residual(&a) < 1e-10);
    }
}
