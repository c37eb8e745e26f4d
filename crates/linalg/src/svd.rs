//! Singular value decomposition.
//!
//! The polynomial heuristic of Section 4.4.2 needs the *largest* singular
//! triple of the inverse cycle-time matrix `T^inv`: the best rank-1
//! approximation of `T^inv` (in the l2 sense) is `s * a * b^T` where `s`
//! is the largest singular value and `a`, `b` the associated singular
//! vectors. Two routines are provided:
//!
//! * [`svd`] — full one-sided Jacobi SVD (robust, good accuracy for the
//!   small matrices that arise from processor grids);
//! * [`top_singular_triple`] — fast power iteration on `A^T A`, which is
//!   what the heuristic calls in its inner loop.

use crate::gemm::{matmul, matvec};
use crate::Matrix;

/// Full SVD `A = U * diag(s) * V^T` of an `m x n` matrix (`m >= n`).
#[derive(Clone, Debug)]
pub struct Svd {
    /// `m x n` matrix with orthonormal columns.
    pub u: Matrix,
    /// Singular values, non-increasing, length `n`.
    pub s: Vec<f64>,
    /// `n x n` orthogonal matrix.
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs `U * diag(s) * V^T`.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.s.len();
        let us = Matrix::from_fn(self.u.rows(), n, |i, j| self.u[(i, j)] * self.s[j]);
        matmul(&us, &self.v.transpose())
    }

    /// Best rank-`k` approximation in the l2 / Frobenius sense
    /// (Eckart–Young), truncating the SVD to the top `k` triples.
    pub fn rank_k(&self, k: usize) -> Matrix {
        let k = k.min(self.s.len());
        let us = Matrix::from_fn(self.u.rows(), k, |i, j| self.u[(i, j)] * self.s[j]);
        let vk = Matrix::from_fn(self.v.rows(), k, |i, j| self.v[(i, j)]);
        matmul(&us, &vk.transpose())
    }
}

/// One-sided Jacobi SVD of an `m x n` matrix with `m >= n`.
///
/// Sweeps rotate column pairs of a working copy of `A` until all pairs are
/// numerically orthogonal; the column norms are then the singular values.
///
/// # Panics
/// Panics if `m < n`. (Transpose first for wide matrices.)
pub fn svd(a: &Matrix) -> Svd {
    let (m, n) = a.shape();
    assert!(m >= n, "svd: need rows >= cols; transpose the input");
    let mut w = a.clone(); // becomes U * diag(s)
    let mut v = Matrix::identity(n);

    let eps = 1e-14;
    let max_sweeps = 60;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                // Gram entries for the (p, q) column pair.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if apq.abs() <= eps * (app * aqq).sqrt() || apq == 0.0 {
                    continue;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                // Jacobi rotation zeroing the off-diagonal Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    w[(i, p)] = c * wp - s * wq;
                    w[(i, q)] = s * wp + c * wq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off < eps {
            break;
        }
    }

    // Extract singular values (column norms) and normalize U.
    let mut triples: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let norm = (0..m).map(|i| w[(i, j)] * w[(i, j)]).sum::<f64>().sqrt();
            (norm, j)
        })
        .collect();
    triples.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    let mut u = Matrix::zeros(m, n);
    let mut s = Vec::with_capacity(n);
    let mut vs = Matrix::zeros(n, n);
    for (out_j, &(norm, j)) in triples.iter().enumerate() {
        s.push(norm);
        if norm > 0.0 {
            for i in 0..m {
                u[(i, out_j)] = w[(i, j)] / norm;
            }
        } else {
            // Zero singular value: leave a zero column (still a valid
            // factorization; callers needing a full basis can orthogonalize).
            u[(out_j.min(m - 1), out_j)] = 0.0;
        }
        for i in 0..n {
            vs[(i, out_j)] = v[(i, j)];
        }
    }
    Svd { u, s, v: vs }
}

/// Largest singular triple `(s, a, b)` of `A` such that `s * a * b^T` is
/// the best rank-1 approximation of `A`: power iteration on `A^T A`.
///
/// For matrices with positive entries (like `T^inv`), the returned vectors
/// are normalized to be entrywise non-negative (Perron–Frobenius), which
/// is what the load-balancing heuristic requires for `r_i`, `c_j` to be
/// meaningful block counts.
///
/// Returns `(s, u, v)` with `|u| = |v| = 1` and `s >= 0`.
pub fn top_singular_triple(a: &Matrix) -> (f64, Vec<f64>, Vec<f64>) {
    let (m, n) = a.shape();
    assert!(m > 0 && n > 0, "top_singular_triple: empty matrix");
    let at = a.transpose();
    // Deterministic, strictly positive start so the iteration cannot be
    // orthogonal to a non-negative dominant vector.
    let mut v: Vec<f64> = (0..n).map(|j| 1.0 + (j as f64) * 1e-3).collect();
    normalize(&mut v);

    let mut s_prev = 0.0;
    for _ in 0..10_000 {
        let u_raw = matvec(a, &v);
        let mut w = matvec(&at, &u_raw);
        let s = normalize(&mut w);
        v = w;
        let s_now = s.sqrt(); // |A^T A v| ~ sigma^2
        if (s_now - s_prev).abs() <= 1e-15 * s_now.max(1.0) {
            break;
        }
        s_prev = s_now;
    }

    let mut u = matvec(a, &v);
    let sigma = normalize(&mut u);
    // Fix signs: prefer non-negative dominant vectors.
    if u.iter().sum::<f64>() < 0.0 {
        for x in &mut u {
            *x = -*x;
        }
        for x in &mut v {
            *x = -*x;
        }
    }
    (sigma, u, v)
}

/// Normalizes `v` to unit 2-norm in place, returning the original norm.
fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0xD1342543DE82EF95).wrapping_add(3);
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn svd_reconstructs() {
        for &(m, n) in &[(1, 1), (3, 3), (8, 5), (12, 12), (20, 7)] {
            let a = test_matrix(m, n, (m * 31 + n) as u64);
            let d = svd(&a);
            assert!(
                d.reconstruct().approx_eq(&a, 1e-9),
                "reconstruction failed for {}x{}",
                m,
                n
            );
        }
    }

    #[test]
    fn svd_orthonormality_and_order() {
        let a = test_matrix(9, 6, 77);
        let d = svd(&a);
        let utu = matmul(&d.u.transpose(), &d.u);
        let vtv = matmul(&d.v.transpose(), &d.v);
        assert!(utu.approx_eq(&Matrix::identity(6), 1e-9));
        assert!(vtv.approx_eq(&Matrix::identity(6), 1e-9));
        for w in d.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "singular values not sorted");
        }
    }

    #[test]
    fn svd_of_diagonal() {
        let a = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 5.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let d = svd(&a);
        assert!((d.s[0] - 5.0).abs() < 1e-12);
        assert!((d.s[1] - 3.0).abs() < 1e-12);
        assert!((d.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank1_truncation_is_best_rank1() {
        // For a rank-1 matrix, rank_k(1) must reproduce it exactly.
        let u = [1.0, 2.0, 3.0];
        let v = [4.0, 5.0];
        let a = Matrix::from_fn(3, 2, |i, j| u[i] * v[j]);
        let d = svd(&a);
        assert!(d.rank_k(1).approx_eq(&a, 1e-10));
        assert!(d.s[1].abs() < 1e-10);
    }

    #[test]
    fn power_iteration_matches_jacobi() {
        for seed in 0..5u64 {
            let a = test_matrix(6, 4, 1000 + seed).map(|x| x.abs() + 0.1);
            let d = svd(&a);
            let (s, u, v) = top_singular_triple(&a);
            assert!((s - d.s[0]).abs() < 1e-8 * d.s[0], "sigma mismatch");
            // Compare rank-1 approximations (sign-invariant).
            let r1 = Matrix::from_fn(6, 4, |i, j| s * u[i] * v[j]);
            assert!(r1.approx_eq(&d.rank_k(1), 1e-7));
        }
    }

    #[test]
    fn power_iteration_positive_matrix_gives_positive_vectors() {
        let a = test_matrix(5, 5, 321).map(|x| x.abs() + 0.05);
        let (_, u, v) = top_singular_triple(&a);
        assert!(u.iter().all(|&x| x > 0.0), "u not positive: {:?}", u);
        assert!(v.iter().all(|&x| x > 0.0), "v not positive: {:?}", v);
    }

    #[test]
    fn top_triple_of_rank1_is_exact() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let (s, u, v) = top_singular_triple(&a);
        let approx = Matrix::from_fn(4, 3, |i, j| s * u[i] * v[j]);
        assert!(approx.approx_eq(&a, 1e-10));
    }
}
