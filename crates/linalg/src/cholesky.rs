//! Cholesky factorization `A = L * L^T` of symmetric positive-definite
//! matrices, unblocked and right-looking blocked.
//!
//! ScaLAPACK ships LU, QR *and* Cholesky with the same right-looking
//! parallel structure (the paper's reference \[8]); the blocked variant
//! here mirrors that algorithm so the simulator can replay it on
//! heterogeneous grids.

use crate::gemm::{gemm_ranged, Left, Packs};
use crate::tri::{solve_lower, solve_lower_in_place};
use crate::{sub_scaled, Matrix};

/// Error: the matrix is not (numerically) positive definite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NotPositiveDefinite {
    /// Row/column at which the pivot became non-positive.
    pub index: usize,
    /// The offending pivot value.
    pub pivot: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} at index {}",
            self.pivot, self.index
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Unblocked Cholesky: returns the lower factor `L` with `A = L L^T`.
///
/// Only the lower triangle of `a` is read.
///
/// # Errors
/// [`NotPositiveDefinite`] if a pivot is not strictly positive.
///
/// # Panics
/// Panics if `a` is not square.
pub fn cholesky(a: &Matrix) -> Result<Matrix, NotPositiveDefinite> {
    assert!(a.is_square(), "cholesky: matrix must be square");
    let n = a.rows();
    // Right-looking over the lower triangle: once column j is final,
    // its products are subtracted from every entry to its right, one
    // row at a time. Entry (i, m) has l_ik * l_mk subtracted for
    // increasing k — the order of a left-looking dot product, so the
    // two formulations agree to the bit (`tests/kernel_bits.rs`).
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
    }
    // Column j below the diagonal, gathered as it is scaled.
    let mut col = vec![0.0; n];
    for j in 0..n {
        let d = l[(j, j)];
        if d <= 0.0 || !d.is_finite() {
            return Err(NotPositiveDefinite { index: j, pivot: d });
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in j + 1..n {
            let row = l.row_mut(i);
            row[j] /= dj;
            col[i] = row[j];
            sub_scaled(&mut row[j + 1..=i], col[i], &col[j + 1..=i]);
        }
    }
    Ok(l)
}

/// Right-looking *blocked* Cholesky with panel width `b`: factor the
/// diagonal block, triangular-solve the panel below it, then update the
/// trailing symmetric submatrix — the exact phase structure the parallel
/// algorithm distributes.
///
/// # Errors
/// [`NotPositiveDefinite`] as for [`cholesky`].
///
/// # Panics
/// Panics if `a` is not square or `b == 0`.
pub fn cholesky_blocked(a: &Matrix, b: usize) -> Result<Matrix, NotPositiveDefinite> {
    assert!(a.is_square(), "cholesky_blocked: matrix must be square");
    assert!(b > 0, "cholesky_blocked: block size must be positive");
    let n = a.rows();
    let mut w = a.clone();
    let packs = &mut Packs::default();
    let mut k = 0;
    while k < n {
        let kb = b.min(n - k);
        // Factor the diagonal block.
        let akk = w.block(k, k, kb, kb);
        let lkk = match cholesky(&akk) {
            Ok(l) => l,
            Err(e) => {
                return Err(NotPositiveDefinite {
                    index: k + e.index,
                    pivot: e.pivot,
                })
            }
        };
        w.set_block(k, k, &lkk);
        if k + kb < n {
            // Panel solve: L21 = A21 * L11^{-T}  <=>  L11 * L21^T = A21^T.
            let rest = n - k - kb;
            let mut l21t = w.block(k + kb, k, rest, kb).transpose();
            solve_lower_in_place(packs, &lkk, false, &mut l21t);
            let l21 = l21t.transpose();
            w.set_block(k + kb, k, &l21);
            // Symmetric trailing update, where it lies (the view from
            // element (k + kb, k + kb) on): A22 -= L21 * L21^T.
            let a22 = &mut w.as_mut_slice()[(k + kb) * (n + 1)..];
            let (l21, l21t) = (Left(&l21, 0..rest, 0..kb, false), l21t.as_slice());
            gemm_ranged(None, packs, -1.0, l21, (l21t, rest), (a22, n), rest);
        }
        k += kb;
    }
    // Zero the strict upper triangle (the factor is lower).
    let mut l = w;
    for i in 0..n {
        for j in i + 1..n {
            l[(i, j)] = 0.0;
        }
    }
    Ok(l)
}

/// Solves `A x = b` given the Cholesky factor `L` (`A = L L^T`).
pub fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(b.len(), n, "cholesky_solve: rhs length mismatch");
    let bm = Matrix::from_fn(n, 1, |i, _| b[i]);
    let y = solve_lower(l, &bm, false);
    let x = crate::tri::solve_upper(&l.transpose(), &y);
    (0..n).map(|i| x[(i, 0)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matvec};

    fn spd_matrix(n: usize, seed: u64) -> Matrix {
        // B^T B + n I is symmetric positive definite.
        let mut state = seed | 1;
        let b = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = matmul(&b.transpose(), &b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn reconstructs() {
        for n in [1, 2, 5, 12, 30] {
            let a = spd_matrix(n, n as u64);
            let l = cholesky(&a).unwrap();
            assert!(matmul(&l, &l.transpose()).approx_eq(&a, 1e-8), "n={}", n);
        }
    }

    #[test]
    fn factor_is_lower_with_positive_diagonal() {
        let a = spd_matrix(6, 9);
        let l = cholesky(&a).unwrap();
        for i in 0..6 {
            assert!(l[(i, i)] > 0.0);
            for j in i + 1..6 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn blocked_matches_unblocked() {
        for n in [7, 16, 25] {
            for b in [1, 3, 8, 64] {
                let a = spd_matrix(n, (n * b) as u64);
                let l0 = cholesky(&a).unwrap();
                let l1 = cholesky_blocked(&a, b).unwrap();
                assert!(l0.approx_eq(&l1, 1e-8), "n={} b={}", n, b);
            }
        }
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd_matrix(9, 3);
        let x0: Vec<f64> = (0..9).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let b = matvec(&a, &x0);
        let l = cholesky(&a).unwrap();
        let x = cholesky_solve(&l, &b);
        for i in 0..9 {
            assert!((x[i] - x0[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        let err = cholesky(&a).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(cholesky_blocked(&a, 1).is_err());
    }

    #[test]
    fn identity_is_its_own_factor() {
        let l = cholesky(&Matrix::identity(4)).unwrap();
        assert!(l.approx_eq(&Matrix::identity(4), 0.0));
    }

    #[test]
    fn only_lower_triangle_is_read() {
        let mut a = spd_matrix(5, 11);
        let l0 = cholesky(&a).unwrap();
        // Poison the strict upper triangle.
        for i in 0..5 {
            for j in i + 1..5 {
                a[(i, j)] = f64::NAN;
            }
        }
        let l1 = cholesky(&a).unwrap();
        assert!(l0.approx_eq(&l1, 0.0));
    }
}
