//! LU factorization with partial pivoting, in both unblocked and
//! right-looking blocked form.
//!
//! The right-looking blocked variant mirrors the ScaLAPACK algorithm the
//! paper parallelizes (Section 3.2.1): factor a panel of `b` columns,
//! apply the pivots, triangular-solve the `U` panel, then rank-`b` update
//! the trailing submatrix.

use crate::gemm::{gemm_ranged, Left, Packs};
use crate::tri::{solve_lower, solve_unit_lower_view};
use crate::{sub_scaled, Matrix};

/// Result of an LU factorization with partial pivoting: `P * A = L * U`.
#[derive(Clone, Debug)]
pub struct LuFactors {
    /// Packed factors: strictly-lower part holds `L` (unit diagonal
    /// implied), upper part holds `U`.
    pub lu: Matrix,
    /// Row permutation: row `i` of `P * A` is row `perm[i]` of `A`.
    pub perm: Vec<usize>,
    /// Number of row swaps performed (determines `det(P)`).
    pub swaps: usize,
}

/// Error type for singular systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Column at which no usable pivot was found.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

impl LuFactors {
    /// The factorization before its first step: `a` itself, unpermuted.
    fn start(a: &Matrix) -> Self {
        LuFactors {
            lu: a.clone(),
            perm: (0..a.rows()).collect(),
            swaps: 0,
        }
    }

    /// One step of Gaussian elimination: pivots column `col` (largest
    /// magnitude at or below the diagonal, swapped across the full row
    /// as in LAPACK's getrf), scales it into multipliers, and subtracts
    /// the multiples of the pivot row from columns `col + 1..end` of
    /// every row below it.
    fn eliminate(&mut self, col: usize, end: usize) -> Result<(), SingularMatrix> {
        let n = self.lu.rows();
        let (piv, pmax) = (col..n)
            .map(|i| (i, self.lu[(i, col)].abs()))
            .fold((col, -1.0), |acc, x| if x.1 > acc.1 { x } else { acc });
        if pmax <= f64::EPSILON * n as f64 {
            return Err(SingularMatrix { column: col });
        }
        if piv != col {
            self.lu.swap_rows(piv, col);
            self.perm.swap(piv, col);
            self.swaps += 1;
        }
        let (top, below) = self.lu.as_mut_slice().split_at_mut((col + 1) * n);
        let pivot_row = &top[col * n..];
        for row in below.chunks_exact_mut(n) {
            let m = row[col] / pivot_row[col];
            row[col] = m;
            sub_scaled(&mut row[col + 1..end], m, &pivot_row[col + 1..end]);
        }
        Ok(())
    }

    /// The unit-lower-triangular factor `L`.
    pub fn l(&self) -> Matrix {
        crate::tri::unit_lower_from_packed(&self.lu)
    }

    /// The upper-triangular factor `U`.
    pub fn u(&self) -> Matrix {
        crate::tri::upper_from_packed(&self.lu)
    }

    /// The permutation applied to a matrix: returns `P * m`.
    pub fn permute(&self, m: &Matrix) -> Matrix {
        Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(self.perm[i], j)])
    }

    /// Solves `A * x = b` (vector right-hand side).
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let bm = Matrix::from_fn(b.len(), 1, |i, _| b[i]);
        let x = self.solve(&bm);
        (0..x.rows()).map(|i| x[(i, 0)]).collect()
    }

    /// Solves `A * X = B` for a matrix right-hand side.
    pub fn solve(&self, b: &Matrix) -> Matrix {
        let pb = self.permute(b);
        let y = solve_lower(&self.lu, &pb, true);
        crate::tri::solve_upper(&self.lu, &y)
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let sign = if self.swaps.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        (0..self.lu.rows())
            .map(|i| self.lu[(i, i)])
            .product::<f64>()
            * sign
    }
}

/// Unblocked LU with partial pivoting.
///
/// # Errors
/// Returns [`SingularMatrix`] if a pivot column is (numerically) zero.
///
/// # Panics
/// Panics if `a` is not square.
pub fn lu_factor(a: &Matrix) -> Result<LuFactors, SingularMatrix> {
    assert!(a.is_square(), "lu_factor: matrix must be square");
    let n = a.rows();
    let mut f = LuFactors::start(a);
    for k in 0..n {
        f.eliminate(k, n)?;
    }
    Ok(f)
}

/// Right-looking *blocked* LU with partial pivoting and panel width `b`.
///
/// Numerically equivalent to [`lu_factor`]; structured exactly like the
/// parallel algorithm: panel factorization, pivot application, `U`-panel
/// triangular solve, rank-`b` trailing update via GEMM.
///
/// # Errors
/// Returns [`SingularMatrix`] if a pivot column is (numerically) zero.
///
/// # Panics
/// Panics if `a` is not square or `b == 0`.
pub fn lu_factor_blocked(a: &Matrix, b: usize) -> Result<LuFactors, SingularMatrix> {
    assert!(a.is_square(), "lu_factor_blocked: matrix must be square");
    assert!(b > 0, "lu_factor_blocked: block size must be positive");
    let n = a.rows();
    let mut f = LuFactors::start(a);
    let packs = &mut Packs::default();

    let mut k = 0;
    while k < n {
        let kb = b.min(n - k);
        // --- Panel factorization (columns k..k+kb, rows k..n), unblocked.
        for col in k..k + kb {
            f.eliminate(col, k + kb)?;
        }
        if k + kb < n {
            // Both updates run where the blocks lie: views of the U
            // panel's rows and of the rows below, from column k + kb on.
            // L21 shares its rows with A22, so it is the one copy (a
            // panel, not the trailing matrix).
            let (rest, lu) = (n - k - kb, &mut f.lu);
            let (l11, l21) = (lu.block(k, k, kb, kb), lu.block(k + kb, k, rest, kb));
            let (top, below) = lu.as_mut_slice().split_at_mut((k + kb) * n);
            let (a12, a22) = (&mut top[k * n + k + kb..], &mut below[k + kb..]);
            // --- U-panel update: solve L11 * U12 = A12 (the unit solve
            // reads only the strict lower triangle of the packed block).
            solve_unit_lower_view(packs, &l11, a12, n, rest);
            // --- Trailing update: A22 -= L21 * U12.
            let l21 = Left(&l21, 0..rest, 0..kb, false);
            gemm_ranged(None, packs, -1.0, l21, (a12, n), (a22, n), rest);
        }
        k += kb;
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn test_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
        Matrix::from_fn(n, n, |i, j| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            // Diagonal boost keeps the matrices comfortably nonsingular.
            if i == j {
                r + 4.0
            } else {
                r
            }
        })
    }

    #[test]
    fn reconstructs_pa_eq_lu() {
        for n in [1, 2, 5, 16, 33] {
            let a = test_matrix(n, n as u64);
            let f = lu_factor(&a).unwrap();
            let pa = f.permute(&a);
            let lu = matmul(&f.l(), &f.u());
            assert!(pa.approx_eq(&lu, 1e-9), "n={}", n);
        }
    }

    #[test]
    fn blocked_matches_unblocked() {
        for n in [7, 16, 30] {
            for b in [1, 2, 4, 8, 64] {
                let a = test_matrix(n, 3 * n as u64 + b as u64);
                let f0 = lu_factor(&a).unwrap();
                let f1 = lu_factor_blocked(&a, b).unwrap();
                assert_eq!(f0.perm, f1.perm, "n={} b={}", n, b);
                assert!(f0.lu.approx_eq(&f1.lu, 1e-9), "n={} b={}", n, b);
            }
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let a = test_matrix(12, 5);
        let x0: Vec<f64> = (0..12).map(|i| (i as f64) - 6.0).collect();
        let b = crate::gemm::matvec(&a, &x0);
        let f = lu_factor(&a).unwrap();
        let x = f.solve_vec(&b);
        for i in 0..12 {
            assert!((x[i] - x0[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn det_of_known_matrix() {
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 4.0]]);
        let f = lu_factor(&a).unwrap();
        assert!((f.det() - (-6.0)).abs() < 1e-12);
    }

    #[test]
    fn identity_factors_trivially() {
        let f = lu_factor(&Matrix::identity(4)).unwrap();
        assert_eq!(f.swaps, 0);
        assert!(f.l().approx_eq(&Matrix::identity(4), 0.0));
        assert!(f.u().approx_eq(&Matrix::identity(4), 0.0));
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(lu_factor(&a).is_err());
        assert!(lu_factor_blocked(&a, 1).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let f = lu_factor(&a).unwrap();
        assert_eq!(f.swaps, 1);
        let pa = f.permute(&a);
        assert!(pa.approx_eq(&matmul(&f.l(), &f.u()), 1e-12));
    }
}
