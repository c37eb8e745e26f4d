//! Triangular solves (the `trsm`-style kernels used by the right-looking
//! LU factorization of Section 3.2).

use crate::{sub_scaled, Matrix};

/// Solves `L * X = B` where `L` is lower triangular. Only the lower
/// part of `l` is read, and with `unit_diagonal` set the diagonal is
/// taken as 1 and not read either — so a packed LU block can be passed
/// as it is.
///
/// # Panics
/// Panics if `l` is not square or the shapes do not match.
pub fn solve_lower(l: &Matrix, b: &Matrix, unit_diagonal: bool) -> Matrix {
    let n = l.rows();
    assert!(l.is_square(), "solve_lower: L must be square");
    assert_eq!(b.rows(), n, "solve_lower: B row mismatch");
    let mut x = b.clone();
    let cols = x.cols();
    for i in 0..n {
        let (above, rest) = x.as_mut_slice().split_at_mut(i * cols);
        let xi = &mut rest[..cols];
        for (k, &lik) in l.row(i)[..i].iter().enumerate() {
            if lik != 0.0 {
                sub_scaled(xi, lik, &above[k * cols..(k + 1) * cols]);
            }
        }
        if !unit_diagonal {
            let d = l[(i, i)];
            assert!(d != 0.0, "solve_lower: zero diagonal at {}", i);
            for v in xi {
                *v /= d;
            }
        }
    }
    x
}

/// Solves `U * X = B` where `U` is upper triangular (only the upper part
/// of `u` is read).
///
/// # Panics
/// Panics if `u` is not square, shapes mismatch, or a diagonal entry is 0.
pub fn solve_upper(u: &Matrix, b: &Matrix) -> Matrix {
    let n = u.rows();
    assert!(u.is_square(), "solve_upper: U must be square");
    assert_eq!(b.rows(), n, "solve_upper: B row mismatch");
    let mut x = b.clone();
    let cols = x.cols();
    for i in (0..n).rev() {
        let (head, below) = x.as_mut_slice().split_at_mut((i + 1) * cols);
        let xi = &mut head[i * cols..];
        for (k, &uik) in u.row(i)[i + 1..].iter().enumerate() {
            if uik != 0.0 {
                sub_scaled(xi, uik, &below[k * cols..(k + 1) * cols]);
            }
        }
        let d = u[(i, i)];
        assert!(d != 0.0, "solve_upper: zero diagonal at {}", i);
        for v in xi {
            *v /= d;
        }
    }
    x
}

/// Solves `X * U = B` for `X` where `U` is upper triangular — the
/// "right-side trsm" used to update the `U` panel in right-looking LU.
/// Only the upper part of `u` is read, so a packed LU block can be
/// passed as it is.
///
/// # Panics
/// Panics if `u` is not square, shapes mismatch, or a diagonal entry is 0.
pub fn solve_right_upper(u: &Matrix, b: &Matrix) -> Matrix {
    let n = u.rows();
    assert!(u.is_square(), "solve_right_upper: U must be square");
    assert_eq!(b.cols(), n, "solve_right_upper: B column mismatch");
    let mut x = b.clone();
    // Column k of X is final once divided by u_kk; its multiple of row k
    // of U then leaves every later column, one row of X at a time.
    for k in 0..n {
        let (d, uk) = (u[(k, k)], &u.row(k)[k + 1..]);
        assert!(d != 0.0, "solve_right_upper: zero diagonal at {}", k);
        for i in 0..x.rows() {
            let xi = x.row_mut(i);
            xi[k] /= d;
            let xik = xi[k];
            sub_scaled(&mut xi[k + 1..], xik, uk);
        }
    }
    x
}

/// Extracts the lower-triangular factor with unit diagonal from a packed
/// LU matrix.
pub fn unit_lower_from_packed(lu: &Matrix) -> Matrix {
    let n = lu.rows();
    Matrix::from_fn(n, n, |i, j| {
        use std::cmp::Ordering::*;
        match i.cmp(&j) {
            Greater => lu[(i, j)],
            Equal => 1.0,
            Less => 0.0,
        }
    })
}

/// Extracts the upper-triangular factor from a packed LU matrix.
pub fn upper_from_packed(lu: &Matrix) -> Matrix {
    let n = lu.rows();
    Matrix::from_fn(n, n, |i, j| if i <= j { lu[(i, j)] } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn lower(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i > j {
                (i + 2 * j) as f64 * 0.25 - 0.5
            } else if i == j {
                2.0 + i as f64
            } else {
                0.0
            }
        })
    }

    #[test]
    fn solve_lower_roundtrip() {
        let l = lower(6);
        let x0 = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64 - 4.0);
        let b = matmul(&l, &x0);
        let x = solve_lower(&l, &b, false);
        assert!(x.approx_eq(&x0, 1e-9));
    }

    #[test]
    fn solve_lower_unit_ignores_diagonal() {
        let mut l = lower(4);
        let x0 = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        // Build B with the *unit* diagonal semantics.
        let lunit = Matrix::from_fn(4, 4, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                l[(i, j)]
            } else {
                0.0
            }
        });
        let b = matmul(&lunit, &x0);
        // Poison the stored diagonal; unit solve must not read it.
        for i in 0..4 {
            l[(i, i)] = f64::NAN;
        }
        let x = solve_lower(&l, &b, true);
        assert!(x.approx_eq(&x0, 1e-10));
    }

    #[test]
    fn solve_upper_roundtrip() {
        let u = lower(5).transpose();
        let x0 = Matrix::from_fn(5, 2, |i, j| 1.0 + (i * 2 + j) as f64);
        let b = matmul(&u, &x0);
        let x = solve_upper(&u, &b);
        assert!(x.approx_eq(&x0, 1e-9));
    }

    #[test]
    fn solve_right_upper_roundtrip() {
        let u = lower(4).transpose();
        let x0 = Matrix::from_fn(3, 4, |i, j| (i + 4 * j) as f64 * 0.5 - 1.0);
        let b = matmul(&x0, &u);
        let x = solve_right_upper(&u, &b);
        assert!(x.approx_eq(&x0, 1e-9));
    }

    /// What lets `exec::lu` pass a packed diagonal block to both of its
    /// solves: each reads its own triangle and nothing else.
    #[test]
    fn solves_ignore_the_other_triangle() {
        let l = lower(5);
        let u = l.transpose();
        let b = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64 - 7.0);
        let poison = |m: &Matrix, poisoned: fn(usize, usize) -> bool| {
            Matrix::from_fn(
                5,
                5,
                |i, j| if poisoned(i, j) { f64::NAN } else { m[(i, j)] },
            )
        };
        let strict_lower = |i, j| i > j;
        let upper_and_diagonal = |i, j| i <= j;
        assert_eq!(
            solve_right_upper(&poison(&u, strict_lower), &b),
            solve_right_upper(&u, &b)
        );
        assert_eq!(
            solve_upper(&poison(&u, strict_lower), &b),
            solve_upper(&u, &b)
        );
        assert_eq!(
            solve_lower(&poison(&l, upper_and_diagonal), &b, true),
            solve_lower(&l, &b, true)
        );
    }

    #[test]
    #[should_panic(expected = "solve_right_upper: B column mismatch")]
    fn solve_right_upper_rejects_wrong_column_count() {
        solve_right_upper(&lower(3).transpose(), &Matrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "solve_right_upper: zero diagonal")]
    fn solve_right_upper_rejects_singular_u() {
        let mut u = lower(3).transpose();
        u[(1, 1)] = 0.0;
        solve_right_upper(&u, &Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "solve_right_upper: U must be square")]
    fn solve_right_upper_rejects_non_square_u() {
        solve_right_upper(&Matrix::zeros(3, 2), &Matrix::zeros(2, 2));
    }

    #[test]
    fn packed_extraction() {
        let lu = Matrix::from_rows(&[vec![2.0, 3.0], vec![4.0, 5.0]]);
        let l = unit_lower_from_packed(&lu);
        let u = upper_from_packed(&lu);
        assert_eq!(l.as_slice(), &[1.0, 0.0, 4.0, 1.0]);
        assert_eq!(u.as_slice(), &[2.0, 3.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn singular_upper_panics() {
        let mut u = lower(3).transpose();
        u[(1, 1)] = 0.0;
        solve_upper(&u, &Matrix::zeros(3, 1));
    }
}
