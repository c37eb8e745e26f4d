//! Triangular solves (the `trsm`-style kernels used by the right-looking
//! LU factorization of Section 3.2).
//!
//! Every solve an executor or benchmark runs is one recursion, the
//! left-lower `L * X = B` in place ([`solve_rows`]): solve the top half
//! of the rows, subtract `L21 * X1` from the bottom half through the
//! packed GEMM micro-kernel, solve the bottom half; at [`LEAF`] rows,
//! sweep row by row. The right-side forms are that recursion on the
//! transposed block — `X * U = B` is `U^T * X^T = B^T` — with the
//! lower-triangular `U^T` read from `U` where it lies.

use crate::gemm::{gemm_ranged, Left, Packs};
use crate::{sub_scaled, Matrix};
use std::ops::Range;

/// At or below this many rows a solve is the row sweep: a product that
/// thin does not pay for its packing. It is also the tallest micro-tile.
/// (The sweep is the slow code — it loads and stores `X` per
/// multiply-add — so at 128 x 128 a leaf of 8 beats 16 by a tenth and
/// 32 by a third; DESIGN §6.4.)
const LEAF: usize = 8;

/// The lower-triangular `L` of a solve: the lower triangle of `t`, or
/// with `trans` the transpose of its upper triangle. With `unit` the
/// diagonal is taken as 1 and not read.
#[derive(Clone, Copy)]
struct Lower<'a> {
    t: &'a Matrix,
    trans: bool,
    unit: bool,
}

impl<'a> Lower<'a> {
    /// `L` for the entry point `who`, whose right-hand side has `len`
    /// rows (its `dim`): the shape and diagonal checks, made under the
    /// caller's name before any work is done.
    fn checked(who: &str, t: &'a Matrix, trans: bool, unit: bool, len: usize, dim: &str) -> Self {
        let name = if trans { 'U' } else { 'L' };
        assert!(t.is_square(), "{who}: {name} must be square");
        assert_eq!(len, t.rows(), "{who}: B {dim} mismatch");
        if let Some(i) = (0..len).find(|&i| !unit && t[(i, i)] == 0.0) {
            panic!("{who}: zero diagonal at {i}");
        }
        Lower { t, trans, unit }
    }

    #[inline]
    fn at(&self, i: usize, k: usize) -> f64 {
        self.t[if self.trans { (k, i) } else { (i, k) }]
    }
}

/// Solves `L * X = B` in place on `rows` of the system: `x` is the view
/// (first element, leading dimension `ld`) of those rows of `B`, `n`
/// columns wide, and leaves holding the same rows of `X`.
fn solve_rows(
    packs: &mut Packs,
    l: Lower<'_>,
    rows: Range<usize>,
    x: &mut [f64],
    ld: usize,
    n: usize,
) {
    if rows.len() <= LEAF {
        for i in 0..rows.len() {
            let (above, xi) = x.split_at_mut(i * ld);
            let xi = &mut xi[..n];
            for k in 0..i {
                let lik = l.at(rows.start + i, rows.start + k);
                if lik != 0.0 {
                    sub_scaled(xi, lik, &above[k * ld..k * ld + n]);
                }
            }
            if !l.unit {
                let d = l.at(rows.start + i, rows.start + i);
                xi.iter_mut().for_each(|v| *v /= d);
            }
        }
        return;
    }
    // Half the rows, rounded up to whole leaves (fewer than all of them:
    // `rows.len() > LEAF`), so every strip of `L21` but the last is a
    // full micro-tile. This product is the largest below here, and the
    // first is the smallest: fresh `packs` grow once, not level by level.
    let mid = rows.start + (rows.len() / 2).next_multiple_of(LEAF);
    packs.reserve(rows.end - mid, mid - rows.start, n);
    let (top, bottom) = x.split_at_mut((mid - rows.start) * ld);
    solve_rows(packs, l, rows.start..mid, top, ld, n);
    let l21 = Left(l.t, mid..rows.end, rows.start..mid, l.trans);
    gemm_ranged(None, packs, -1.0, l21, (top, ld), (bottom, ld), n);
    solve_rows(packs, l, mid..rows.end, bottom, ld, n);
}

/// [`solve_rows`] on a whole right-hand side.
fn solve_in_place(packs: &mut Packs, l: Lower<'_>, x: &mut Matrix) {
    let (rows, n) = x.shape();
    solve_rows(packs, l, 0..rows, x.as_mut_slice(), n, n);
}

/// The unit-lower solve on a view of `n` columns of `l.rows()` rows of a
/// larger matrix: the `U` panel of a blocked LU, solved where it lies.
pub(crate) fn solve_unit_lower_view(
    packs: &mut Packs,
    l: &Matrix,
    x: &mut [f64],
    ld: usize,
    n: usize,
) {
    let l = Lower::checked("solve_unit_lower_view", l, false, true, l.rows(), "row");
    solve_rows(packs, l, 0..l.t.rows(), x, ld, n);
}

/// Solves `L * X = B` where `L` is lower triangular. Only the lower
/// part of `l` is read, and with `unit_diagonal` set the diagonal is
/// taken as 1 and not read either — so a packed LU block can be passed
/// as it is.
///
/// # Panics
/// Panics if `l` is not square, the shapes do not match, or a diagonal
/// entry that is read is 0.
pub fn solve_lower(l: &Matrix, b: &Matrix, unit_diagonal: bool) -> Matrix {
    let mut x = b.clone();
    solve_lower_in_place(&mut Packs::default(), l, unit_diagonal, &mut x);
    x
}

/// [`solve_lower`] with `X` overwriting `B` in `x`, through the caller's
/// pack buffers: same result to the bit, without an allocation.
///
/// # Panics
/// As [`solve_lower`].
pub fn solve_lower_in_place(packs: &mut Packs, l: &Matrix, unit_diagonal: bool, x: &mut Matrix) {
    let l = Lower::checked("solve_lower", l, false, unit_diagonal, x.rows(), "row");
    solve_in_place(packs, l, x);
}

/// Solves `U^T * X = B` with `X` overwriting `B` in `x`, where `U` is
/// upper triangular (only the upper part of `u` is read). On the
/// transposed block this is the right-side solve: `x = B^T` leaves as
/// `X^T` with `X * U = B`, to the bit what [`solve_right_upper`] returns.
///
/// # Panics
/// Panics if `u` is not square, shapes mismatch, or a diagonal entry is 0.
pub fn solve_upper_t_in_place(packs: &mut Packs, u: &Matrix, x: &mut Matrix) {
    let l = Lower::checked("solve_upper_t_in_place", u, true, false, x.rows(), "row");
    solve_in_place(packs, l, x);
}

/// Solves `U * X = B` where `U` is upper triangular (only the upper part
/// of `u` is read). A row sweep from the last row up: no executor or
/// benchmark calls it, so it is not blocked.
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
    let l = Lower::checked("solve_right_upper", u, true, false, b.cols(), "column");
    let mut xt = b.transpose();
    solve_in_place(&mut Packs::default(), l, &mut xt);
    xt.transpose()
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
    use crate::gemm::{gemm_with, matmul};

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

    /// [`lower`] with rows that sum below their diagonal at any `n`, so
    /// a unit solve stays finite.
    fn tame(n: usize) -> Matrix {
        let l = lower(n);
        Matrix::from_fn(n, n, |i, j| l[(i, j)] / if i == j { 1.0 } else { n as f64 })
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// One algorithm, two call shapes: the in-place forms an executor
    /// calls are the public solves, to the bit — above the leaf too.
    #[test]
    fn in_place_forms_are_the_public_solves() {
        for (n, cols) in [(5, 3), (48, 48), (130, 70)] {
            let (l, packs) = (tame(n), &mut Packs::default());
            let b = Matrix::from_fn(n, cols, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
            for unit in [false, true] {
                let mut x = b.clone();
                solve_lower_in_place(packs, &l, unit, &mut x);
                assert!(
                    bits(&x) == bits(&solve_lower(&l, &b, unit)),
                    "{n} unit={unit}"
                );
            }
            let (u, mut xt) = (l.transpose(), b.clone());
            solve_upper_t_in_place(packs, &u, &mut xt);
            let want = solve_right_upper(&u, &b.transpose());
            assert!(bits(&xt.transpose()) == bits(&want), "{n} right-upper");
            // U^T read where it lies is L itself.
            assert!(
                bits(&xt) == bits(&solve_lower(&l, &b, false)),
                "{n} U^T vs L"
            );
        }
    }

    /// Stale panels of a larger product or solve must not leak into a
    /// smaller one through the pack buffers, nor the other way round.
    #[test]
    fn reused_packs_match_fresh_ones_to_the_bit() {
        let sizes = [130, 64, 33, 9, 3];
        let mut packs = Packs::default();
        for &n in sizes.iter().chain(sizes.iter().rev()) {
            let (l, b) = (
                lower(n),
                Matrix::from_fn(n, n + 1, |i, j| (i + 2 * j) as f64),
            );
            let mut c = [b.clone(), b.clone()];
            let (mut x, mut xt) = (b.clone(), b.clone());
            gemm_with(&mut packs, -0.5, &l, &b, 1.0, &mut c[0]);
            solve_lower_in_place(&mut packs, &l, true, &mut x);
            solve_upper_t_in_place(&mut packs, &l.transpose(), &mut xt);
            gemm_with(&mut Packs::default(), -0.5, &l, &b, 1.0, &mut c[1]);
            assert!(bits(&c[0]) == bits(&c[1]), "gemm {n}");
            assert!(bits(&x) == bits(&solve_lower(&l, &b, true)), "lower {n}");
            assert!(
                bits(&xt) == bits(&solve_lower(&l, &b, false)),
                "upper^T {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "solve_lower: zero diagonal at 40")]
    fn blocked_solve_rejects_a_zero_diagonal_before_any_work() {
        let mut l = lower(48);
        l[(40, 40)] = 0.0;
        solve_lower_in_place(&mut Packs::default(), &l, false, &mut Matrix::zeros(48, 2));
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
