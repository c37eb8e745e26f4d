//! Bit-for-bit differential oracle for the block kernels.
//!
//! The kernels in `src/` sweep the row-major [`Matrix`] along its rows;
//! the reference implementations below are the loops they replaced
//! (column-strided Householder QR, left-looking Cholesky, indexed
//! triangular solves and LU, `from_fn` block copies), kept verbatim.
//! The rewrite was a loop interchange: every element receives the same
//! floating-point operations in the same order, so on dense inputs
//! every output must match to the bit, and on inputs with exact zeros
//! (where a `!= 0.0` skip may sit elsewhere) up to the sign of a zero.
//!
//! `solve_lower` and `solve_right_upper` are that sweep only up to
//! [`LEAF`] rows, and Householder QR only up to [`QR_LEAF`] columns (and
//! reflectors); above them they recurse through the GEMM micro-kernel,
//! which sums in another order. There the references bound them instead:
//! element-wise agreement relative to `max |X|` and the backward
//! residual of the system solved — for QR, `A - QR` and `Q^T Q - I`.
//! What still holds to the bit above the leaf is said as properties of
//! the crate's own kernels: factors rebuilt from their parts, and `Q^T`
//! applied a column block at a time.

use hetgrid_linalg::cholesky::cholesky;
use hetgrid_linalg::gemm::{gemm, matmul, Packs};
use hetgrid_linalg::lu::{lu_factor, lu_factor_blocked, LuFactors, SingularMatrix};
use hetgrid_linalg::qr::{qr_factor, qr_factor_with, QrFactors};
use hetgrid_linalg::tri::{
    solve_lower, solve_lower_in_place, solve_right_upper, solve_upper, solve_upper_t_in_place,
    upper_from_packed,
};
use hetgrid_linalg::Matrix;

// ---------------------------------------------------------------------
// Reference implementations: the pre-row-sweep loops.
// ---------------------------------------------------------------------

fn ref_transpose(m: &Matrix) -> Matrix {
    Matrix::from_fn(m.cols(), m.rows(), |i, j| m[(j, i)])
}

fn ref_block(m: &Matrix, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
    Matrix::from_fn(nr, nc, |i, j| m[(r0 + i, c0 + j)])
}

fn ref_set_block(m: &mut Matrix, r0: usize, c0: usize, b: &Matrix) {
    for i in 0..b.rows() {
        for j in 0..b.cols() {
            m[(r0 + i, c0 + j)] = b[(i, j)];
        }
    }
}

fn ref_swap_rows(m: &mut Matrix, a: usize, b: usize) {
    for j in 0..m.cols() {
        let t = m[(a, j)];
        m[(a, j)] = m[(b, j)];
        m[(b, j)] = t;
    }
}

fn ref_apply_reflector_left(v: &[f64], tau: f64, x: &mut Matrix, k: usize) {
    if tau == 0.0 {
        return;
    }
    let m = x.rows();
    for j in 0..x.cols() {
        let mut dot = 0.0;
        for i in k..m {
            dot += v[i] * x[(i, j)];
        }
        let s = tau * dot;
        for i in k..m {
            x[(i, j)] -= s * v[i];
        }
    }
}

fn ref_qr_factor(a: &Matrix) -> (Matrix, Vec<f64>) {
    let (m, n) = a.shape();
    let mut packed = a.clone();
    let mut taus = vec![0.0; n];
    for k in 0..n {
        let mut normx = 0.0;
        for i in k..m {
            normx += packed[(i, k)] * packed[(i, k)];
        }
        normx = normx.sqrt();
        if normx == 0.0 {
            taus[k] = 0.0;
            continue;
        }
        let alpha = packed[(k, k)];
        let beta = -alpha.signum() * normx;
        let tau = (beta - alpha) / beta;
        let scale = alpha - beta;
        let mut v = vec![0.0; m];
        v[k] = 1.0;
        for i in k + 1..m {
            v[i] = packed[(i, k)] / scale;
        }
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i] * packed[(i, j)];
            }
            let s = tau * dot;
            for i in k..m {
                packed[(i, j)] -= s * v[i];
            }
        }
        packed[(k, k)] = beta;
        for i in k + 1..m {
            packed[(i, k)] = v[i];
        }
        taus[k] = tau;
    }
    (packed, taus)
}

fn ref_house_vector(packed: &Matrix, k: usize) -> Vec<f64> {
    let m = packed.rows();
    let mut v = vec![0.0; m];
    v[k] = 1.0;
    for i in k + 1..m {
        v[i] = packed[(i, k)];
    }
    v
}

fn ref_qt_mul(packed: &Matrix, taus: &[f64], b: &Matrix) -> Matrix {
    let mut x = b.clone();
    for (k, &tau) in taus.iter().enumerate() {
        let v = ref_house_vector(packed, k);
        ref_apply_reflector_left(&v, tau, &mut x, k);
    }
    x
}

fn ref_thin_q(packed: &Matrix, taus: &[f64]) -> Matrix {
    let (m, n) = packed.shape();
    let mut q = Matrix::from_fn(m, n, |i, j| if i == j { 1.0 } else { 0.0 });
    for k in (0..n).rev() {
        let v = ref_house_vector(packed, k);
        ref_apply_reflector_left(&v, taus[k], &mut q, k);
    }
    q
}

fn ref_cholesky(a: &Matrix) -> Result<Matrix, (usize, f64)> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err((j, d));
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in j + 1..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Ok(l)
}

fn ref_solve_lower(l: &Matrix, b: &Matrix, unit_diagonal: bool) -> Matrix {
    let n = l.rows();
    let mut x = b.clone();
    for i in 0..n {
        for k in 0..i {
            let lik = l[(i, k)];
            if lik != 0.0 {
                for j in 0..x.cols() {
                    let v = x[(k, j)];
                    x[(i, j)] -= lik * v;
                }
            }
        }
        if !unit_diagonal {
            let d = l[(i, i)];
            for j in 0..x.cols() {
                x[(i, j)] /= d;
            }
        }
    }
    x
}

fn ref_solve_upper(u: &Matrix, b: &Matrix) -> Matrix {
    let n = u.rows();
    let mut x = b.clone();
    for i in (0..n).rev() {
        for k in i + 1..n {
            let uik = u[(i, k)];
            if uik != 0.0 {
                for j in 0..x.cols() {
                    let v = x[(k, j)];
                    x[(i, j)] -= uik * v;
                }
            }
        }
        let d = u[(i, i)];
        for j in 0..x.cols() {
            x[(i, j)] /= d;
        }
    }
    x
}

fn ref_solve_right_upper(u: &Matrix, b: &Matrix) -> Matrix {
    ref_transpose(&ref_solve_lower(
        &ref_transpose(u),
        &ref_transpose(b),
        false,
    ))
}

type LuParts = (Matrix, Vec<usize>, usize);

fn ref_pivot(lu: &Matrix, col: usize) -> (usize, f64) {
    (col..lu.rows())
        .map(|i| (i, lu[(i, col)].abs()))
        .fold((col, -1.0), |acc, x| if x.1 > acc.1 { x } else { acc })
}

fn ref_lu_factor(a: &Matrix) -> Result<LuParts, usize> {
    let n = a.rows();
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut swaps = 0;
    for k in 0..n {
        let (piv, pmax) = ref_pivot(&lu, k);
        if pmax <= f64::EPSILON * n as f64 {
            return Err(k);
        }
        if piv != k {
            ref_swap_rows(&mut lu, piv, k);
            perm.swap(piv, k);
            swaps += 1;
        }
        let pivot = lu[(k, k)];
        for i in k + 1..n {
            let m = lu[(i, k)] / pivot;
            lu[(i, k)] = m;
            for j in k + 1..n {
                let v = lu[(k, j)];
                lu[(i, j)] -= m * v;
            }
        }
    }
    Ok((lu, perm, swaps))
}

/// The blocked variant's panel solve and trailing update go through the
/// crate's `solve_lower` and `gemm` (deterministic within one process,
/// and the same arithmetic on a copied-out block as on a view of it);
/// everything around them is the old indexed code.
fn ref_lu_factor_blocked(a: &Matrix, b: usize) -> Result<LuParts, usize> {
    let n = a.rows();
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut swaps = 0;
    let mut k = 0;
    while k < n {
        let kb = b.min(n - k);
        for col in k..k + kb {
            let (piv, pmax) = ref_pivot(&lu, col);
            if pmax <= f64::EPSILON * n as f64 {
                return Err(col);
            }
            if piv != col {
                ref_swap_rows(&mut lu, piv, col);
                perm.swap(piv, col);
                swaps += 1;
            }
            let pivot = lu[(col, col)];
            for i in col + 1..n {
                let m = lu[(i, col)] / pivot;
                lu[(i, col)] = m;
                for j in col + 1..k + kb {
                    let v = lu[(col, j)];
                    lu[(i, j)] -= m * v;
                }
            }
        }
        if k + kb < n {
            let packed = ref_block(&lu, k, k, kb, kb);
            let a12 = ref_block(&lu, k, k + kb, kb, n - k - kb);
            let u12 = solve_lower(&packed, &a12, true);
            ref_set_block(&mut lu, k, k + kb, &u12);
            let l21 = ref_block(&lu, k + kb, k, n - k - kb, kb);
            let mut a22 = ref_block(&lu, k + kb, k + kb, n - k - kb, n - k - kb);
            gemm(-1.0, &l21, &u12, 1.0, &mut a22);
            ref_set_block(&mut lu, k + kb, k + kb, &a22);
        }
        k += kb;
    }
    Ok((lu, perm, swaps))
}

// ---------------------------------------------------------------------
// Inputs and comparisons.
// ---------------------------------------------------------------------

/// `(rows, cols)` of every dense case: QR factors the tall shape, the
/// square kernels take `rows x rows`, the solves pair a `rows`- or
/// `cols`-square factor with a `rows x cols` right-hand side.
const SHAPES: [(usize, usize); 5] = [(1, 1), (7, 3), (33, 33), (128, 128), (130, 70)];

/// Dense matrix with entries in `[-1, 1)`, none of them zero.
fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        if v == 0.0 {
            0.5
        } else {
            v
        }
    })
}

/// Dense, diagonally dominant: every triangle of it is a well-scaled
/// triangular factor, and LU on it still has to search for pivots.
fn dominant(n: usize, seed: u64) -> Matrix {
    let mut m = dense(n, n, seed);
    for i in 0..n {
        m[(i, i)] += 0.25 * n as f64;
    }
    m
}

/// Dense symmetric positive definite.
fn spd(n: usize, seed: u64) -> Matrix {
    let b = dense(n, n, seed);
    let mut a = Matrix::zeros(n, n);
    gemm(1.0, &ref_transpose(&b), &b, 0.0, &mut a);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

#[track_caller]
fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {idx} is {g:e} ({:#018x}), reference {w:e} ({:#018x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[track_caller]
fn assert_matrix_bits(what: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_bits(what, got.as_slice(), want.as_slice());
}

/// `==` on every element: `+0.0 == -0.0`, NaN equals nothing.
#[track_caller]
fn assert_values(what: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(g == w, "{what}: element {idx} is {g:e}, reference {w:e}");
    }
}

/// The crate's `tri::LEAF`: a solve of at most this many rows is the
/// reference sweep, operation for operation.
const LEAF: usize = 8;

/// A solve against its reference sweep: to the bit (`exact_zeros`: by
/// value) where the system fits the leaf; above it within
/// `1e-12 * max(1, max |X|)` of the reference — a dense unit solve grows
/// with `n`, so no absolute bound holds — and with `solved - B`, the
/// residual of the system as the caller multiplied it back, at most
/// `1e-10 * n * max |T| * max |X|`.
#[track_caller]
fn assert_solve(what: &str, got: &Matrix, want: &Matrix, t: &Matrix, solved: &Matrix, b: &Matrix) {
    let n = t.rows();
    if n <= LEAF {
        return assert_matrix_bits(what, got, want);
    }
    let xmax = want.max_abs();
    assert!(
        got.approx_eq(want, 1e-12 * xmax.max(1.0)),
        "{what}: off the reference sweep by {:e} (max |X| = {xmax:e})",
        got.sub(want).max_abs()
    );
    let resid = solved.sub(b).max_abs();
    let bound = 1e-10 * n as f64 * t.max_abs() * xmax;
    assert!(resid <= bound, "{what}: residual {resid:e} > {bound:e}");
}

/// The lower triangle of `m`, with a unit diagonal if asked.
fn lower_of(m: &Matrix, unit: bool) -> Matrix {
    Matrix::from_fn(m.rows(), m.cols(), |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Greater => m[(i, j)],
        std::cmp::Ordering::Equal if unit => 1.0,
        std::cmp::Ordering::Equal => m[(i, j)],
        std::cmp::Ordering::Less => 0.0,
    })
}

// ---------------------------------------------------------------------
// Dense cases: to_bits equality.
// ---------------------------------------------------------------------

/// The crate's `qr::LEAF`: a factorisation of at most this many columns,
/// and an apply of at most this many reflectors, is the reference sweep,
/// operation for operation.
const QR_LEAF: usize = 16;

/// QR's shapes: the dense ones, and a full leaf.
fn qr_shapes() -> impl Iterator<Item = (usize, usize)> {
    SHAPES.into_iter().chain([(130, QR_LEAF)])
}

/// A QR output against the reference sweep's: to the bit where the
/// factors fit the leaf, else within `1e-12 * max(1, max |X|)`.
#[track_caller]
fn assert_qr_close(what: &str, n: usize, got: &Matrix, want: &Matrix) {
    if n <= QR_LEAF {
        return assert_matrix_bits(what, got, want);
    }
    let xmax = want.max_abs();
    assert!(
        got.approx_eq(want, 1e-12 * xmax.max(1.0)),
        "{what}: off the reference sweep by {:e} (max |X| = {xmax:e})",
        got.sub(want).max_abs()
    );
}

/// `max |A - Q R| <= 1e-10 * m * max |A|` and `max |Q^T Q - I| <= 1e-10 * m`.
#[track_caller]
fn assert_qr_residuals(what: &str, a: &Matrix, f: &QrFactors) {
    let ((m, n), q) = (a.shape(), f.thin_q());
    let resid = a.sub(&matmul(&q, &f.r())).max_abs();
    let bound = 1e-10 * m as f64 * a.max_abs();
    assert!(resid <= bound, "{what}: |A - QR| = {resid:e} > {bound:e}");
    let ortho = matmul(&ref_transpose(&q), &q)
        .sub(&Matrix::identity(n))
        .max_abs();
    assert!(ortho <= 1e-10 * m as f64, "{what}: |Q^T Q - I| = {ortho:e}");
}

#[test]
fn qr_factor_and_reflector_application_match_the_sweep() {
    for (m, n) in qr_shapes() {
        let what = format!("qr {m}x{n}");
        let a = dense(m, n, (m * 1000 + n) as u64);
        let f = qr_factor(&a);
        let (packed, taus) = ref_qr_factor(&a);
        assert_qr_close(&format!("{what} packed"), n, f.packed(), &packed);
        let (got, want) = (
            Matrix::from_vec(1, n, f.taus().to_vec()),
            Matrix::from_vec(1, n, taus.clone()),
        );
        assert_qr_close(&format!("{what} taus"), n, &got, &want);
        assert_qr_residuals(&what, &a, &f);

        // Q^T applied to a wide and to a one-column right-hand side.
        for cols in [n, 1] {
            let b = dense(m, cols, (m * 77 + cols) as u64);
            assert_qr_close(
                &format!("{what} qt_mul {cols} cols"),
                n,
                &f.qt_mul(&b),
                &ref_qt_mul(&packed, &taus, &b),
            );
        }
        assert_qr_close(
            &format!("{what} thin_q"),
            n,
            &f.thin_q(),
            &ref_thin_q(&packed, &taus),
        );

        // Factors rebuilt from the reference's parts (the executor's
        // receiving side, on parts it did not factor).
        let rebuilt = QrFactors::from_parts(packed.clone(), taus.clone());
        let b = dense(m, n, 5);
        assert_qr_close(
            &format!("{what} from_parts qt_mul"),
            n,
            &rebuilt.qt_mul(&b),
            &ref_qt_mul(&packed, &taus, &b),
        );
    }
}

/// One `T` function: factors rebuilt from a factorisation's own parts
/// (a remote column head's copy) apply exactly its bits, both ways.
#[test]
fn from_parts_applies_the_factors_bits() {
    for (m, n) in qr_shapes() {
        let f = qr_factor(&dense(m, n, (m * 1000 + n) as u64));
        let rebuilt = QrFactors::from_parts(f.packed().clone(), f.taus().to_vec());
        let b = dense(m, n + 3, 6);
        let what = format!("qr {m}x{n} from_parts");
        assert_matrix_bits(
            &format!("{what} qt_mul"),
            &rebuilt.qt_mul(&b),
            &f.qt_mul(&b),
        );
        assert_matrix_bits(&format!("{what} q_mul"), &rebuilt.q_mul(&b), &f.q_mul(&b));
        assert_matrix_bits(&format!("{what} thin_q"), &rebuilt.thin_q(), &f.thin_q());
    }
}

/// Every column of `Q^T C` is a function of that column of `C` alone, so
/// applying to a block column at a time (the executor's column heads)
/// is applying to the whole trailing matrix at once (`qr_blocked`).
#[test]
fn qt_mul_is_column_partition_invariant() {
    for (m, n) in qr_shapes() {
        let f = qr_factor(&dense(m, n, (m * 1000 + n) as u64));
        let c = dense(m, 2 * n + 5, 7);
        let whole = f.qt_mul(&c);
        for cut in [1, n, 2 * n + 4] {
            let what = format!("qr {m}x{n} qt_mul cut at {cut}");
            let (left, right) = (c.block(0, 0, m, cut), c.block(0, cut, m, c.cols() - cut));
            let parts = [(0, f.qt_mul(&left)), (cut, f.qt_mul(&right))];
            for (c0, part) in parts {
                assert_matrix_bits(&what, &part, &whole.block(0, c0, m, part.cols()));
            }
        }
    }
}

#[test]
fn cholesky_matches_bitwise() {
    for (n, _) in SHAPES {
        let a = spd(n, n as u64 + 11);
        let l = cholesky(&a).expect("SPD input");
        let want = ref_cholesky(&a).expect("SPD input");
        assert_matrix_bits(&format!("cholesky {n}"), &l, &want);
    }
}

#[test]
fn cholesky_rejects_with_the_same_pivot() {
    // Positive definite down to index 20, then a diagonal entry too
    // small to survive its Schur complement.
    let mut a = spd(33, 3);
    a[(20, 20)] = 1.0;
    let err = cholesky(&a).unwrap_err();
    let (index, pivot) = ref_cholesky(&a).unwrap_err();
    assert_eq!(err.index, index);
    assert_eq!(err.pivot.to_bits(), pivot.to_bits());
}

#[test]
fn triangular_solves_match_bitwise() {
    for (m, n) in SHAPES {
        let b = dense(m, n, (m * 31 + n) as u64);
        // Full dense matrices as factors: each solve reads its own
        // triangle, the other is arbitrary data.
        let lm = dominant(m, m as u64 + 1);
        for unit in [false, true] {
            let x = solve_lower(&lm, &b, unit);
            assert_solve(
                &format!("solve_lower {m}x{m} \\ {m}x{n} unit={unit}"),
                &x,
                &ref_solve_lower(&lm, &b, unit),
                &lm,
                &matmul(&lower_of(&lm, unit), &x),
                &b,
            );
        }
        assert_matrix_bits(
            &format!("solve_upper {m}x{m} \\ {m}x{n}"),
            &solve_upper(&lm, &b),
            &ref_solve_upper(&lm, &b),
        );
        let un = dominant(n, n as u64 + 2);
        let x = solve_right_upper(&un, &b);
        assert_solve(
            &format!("solve_right_upper {m}x{n} / {n}x{n}"),
            &x,
            &ref_solve_right_upper(&un, &b),
            &un,
            &matmul(&x, &upper_from_packed(&un)),
            &b,
        );
    }
}

#[track_caller]
fn assert_lu_bits(
    what: &str,
    got: Result<LuFactors, SingularMatrix>,
    want: Result<LuParts, usize>,
) {
    match (got, want) {
        (Ok(f), Ok((lu, perm, swaps))) => {
            assert_matrix_bits(what, &f.lu, &lu);
            assert_eq!(f.perm, perm, "{what}: perm");
            assert_eq!(f.swaps, swaps, "{what}: swaps");
        }
        (Err(e), Err(column)) => assert_eq!(e.column, column, "{what}: column"),
        (got, want) => panic!("{what}: {got:?} vs reference {want:?}"),
    }
}

#[test]
fn lu_matches_bitwise() {
    for (n, _) in SHAPES {
        // Plain dense (real pivoting) and dominant (the benchmark's case).
        for (kind, a) in [
            ("dense", dense(n, n, n as u64 + 21)),
            ("dominant", dominant(n, n as u64 + 22)),
        ] {
            assert_lu_bits(
                &format!("lu_factor {kind} {n}"),
                lu_factor(&a),
                ref_lu_factor(&a),
            );
            for b in [1, 5, 32] {
                assert_lu_bits(
                    &format!("lu_factor_blocked {kind} {n} b={b}"),
                    lu_factor_blocked(&a, b),
                    ref_lu_factor_blocked(&a, b),
                );
            }
        }
    }
}

#[test]
fn block_copies_match_bitwise() {
    for (m, n) in SHAPES {
        let a = dense(m, n, (m * 13 + n) as u64);
        assert_matrix_bits(
            &format!("transpose {m}x{n}"),
            &a.transpose(),
            &ref_transpose(&a),
        );
        // Whole matrix, then sub-blocks at non-zero offsets, down to
        // empty ones.
        let cuts = [
            (0, 0, m, n),
            (m / 3, n / 3, m - m / 3, n - n / 3),
            (m / 2, n / 4, m / 3, n / 2),
            (m - 1, n - 1, 1, 1),
            (m / 2, n / 2, 0, n / 2),
        ];
        for (r0, c0, nr, nc) in cuts {
            let what = format!("{m}x{n} at ({r0},{c0}) {nr}x{nc}");
            let blk = a.block(r0, c0, nr, nc);
            assert_matrix_bits(
                &format!("block {what}"),
                &blk,
                &ref_block(&a, r0, c0, nr, nc),
            );
            let patch = dense(nr, nc, 99);
            let (mut got, mut want) = (a.clone(), a.clone());
            got.set_block(r0, c0, &patch);
            ref_set_block(&mut want, r0, c0, &patch);
            assert_matrix_bits(&format!("set_block {what}"), &got, &want);
        }
        let (mut got, mut want) = (a.clone(), a.clone());
        for (x, y) in [(0, m - 1), (m / 2, m / 3), (m / 2, m / 2)] {
            got.swap_rows(x, y);
            ref_swap_rows(&mut want, x, y);
        }
        assert_matrix_bits(&format!("swap_rows {m}x{n}"), &got, &want);
    }
}

// ---------------------------------------------------------------------
// Exact zeros: value equality (a zero's sign may differ where a
// `!= 0.0` skip sits on another operand).
// ---------------------------------------------------------------------

#[test]
fn qr_with_a_zero_column_matches_by_value() {
    // The unit test's rank-deficient case, and a taller one with the
    // zero column in the middle of dense ones: tau == 0 there, so
    // `qr_factor`, `qt_mul` and `thin_q` all take the skip.
    let small = Matrix::from_rows(&[
        vec![1.0, 0.0, 2.0],
        vec![3.0, 0.0, 4.0],
        vec![5.0, 0.0, 6.0],
    ]);
    let mut tall = dense(40, 9, 17);
    for i in 0..40 {
        tall[(i, 4)] = 0.0;
    }
    for a in [small, tall] {
        let (m, n) = a.shape();
        let f = qr_factor(&a);
        let (packed, taus) = ref_qr_factor(&a);
        assert!(taus.contains(&0.0), "premise: a skipped reflector");
        assert_values("zero-column packed", f.packed(), &packed);
        assert_eq!(f.taus(), &taus[..]);
        let b = dense(m, n, 3);
        assert_values(
            "zero-column qt_mul",
            &f.qt_mul(&b),
            &ref_qt_mul(&packed, &taus, &b),
        );
        assert_values(
            "zero-column thin_q",
            &f.thin_q(),
            &ref_thin_q(&packed, &taus),
        );
    }
    // Above the leaf: a skipped reflector is a zero column and row of
    // `T`, in the factorisation's leaf panel and in the whole `T`.
    let mut wide = dense(130, 40, 18);
    for i in 0..130 {
        wide[(i, 20)] = 0.0;
    }
    let f = qr_factor(&wide);
    assert_eq!(f.taus()[20], 0.0, "premise: a skipped reflector");
    assert_qr_residuals("zero-column 130x40", &wide, &f);
    let rebuilt = QrFactors::from_parts(f.packed().clone(), f.taus().to_vec());
    assert_qr_residuals("zero-column 130x40 from_parts", &wide, &rebuilt);
}

/// [`assert_solve`] where exact zeros meet a `!= 0.0` skip: within the
/// leaf the sweeps agree by value, not by the sign of a zero.
#[track_caller]
fn assert_holey_solve(
    what: &str,
    got: &Matrix,
    want: &Matrix,
    t: &Matrix,
    solved: &Matrix,
    b: &Matrix,
) {
    if t.rows() <= LEAF {
        assert_values(what, got, want);
    } else {
        assert_solve(what, got, want, t, solved, b);
    }
}

/// Every third diagonal of `full`, zeros between them.
fn banded_of(full: &Matrix) -> Matrix {
    Matrix::from_fn(full.rows(), full.cols(), |i, j| {
        if i.abs_diff(j) % 3 == 0 {
            full[(i, j)]
        } else {
            0.0
        }
    })
}

#[test]
fn solves_with_zero_off_diagonals_match_by_value() {
    // Once inside the leaf, where every solve is the sweep and its
    // skips, and once above it.
    for n in [LEAF, 33] {
        let full = dominant(n, 8);
        // A diagonal factor (every off-diagonal skip fires) and a banded
        // one (some do), against a right-hand side with zero rows and
        // columns of its own.
        let diagonal = Matrix::from_fn(n, n, |i, j| if i == j { full[(i, j)] } else { 0.0 });
        let banded = banded_of(&full);
        let dense_b = dense(n, n, 9);
        let holey_b = Matrix::from_fn(n, n, |i, j| {
            if i % 4 == 1 || j % 5 == 2 {
                0.0
            } else {
                dense_b[(i, j)]
            }
        });
        for (fname, t) in [("diagonal", &diagonal), ("banded", &banded)] {
            for (bname, b) in [("dense", &dense_b), ("holey", &holey_b)] {
                let what = format!("{n}: {fname} factor, {bname} rhs");
                for unit in [false, true] {
                    let x = solve_lower(t, b, unit);
                    assert_holey_solve(
                        &format!("solve_lower unit={unit}: {what}"),
                        &x,
                        &ref_solve_lower(t, b, unit),
                        t,
                        &matmul(&lower_of(t, unit), &x),
                        b,
                    );
                }
                assert_values(
                    &format!("solve_upper: {what}"),
                    &solve_upper(t, b),
                    &ref_solve_upper(t, b),
                );
                let x = solve_right_upper(t, b);
                assert_holey_solve(
                    &format!("solve_right_upper: {what}"),
                    &x,
                    &ref_solve_right_upper(t, b),
                    t,
                    &matmul(&x, &upper_from_packed(t)),
                    b,
                );
            }
        }
    }
    let (n, full) = (33, dominant(33, 8));
    let banded = banded_of(&full);
    // Cholesky and LU of factors with structural zeros.
    let spd_banded = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            n as f64
        } else if i.abs_diff(j) % 3 == 0 {
            0.5 * (full[(i, j)] + full[(j, i)])
        } else {
            0.0
        }
    });
    assert_values(
        "cholesky banded",
        &cholesky(&spd_banded).expect("SPD input"),
        &ref_cholesky(&spd_banded).expect("SPD input"),
    );
    let f = lu_factor(&banded).expect("dominant input");
    let (lu, perm, swaps) = ref_lu_factor(&banded).expect("dominant input");
    assert_values("lu_factor banded", &f.lu, &lu);
    assert_eq!((f.perm, f.swaps), (perm, swaps));
}

// ---------------------------------------------------------------------
// No dependence on buffer history.
// ---------------------------------------------------------------------

#[test]
fn every_kernel_is_repeatable() {
    let (m, n) = (130, 70);
    let tall = dense(m, n, 41);
    let rhs = dense(m, n, 42);
    let sq = dominant(n, 43);
    let pd = spd(n, 44);
    let wide = ref_transpose(&rhs);
    // The blocked solves at the executor's shape, through one `Packs`
    // that every pass leaves full of the last one's panels.
    let (big, big_rhs) = (dominant(128, 45), dense(128, 128, 46));
    let mut packs = Packs::default();
    // Interleave the kernels so any state one call left behind (a
    // reused scratch buffer, say) is stale when the next one runs.
    let mut pass = || {
        let (mut below, mut right) = (big_rhs.clone(), big_rhs.transpose());
        solve_lower_in_place(&mut packs, &big, true, &mut below);
        solve_upper_t_in_place(&mut packs, &big, &mut right);
        let f = qr_factor_with(&mut packs, &tall);
        let mut qt_rhs = rhs.clone();
        f.qt_mul_with(&mut packs, &mut qt_rhs);
        let lu = lu_factor(&sq).expect("dominant input");
        let lub = lu_factor_blocked(&sq, 16).expect("dominant input");
        vec![
            f.packed().clone(),
            Matrix::from_vec(1, n, f.taus().to_vec()),
            qt_rhs,
            f.thin_q(),
            cholesky(&pd).expect("SPD input"),
            solve_lower(&sq, &wide, false),
            solve_lower(&sq, &wide, true),
            solve_upper(&sq, &wide),
            solve_right_upper(&sq, &rhs),
            below,
            right,
            lu.lu,
            lub.lu,
            tall.transpose(),
            tall.block(3, 5, 100, 60),
        ]
    };
    let first = pass();
    let second = pass();
    for (idx, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_matrix_bits(&format!("repeat, output {idx}"), b, a);
    }
}
