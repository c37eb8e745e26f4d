//! General matrix-matrix multiplication (the workhorse of the
//! outer-product algorithm in Section 3.1 of the paper).
//!
//! Three implementations are provided:
//! * [`matmul`] / [`gemm`] — packed-panel kernel with a register-tiled
//!   4x4 micro-kernel (below), used by the executor for the per-block
//!   rank-`r` updates;
//! * [`par_gemm`] — the same kernel with row panels fanned out over the
//!   `hetgrid-par` work-stealing pool;
//! * [`matmul_naive`] — triple loop reference used in tests.
//!
//! The packed kernel follows the classic GotoBLAS/BLIS decomposition:
//! `B` is copied one `KC x NC` panel at a time into contiguous
//! column-strips of width `NR`, `A` into contiguous row-strips of height
//! `MR` (with `alpha` folded in during the copy), and the micro-kernel
//! then streams both packed buffers through an `MR x NR` block of
//! accumulator registers with a fully unrolled FMA-friendly inner loop.
//! Packing costs `O(mk + kn)` per panel pass but makes every
//! micro-kernel read sequential and lets the same `A` strip stay in
//! registers across the whole `B` panel — the difference between the
//! memory-bound `ikj` loop and a compute-bound kernel.

use crate::Matrix;

/// Micro-tile height (rows of `A` per strip). The micro-tile width is
/// chosen at runtime by [`select_kernel`]: 4 for the portable kernel,
/// 8 for the AVX2/FMA kernel.
const MR: usize = 4;
/// Inner (`k`) extent of one packed panel pass: `KC * (MR + NR)` doubles
/// of packed data live in L1/L2 while a strip pair is being consumed.
const KC: usize = 256;
/// Rows of `A` packed per inner block.
const MC: usize = 128;
/// Columns of `B` packed per outer panel.
const NC: usize = 1024;

/// Signature shared by the micro-kernels: accumulate
/// `C[i0..i0+mr, j0..j0+nr] += A_strip * B_strip` over `kc` steps into
/// the row-major `c_rows` slice with leading dimension `n`.
type MicroKernel = fn(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
);

/// Picks the widest micro-kernel the host supports: the 4x8 AVX2+FMA
/// kernel when the CPU has both features, the portable unrolled 4x4
/// otherwise. Returns `(nr_tile, kernel)`; `is_x86_feature_detected!`
/// caches, so the check is an atomic load after the first call.
fn select_kernel() -> (usize, MicroKernel) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return (8, micro_kernel_4x8_avx2);
        }
    }
    (4, micro_kernel_4x4)
}

/// `C <- alpha * A * B + beta * C` through the packed micro-kernel.
///
/// # Panics
/// Panics on dimension mismatch (`A` is `m x k`, `B` is `k x n`, `C` is
/// `m x n`).
pub fn gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "gemm: inner dimensions differ");
    assert_eq!(c.shape(), (m, n), "gemm: C has wrong shape");

    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_rows_packed(alpha, a, b, 0..m, c.as_mut_slice());
}

/// `C <- alpha * A * B + beta * C` with row panels of `C` split across
/// the shared thread pool. Workers compute disjoint row ranges, each
/// running the packed kernel on its own slice of `C`; on a single-thread
/// pool this degenerates to [`gemm`].
///
/// # Panics
/// Panics on dimension mismatch.
pub fn par_gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "par_gemm: inner dimensions differ");
    assert_eq!(c.shape(), (m, n), "par_gemm: C has wrong shape");

    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    let pool = hetgrid_par::global();
    let threads = pool.threads();
    if threads == 1 || m < 2 * MR {
        gemm_rows_packed(alpha, a, b, 0..m, c.as_mut_slice());
        return;
    }

    // Split the rows of C into one contiguous chunk per worker, rounded
    // to the micro-tile height so no strip straddles two workers.
    let chunk = (m.div_ceil(threads)).next_multiple_of(MR);
    let mut jobs: Vec<(usize, &mut [f64])> = Vec::new();
    let mut rest = c.as_mut_slice();
    let mut row0 = 0;
    while row0 < m {
        let rows = chunk.min(m - row0);
        let (head, tail) = rest.split_at_mut(rows * n);
        jobs.push((row0, head));
        rest = tail;
        row0 += rows;
    }
    pool.scope(|s| {
        for (row0, c_rows) in jobs {
            let rows = c_rows.len() / n;
            s.spawn(move || {
                gemm_rows_packed(alpha, a, b, row0..row0 + rows, c_rows);
            });
        }
    });
}

#[inline]
fn scale(beta: f64, c: &mut [f64]) {
    if beta != 1.0 {
        for x in c {
            *x *= beta;
        }
    }
}

/// Packed-panel GEMM for rows `rows.start..rows.end` of the product;
/// `c_rows` is the corresponding row-major slice of `C` (beta already
/// applied). Shared by [`gemm`] (whole matrix) and [`par_gemm`]
/// (per-worker row chunk).
fn gemm_rows_packed(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    rows: std::ops::Range<usize>,
    c_rows: &mut [f64],
) {
    let k = a.cols();
    let n = b.cols();
    let m = rows.len();
    debug_assert_eq!(c_rows.len(), m * n);

    let (nr_tile, kernel) = select_kernel();

    // Packed buffers, allocated once per call and reused across panels.
    let mut a_pack = vec![0.0f64; MC.min(m.next_multiple_of(MR)) * KC.min(k)];
    let mut b_pack = vec![0.0f64; KC.min(k) * NC.min(n.next_multiple_of(nr_tile))];

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nc_strips = nc.div_ceil(nr_tile);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, pc, jc, kc, nc, nr_tile, &mut b_pack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let mc_strips = mc.div_ceil(MR);
                pack_a(a, alpha, rows.start + ic, pc, mc, kc, &mut a_pack);
                for sj in 0..nc_strips {
                    let j0 = jc + sj * nr_tile;
                    let nr = nr_tile.min(n - j0);
                    let b_strip = &b_pack[sj * kc * nr_tile..(sj + 1) * kc * nr_tile];
                    for si in 0..mc_strips {
                        let i0 = ic + si * MR;
                        let mr = MR.min(m - i0);
                        let a_strip = &a_pack[si * kc * MR..(si + 1) * kc * MR];
                        kernel(kc, a_strip, b_strip, c_rows, i0, j0, n, mr, nr);
                    }
                }
            }
        }
    }
}

/// Packs `A[ic.., pc..]` (`mc x kc`) into row-strips of height `MR`:
/// strip `s` holds, for each `p`, the `MR` values of rows
/// `ic + s*MR .. ic + s*MR + MR` at column `pc + p`, contiguously.
/// Missing tail rows are zero-filled; `alpha` is folded in here so the
/// micro-kernel never multiplies by it.
fn pack_a(a: &Matrix, alpha: f64, ic: usize, pc: usize, mc: usize, kc: usize, buf: &mut [f64]) {
    let strips = mc.div_ceil(MR);
    for s in 0..strips {
        let strip = &mut buf[s * kc * MR..(s + 1) * kc * MR];
        let row_base = ic + s * MR;
        let rows_here = MR.min(mc - s * MR);
        for r in 0..rows_here {
            let arow = &a.row(row_base + r)[pc..pc + kc];
            for (p, &v) in arow.iter().enumerate() {
                strip[p * MR + r] = alpha * v;
            }
        }
        if rows_here < MR {
            for p in 0..kc {
                for r in rows_here..MR {
                    strip[p * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Packs `B[pc.., jc..]` (`kc x nc`) into column-strips of width `nr`:
/// strip `s` holds, for each `p`, the `nr` values of row `pc + p` at
/// columns `jc + s*nr .. + nr`, contiguously. Tail columns zero-fill.
fn pack_b(b: &Matrix, pc: usize, jc: usize, kc: usize, nc: usize, nr: usize, buf: &mut [f64]) {
    let strips = nc.div_ceil(nr);
    for s in 0..strips {
        let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
        let col_base = jc + s * nr;
        let cols_here = nr.min(nc - s * nr);
        for p in 0..kc {
            let brow = b.row(pc + p);
            let dst = &mut strip[p * nr..p * nr + nr];
            dst[..cols_here].copy_from_slice(&brow[col_base..col_base + cols_here]);
            for d in dst.iter_mut().take(nr).skip(cols_here) {
                *d = 0.0;
            }
        }
    }
}

/// The 4x4 register-tiled micro-kernel: accumulates
/// `C[i0.., j0..] += A_strip * B_strip` over `kc` steps with all sixteen
/// accumulators held in locals and the inner step fully unrolled. The
/// packed strips are zero-padded, so the accumulation always runs the
/// full tile; only the `mr x nr` valid corner is written back.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel_4x4(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    let (mut c00, mut c01, mut c02, mut c03) = (0.0f64, 0.0, 0.0, 0.0);
    let (mut c10, mut c11, mut c12, mut c13) = (0.0f64, 0.0, 0.0, 0.0);
    let (mut c20, mut c21, mut c22, mut c23) = (0.0f64, 0.0, 0.0, 0.0);
    let (mut c30, mut c31, mut c32, mut c33) = (0.0f64, 0.0, 0.0, 0.0);

    for (av, bv) in a_strip
        .chunks_exact(MR)
        .zip(b_strip.chunks_exact(4))
        .take(kc)
    {
        let (a0, a1, a2, a3) = (av[0], av[1], av[2], av[3]);
        let (b0, b1, b2, b3) = (bv[0], bv[1], bv[2], bv[3]);
        c00 += a0 * b0;
        c01 += a0 * b1;
        c02 += a0 * b2;
        c03 += a0 * b3;
        c10 += a1 * b0;
        c11 += a1 * b1;
        c12 += a1 * b2;
        c13 += a1 * b3;
        c20 += a2 * b0;
        c21 += a2 * b1;
        c22 += a2 * b2;
        c23 += a2 * b3;
        c30 += a3 * b0;
        c31 += a3 * b1;
        c32 += a3 * b2;
        c33 += a3 * b3;
    }

    let acc = [
        [c00, c01, c02, c03],
        [c10, c11, c12, c13],
        [c20, c21, c22, c23],
        [c30, c31, c32, c33],
    ];
    for (r, acc_row) in acc.iter().enumerate().take(mr) {
        let crow = &mut c_rows[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
        for (cv, &av) in crow.iter_mut().zip(acc_row) {
            *cv += av;
        }
    }
}

/// Safe front for the AVX2+FMA 4x8 micro-kernel. Only selected by
/// [`select_kernel`] after `is_x86_feature_detected!` confirms both
/// features, which makes the inner call sound.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn micro_kernel_4x8_avx2(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    debug_assert!(
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    );
    unsafe { micro_kernel_4x8_fma(kc, a_strip, b_strip, c_rows, i0, j0, n, mr, nr) }
}

/// The 4x8 AVX2+FMA micro-kernel: eight 256-bit accumulators (four rows
/// x two vector halves of the 8-wide tile), one broadcast of each `A`
/// value and two `vfmadd` per row per `k` step. Eight independent
/// accumulator chains are enough to cover the FMA latency on the two
/// FMA ports of Haswell-and-later cores.
///
/// # Safety
/// Requires AVX2 and FMA at runtime; `a_strip`/`b_strip` must hold at
/// least `kc` packed steps (`4` resp. `8` doubles each).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_4x8_fma(
    kc: usize,
    a_strip: &[f64],
    b_strip: &[f64],
    c_rows: &mut [f64],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;

    debug_assert!(a_strip.len() >= kc * MR && b_strip.len() >= kc * 8);
    let mut ap = a_strip.as_ptr();
    let mut bp = b_strip.as_ptr();

    let mut acc = [_mm256_setzero_pd(); 8];
    for _ in 0..kc {
        let b_lo = _mm256_loadu_pd(bp);
        let b_hi = _mm256_loadu_pd(bp.add(4));
        let a0 = _mm256_set1_pd(*ap);
        acc[0] = _mm256_fmadd_pd(a0, b_lo, acc[0]);
        acc[1] = _mm256_fmadd_pd(a0, b_hi, acc[1]);
        let a1 = _mm256_set1_pd(*ap.add(1));
        acc[2] = _mm256_fmadd_pd(a1, b_lo, acc[2]);
        acc[3] = _mm256_fmadd_pd(a1, b_hi, acc[3]);
        let a2 = _mm256_set1_pd(*ap.add(2));
        acc[4] = _mm256_fmadd_pd(a2, b_lo, acc[4]);
        acc[5] = _mm256_fmadd_pd(a2, b_hi, acc[5]);
        let a3 = _mm256_set1_pd(*ap.add(3));
        acc[6] = _mm256_fmadd_pd(a3, b_lo, acc[6]);
        acc[7] = _mm256_fmadd_pd(a3, b_hi, acc[7]);
        ap = ap.add(MR);
        bp = bp.add(8);
    }

    if nr == 8 {
        // Full-width tile: add straight into C with vector loads/stores.
        for r in 0..mr {
            let cp = c_rows.as_mut_ptr().add((i0 + r) * n + j0);
            let lo = _mm256_add_pd(_mm256_loadu_pd(cp), acc[2 * r]);
            let hi = _mm256_add_pd(_mm256_loadu_pd(cp.add(4)), acc[2 * r + 1]);
            _mm256_storeu_pd(cp, lo);
            _mm256_storeu_pd(cp.add(4), hi);
        }
    } else {
        // Ragged edge: spill the tile to a stack buffer, add the valid
        // corner scalar-wise.
        let mut buf = [[0.0f64; 8]; MR];
        for r in 0..MR {
            _mm256_storeu_pd(buf[r].as_mut_ptr(), acc[2 * r]);
            _mm256_storeu_pd(buf[r].as_mut_ptr().add(4), acc[2 * r + 1]);
        }
        for (r, brow) in buf.iter().enumerate().take(mr) {
            let crow = &mut c_rows[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
            for (cv, &v) in crow.iter_mut().zip(&brow[..nr]) {
                *cv += v;
            }
        }
    }
}

/// Returns `A * B` using the packed kernel.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, b, 0.0, &mut c);
    c
}

/// Reference triple-loop `A * B`, used to validate [`matmul`].
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul_naive: inner dimensions differ");
    Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum())
}

/// Matrix-vector product `A * x`.
///
/// # Panics
/// Panics if `x.len() != A.cols()`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.cols(), "matvec: dimension mismatch");
    (0..a.rows())
        .map(|i| a.row(i).iter().zip(x).map(|(av, xv)| av * xv).sum())
        .collect()
}

/// Rank-1 update `A <- A + alpha * u * v^T`.
///
/// # Panics
/// Panics if `u.len() != A.rows()` or `v.len() != A.cols()`.
pub fn ger(alpha: f64, u: &[f64], v: &[f64], a: &mut Matrix) {
    assert_eq!(u.len(), a.rows(), "ger: u length mismatch");
    assert_eq!(v.len(), a.cols(), "ger: v length mismatch");
    for (i, &ui) in u.iter().enumerate() {
        let s = alpha * ui;
        for (av, vv) in a.row_mut(i).iter_mut().zip(v) {
            *av += s * vv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random fill; keeps the tests hermetic.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (17, 9, 23),
            (64, 65, 66),
            (130, 70, 129),
        ] {
            let a = arb(m, k, (m * 1000 + k) as u64);
            let b = arb(k, n, (k * 1000 + n) as u64);
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            assert!(
                fast.approx_eq(&slow, 1e-10 * k as f64),
                "mismatch at {}x{}x{}",
                m,
                k,
                n
            );
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = arb(8, 8, 7);
        assert!(matmul(&a, &Matrix::identity(8)).approx_eq(&a, 1e-14));
        assert!(matmul(&Matrix::identity(8), &a).approx_eq(&a, 1e-14));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = arb(4, 3, 1);
        let b = arb(3, 5, 2);
        let c0 = arb(4, 5, 3);
        let mut c = c0.clone();
        gemm(2.0, &a, &b, 0.5, &mut c);
        let expected = matmul_naive(&a, &b).scale(2.0).add(&c0.scale(0.5));
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn gemm_zero_alpha_only_scales_c() {
        let a = arb(2, 2, 4);
        let b = arb(2, 2, 5);
        let mut c = Matrix::filled(2, 2, 3.0);
        gemm(0.0, &a, &b, 2.0, &mut c);
        assert!(c.approx_eq(&Matrix::filled(2, 2, 6.0), 1e-14));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = arb(5, 4, 11);
        let x: Vec<f64> = (0..4).map(|i| i as f64 + 0.5).collect();
        let xm = Matrix::from_fn(4, 1, |i, _| x[i]);
        let y = matvec(&a, &x);
        let ym = matmul(&a, &xm);
        for i in 0..5 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn ger_rank1() {
        let mut a = Matrix::zeros(3, 2);
        ger(2.0, &[1.0, 2.0, 3.0], &[4.0, 5.0], &mut a);
        assert_eq!(a[(2, 1)], 30.0);
        assert_eq!(a[(0, 0)], 8.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_dims_panic() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }
}
