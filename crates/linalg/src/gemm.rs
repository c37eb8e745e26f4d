//! General matrix-matrix multiplication (the workhorse of the
//! outer-product algorithm in Section 3.1 of the paper).
//!
//! * [`gemm`] / [`matmul`] — the packed-panel kernel, used by the
//!   executors for the per-block rank-`r` updates; [`gemm_with`] is the
//!   same call for a caller that loops and keeps its [`Packs`];
//! * [`matmul_naive`] — triple loop reference used in tests.
//!
//! The packed kernel follows the classic GotoBLAS/BLIS decomposition:
//! `B` is copied one `KC x NC` panel at a time into contiguous
//! column-strips of width `nr`, `A` into contiguous row-strips of height
//! `mr` (with `alpha` folded in during the copy), and a micro-kernel
//! then streams both packed buffers through an `mr x nr` block of
//! accumulator registers. Packing costs `O(mk + kn)` per panel pass but
//! makes every micro-kernel read sequential and lets the same `A` strip
//! stay in registers across the whole `B` panel — the difference
//! between the memory-bound `ikj` loop and a compute-bound kernel.
//!
//! The tile `mr x nr` belongs to the micro-kernel, picked once per call
//! at the width of the host (`select_kernel`): 8x16 on 512-bit `zmm`
//! registers where the CPU has `avx512f`, else 4x8 on `ymm` with
//! AVX2 + FMA, else a portable unrolled 4x4. The two SIMD kernels are
//! one macro body; in both, every `C` element is one FMA chain over
//! `p = 0..kc` in order followed by one add into `C`, so they agree to
//! the last bit and hosts differ only portable-vs-FMA.
//!
//! Inside the crate the product is *ranged* ([`gemm_ranged`]): packing
//! copies `A` and `B` out anyway and the micro-kernels take a leading
//! dimension, so a sub-block operand costs an offset, not a copy. The
//! recursive triangular solve (`tri`) and the blocked factorisations
//! update one part of a matrix from another part of it that way.
//!
//! [`Packs`] holds the two packed buffers. A block-sized product packs
//! about as many doubles as it multiplies, so a caller that loops (an
//! executor's worker) owns one and passes it to [`gemm_with`]; the
//! buffers grow to the largest product seen and stay with that worker.

use crate::Matrix;
use std::ops::Range;

/// Inner (`k`) extent of one packed panel pass: `KC * (mr + nr)` doubles
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

/// A micro-kernel with the tile it computes: `(mr, nr, kernel)`. `A` is
/// packed in strips of `mr` rows, `B` in strips of `nr` columns.
type Tile = (usize, usize, MicroKernel);

/// Every micro-kernel this host can run, widest first.
/// `is_x86_feature_detected!` caches, so each check is an atomic load
/// after the first call.
fn supported_kernels() -> impl Iterator<Item = Tile> {
    #[cfg(target_arch = "x86_64")]
    let simd = {
        use std::arch::is_x86_feature_detected as has;
        [
            (
                has!("avx512f"),
                (8, 16, micro_kernel_8x16_avx512 as MicroKernel),
            ),
            (
                has!("avx2") && has!("fma"),
                (4, 8, micro_kernel_4x8_avx2 as MicroKernel),
            ),
        ]
    };
    #[cfg(not(target_arch = "x86_64"))]
    let simd: [(bool, Tile); 0] = [];
    let portable: Tile = (4, 4, micro_kernel_4x4);
    simd.into_iter()
        .filter_map(|(detected, tile)| detected.then_some(tile))
        .chain([portable])
}

/// The widest micro-kernel the host supports.
fn select_kernel() -> Tile {
    supported_kernels()
        .next()
        .expect("the portable kernel is always there")
}

/// The packed `A` block and `B` panel of a product, kept by whoever
/// calls [`gemm_with`] in a loop. Grown on demand, never shrunk; a
/// product overwrites what it reads, so nothing carries over between
/// calls but the capacity.
#[derive(Debug, Default)]
pub struct Packs {
    a: Vec<f64>,
    b: Vec<f64>,
}

/// `C <- alpha * A * B + beta * C` through the packed micro-kernel.
/// `beta == 0` overwrites: `C` is not read, so it may hold anything.
///
/// # Panics
/// Panics on dimension mismatch (`A` is `m x k`, `B` is `k x n`, `C` is
/// `m x n`).
pub fn gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    gemm_with(&mut Packs::default(), alpha, a, b, beta, c);
}

/// [`gemm`] with the caller's pack buffers instead of fresh ones: same
/// result to the bit, without two allocations per call.
///
/// # Panics
/// As [`gemm`].
pub fn gemm_with(packs: &mut Packs, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "gemm: inner dimensions differ");
    assert_eq!(c.shape(), (m, n), "gemm: C has wrong shape");

    scale(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let (a, b, c) = (Left(a, 0..m, 0..k, false), b.as_slice(), c.as_mut_slice());
    gemm_ranged(None, packs, alpha, a, (b, n), (c, n), n);
}

/// `C <- beta * C`, where `beta == 0` means "`C` is not read": a
/// product would keep the `NaN`s and infinities `C` held.
#[inline]
fn scale(beta: f64, c: &mut [f64]) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c {
            *x *= beta;
        }
    }
}

/// The left operand of a ranged product, `(m, rows, cols, trans)`: the
/// `rows x cols` sub-block of `m` — or, with `trans`, of its transpose
/// (element `(i, p)` is `m[(p, i)]`), so an upper-triangular factor is
/// read as the lower one it transposes to without being copied.
pub(crate) struct Left<'a>(pub &'a Matrix, pub Range<usize>, pub Range<usize>, pub bool);

/// `C += alpha * A * B` on sub-blocks, through the packed micro-kernel
/// `tile` (the host's widest when `None`): `A` is `m x k`; `b` and `c` are
/// `(slice, leading dimension)` views of a `k x n` and an `m x n` block
/// of row-major storage, each slice starting at its block's first
/// element. They may be disjoint row ranges of one matrix, split by
/// `split_at_mut`.
///
/// # Panics
/// Panics if a view is too short for its block.
pub(crate) fn gemm_ranged(
    tile: Option<Tile>,
    packs: &mut Packs,
    alpha: f64,
    Left(a, rows, cols, trans): Left<'_>,
    (b, ldb): (&[f64], usize),
    (c, ldc): (&mut [f64], usize),
    n: usize,
) {
    let (mr_tile, nr_tile, kernel) = tile.unwrap_or_else(select_kernel);
    let (m, k) = (rows.len(), cols.len());
    let fits = |len, rows, ld| rows == 0 || (n <= ld && (rows - 1) * ld + n <= len);
    assert!(fits(b.len(), k, ldb), "gemm: B view too short");
    assert!(fits(c.len(), m, ldc), "gemm: C view too short");

    // One A block and one B panel, reused across the loops below.
    packs.reserve(m, k, n);
    let (a_pack, b_pack) = (&mut packs.a[..], &mut packs.b[..]);

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nc_strips = nc.div_ceil(nr_tile);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, ldb, (pc, jc), (kc, nc), nr_tile, b_pack);
            let a_cols = cols.start + pc..cols.start + pc + kc;
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let mc_strips = mc.div_ceil(mr_tile);
                let a_rows = rows.start + ic..rows.start + ic + mc;
                pack_a(a, trans, alpha, a_rows, a_cols.clone(), mr_tile, a_pack);
                for sj in 0..nc_strips {
                    let j0 = jc + sj * nr_tile;
                    let nr = nr_tile.min(n - j0);
                    let b_strip = &b_pack[sj * kc * nr_tile..(sj + 1) * kc * nr_tile];
                    for si in 0..mc_strips {
                        let i0 = ic + si * mr_tile;
                        let mr = mr_tile.min(m - i0);
                        let a_strip = &a_pack[si * kc * mr_tile..(si + 1) * kc * mr_tile];
                        kernel(kc, a_strip, b_strip, c, i0, j0, ldc, mr, nr);
                    }
                }
            }
        }
    }
}

impl Packs {
    /// Both buffers at no less than an `m x k` by `k x n` product packs
    /// on the widest tile. Their old contents are dead, so growing is a
    /// fresh zeroed allocation, not a copy — for a new [`Packs`] the
    /// only one. A caller whose products grow (the recursive solve, from
    /// its leaves up) reserves for the largest first.
    pub(crate) fn reserve(&mut self, m: usize, k: usize, n: usize) {
        let grow = |pack: &mut Vec<f64>, len: usize| {
            if pack.len() < len {
                *pack = vec![0.0; len];
            }
        };
        let kc_max = KC.min(k);
        grow(&mut self.a, MC.min(m.next_multiple_of(8)) * kc_max);
        grow(&mut self.b, kc_max * NC.min(n.next_multiple_of(16)));
    }
}

/// Packs `A[rows, cols]` (`A` is `a`, or with `trans` its transpose)
/// into row-strips of height `mr`: strip `s` holds, for each column `p`,
/// the `mr` values of rows `rows.start + s*mr .. + mr` at that column,
/// contiguously. Missing tail rows are zero-filled; `alpha` is folded in
/// here so the micro-kernel never multiplies by it.
fn pack_a(
    a: &Matrix,
    trans: bool,
    alpha: f64,
    rows: Range<usize>,
    cols: Range<usize>,
    mr: usize,
    buf: &mut [f64],
) {
    match (trans, mr) {
        // The `mr` values a strip of the transpose holds per step `p`
        // sit side by side in row `p` of `a`: `B`'s layout, then scaled.
        (true, _) => {
            let (at, kc, mc) = (a.as_slice(), cols.len(), rows.len());
            pack_b(at, a.cols(), (cols.start, rows.start), (kc, mc), mr, buf);
            let packed = &mut buf[..kc * mc.next_multiple_of(mr)];
            packed.iter_mut().for_each(|x| *x *= alpha);
        }
        (false, 4) => pack_a_strips::<4>(a, alpha, rows, cols, buf),
        (false, 8) => pack_a_strips::<8>(a, alpha, rows, cols, buf),
        _ => unreachable!("no micro-kernel is {mr} rows tall"),
    }
}

/// [`pack_a`] at a tile height the compiler knows. A gather: the `H`
/// row slices are taken once and each strip is written front to back
/// (`dst[r] = alpha * rows[r][p]`), so the strided side is the reads
/// and the `H` stores of a step share a cache line.
fn pack_a_strips<const H: usize>(
    a: &Matrix,
    alpha: f64,
    rows: Range<usize>,
    cols: Range<usize>,
    buf: &mut [f64],
) {
    let strips = buf.chunks_exact_mut(cols.len() * H);
    for (strip, row0) in strips.zip(rows.clone().step_by(H)) {
        // A row past the end reads the last one and is zeroed below.
        let srcs: [&[f64]; H] =
            std::array::from_fn(|r| &a.row((row0 + r).min(rows.end - 1))[cols.clone()]);
        for (p, dst) in strip.chunks_exact_mut(H).enumerate() {
            for (d, src) in dst.iter_mut().zip(&srcs) {
                *d = alpha * src[p];
            }
        }
        let rows_here = rows.end - row0;
        if rows_here < H {
            for dst in strip.chunks_exact_mut(H) {
                dst[rows_here..].fill(0.0);
            }
        }
    }
}

/// Packs `B[pc.., jc..]` (`kc x nc`; `b` has leading dimension `ld`)
/// into column-strips of width `nr`: strip `s` holds, for each `p`, the
/// `nr` values of row `pc + p` at columns `jc + s*nr .. + nr`,
/// contiguously. Tail columns zero-fill.
fn pack_b(
    b: &[f64],
    ld: usize,
    (pc, jc): (usize, usize),
    (kc, nc): (usize, usize),
    nr: usize,
    buf: &mut [f64],
) {
    let strips = nc.div_ceil(nr);
    for s in 0..strips {
        let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
        let cols_here = nr.min(nc - s * nr);
        for p in 0..kc {
            let src = &b[(pc + p) * ld + jc + s * nr..][..cols_here];
            let dst = &mut strip[p * nr..p * nr + nr];
            dst[..cols_here].copy_from_slice(src);
            dst[cols_here..].fill(0.0);
        }
    }
}

/// The portable 4x4 register-tiled micro-kernel: accumulates
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
        .chunks_exact(4)
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

/// One SIMD micro-kernel: `$mr` rows by two vectors of `$lanes` doubles,
/// so `2 * $mr` accumulator registers. Per `k` step: two loads of the
/// packed `B` strip, `$mr` broadcasts of the packed `A` strip and
/// `2 * $mr` FMAs, each accumulator its own dependency chain from zero.
/// A full-width tile is then added into `C` with vector loads and
/// stores; a ragged one is spilled to a stack buffer and its valid
/// corner added scalar-wise.
///
/// `$front` is the safe fn [`supported_kernels`] hands out. It checks
/// everything `$inner`'s pointer arithmetic relies on, in forms that
/// cannot overflow — a few compares per `kc * mr * nr` FMAs — and
/// passes `C` as the slice from the tile's first element to its last.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_micro_kernel {
    (
        $(#[$doc:meta])*
        fn $front:ident / $inner:ident,
        tile = $mr:literal x 2 * $lanes:literal,
        features = [$($feature:tt),+],
        ops = $zero:ident $load:ident $store:ident $splat:ident $fmadd:ident $add:ident
    ) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        fn $front(
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
            assert!($(std::arch::is_x86_feature_detected!($feature))&&+);
            assert!(kc <= a_strip.len() / $mr && kc <= b_strip.len() / (2 * $lanes));
            // `n` is a leading dimension: a view's last row may stop short of
            // it, so it is bounded for the product below, not by the slice.
            assert!((1..=$mr).contains(&mr) && nr <= 2 * $lanes && n <= usize::MAX / $mr);
            let c_tile = &mut c_rows[i0 * n + j0..][..(mr - 1) * n + nr];
            // SAFETY: the asserts and the slicing above are `$inner`'s
            // contract, clause by clause.
            unsafe { $inner(kc, a_strip, b_strip, c_tile, n, mr, nr) }
        }

        /// # Safety
        /// The CPU must have this kernel's target features; `a_strip`
        /// and `b_strip` must hold `kc` packed steps (of the tile's
        /// height resp. width in doubles); `mr` and `nr` must not
        /// exceed the tile; `c_tile` must be at least
        /// `(mr - 1) * n + nr` long, `mr >= 1`.
        #[target_feature($(enable = $feature),+)]
        unsafe fn $inner(
            kc: usize,
            a_strip: &[f64],
            b_strip: &[f64],
            c_tile: &mut [f64],
            n: usize,
            mr: usize,
            nr: usize,
        ) {
            use std::arch::x86_64::*;

            // `kc` steps of `$mr` resp. `2 * $lanes` doubles: inside
            // the strips by the contract.
            let mut ap = a_strip.as_ptr();
            let mut bp = b_strip.as_ptr();
            let mut acc = [[$zero(); 2]; $mr];
            for _ in 0..kc {
                let b = [$load(bp), $load(bp.add($lanes))];
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let a = $splat(*ap.add(r));
                    acc_r[0] = $fmadd(a, b[0], acc_r[0]);
                    acc_r[1] = $fmadd(a, b[1], acc_r[1]);
                }
                ap = ap.add($mr);
                bp = bp.add(2 * $lanes);
            }

            if nr == 2 * $lanes {
                // Row `r < mr` ends at `r * n + nr <= c_tile.len()`.
                for (r, acc_r) in acc.iter().enumerate().take(mr) {
                    let cp = c_tile.as_mut_ptr().add(r * n);
                    $store(cp, $add($load(cp), acc_r[0]));
                    $store(cp.add($lanes), $add($load(cp.add($lanes)), acc_r[1]));
                }
            } else {
                let mut buf = [[0.0f64; 2 * $lanes]; $mr];
                for (brow, acc_r) in buf.iter_mut().zip(&acc) {
                    $store(brow.as_mut_ptr(), acc_r[0]);
                    $store(brow.as_mut_ptr().add($lanes), acc_r[1]);
                }
                for (r, brow) in buf.iter().enumerate().take(mr) {
                    let crow = &mut c_tile[r * n..r * n + nr];
                    for (cv, &v) in crow.iter_mut().zip(&brow[..nr]) {
                        *cv += v;
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_micro_kernel! {
    /// 4x8 on eight 256-bit `ymm` accumulators: enough independent
    /// chains to cover the FMA latency on the two FMA ports of
    /// Haswell-and-later cores.
    fn micro_kernel_4x8_avx2 / micro_kernel_4x8_avx2_inner,
    tile = 4 x 2 * 4,
    features = ["avx2", "fma"],
    ops = _mm256_setzero_pd _mm256_loadu_pd _mm256_storeu_pd _mm256_set1_pd _mm256_fmadd_pd _mm256_add_pd
}

#[cfg(target_arch = "x86_64")]
simd_micro_kernel! {
    /// 8x16 on sixteen 512-bit `zmm` accumulators: sixteen chains cover
    /// 4-cycle latency x 2 ports twice over, and one `A` broadcast feeds
    /// two FMAs where an 8x8 tile would feed one. Bit-identical to the
    /// 4x8 kernel (same chain per `C` element).
    fn micro_kernel_8x16_avx512 / micro_kernel_8x16_avx512_inner,
    tile = 8 x 2 * 8,
    features = ["avx512f"],
    ops = _mm512_setzero_pd _mm512_loadu_pd _mm512_storeu_pd _mm512_set1_pd _mm512_fmadd_pd _mm512_add_pd
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

    /// `m < mr`, `k > KC`, `nr + 1` columns, ragged everything,
    /// `n > NC`.
    const SHAPES: [(usize, usize, usize); 6] = [
        (1, 1, 1),
        (3, 4, 5),
        (7, 300, 15),
        (9, 5, 17),
        (130, 70, 129),
        (16, 128, 1030),
    ];

    fn operands((m, k, n): (usize, usize, usize)) -> (Matrix, Matrix, Matrix) {
        let seed = (m * 1000 + k) as u64;
        (arb(m, k, seed), arb(k, n, seed + 1), arb(m, n, seed + 2))
    }

    /// `1.5 * A * B - 0.5 * C` through one given micro-kernel.
    fn gemm_on(tile: Tile, packs: &mut Packs, a: &Matrix, b: &Matrix, c0: &Matrix) -> Matrix {
        let mut c = c0.clone();
        scale(-0.5, c.as_mut_slice());
        let ((m, k), n) = (a.shape(), b.cols());
        let (a, b, c_rows) = (Left(a, 0..m, 0..k, false), b.as_slice(), c.as_mut_slice());
        gemm_ranged(Some(tile), packs, 1.5, a, (b, n), (c_rows, n), n);
        c
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_supported_kernel_matches_naive() {
        let tiles: Vec<Tile> = supported_kernels().collect();
        assert_eq!(tiles.last().map(|t| (t.0, t.1)), Some((4, 4)));
        for shape in SHAPES {
            let (a, b, c0) = operands(shape);
            let want = matmul_naive(&a, &b).scale(1.5).add(&c0.scale(-0.5));
            for &tile in &tiles {
                let got = gemm_on(tile, &mut Packs::default(), &a, &b, &c0);
                assert!(
                    got.approx_eq(&want, 1e-10 * shape.1 as f64),
                    "{}x{} kernel at {shape:?}",
                    tile.0,
                    tile.1
                );
            }
        }
    }

    /// Every `C` element is the same FMA chain in every SIMD kernel, so
    /// the hosts that have both see no difference between them.
    #[test]
    fn simd_kernels_agree_to_the_bit() {
        let simd: Vec<Tile> = supported_kernels().filter(|t| t.1 > 4).collect();
        for shape in SHAPES {
            let (a, b, c0) = operands(shape);
            let got: Vec<_> = simd
                .iter()
                .map(|&tile| bits(&gemm_on(tile, &mut Packs::default(), &a, &b, &c0)))
                .collect();
            assert!(got.windows(2).all(|w| w[0] == w[1]), "{shape:?}");
        }
    }

    /// Stale pack contents beyond a smaller product's zero-padded tail
    /// must not leak into it.
    #[test]
    fn reused_packs_match_fresh_ones_to_the_bit() {
        let mut by_size = SHAPES;
        by_size.sort_by_key(|&(m, k, n)| m * k * n);
        for tile in supported_kernels() {
            let mut packs = Packs::default();
            for &shape in by_size.iter().rev().chain(&by_size) {
                let (a, b, c0) = operands(shape);
                let fresh = gemm_on(tile, &mut Packs::default(), &a, &b, &c0);
                let reused = gemm_on(tile, &mut packs, &a, &b, &c0);
                assert!(bits(&reused) == bits(&fresh), "{shape:?}");
            }
        }
        let (a, b, c0) = operands((9, 5, 17));
        let (mut with, mut plain) = (c0.clone(), c0);
        gemm_with(&mut Packs::default(), 1.5, &a, &b, -0.5, &mut with);
        gemm(1.5, &a, &b, -0.5, &mut plain);
        assert!(bits(&with) == bits(&plain));
    }

    /// Sub-block operands are an addressing matter: `A` out of a larger
    /// matrix or out of its transpose, `B` and `C` views into two row
    /// ranges of one buffer, give the bits of the blocks copied out —
    /// and nothing outside `C` is written.
    #[test]
    fn ranged_product_matches_the_blocks_copied_out() {
        let (big, whole) = (arb(40, 37, 1), arb(31, 29, 2));
        let (bigt, ld) = (big.transpose(), whole.cols());
        for tile in supported_kernels() {
            // Down to a one-row `C` that ends short of `ld`.
            for (m, k, n) in [(13, 11, 17), (1, 18, 5), (9, 1, 21)] {
                let (a_blk, b_blk) = (big.block(3, 5, m, k), whole.block(2, 4, k, n));
                let mut want = whole.clone();
                let mut c_blk = whole.block(31 - m, 7, m, n);
                let a = Left(&a_blk, 0..m, 0..k, false);
                let (b, c) = (b_blk.as_slice(), c_blk.as_mut_slice());
                gemm_ranged(Some(tile), &mut Packs::default(), 1.5, a, (b, n), (c, n), n);
                want.set_block(31 - m, 7, &c_blk);
                for (src, trans) in [(&big, false), (&bigt, true)] {
                    let mut got = whole.clone();
                    let (top, bottom) = got.as_mut_slice().split_at_mut((31 - m) * ld);
                    let a = Left(src, 3..3 + m, 5..5 + k, trans);
                    let (b, c) = (&top[2 * ld + 4..], &mut bottom[7..]);
                    gemm_ranged(
                        Some(tile),
                        &mut Packs::default(),
                        1.5,
                        a,
                        (b, ld),
                        (c, ld),
                        n,
                    );
                    assert!(bits(&got) == bits(&want), "{m}x{k}x{n} trans={trans}");
                }
            }
        }
    }

    /// The SIMD fronts are safe fns over raw-pointer loops: a strip or
    /// a `C` slice too short for the tile must panic, not be read past.
    #[test]
    fn kernels_refuse_short_operands() {
        for (mr, nr, kernel) in supported_kernels().filter(|t| t.1 > 4) {
            let kc = 3;
            let (a, b) = (vec![1.0; kc * mr], vec![1.0; kc * nr]);
            let mut c = vec![0.0; mr * nr];
            kernel(kc, &a, &b, &mut c, 0, 0, nr, mr, nr);
            assert_eq!(c, vec![kc as f64; mr * nr]);
            let mut refused = |a: &[f64], b: &[f64], c_len: usize, mr: usize| {
                let c = &mut c[..c_len];
                let call = std::panic::AssertUnwindSafe(|| kernel(kc, a, b, c, 0, 0, nr, mr, nr));
                std::panic::catch_unwind(call).is_err()
            };
            assert!(
                refused(&a[1..], &b, mr * nr, mr),
                "{mr}x{nr}: short A strip"
            );
            assert!(
                refused(&a, &b[1..], mr * nr, mr),
                "{mr}x{nr}: short B strip"
            );
            assert!(refused(&a, &b, mr * nr - 1, mr), "{mr}x{nr}: short C");
            assert!(refused(&a, &b, mr * nr, mr + 1), "{mr}x{nr}: tile too tall");
        }
    }

    #[test]
    fn beta_zero_does_not_read_c() {
        let (a, b, _) = operands((9, 5, 17));
        let mut c = Matrix::from_fn(9, 17, |i, j| match (i + j) % 3 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        });
        gemm(1.0, &a, &b, 0.0, &mut c);
        assert!(bits(&c) == bits(&matmul(&a, &b)));
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
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_dims_panic() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }
}
