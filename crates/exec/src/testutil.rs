//! Deterministic inputs shared by the kernel modules' unit tests.

use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
use hetgrid_linalg::gemm::matmul;
use hetgrid_linalg::Matrix;

/// A dense matrix with entries in `[-1, 1)`.
pub(crate) fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// A diagonally dominant matrix (safe for LU without pivoting).
pub(crate) fn dominant(n: usize, seed: u64) -> Matrix {
    let mut m = dense(n, n, seed);
    for i in 0..n {
        m[(i, i)] += 2.0 * n as f64;
    }
    m
}

/// A symmetric positive definite matrix (`B^T B` plus a diagonal
/// shift).
pub(crate) fn spd(n: usize, seed: u64) -> Matrix {
    let b = dense(n, n, seed);
    let mut a = matmul(&b.transpose(), &b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Slowdown weights of a homogeneous `p x q` grid.
pub(crate) fn uniform(p: usize, q: usize) -> Vec<Vec<u64>> {
    vec![vec![1; q]; p]
}

/// The paper's 2x2 grid `{1,2,3,5}` under its 8x6 panel distribution,
/// with the matching slowdown weights.
pub(crate) fn paper_grid() -> (PanelDist, Vec<Vec<u64>>) {
    let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
    let sol = exact::solve_arrangement(&arr);
    let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
    (dist, crate::store::slowdown_weights(&arr))
}

/// The `(dist, weights, nb, r)` cases the kernels'
/// `lookahead_is_bit_exact_with_in_order` tests sweep: the paper grid at
/// r = 2 and at r = 64 (wide enough for the kernels' row sweeps to run
/// their vectorised bodies, not only the scalar remainder), and a 2x3
/// block-cyclic grid, where a broadcast has two destinations — a
/// payload really shared between holders and retired by the last one.
pub(crate) fn lookahead_cases() -> Vec<(Box<dyn BlockDist + Sync>, Vec<Vec<u64>>, usize, usize)> {
    let (paper, w) = paper_grid();
    let cyclic_weights = vec![vec![1, 2, 3], vec![3, 1, 2]];
    vec![
        (Box::new(paper.clone()), w.clone(), 8, 2),
        (Box::new(paper), w, 4, 64),
        (Box::new(BlockCyclic::new(2, 3)), cyclic_weights, 5, 8),
    ]
}

/// FNV-1a over a byte stream: the hash behind the pinned-output tests.
pub(crate) fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
