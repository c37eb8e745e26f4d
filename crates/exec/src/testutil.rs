//! Deterministic inputs shared by the kernel modules' unit tests.

use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{PanelDist, PanelOrdering};
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
