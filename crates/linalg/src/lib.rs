//! # hetgrid-linalg
//!
//! Dense linear algebra substrate for the `hetgrid` workspace — the
//! from-scratch replacement for the BLAS/ScaLAPACK kernels the paper
//! (Beaumont, Boudet, Rastello, Robert, IPPS 2000) builds on:
//!
//! * [`Matrix`] — dense row-major `f64` matrix;
//! * [`gemm`] — packed-panel matrix multiplication, rank-1 update, matvec;
//! * [`lu`] — LU with partial pivoting, unblocked and right-looking
//!   blocked (the kernel parallelized in Section 3.2 of the paper);
//! * [`qr`] — Householder QR and least squares;
//! * [`tri`] — triangular solves (trsm-style);
//! * [`svd`](mod@svd) — one-sided Jacobi SVD and the fast top-singular-triple
//!   power iteration used by the load-balancing heuristic (Section 4.4.2).
//!
//! ```
//! use hetgrid_linalg::{Matrix, gemm::matmul, lu::lu_factor};
//! let a = Matrix::from_rows(&[vec![4.0, 3.0], vec![6.0, 3.0]]);
//! let f = lu_factor(&a).unwrap();
//! let pa = f.permute(&a);
//! assert!(pa.approx_eq(&matmul(&f.l(), &f.u()), 1e-12));
//! ```

#![warn(missing_docs)]
// Grid code indexes `owned[i][j]`-style tables with `for i in 0..p`
// loops and passes several aggregated message maps around; the clippy
// style suggestions (iterator rewrites, type aliases, argument structs)
// would obscure the 2D-grid idiom the paper's algorithms are written in.
#![allow(
    clippy::needless_range_loop,
    clippy::type_complexity,
    clippy::too_many_arguments
)]

pub mod cholesky;
pub mod gemm;
pub mod lu;
mod matrix;
pub mod qr;
pub mod svd;
pub mod tri;

pub use matrix::Matrix;
pub use svd::{svd, top_singular_triple, Svd};

/// `y -= a * x` over two equally long slices: the inner loop of every
/// non-GEMM block kernel. The factorizations and triangular solves all
/// run it along rows of the row-major [`Matrix`] — never down a column
/// with the row index innermost — so it is contiguous, and written once
/// so the loop the compiler vectorises exists once.
#[inline]
fn sub_scaled(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv -= a * xv;
    }
}
