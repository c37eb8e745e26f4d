//! # hetgrid-core
//!
//! The 2D heterogeneous-grid load-balancing problem of Beaumont, Boudet,
//! Rastello & Robert, *"Load Balancing Strategies for Dense Linear
//! Algebra Kernels on Heterogeneous Two-dimensional Grids"* (IPPS 2000).
//!
//! Given `p * q` processors with cycle-times `t_ij` (normalized time per
//! `r x r` block update), choose an arrangement on the grid and row /
//! column shares `r_i`, `c_j` maximizing `(sum r)(sum c)` subject to
//! `r_i t_ij c_j <= 1` — equivalently, minimizing the normalized parallel
//! time of the ScaLAPACK outer-product / right-looking kernels while
//! keeping the strict grid communication pattern.
//!
//! Modules, following the paper's structure:
//!
//! * [`arrangement`] — grids of processors; non-decreasing canonical
//!   form (Theorem 1) and enumeration;
//! * [`objective`] — `Obj1`/`Obj2`, workload matrices, feasibility;
//! * [`oned`] — optimal 1D heterogeneous allocation with dealing order
//!   (the `ABAABA` patterns of Section 3.2.2);
//! * [`alternating`] — coordinate-ascent optimization for a fixed
//!   arrangement (also the heuristic's normalization);
//! * [`exact`] — spanning-tree exact solver (Section 4.3.1) and global
//!   exhaustive search;
//! * [`rank1`] — perfect balance for rank-1 matrices (Section 4.3.2) and
//!   a multiset rank-1 factorization search;
//! * [`heuristic`] — the polynomial SVD heuristic with iterative
//!   refinement (Section 4.4);
//! * [`rounding`] — integer block counts from rational shares;
//! * [`search`] — swap-based local search and simulated annealing over
//!   arrangements (the metaheuristic answer to the NP-completeness
//!   conjecture of Section 4.1);
//! * [`method`] — [`Method`] names one of those solvers and
//!   [`Method::solve`] is the one dispatch over them.
//!
//! ```
//! use hetgrid_core::heuristic;
//! // Nine processors with cycle-times 1..9 on a 3x3 grid (Section 4.4).
//! let times: Vec<f64> = (1..=9).map(|x| x as f64).collect();
//! let result = heuristic::solve_default(&times, 3, 3);
//! assert!(result.converged);
//! // Converged objective ~2.5889, as the paper reports.
//! assert!((result.last().obj2 - 2.5889).abs() < 1e-2);
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

pub mod alternating;
pub mod arrangement;
pub mod bounds;
pub mod certify;
pub mod exact;
pub mod heuristic;
pub mod method;
pub mod objective;
pub mod oned;
pub mod rank1;
pub mod rounding;
pub mod search;
pub mod topology;

pub use arrangement::{
    enumerate_nondecreasing, sorted_row_major, validate_times, Arrangement, TimesError,
};
pub use method::{Effort, Method, Solved};
pub use objective::Allocation;
pub use topology::Topology;
