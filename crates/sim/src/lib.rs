//! # hetgrid-sim
//!
//! Discrete-event simulation of a heterogeneous network of workstations
//! (HNOW) configured as a virtual 2D grid, running the paper's dense
//! linear algebra kernels — the "simulation measurements" substrate of
//! the IPPS 2000 evaluation:
//!
//! * [`engine`] — a resource-constrained task-graph simulator (cores,
//!   NICs, shared bus);
//! * [`machine`] — the HNOW machine model of Section 2.2: sequential
//!   per-processor communication, Ethernet (shared bus) vs switched
//!   networks, per-processor cycle-times;
//! * [`kernels`] — the one DES entry point, [`simulate`]`(kernel, ..)`,
//!   over one interpreter of the shared [`hetgrid_plan`] step streams
//!   (outer-product matrix multiplication, right-looking LU/QR,
//!   Cholesky) for any [`hetgrid_dist::BlockDist`]; invalid
//!   kernel/distribution/topology combinations are a [`SimError`];
//! * [`counts`] — closed per-processor message/work totals, folded over
//!   the same plans (the harness's predicted-vs-observed oracle);
//! * [`bsp`] — analytic bulk-synchronous bounds used as cross-checks.
//!
//! ```
//! use hetgrid_core::Arrangement;
//! use hetgrid_dist::BlockCyclic;
//! use hetgrid_sim::{plan::Kernel, simulate, Broadcast, CostModel, SimError};
//!
//! let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
//! let cyclic = BlockCyclic::new(2, 2);
//! let cost = CostModel::default();
//! let run = simulate(Kernel::Mm, &arr, &cyclic, 8, cost, Broadcast::Direct)?;
//! // Uniform block-cyclic wastes most of the fast processors' time.
//! assert!(run.report.average_utilization() < 0.6);
//! // Every kernel goes through the same call; what the model does not
//! // define is an error, not a silently different simulation.
//! let ring = simulate(Kernel::Cholesky, &arr, &cyclic, 8, cost, Broadcast::Ring);
//! assert_eq!(ring.err(), Some(SimError::CholeskyTopology(Broadcast::Ring)));
//! # Ok::<(), SimError>(())
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

pub mod bsp;
pub mod collectives;
pub mod counts;
pub mod drift;
pub mod engine;
pub mod kernels;
pub mod machine;
pub mod trace;

pub use counts::{cholesky_counts, lu_counts, mm_counts, qr_counts, KernelCounts};
pub use drift::DriftProfile;
pub use hetgrid_plan as plan;
pub use kernels::{
    simulate, simulate_cholesky, simulate_lu, simulate_mm, Broadcast, SimError, TracedRun,
};
pub use machine::{CostModel, Network, SimReport};
