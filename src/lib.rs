//! Facade crate re-exporting the `hetgrid` workspace: load balancing
//! for dense linear algebra kernels on heterogeneous 2D processor grids
//! (Beaumont, Boudet, Rastello, Robert — IPPS 2000).
//!
//! * [`core`] — the optimization problem and its solvers;
//! * [`dist`] — block-to-processor distributions;
//! * [`plan`] — the kernel vocabulary and the step-plan IR;
//! * [`sim`] — the discrete-event HNOW simulator;
//! * [`exec`] — the threaded executor running real kernels;
//! * [`adapt`] — the closed-loop adaptive rebalancing runtime;
//! * [`linalg`] — the dense linear algebra substrate;
//! * [`pipeline`] — one-call plan/simulate/rebalance helpers and the
//!   adaptive execution [`pipeline::Session`].

pub mod pipeline;

pub use hetgrid_adapt as adapt;
pub use hetgrid_core as core;
pub use hetgrid_dist as dist;
pub use hetgrid_exec as exec;
pub use hetgrid_linalg as linalg;
pub use hetgrid_plan as plan;
pub use hetgrid_sim as sim;
