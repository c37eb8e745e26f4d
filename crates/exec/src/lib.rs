//! # hetgrid-exec
//!
//! A threaded shared-memory executor for the distributed dense kernels:
//! one OS thread per virtual processor of the 2D grid, one
//! `std::sync::mpsc` mailbox per processor carrying exactly the blocks
//! the distribution's communication pattern prescribes (see
//! [`transport`]), and integer *slowdown weights* emulating the
//! heterogeneous cycle-times on homogeneous hardware.
//!
//! This is the workspace's stand-in for the paper's MPI experiments
//! (reported in the companion paper): it exercises the full code path —
//! scatter by distribution, per-step broadcasts, local block kernels,
//! gather — on real data, and verifies the numerical result against the
//! sequential kernels.
//!
//! ## Architecture: plan interpretation
//!
//! Each kernel is an *interpretation* of the shared step-plan IR from
//! `hetgrid-plan`: the plan names exactly who sends which block to
//! whom, and the executor replays it with real data over real threads.
//! The same plans drive the `hetgrid-sim` simulator and its closed-form
//! counts, so the measured message/work counts are checked against the
//! model *by construction* (the harness asserts exact equality).
//!
//! An *emitter* lowers one plan step into one processor's actions —
//! blocks taken in, block kernels on owned blocks, broadcasts of owned
//! blocks, blocks dropped — and one interpreter (`grid`) runs them,
//! deriving the scheduler's hazard sets from what they do. MM, LU and
//! Cholesky have the paper's one shape (broadcast panel blocks, update
//! owned blocks); the master-worker star lowers its feeds, loads,
//! updates, evictions and returns to the same actions (takes and drops
//! are the only thing it adds), and QR's fan-in panels lend blocks to
//! the processor that factors or updates them as one stack. All run on
//! the shared `step` machinery: one wire format carrying one payload
//! type, `Arc<Matrix>`; one pending-message buffer, one slowdown clock,
//! one spawn/collect driver.
//!
//! ## Entry points
//!
//! * [`run`] — the grid executor: a [`hetgrid_plan::Kernel`], its input
//!   matrices (`[a, b]` for MM, `[a]` for a factorization) and a
//!   distribution in, a gathered [`RunOutput`] out. The scatter →
//!   spawn → journal → gather sequence is written once (`run::run_seg`).
//!   Every caller names its [`Transport`] and [`ExecConfig`]: production
//!   code passes `&ChannelTransport` and `ExecConfig::default()`,
//!   `hetgrid-harness` a seeded fault-injecting virtual transport;
//! * MM is the outer-product `C = A * B`, LU is right-looking without
//!   pivoting (use diagonally dominant inputs), Cholesky factors SPD
//!   matrices (lower triangle), QR is fan-in Householder — unpack its
//!   packed result with [`qr_unpack`];
//! * [`run_mm_on_cfg`], [`run_lu_on_cfg`], [`run_cholesky_on_cfg`],
//!   [`run_qr_on_cfg`] are [`run`] with the kernel fixed and the output
//!   as a tuple;
//! * [`run_solve_on_cfg`] — `A x = b`: [`run`] for the factorization,
//!   triangular solves on the gathered factors;
//! * [`run_recovery`] — [`run`] that survives one grid fault (the
//!   transport reports it through [`Transport::faults`]) by
//!   checkpoint-restarting on a re-solved survivor grid ([`recovery`]);
//! * [`run_star_mm_on_cfg`] — memory-bounded master-worker `C = A * B`
//!   on a [`hetgrid_core::Topology::Star`] per
//!   [`hetgrid_plan::star_mm_plan`]; a separate entry because its
//!   platform is a `Topology`, not a `BlockDist`;
//! * [`store`] — scatter/gather and the [`store::ExecReport`]
//!   measurements (busy time, weighted work, imbalance, the lookahead
//!   depth the run used);
//! * [`transport`] — the pluggable message-transport trait.
//!
//! ## Failure semantics
//!
//! Every entry point returns `Result<_, `[`transport::ExecError`]`>`:
//! if any worker observes a dropped peer (a closed mailbox on send or
//! receive), the run is aborted through [`transport::Endpoint::abort`] —
//! which dooms every mailbox so blocked peers fail fast — all threads
//! are joined, and the caller gets a typed error instead of a panic or
//! a deadlock. This is load-bearing for long-running hosts like
//! `hetgrid serve`, where a single bad run must not take the process
//! down.

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

mod cholesky;
mod grid;
mod lu;
mod mm;
pub mod pool;
mod probe;
mod qr;
pub mod recovery;
mod run;
#[cfg(test)]
mod sched_tests;
pub mod solve;
pub mod star;
mod step;
pub mod store;
#[cfg(test)]
mod testutil;
pub mod transport;

pub use hetgrid_plan::Kernel;
pub use qr::qr_unpack;
pub use recovery::{run_recovery, GridFault, RecoveryOutput, RecoveryStats};
pub use run::{run, run_cholesky_on_cfg, run_lu_on_cfg, run_mm_on_cfg, run_qr_on_cfg, RunOutput};
pub use solve::{run_solve_on_cfg, SolveKind};
pub use star::run_star_mm_on_cfg;
pub use step::{ExecConfig, DEFAULT_LOOKAHEAD};
pub use store::{slowdown_weights, CheckpointLog, DistributedMatrix, ExecReport};
pub use transport::{ChannelTransport, Closed, Endpoint, ExecError, Transport};
