//! # hetgrid-adapt
//!
//! Closed-loop adaptive rebalancing for heterogeneous 2D grids.
//!
//! The paper's machine model (Section 2.2) is a *non-dedicated* network
//! of workstations: the cycle-times the one-shot load balancer optimized
//! for drift as other users' jobs come and go. This crate closes the
//! loop around the static solvers:
//!
//! ```text
//!   observe ──► estimate ──► decide ──► redistribute
//!   (telemetry)  (EWMA)   (cost/benefit)  (block moves)
//! ```
//!
//! * [`telemetry`] — per-iteration observed cycle-times, from real
//!   executor reports ([`hetgrid_exec::ExecReport::observed_times`]) or
//!   noiseless simulation;
//! * `estimator` (private) — per-processor EWMA cycle-time estimates
//!   with a configurable half-life, seeded with the planned times;
//! * `detector` (private; [`DriftDetectorConfig`] is public) —
//!   scale-free drift detection with hysteresis (threshold, patience,
//!   cooldown, a fixed release level), immune to uniform slowdowns;
//! * [`plan`] — the active plan and the analytic per-iteration cost
//!   used to price staleness;
//! * [`policy`] — the amortized decision: re-solve with the
//!   [`hetgrid_core`] solvers, price the move bill via
//!   [`hetgrid_dist::redistribution`], switch only when the projected
//!   savings over the remaining iterations beat the bill by a safety
//!   factor;
//! * [`actuator`] — [`redistribute`], which moves every changed block
//!   of a live [`hetgrid_exec::DistributedMatrix`] at once;
//! * [`controller`] — the loop itself, with
//!   [`ControllerConfig::validate`] as the one range check of its knobs;
//! * [`simloop`] — deterministic static-vs-adaptive experiments over
//!   [`hetgrid_sim::DriftProfile`]s.

#![warn(missing_docs)]
// Grid code indexes `owned[i][j]`-style tables with `for i in 0..p`
// loops; the iterator rewrites clippy suggests would obscure the 2D-grid
// idiom the paper's algorithms are written in.
#![allow(clippy::needless_range_loop)]

pub mod actuator;
pub mod controller;
mod detector;
mod estimator;
pub mod plan;
pub mod policy;
pub mod simloop;
pub mod telemetry;

pub use actuator::redistribute;
pub use controller::{Action, Controller, ControllerConfig};
pub use detector::DriftDetectorConfig;
pub use plan::ActivePlan;
pub use policy::{Decision, PolicyConfig};
pub use simloop::{run_scenario, IterOutcome, Outcome, Scenario};
pub use telemetry::IterationSample;
