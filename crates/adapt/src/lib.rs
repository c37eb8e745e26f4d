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
//! * `detector` (private; [`DriftDetectorConfig`] is public) —
//!   per-processor EWMA cycle-time estimates (configurable half-life,
//!   seeded with the planned times) and scale-free drift detection on
//!   them with hysteresis (threshold, patience, cooldown, a fixed
//!   release level), immune to uniform slowdowns; a confirmed drift
//!   hands back the mean of the samples since the streak began;
//! * [`plan`] — the active plan, its [`hetgrid_dist::Placement`] (block
//!   to processor id) and the analytic per-iteration cost used to price
//!   staleness;
//! * [`policy`] — the amortized decision and the one pricing path:
//!   re-solve with the [`hetgrid_core`] solvers, count the blocks whose
//!   processor changes, switch only when the projected savings over the
//!   remaining iterations beat the move bill by a safety factor;
//! * [`actuator`] — [`redistribute`], which re-seats each processor's
//!   store of a live [`hetgrid_exec::DistributedMatrix`] and moves every
//!   block whose processor changes, at once;
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
