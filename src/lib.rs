#![doc = include_str!("../README.md")]

pub mod pipeline;

pub use hetgrid_adapt as adapt;
pub use hetgrid_core as core;
pub use hetgrid_dist as dist;
pub use hetgrid_exec as exec;
pub use hetgrid_linalg as linalg;
pub use hetgrid_plan as plan;
pub use hetgrid_sim as sim;
