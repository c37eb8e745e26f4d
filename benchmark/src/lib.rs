//! `e2e_budget`: the repo's one benchmark. See `benchmark/README.md`.

pub mod compare;
pub mod exec_wl;
pub mod floor;
pub mod host;
pub mod names;
pub mod plan_serve;
pub mod probes;
pub mod rng;
pub mod run;
pub mod span;
pub mod stats;
