//! One module per command. Each starts from the same front half —
//! [`Args::grid_times`](crate::args::Args::grid_times) for the pool,
//! [`Method::solve`](hetgrid_core::Method::solve) for the placement,
//! `Args::scheme().build(..)` for the distribution — and owns only what
//! it prints.

pub mod adapt;
pub mod distribute;
pub mod rebalance;
pub mod run;
pub mod serve;
pub mod simulate;
pub mod solve;
pub mod star;
pub mod submit;
pub mod top;

use hetgrid_dist::{PanelOrdering, Scheme};

/// The interleaved panels (Figure 4's `ABAABA`) the commands without
/// `--scheme` distribute over.
pub const PANELS: Scheme = Scheme::Panel(PanelOrdering::Interleaved);
