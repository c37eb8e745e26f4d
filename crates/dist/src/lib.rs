//! # hetgrid-dist
//!
//! Block-to-processor data distributions for dense linear algebra on 2D
//! processor grids, as compared in the paper (IPPS 2000):
//!
//! * [`BlockCyclic`] — the uniform ScaLAPACK `CYCLIC(r)` distribution
//!   (homogeneous baseline; on a heterogeneous grid it runs at the speed
//!   of the slowest processor);
//! * [`PanelDist`] — the paper's heterogeneous block-panel-cyclic
//!   distribution: `B_p x B_q` panels, `rows[i] x cols[j]` blocks per
//!   processor per panel, strict grid communication pattern, optional 1D
//!   interleaved ordering for LU/QR (Figure 4's `ABAABA`);
//! * [`KlDist`] — Kalinov–Lastovetsky's heterogeneous block-cyclic
//!   distribution (perfect balance, relaxed communication pattern with
//!   extra west neighbours, Figure 3).
//!
//! All distributions implement [`BlockDist`]; [`balance_report`] measures
//! how well each balances a heterogeneous [`hetgrid_core::Arrangement`].
//! [`Scheme`] names the three and builds one from a solved placement.

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

pub mod cyclic;
pub mod kl;
pub mod panel;
pub mod redistribution;
pub mod scheme;
pub mod traits;

pub use cyclic::BlockCyclic;
pub use kl::KlDist;
pub use panel::{PanelDist, PanelOrdering};
pub use redistribution::Placement;
pub use scheme::{panel_period, Scheme};
pub use traits::{balance_report, BalanceReport, BlockDist};
