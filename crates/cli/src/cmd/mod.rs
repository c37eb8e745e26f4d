//! One module per command. Each starts from the same front half —
//! [`Args::grid_times`](crate::args::Args::grid_times) for the pool,
//! [`solve_with`] for the placement, `Args::scheme().build(..)` for the
//! distribution — and owns only what it prints.

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

use hetgrid_core::search::{anneal, local_search, SearchOptions};
use hetgrid_core::{exact, heuristic, Allocation, Arrangement, Method};
use hetgrid_dist::{PanelOrdering, Scheme};

/// The interleaved panels (Figure 4's `ABAABA`) the commands without
/// `--scheme` distribute over.
pub const PANELS: Scheme = Scheme::Panel(PanelOrdering::Interleaved);

/// A solved placement and its solver's own effort figures.
pub struct Solved {
    pub arr: Arrangement,
    pub alloc: Allocation,
    pub effort: Effort,
}

/// What a solver reports about one solve; only `solve` prints it.
pub enum Effort {
    /// Refinement steps, and whether the arrangement reached a fixed
    /// point.
    Heuristic { steps: usize, converged: bool },
    /// The exact solver publishes its tree counters to the obs registry
    /// (`solver.*`, the one counting mechanism) instead.
    Published,
    /// Arrangements a local search or an annealing run evaluated.
    Evaluations(u64),
}

/// Runs `method` on a validated pool. Not `core::Problem::solve`, whose
/// rank-1 pre-pass is a different policy (ROADMAP item 7).
pub fn solve_with(
    method: Method,
    times: &[f64],
    p: usize,
    q: usize,
    exact_opts: &exact::ExactOptions,
) -> Solved {
    let (arr, alloc, effort) = match method {
        Method::Heuristic => {
            let res = heuristic::solve_default(times, p, q);
            let effort = Effort::Heuristic {
                steps: res.iterations(),
                converged: res.converged,
            };
            let b = res.best();
            (b.arrangement.clone(), b.alloc.clone(), effort)
        }
        Method::Exact => {
            let g = exact::solve_global_with(times, p, q, exact_opts);
            (g.arrangement, g.alloc, Effort::Published)
        }
        Method::LocalSearch | Method::Annealing => {
            let search = if method == Method::LocalSearch {
                local_search
            } else {
                anneal
            };
            let r = search(times, p, q, SearchOptions::default());
            (r.arrangement, r.alloc, Effort::Evaluations(r.evaluations))
        }
    };
    Solved { arr, alloc, effort }
}

/// The heuristic placement the commands without `--method` use.
pub fn solve_heuristic(times: &[f64], p: usize, q: usize) -> Solved {
    solve_with(
        Method::Heuristic,
        times,
        p,
        q,
        &exact::ExactOptions::default(),
    )
}
