//! One solver dispatch: [`Method`] names a placement strategy and
//! [`Method::solve`] runs it, so every caller that lets its user pick a
//! solver goes through the same `match`.

use crate::arrangement::Arrangement;
use crate::exact::{self, ExactOptions};
use crate::heuristic;
use crate::objective::Allocation;
use crate::search::{anneal, local_search, SearchOptions};

/// Which solver to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Method {
    /// The paper's polynomial SVD heuristic with iterative refinement
    /// (Section 4.4). The default.
    #[default]
    Heuristic,
    /// Exhaustive search over non-decreasing arrangements with the
    /// spanning-tree exact solver (Sections 4.2–4.3). Exponential; small
    /// grids only.
    Exact,
    /// Swap-based local search with random restarts.
    LocalSearch,
    /// Simulated annealing.
    Annealing,
}

/// A solved placement and its solver's own effort figures.
#[derive(Clone, Debug)]
pub struct Solved {
    /// The chosen arrangement of the processors.
    pub arr: Arrangement,
    /// The row/column shares.
    pub alloc: Allocation,
    /// What the solver reports about the solve.
    pub effort: Effort,
}

/// What a solver reports about one solve.
#[derive(Clone, Debug)]
pub enum Effort {
    /// Refinement steps, and whether the arrangement reached a fixed
    /// point.
    Heuristic {
        /// Refinement steps taken.
        steps: usize,
        /// Whether the arrangement reached a fixed point.
        converged: bool,
    },
    /// The exact solver publishes its tree counters to the obs registry
    /// (`solver.*`, the one counting mechanism) instead.
    Published,
    /// Arrangements a local search or an annealing run evaluated.
    Evaluations(u64),
}

impl Method {
    /// All solvers, in the order usage texts list them.
    pub const ALL: [Method; 4] = [
        Method::Heuristic,
        Method::Exact,
        Method::LocalSearch,
        Method::Annealing,
    ];

    /// CLI-facing name (`heuristic`, `exact`, `local-search`, `anneal`).
    pub fn name(self) -> &'static str {
        match self {
            Method::Heuristic => "heuristic",
            Method::Exact => "exact",
            Method::LocalSearch => "local-search",
            Method::Annealing => "anneal",
        }
    }

    /// Parses a CLI-facing name.
    pub fn parse(s: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Places the processors with cycle-times `times` on a `p x q` grid
    /// with this solver. `exact_opts` only applies to [`Method::Exact`].
    ///
    /// ```
    /// use hetgrid_core::exact::ExactOptions;
    /// use hetgrid_core::Method;
    ///
    /// let times = [1.0, 2.0, 3.0, 5.0];
    /// let exact = Method::Exact.solve(&times, 2, 2, &ExactOptions::default());
    /// assert!((exact.alloc.obj2() - 2.0).abs() < 1e-9); // the optimum for this pool
    /// let heur = Method::Heuristic.solve(&times, 2, 2, &ExactOptions::default());
    /// assert!(heur.alloc.obj2() <= exact.alloc.obj2() + 1e-9);
    /// ```
    ///
    /// # Panics
    /// Panics if `times.len() != p * q`, a cycle-time is not positive,
    /// or [`Method::Exact`] is asked for a grid beyond its limit.
    pub fn solve(self, times: &[f64], p: usize, q: usize, exact_opts: &ExactOptions) -> Solved {
        let (arr, alloc, effort) = match self {
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
                let search = if self == Method::LocalSearch {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(method: Method, times: &[f64], p: usize, q: usize) -> Solved {
        method.solve(times, p, q, &ExactOptions::default())
    }

    #[test]
    fn methods_agree_on_easy_instance() {
        let times = [1.0, 2.0, 3.0, 5.0];
        let exact = solve(Method::Exact, &times, 2, 2).alloc.obj2();
        let heur = solve(Method::Heuristic, &times, 2, 2).alloc.obj2();
        let ls = solve(Method::LocalSearch, &times, 2, 2).alloc.obj2();
        assert!(heur <= exact + 1e-9);
        assert!(ls <= exact + 1e-9);
        assert!(heur >= 0.9 * exact);
    }

    #[test]
    fn solution_is_always_feasible() {
        let times = [0.3, 0.9, 0.5, 0.2, 0.7, 0.4];
        for method in Method::ALL {
            let s = solve(method, &times, 2, 3);
            assert!(
                crate::objective::is_feasible(&s.arr, &s.alloc, 1e-9),
                "{:?} produced an infeasible allocation",
                method
            );
        }
    }

    #[test]
    fn method_names_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.name()), Some(m));
        }
        assert_eq!(Method::parse("greedy"), None);
    }
}
