//! High-level entry point: describe the machine pool once, then solve
//! with any of the library's strategies.
//!
//! ```
//! use hetgrid_core::problem::Problem;
//!
//! let solution = Problem::new(vec![1.0, 2.0, 3.0, 5.0])
//!     .grid(2, 2)
//!     .solve();
//! assert!(solution.obj2 > 1.9); // exact optimum for this pool is 2.0
//! ```

use crate::arrangement::Arrangement;
use crate::heuristic;
use crate::objective::{average_workload, Allocation};
use crate::search::{self, SearchOptions};
use crate::{exact, rank1};

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
}

/// A machine pool plus a grid shape, ready to solve.
#[derive(Clone, Debug)]
pub struct Problem {
    times: Vec<f64>,
    p: Option<usize>,
    q: Option<usize>,
    method: Method,
}

/// The outcome of [`Problem::solve`].
#[derive(Clone, Debug)]
pub struct Solution {
    /// The chosen arrangement of the processors.
    pub arrangement: Arrangement,
    /// The row/column shares.
    pub alloc: Allocation,
    /// The objective value `(sum r)(sum c)`.
    pub obj2: f64,
    /// Mean of the workload matrix (fraction of time the average
    /// processor is busy).
    pub average_workload: f64,
    /// The solver that produced this solution.
    pub method: Method,
    /// Whether this solution achieves perfect balance (every processor
    /// busy 100% of the time — possible exactly for rank-1
    /// arrangements, Section 4.3.2).
    pub perfectly_balanced: bool,
}

impl Problem {
    /// Starts a problem from processor cycle-times.
    ///
    /// # Panics
    /// Panics if `times` is empty or contains non-positive values.
    pub fn new(times: Vec<f64>) -> Self {
        assert!(!times.is_empty(), "Problem: no processors");
        assert!(
            times.iter().all(|&t| t > 0.0 && t.is_finite()),
            "Problem: cycle-times must be positive and finite"
        );
        Problem {
            times,
            p: None,
            q: None,
            method: Method::default(),
        }
    }

    /// Fixes the grid shape. Without this, [`solve`](Self::solve) picks
    /// the most square factorization `p x q = n` with `p <= q`.
    ///
    /// # Panics
    /// Panics if `p * q` does not match the processor count.
    pub fn grid(mut self, p: usize, q: usize) -> Self {
        assert_eq!(p * q, self.times.len(), "Problem: grid size mismatch");
        self.p = Some(p);
        self.q = Some(q);
        self
    }

    /// Selects the solver.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// The grid shape that will be used.
    pub fn shape(&self) -> (usize, usize) {
        match (self.p, self.q) {
            (Some(p), Some(q)) => (p, q),
            _ => {
                // Most square factorization with p <= q.
                let n = self.times.len();
                let mut best = (1, n);
                for p in 1..=n {
                    if n.is_multiple_of(p) && p <= n / p {
                        best = (p, n / p);
                    }
                }
                best
            }
        }
    }

    /// Runs the selected solver.
    pub fn solve(&self) -> Solution {
        let (p, q) = self.shape();

        // Fast path: if a perfectly balancing rank-1 arrangement exists,
        // no solver can beat it (every processor 100% busy).
        if let Some(arr) = rank1::try_rank1_arrangement(&self.times, p, q, 1e-9) {
            let alloc = rank1::rank1_allocation(&arr, 1e-9).expect("rank-1 by construction");
            let obj2 = alloc.obj2();
            let avg = average_workload(&arr, &alloc);
            return Solution {
                arrangement: arr,
                alloc,
                obj2,
                average_workload: avg,
                method: self.method,
                perfectly_balanced: true,
            };
        }

        let (arrangement, alloc) = match self.method {
            Method::Heuristic => {
                let res = heuristic::solve_default(&self.times, p, q);
                let b = res.best();
                (b.arrangement.clone(), b.alloc.clone())
            }
            Method::Exact => {
                let g = exact::solve_global(&self.times, p, q);
                (g.arrangement, g.alloc)
            }
            Method::LocalSearch => {
                let r = search::local_search(&self.times, p, q, SearchOptions::default());
                (r.arrangement, r.alloc)
            }
            Method::Annealing => {
                let r = search::anneal(&self.times, p, q, SearchOptions::default());
                (r.arrangement, r.alloc)
            }
        };
        let obj2 = alloc.obj2();
        let average_workload = average_workload(&arrangement, &alloc);
        let perfectly_balanced = (average_workload - 1.0).abs() < 1e-9;
        Solution {
            arrangement,
            alloc,
            obj2,
            average_workload,
            method: self.method,
            perfectly_balanced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_is_most_square() {
        assert_eq!(Problem::new(vec![1.0; 12]).shape(), (3, 4));
        assert_eq!(Problem::new(vec![1.0; 16]).shape(), (4, 4));
        assert_eq!(Problem::new(vec![1.0; 7]).shape(), (1, 7));
    }

    #[test]
    fn rank1_fast_path() {
        // {1,2,3,6} hides the rank-1 arrangement [[1,2],[3,6]].
        let s = Problem::new(vec![6.0, 2.0, 1.0, 3.0]).grid(2, 2).solve();
        assert!(s.perfectly_balanced);
        assert!((s.average_workload - 1.0).abs() < 1e-9);
        assert!((s.obj2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn methods_agree_on_easy_instance() {
        let times = vec![1.0, 2.0, 3.0, 5.0];
        let exact = Problem::new(times.clone())
            .grid(2, 2)
            .method(Method::Exact)
            .solve();
        let heur = Problem::new(times.clone()).grid(2, 2).solve();
        let ls = Problem::new(times)
            .grid(2, 2)
            .method(Method::LocalSearch)
            .solve();
        assert!(heur.obj2 <= exact.obj2 + 1e-9);
        assert!(ls.obj2 <= exact.obj2 + 1e-9);
        assert!(heur.obj2 >= 0.9 * exact.obj2);
    }

    #[test]
    fn solution_is_always_feasible() {
        let times = vec![0.3, 0.9, 0.5, 0.2, 0.7, 0.4];
        for method in [
            Method::Heuristic,
            Method::Exact,
            Method::LocalSearch,
            Method::Annealing,
        ] {
            let s = Problem::new(times.clone())
                .grid(2, 3)
                .method(method)
                .solve();
            assert!(
                crate::objective::is_feasible(&s.arrangement, &s.alloc, 1e-9),
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

    #[test]
    #[should_panic(expected = "grid size mismatch")]
    fn wrong_grid_rejected() {
        let _ = Problem::new(vec![1.0; 4]).grid(2, 3);
    }
}
