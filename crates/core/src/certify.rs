//! Certificates for a solved placement: machine-checkable evidence about an
//! allocation's quality, independent of which solver produced it.
//!
//! The exact solver's structure (Section 4.3.1) says the optimum sits on
//! a spanning tree of *tight* constraints. A certificate reports, for
//! any `(arrangement, allocation)` pair:
//!
//! * feasibility (every `r_i t_ij c_j <= 1`);
//! * per-row / per-column tightness (the coordinate-ascent fixpoint
//!   condition — necessary for optimality);
//! * whether the tight-constraint graph connects all rows and columns
//!   (the spanning-structure condition the optimum must satisfy);
//! * the certified optimality gap against the total-rate upper bound.

use crate::arrangement::Arrangement;
use crate::bounds::total_rate_upper_bound;
use crate::objective::{workload_matrix, Allocation};

/// Tolerance for counting a constraint as tight.
const TIGHT_TOL: f64 = 1e-7;

/// Machine-checkable quality evidence for an allocation.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Every constraint `r_i t_ij c_j <= 1` holds (within 1e-9).
    pub feasible: bool,
    /// Every grid row has a tight constraint.
    pub rows_tight: bool,
    /// Every grid column has a tight constraint.
    pub cols_tight: bool,
    /// The tight constraints, as `(i, j)` pairs.
    pub tight: Vec<(usize, usize)>,
    /// The tight-constraint bipartite graph connects all `p + q`
    /// vertices (a necessary condition for `Obj2` optimality).
    pub tight_graph_connected: bool,
    /// The achieved objective `(sum r)(sum c)`.
    pub obj2: f64,
    /// The total-rate upper bound `sum 1/t_ij`.
    pub upper_bound: f64,
}

impl Certificate {
    /// `true` when every necessary optimality condition holds:
    /// feasible, tight in every row and column, and the tight graph
    /// spans the grid. (Sufficient only together with an exact search;
    /// a certificate can hold at a non-global fixpoint.)
    pub fn locally_optimal(&self) -> bool {
        self.feasible && self.rows_tight && self.cols_tight && self.tight_graph_connected
    }

    /// Certified bound on the relative optimality gap:
    /// `1 - obj2 / upper_bound` — the true gap is at most this.
    pub fn gap_bound(&self) -> f64 {
        1.0 - self.obj2 / self.upper_bound
    }
}

/// Builds the certificate for an allocation on an arrangement.
///
/// # Panics
/// Panics if the shapes disagree.
pub fn certify(arr: &Arrangement, alloc: &Allocation) -> Certificate {
    let (p, q) = (arr.p(), arr.q());
    let b = workload_matrix(arr, alloc);
    let feasible = b.as_slice().iter().all(|&x| x <= 1.0 + 1e-9);

    let mut tight = Vec::new();
    for i in 0..p {
        for j in 0..q {
            if (b[(i, j)] - 1.0).abs() <= TIGHT_TOL {
                tight.push((i, j));
            }
        }
    }
    let rows_tight = (0..p).all(|i| tight.iter().any(|&(ti, _)| ti == i));
    let cols_tight = (0..q).all(|j| tight.iter().any(|&(_, tj)| tj == j));

    // Union-find over p + q vertices (rows then columns).
    let mut parent: Vec<usize> = (0..p + q).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(i, j) in &tight {
        let a = find(&mut parent, i);
        let c = find(&mut parent, p + j);
        if a != c {
            parent[a] = c;
        }
    }
    let root = find(&mut parent, 0);
    let tight_graph_connected = (0..p + q).all(|v| find(&mut parent, v) == root);

    Certificate {
        feasible,
        rows_tight,
        cols_tight,
        tight,
        tight_graph_connected,
        obj2: alloc.obj2(),
        upper_bound: total_rate_upper_bound(arr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{alternating, exact};

    #[test]
    fn exact_solution_certifies() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let cert = certify(&arr, &sol.alloc);
        assert!(cert.feasible);
        assert!(cert.locally_optimal(), "{:?}", cert);
        // Tight edges of the optimal tree are among the certificate's.
        for e in &sol.tree {
            assert!(cert.tight.contains(e), "missing tight edge {:?}", e);
        }
        assert!(cert.gap_bound() >= 0.0);
        assert!(cert.gap_bound() < 0.03, "gap bound {}", cert.gap_bound());
    }

    #[test]
    fn rank1_certificate_has_zero_gap() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let sol = exact::solve_arrangement(&arr);
        let cert = certify(&arr, &sol.alloc);
        assert!(cert.locally_optimal());
        assert!(cert.gap_bound().abs() < 1e-9);
        // Every constraint is tight on a rank-1 grid.
        assert_eq!(cert.tight.len(), 4);
    }

    #[test]
    fn alternating_fixpoint_is_tight_but_maybe_disconnected() {
        // The coordinate-ascent fixpoint guarantees row/column tightness;
        // connectivity may fail at a suboptimal fixpoint, which the
        // certificate exposes.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let alt = alternating::optimize(&arr, 10_000);
        let cert = certify(&arr, &alt.alloc);
        assert!(cert.feasible);
        assert!(cert.rows_tight);
        assert!(cert.cols_tight);
        // This particular fixpoint (obj 28/15 < 2) must NOT certify as
        // optimal-shaped if its objective is below the exact optimum...
        let exact_obj = exact::solve_arrangement(&arr).obj2;
        if cert.obj2 < exact_obj - 1e-9 {
            // Suboptimal: the certificate is still internally consistent.
            assert!(cert.gap_bound() > 0.0);
        }
    }

    #[test]
    fn infeasible_allocation_flagged() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let alloc = Allocation::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        let cert = certify(&arr, &alloc);
        assert!(!cert.feasible);
        assert!(!cert.locally_optimal());
    }

    #[test]
    fn slack_allocation_not_tight() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        // Uniformly scaled-down shares: feasible but nothing tight.
        let alloc = Allocation::new(vec![0.1, 0.1], vec![0.1, 0.1]);
        let cert = certify(&arr, &alloc);
        assert!(cert.feasible);
        assert!(!cert.rows_tight);
        assert!(cert.tight.is_empty());
        assert!(!cert.locally_optimal());
    }
}
