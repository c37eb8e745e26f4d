//! The optimization objective of Section 4.1.
//!
//! Given an arrangement `T = (t_ij)` and row/column shares `r_i`, `c_j`,
//! processor `(i, j)` computes an `r_i x c_j` rectangle of the result in
//! time `r_i * t_ij * c_j`. The two equivalent formulations:
//!
//! * `Obj1`: minimize `max_ij r_i t_ij c_j` with `sum r_i = sum c_j = 1`;
//! * `Obj2`: maximize `(sum r_i)(sum c_j)` with every `r_i t_ij c_j <= 1`.
//!
//! [`Allocation`] stores the (rational) shares; this module evaluates
//! feasibility, the objective value, and the per-processor workload
//! matrix `B = (r_i t_ij c_j)` whose mean is the "average workload"
//! reported in Figure 6.

use crate::arrangement::Arrangement;
use hetgrid_linalg::Matrix;

/// Row and column shares `r_1..r_p`, `c_1..c_q` for a `p x q` grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Allocation {
    /// Row shares `r_i` (positive).
    pub r: Vec<f64>,
    /// Column shares `c_j` (positive).
    pub c: Vec<f64>,
}

impl Allocation {
    /// Creates an allocation, validating positivity.
    ///
    /// # Panics
    /// Panics if any share is not strictly positive and finite.
    pub fn new(r: Vec<f64>, c: Vec<f64>) -> Self {
        assert!(
            r.iter().chain(c.iter()).all(|&x| x > 0.0 && x.is_finite()),
            "Allocation: shares must be positive and finite"
        );
        Allocation { r, c }
    }

    /// The `Obj2` value `(sum r_i) * (sum c_j)`.
    pub fn obj2(&self) -> f64 {
        self.r.iter().sum::<f64>() * self.c.iter().sum::<f64>()
    }
}

/// The workload matrix `B = (r_i t_ij c_j)`.
///
/// # Panics
/// Panics if the allocation shape does not match the arrangement.
pub fn workload_matrix(arr: &Arrangement, alloc: &Allocation) -> Matrix {
    assert_eq!(alloc.r.len(), arr.p(), "workload_matrix: r length mismatch");
    assert_eq!(alloc.c.len(), arr.q(), "workload_matrix: c length mismatch");
    Matrix::from_fn(arr.p(), arr.q(), |i, j| {
        alloc.r[i] * arr.time(i, j) * alloc.c[j]
    })
}

/// `true` iff every product `r_i t_ij c_j <= 1 + tol` (the `Obj2`
/// feasibility constraint).
pub fn is_feasible(arr: &Arrangement, alloc: &Allocation, tol: f64) -> bool {
    workload_matrix(arr, alloc)
        .as_slice()
        .iter()
        .all(|&b| b <= 1.0 + tol)
}

/// Mean of the workload matrix — the fraction of time the average
/// processor is busy (Figure 6 reports this after heuristic convergence).
pub fn average_workload(arr: &Arrangement, alloc: &Allocation) -> f64 {
    workload_matrix(arr, alloc).mean()
}

/// Parallel execution time for an `N x N` problem under integer counts:
/// `T_exe = max_ij r_i t_ij c_j` (Section 4.1), in block-update units.
pub fn t_exe(arr: &Arrangement, rows: &[usize], cols: &[usize]) -> f64 {
    let mut m: f64 = 0.0;
    for i in 0..arr.p() {
        for j in 0..arr.q() {
            m = m.max(rows[i] as f64 * arr.time(i, j) * cols[j] as f64);
        }
    }
    m
}

/// Normalized average time per data element,
/// `T_ave = max_ij (r_i t_ij c_j) / (sum r * sum c)` for integer counts.
pub fn t_ave(arr: &Arrangement, rows: &[usize], cols: &[usize]) -> f64 {
    let sr: usize = rows.iter().sum();
    let sc: usize = cols.iter().sum();
    t_exe(arr, rows, cols) / (sr as f64 * sc as f64)
}

/// Lower bound on `Obj1` for *any* distribution (even ignoring the grid
/// constraint): one time unit of the whole machine computes at most
/// `sum_ij 1/t_ij` elements, so `T_ave >= 1 / sum(1/t)`.
pub fn ideal_obj1_lower_bound(arr: &Arrangement) -> f64 {
    let rate: f64 = arr.times().iter().map(|&t| 1.0 / t).sum();
    1.0 / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_arrangement() -> Arrangement {
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]])
    }

    #[test]
    fn fig1_perfect_balance() {
        // Figure 1: r = (3, 1), c = (2, 1) on [[1,2],[3,6]] gives every
        // processor a product of 6 -> perfectly balanced after scaling.
        let arr = fig1_arrangement();
        let alloc = Allocation::new(vec![3.0, 1.0], vec![2.0, 1.0]);
        let b = workload_matrix(&arr, &alloc);
        for i in 0..2 {
            for j in 0..2 {
                assert!((b[(i, j)] - 6.0).abs() < 1e-12);
            }
        }
        // Normalized shares (sum r = sum c = 1): every product equals the
        // ideal lower bound 0.5, i.e. the load is perfectly balanced.
        let scaled = Allocation::new(vec![0.75, 0.25], vec![2.0 / 3.0, 1.0 / 3.0]);
        assert!(is_feasible(&arr, &scaled, 1e-12));
        let bs = workload_matrix(&arr, &scaled);
        for v in bs.as_slice() {
            assert!((v - 0.5).abs() < 1e-12);
        }
        assert!((bs.max_abs() - ideal_obj1_lower_bound(&arr)).abs() < 1e-12);
    }

    #[test]
    fn obj2_is_the_product_of_the_share_sums() {
        let alloc = Allocation::new(vec![1.0, 0.5], vec![2.0, 1.0]);
        assert!((alloc.obj2() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn t_exe_integer_counts() {
        let arr = fig1_arrangement();
        // Figure 1 panel: rows (3, 1), cols (2, 1): every processor takes 6.
        assert!((t_exe(&arr, &[3, 1], &[2, 1]) - 6.0).abs() < 1e-12);
        // T_ave = 6 / (4 * 3).
        assert!((t_ave(&arr, &[3, 1], &[2, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ideal_lower_bound_reached_for_rank1() {
        let arr = fig1_arrangement();
        // sum 1/t = 1 + 1/2 + 1/3 + 1/6 = 2 -> bound 0.5 = t_ave above.
        assert!((ideal_obj1_lower_bound(&arr) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn infeasible_detected() {
        let arr = fig1_arrangement();
        let alloc = Allocation::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        assert!(!is_feasible(&arr, &alloc, 1e-9));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_share_rejected() {
        Allocation::new(vec![1.0, -1.0], vec![1.0]);
    }
}
