//! Analytic bounds on the objective `Obj2 = (sum r)(sum c)`.
//!
//! These bracket every solver's output and quantify the *price of the
//! grid*: how much throughput the strict grid communication pattern
//! costs compared to an unconstrained (Kalinov–Lastovetsky-style)
//! distribution of the same processors.

use crate::arrangement::Arrangement;

/// Upper bound: the total-rate bound `sum_ij 1/t_ij`.
///
/// Since every constraint gives `r_i c_j <= 1/t_ij` and
/// `(sum r)(sum c) = sum_ij r_i c_j`, no allocation — with or without
/// the grid constraint — can exceed the aggregate rate of the machine.
/// It is attained exactly for rank-1 arrangements (Section 4.3.2).
pub fn total_rate_upper_bound(arr: &Arrangement) -> f64 {
    arr.times().iter().map(|&t| 1.0 / t).sum()
}

/// Lower bound: the slowest-processor gauge. Setting every share so the
/// *slowest* processor meets its constraint (uniform block-cyclic
/// shares) yields `obj2 = p * q / t_max`; the optimum can only improve
/// on it.
pub fn cyclic_lower_bound(arr: &Arrangement) -> f64 {
    let tmax = arr.times().iter().cloned().fold(0.0f64, f64::max);
    (arr.p() * arr.q()) as f64 / tmax
}

/// Lower bound from the row/column harmonic structure of a *given*
/// arrangement: balance rows as aggregated 1D processors (each grid row
/// `i` has rate `sum_j 1/t_ij`) and set uniform column shares scaled to
/// the worst column. This is a valid feasible construction, so its
/// objective bounds the optimum from below.
pub fn row_harmonic_lower_bound(arr: &Arrangement) -> f64 {
    let (p, q) = (arr.p(), arr.q());
    // Row shares proportional to row rates, columns uniform, then scale
    // to feasibility: products r_i t_ij c_j <= 1.
    let r: Vec<f64> = (0..p)
        .map(|i| (0..q).map(|j| 1.0 / arr.time(i, j)).sum::<f64>())
        .collect();
    let c = vec![1.0f64; q];
    let mut worst: f64 = 0.0;
    for i in 0..p {
        for j in 0..q {
            worst = worst.max(r[i] * arr.time(i, j) * c[j]);
        }
    }
    let sr: f64 = r.iter().sum();
    let sc: f64 = c.iter().sum();
    sr * sc / worst
}

/// The "price of the grid" for an arrangement: the ratio between the
/// total-rate upper bound (what an unconstrained distribution could
/// theoretically reach) and a given achieved objective, `>= 1`.
pub fn grid_price(arr: &Arrangement, achieved_obj2: f64) -> f64 {
    total_rate_upper_bound(arr) / achieved_obj2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{alternating, exact};

    fn check_bracket(arr: &Arrangement) {
        let opt = exact::solve_arrangement(arr).obj2;
        let ub = total_rate_upper_bound(arr);
        let lb_cyc = cyclic_lower_bound(arr);
        let lb_row = row_harmonic_lower_bound(arr);
        assert!(opt <= ub + 1e-9, "optimum {} above upper bound {}", opt, ub);
        assert!(
            opt >= lb_cyc - 1e-9,
            "optimum {} below cyclic bound {}",
            opt,
            lb_cyc
        );
        assert!(
            opt >= lb_row - 1e-9,
            "optimum {} below row-harmonic bound {}",
            opt,
            lb_row
        );
    }

    #[test]
    fn bounds_bracket_exact_optimum() {
        for rows in [
            vec![vec![1.0, 2.0], vec![3.0, 5.0]],
            vec![vec![1.0, 2.0], vec![3.0, 6.0]],
            vec![vec![0.4, 0.9, 1.1], vec![0.7, 1.3, 2.2]],
            vec![vec![1.0; 3], vec![1.0; 3], vec![1.0; 3]],
        ] {
            check_bracket(&Arrangement::from_rows(&rows));
        }
    }

    #[test]
    fn rank1_attains_upper_bound() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let opt = exact::solve_arrangement(&arr).obj2;
        assert!((opt - total_rate_upper_bound(&arr)).abs() < 1e-9);
        assert!((grid_price(&arr, opt) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_rank1_pays_a_grid_price() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let opt = exact::solve_arrangement(&arr).obj2;
        let price = grid_price(&arr, opt);
        // sum 1/t = 1 + 1/2 + 1/3 + 1/5 = 61/30; optimum 2.
        assert!((price - (61.0 / 30.0) / 2.0).abs() < 1e-9);
        assert!(price > 1.0);
    }

    #[test]
    fn bounds_bracket_alternating_fixpoint_too() {
        let arr = Arrangement::from_rows(&[vec![0.3, 0.8], vec![0.5, 0.9]]);
        let alt = alternating::optimize(&arr, 10_000).alloc.obj2();
        assert!(alt <= total_rate_upper_bound(&arr) + 1e-9);
        assert!(alt >= cyclic_lower_bound(&arr) - 1e-9);
    }

    #[test]
    fn homogeneous_bounds_coincide() {
        let arr = Arrangement::from_rows(&vec![vec![2.0; 4]; 4]);
        let ub = total_rate_upper_bound(&arr);
        let lb = cyclic_lower_bound(&arr);
        assert!((ub - lb).abs() < 1e-12);
        assert!((ub - 8.0).abs() < 1e-12);
    }
}
