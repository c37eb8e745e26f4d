//! The plan under execution: a solved arrangement plus its panel
//! distribution, with the analytic per-iteration cost model the decision
//! policy prices plans with.

use hetgrid_core::exact::ExactOptions;
use hetgrid_core::{rank1, Allocation, Arrangement, Method};
use hetgrid_dist::{BlockDist, PanelDist, PanelOrdering, Placement};
use hetgrid_sim::plan::Kernel;
use hetgrid_sim::{simulate, Broadcast, CostModel, SimReport};

/// A solved load-balancing plan: the arrangement (which processor sits
/// where, at what planned cycle-time) and the panel distribution derived
/// from its shares.
#[derive(Clone, Debug)]
pub struct ActivePlan {
    /// Which processor sits where, at its planned cycle-time.
    pub arr: Arrangement,
    /// The row/column shares the distribution discretizes.
    pub alloc: Allocation,
    /// The panel distribution of matrix blocks over the grid.
    pub dist: PanelDist,
    /// Row panel size used to discretize the row shares.
    pub bp: usize,
    /// Column panel size used to discretize the column shares.
    pub bq: usize,
}

impl ActivePlan {
    /// Solves for the given per-processor cycle-times (indexed by
    /// physical processor id) and discretizes the shares into `bp x bq`
    /// interleaved panels.
    ///
    /// # Panics
    /// Panics if `times.len() != p * q` or the panel sizes are zero.
    pub fn solve(times: &[f64], p: usize, q: usize, bp: usize, bq: usize, method: Method) -> Self {
        assert_eq!(times.len(), p * q, "ActivePlan: times/grid size mismatch");
        // A perfectly balancing rank-1 arrangement (Section 4.3.2) is
        // taken before `method` runs; the CLI and serve skip this pre-pass.
        let (arr, alloc) = match rank1::try_rank1_arrangement(times, p, q, 1e-9) {
            Some(arr) => {
                let alloc = rank1::rank1_allocation(&arr, 1e-9).expect("rank-1 by construction");
                (arr, alloc)
            }
            None => {
                let solved = method.solve(times, p, q, &ExactOptions::default());
                (solved.arr, solved.alloc)
            }
        };
        let dist = PanelDist::from_allocation(&arr, &alloc, bp, bq, PanelOrdering::Interleaved);
        ActivePlan {
            arr,
            alloc,
            dist,
            bp,
            bq,
        }
    }

    /// Simulates `kernel` on an `nb x nb` block matrix under this plan
    /// (direct broadcasts).
    pub fn simulate(&self, kernel: Kernel, nb: usize, cost: CostModel) -> SimReport {
        let arr = &self.arr;
        simulate(kernel, arr, &self.dist, nb, cost, Broadcast::Direct)
            .expect("a plan's distribution is built on its own arrangement")
            .report
    }

    /// Which processor owns each block under this plan: the one view
    /// move counts and block migration go through.
    pub fn placement(&self) -> Placement<'_> {
        Placement {
            arr: &self.arr,
            dist: &self.dist,
        }
    }

    /// Grid shape `(p, q)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.arr.p(), self.arr.q())
    }

    /// The cycle-times the plan was solved for, re-keyed by physical
    /// processor id (inverting the arrangement's permutation) — the
    /// drift detector's reference vector.
    pub fn planned_times(&self) -> Vec<f64> {
        let arr = &self.arr;
        let mut times = vec![0.0; arr.len()];
        for i in 0..arr.p() {
            for j in 0..arr.q() {
                times[arr.proc(i, j)] = arr.time(i, j);
            }
        }
        times
    }

    /// Analytic zero-communication cost of one kernel iteration (one
    /// `nb`-step outer-product sweep) under the given *true* cycle-times,
    /// indexed by processor id: `nb * max_ij t_proc(i,j) * owned_ij`.
    ///
    /// Evaluating the *current* plan under *fresh* times prices staleness;
    /// evaluating a candidate plan under the same times prices the
    /// benefit of rebalancing — the two sides of the policy's comparison.
    ///
    /// # Panics
    /// Panics if `times_by_proc` does not cover the grid.
    pub fn per_iteration_cost(&self, times_by_proc: &[f64], nb: usize) -> f64 {
        let arr = &self.arr;
        assert_eq!(
            times_by_proc.len(),
            arr.len(),
            "ActivePlan: times/grid size mismatch"
        );
        let owned = self.dist.owned_counts(nb, nb);
        let mut step: f64 = 0.0;
        for i in 0..arr.p() {
            for j in 0..arr.q() {
                step = step.max(times_by_proc[arr.proc(i, j)] * owned[i][j] as f64);
            }
        }
        nb as f64 * step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_times_invert_the_permutation() {
        let times = vec![4.0, 1.0, 2.0, 3.0];
        let plan = ActivePlan::solve(&times, 2, 2, 4, 4, Method::Heuristic);
        assert_eq!(plan.planned_times(), times);
    }

    #[test]
    fn rank1_planned_times_are_the_pool() {
        // {1,2,3,6} in another order: the rank-1 pre-pass seats every
        // processor at a position holding its own time.
        let times = vec![6.0, 2.0, 1.0, 3.0];
        let plan = ActivePlan::solve(&times, 2, 2, 4, 4, Method::Heuristic);
        assert_eq!(plan.planned_times(), times);
    }

    #[test]
    fn rank1_fast_path() {
        // {1,2,3,6} hides the rank-1 arrangement [[1,2],[3,6]].
        let plan = ActivePlan::solve(&[6.0, 2.0, 1.0, 3.0], 2, 2, 4, 4, Method::Heuristic);
        let avg = hetgrid_core::objective::average_workload(&plan.arr, &plan.alloc);
        assert!((avg - 1.0).abs() < 1e-9);
        assert!((plan.alloc.obj2() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn without_a_rank1_arrangement_the_method_decides() {
        let times = [1.0, 2.0, 3.0, 5.0];
        let plan = ActivePlan::solve(&times, 2, 2, 4, 4, Method::Heuristic);
        let solved = Method::Heuristic.solve(&times, 2, 2, &ExactOptions::default());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(plan.arr, solved.arr);
        assert_eq!(bits(&plan.alloc.r), bits(&solved.alloc.r));
        assert_eq!(bits(&plan.alloc.c), bits(&solved.alloc.c));
    }

    #[test]
    fn homogeneous_cost_matches_even_split() {
        // 2x2 homogeneous grid, nb divisible: every processor owns
        // nb^2 / 4 blocks, so one iteration costs nb * nb^2/4.
        let nb = 8;
        let plan = ActivePlan::solve(&[1.0; 4], 2, 2, 2, 2, Method::Heuristic);
        let cost = plan.per_iteration_cost(&[1.0; 4], nb);
        assert_eq!(cost, nb as f64 * (nb * nb / 4) as f64);
    }

    #[test]
    fn stale_plan_costs_more_under_drift() {
        let base = vec![1.0, 1.0, 1.0, 1.0];
        let drifted = vec![5.0, 1.0, 1.0, 1.0];
        let stale = ActivePlan::solve(&base, 2, 2, 4, 4, Method::Heuristic);
        let fresh = ActivePlan::solve(&drifted, 2, 2, 4, 4, Method::Heuristic);
        let nb = 16;
        let stale_cost = stale.per_iteration_cost(&drifted, nb);
        let fresh_cost = fresh.per_iteration_cost(&drifted, nb);
        assert!(
            fresh_cost < stale_cost,
            "fresh {} !< stale {}",
            fresh_cost,
            stale_cost
        );
    }
}
