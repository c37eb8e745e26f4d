//! The amortized cost/benefit rebalancing decision.
//!
//! When drift is confirmed, the policy re-solves the load-balancing
//! problem for the fresh cycle-time estimates and compares two futures
//! over the remaining iterations:
//!
//! * keep the stale plan and pay `stale_cost` per iteration, or
//! * pay the one-off redistribution bill (blocks moved times the
//!   per-block move cost) and then pay `fresh_cost` per iteration.
//!
//! Rebalancing wins when the projected savings exceed the bill by a
//! safety factor — the factor absorbs model error in both the analytic
//! cost and the estimates, biasing the loop toward stability.

use crate::plan::ActivePlan;
use hetgrid_core::Method;

/// Parameters of the rebalancing decision.
#[derive(Clone, Copy, Debug)]
pub struct PolicyConfig {
    /// Solver used for the re-solve.
    pub method: Method,
    /// Required ratio of projected savings to redistribution cost
    /// (must be >= 1 to make sense; higher = more conservative).
    pub safety_factor: f64,
    /// Cost of moving one block between processors, in the same units as
    /// one reference block update (cycle-time 1).
    pub block_move_cost: f64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            method: Method::Heuristic,
            safety_factor: 1.5,
            block_move_cost: 1.0,
        }
    }
}

/// The priced outcome of one policy evaluation.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Per-iteration cost of keeping the current plan, under the fresh
    /// estimates.
    pub stale_cost: f64,
    /// Per-iteration cost of the re-solved candidate plan.
    pub fresh_cost: f64,
    /// Number of blocks whose processor the candidate plan changes.
    pub blocks_moved: usize,
    /// Fraction of all blocks that move.
    pub moved_fraction: f64,
    /// One-off redistribution bill: `blocks_moved * block_move_cost`.
    pub redistribution_cost: f64,
    /// Iterations the decision amortizes over.
    pub remaining_iters: usize,
    /// `(stale_cost - fresh_cost) * remaining_iters`.
    pub projected_savings: f64,
    /// Whether the policy recommends switching plans.
    pub rebalance: bool,
}

/// Prices the current plan against a fresh re-solve under the estimated
/// cycle-times (indexed by processor id) and decides whether to switch.
///
/// Returns the decision together with the candidate plan, so a positive
/// decision can be installed without solving twice.
///
/// `cfg` is assumed sound ([`crate::ControllerConfig::validate`]).
///
/// # Panics
/// Panics if `estimates` does not cover the grid.
pub fn evaluate(
    current: &ActivePlan,
    estimates: &[f64],
    nb: usize,
    remaining_iters: usize,
    cfg: &PolicyConfig,
) -> (Decision, ActivePlan) {
    let (p, q) = current.grid();
    let candidate = ActivePlan::solve(estimates, p, q, current.bp, current.bq, cfg.method);

    let stale_cost = current.per_iteration_cost(estimates, nb);
    let fresh_cost = candidate.per_iteration_cost(estimates, nb);
    let blocks_moved = current.placement().blocks_moved(&candidate.placement(), nb);
    let moved_fraction = blocks_moved as f64 / (nb * nb) as f64;
    let redistribution_cost = blocks_moved as f64 * cfg.block_move_cost;
    let projected_savings = (stale_cost - fresh_cost) * remaining_iters as f64;
    let rebalance = fresh_cost < stale_cost
        && blocks_moved > 0
        && projected_savings > redistribution_cost * cfg.safety_factor;

    (
        Decision {
            stale_cost,
            fresh_cost,
            blocks_moved,
            moved_fraction,
            redistribution_cost,
            remaining_iters,
            projected_savings,
            rebalance,
        },
        candidate,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const NB: usize = 16;

    fn plan(times: &[f64]) -> ActivePlan {
        ActivePlan::solve(times, 2, 2, 4, 4, Method::Heuristic)
    }

    #[test]
    fn strong_drift_with_many_iterations_rebalances() {
        let current = plan(&[1.0; 4]);
        let drifted = [6.0, 1.0, 1.0, 1.0];
        let (d, candidate) = evaluate(&current, &drifted, NB, 50, &PolicyConfig::default());
        assert!(d.rebalance, "decision: {:?}", d);
        assert!(d.fresh_cost < d.stale_cost);
        assert!(d.projected_savings > d.redistribution_cost);
        assert!(d.blocks_moved > 0);
        assert!(d.moved_fraction > 0.0 && d.moved_fraction <= 1.0);
        // The candidate starves the slow processor relative to the rest.
        let counts = hetgrid_dist::BlockDist::owned_counts(&candidate.dist, NB, NB);
        let arr = &candidate.arr;
        let mut slow_count = 0;
        let mut max_count = 0;
        for i in 0..arr.p() {
            for j in 0..arr.q() {
                max_count = max_count.max(counts[i][j]);
                if arr.proc(i, j) == 0 {
                    slow_count = counts[i][j];
                }
            }
        }
        assert!(slow_count < max_count, "{} !< {}", slow_count, max_count);
    }

    #[test]
    fn no_remaining_iterations_never_rebalances() {
        let current = plan(&[1.0; 4]);
        let (d, _) = evaluate(
            &current,
            &[6.0, 1.0, 1.0, 1.0],
            NB,
            0,
            &PolicyConfig::default(),
        );
        assert!(!d.rebalance);
        assert_eq!(d.projected_savings, 0.0);
    }

    #[test]
    fn unchanged_times_never_rebalance() {
        let times = [1.0, 2.0, 3.0, 4.0];
        let current = plan(&times);
        let (d, _) = evaluate(&current, &times, NB, 1000, &PolicyConfig::default());
        assert!(!d.rebalance, "decision: {:?}", d);
        assert_eq!(d.blocks_moved, 0);
        assert_eq!(d.redistribution_cost, 0.0);
    }

    #[test]
    fn reversed_speeds_rebalance() {
        // {1,2,3,5} -> {5,3,2,1}: the re-solve puts every processor on
        // another position under the same shares, so no block changes
        // position but every block changes processor.
        let current = plan(&[1.0, 2.0, 3.0, 5.0]);
        let reversed = [5.0, 3.0, 2.0, 1.0];
        let (d, _) = evaluate(&current, &reversed, NB, 50, &PolicyConfig::default());
        assert!(d.rebalance, "decision: {:?}", d);
        assert_eq!(d.blocks_moved, NB * NB);
        assert_eq!(d.moved_fraction, 1.0);
        assert!(d.stale_cost > 4.0 * d.fresh_cost, "decision: {:?}", d);
    }

    #[test]
    fn expensive_moves_suppress_marginal_rebalances() {
        let current = plan(&[1.0; 4]);
        let drifted = [6.0, 1.0, 1.0, 1.0];
        let cheap = PolicyConfig::default();
        let dear = PolicyConfig {
            block_move_cost: 1e9,
            ..cheap
        };
        let (d_cheap, _) = evaluate(&current, &drifted, NB, 50, &cheap);
        let (d_dear, _) = evaluate(&current, &drifted, NB, 50, &dear);
        assert!(d_cheap.rebalance);
        assert!(!d_dear.rebalance);
    }
}
