//! Deterministic closed-loop experiments: static vs adaptive execution
//! under a cycle-time drift profile.
//!
//! The scenario replays `iters` kernel iterations while the true
//! cycle-times follow a [`DriftProfile`]. Two strategies run over the
//! identical trace:
//!
//! * **static** — the initial plan is kept for the whole run (the
//!   paper's one-shot load balancing);
//! * **adaptive** — a [`Controller`] watches per-iteration telemetry and
//!   rebalances when its amortized cost/benefit analysis says so; every
//!   redistribution's cost is charged to the adaptive makespan.
//!
//! Everything is deterministic — the profile is a pure function of the
//! iteration index and telemetry is noiseless — so the experiments are
//! exactly reproducible.

use crate::controller::{Action, Controller, ControllerConfig};
use crate::telemetry::IterationSample;
use hetgrid_sim::DriftProfile;

/// A closed-loop experiment definition.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Base cycle-times of the pool, by processor id.
    pub base_times: Vec<f64>,
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
    /// Row panel size in blocks.
    pub bp: usize,
    /// Column panel size in blocks.
    pub bq: usize,
    /// Matrix order in blocks.
    pub nb: usize,
    /// Number of kernel iterations.
    pub iters: usize,
    /// The drift the pool undergoes.
    pub profile: DriftProfile,
    /// Controller tuning.
    pub config: ControllerConfig,
}

/// Per-iteration record of a scenario run.
#[derive(Clone, Debug)]
pub struct IterOutcome {
    /// Iteration index.
    pub iter: usize,
    /// True cycle-times at this iteration, by processor id.
    pub true_times: Vec<f64>,
    /// Cost of this iteration under the static plan.
    pub static_cost: f64,
    /// Cost of this iteration under the adaptive plan in force.
    pub adaptive_cost: f64,
    /// Whether the controller rebalanced after this iteration.
    pub rebalanced: bool,
}

/// Aggregate result of a scenario run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Total compute makespan of the static strategy.
    pub static_makespan: f64,
    /// Total makespan of the adaptive strategy, *including* every
    /// redistribution bill.
    pub adaptive_makespan: f64,
    /// Number of rebalances the controller performed.
    pub rebalances: usize,
    /// Total redistribution cost charged to the adaptive strategy.
    pub redistribution_cost: f64,
    /// Total number of blocks moved across all rebalances.
    pub blocks_moved: usize,
    /// The per-iteration trace.
    pub history: Vec<IterOutcome>,
}

impl Outcome {
    /// `static_makespan / adaptive_makespan` — above 1.0 means adapting
    /// paid off.
    pub fn speedup(&self) -> f64 {
        if self.adaptive_makespan > 0.0 {
            self.static_makespan / self.adaptive_makespan
        } else {
            1.0
        }
    }
}

/// Runs the scenario and returns both strategies' outcomes.
///
/// # Panics
/// Panics on inconsistent scenario dimensions (delegated to the plan and
/// profile constructors).
pub fn run_scenario(sc: &Scenario) -> Outcome {
    let mut controller =
        Controller::new(&sc.base_times, sc.p, sc.q, sc.bp, sc.bq, sc.nb, sc.config);
    let static_plan = controller.plan().clone();

    let mut static_makespan = 0.0;
    let mut adaptive_makespan = 0.0;
    let mut redistribution_cost = 0.0;
    let mut blocks_moved = 0;
    let mut history = Vec::with_capacity(sc.iters);

    for iter in 0..sc.iters {
        let truth = sc.profile.times_at(&sc.base_times, iter);
        // Both strategies execute this iteration with the plans they
        // entered it with; the controller reacts to its telemetry only
        // afterwards.
        let static_cost = static_plan.per_iteration_cost(&truth, sc.nb);
        let adaptive_cost = controller.plan().per_iteration_cost(&truth, sc.nb);
        static_makespan += static_cost;
        adaptive_makespan += adaptive_cost;

        let sample = IterationSample::from_true_times(&controller.plan().arr, &truth);
        let remaining = sc.iters - iter - 1;
        let rebalanced = match controller.observe(&sample, remaining) {
            Action::Rebalanced { decision, .. } => {
                adaptive_makespan += decision.redistribution_cost;
                redistribution_cost += decision.redistribution_cost;
                blocks_moved += decision.blocks_moved;
                true
            }
            Action::Continue | Action::Evaluated(_) => false,
        };
        history.push(IterOutcome {
            iter,
            true_times: truth,
            static_cost,
            adaptive_cost,
            rebalanced,
        });
    }

    Outcome {
        static_makespan,
        adaptive_makespan,
        rebalances: controller.rebalances(),
        redistribution_cost,
        blocks_moved,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(profile: DriftProfile) -> Scenario {
        Scenario {
            base_times: vec![1.0, 1.0, 1.0, 1.0],
            p: 2,
            q: 2,
            bp: 4,
            bq: 4,
            nb: 16,
            iters: 60,
            profile,
            config: ControllerConfig::default(),
        }
    }

    #[test]
    fn stationary_pool_is_left_alone() {
        let out = run_scenario(&scenario(DriftProfile::Stationary));
        assert_eq!(out.rebalances, 0);
        assert_eq!(out.redistribution_cost, 0.0);
        assert_eq!(out.adaptive_makespan, out.static_makespan);
        assert_eq!(out.speedup(), 1.0);
    }

    #[test]
    fn step_drift_is_beaten_by_adapting() {
        let out = run_scenario(&scenario(DriftProfile::Step {
            at: 5,
            factors: vec![6.0, 1.0, 1.0, 1.0],
        }));
        assert!(out.rebalances >= 1);
        assert!(
            out.adaptive_makespan < out.static_makespan,
            "adaptive {} !< static {}",
            out.adaptive_makespan,
            out.static_makespan
        );
        assert!(out.speedup() > 1.0);
        // The trace is internally consistent.
        let hist_static: f64 = out.history.iter().map(|h| h.static_cost).sum();
        let hist_adapt: f64 = out.history.iter().map(|h| h.adaptive_cost).sum();
        assert!((hist_static - out.static_makespan).abs() < 1e-9);
        assert!((hist_adapt + out.redistribution_cost - out.adaptive_makespan).abs() < 1e-9);
        assert_eq!(
            out.history.iter().filter(|h| h.rebalanced).count(),
            out.rebalances
        );
    }

    #[test]
    fn ramp_drift_is_tracked() {
        let out = run_scenario(&scenario(DriftProfile::Ramp {
            from: 5,
            to: 25,
            factors: vec![5.0, 1.0, 1.0, 1.0],
        }));
        assert!(out.rebalances >= 1);
        assert!(out.adaptive_makespan < out.static_makespan);
    }

    #[test]
    fn runs_are_deterministic() {
        let sc = scenario(DriftProfile::Step {
            at: 5,
            factors: vec![6.0, 1.0, 1.0, 1.0],
        });
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.static_makespan, b.static_makespan);
        assert_eq!(a.adaptive_makespan, b.adaptive_makespan);
        assert_eq!(a.rebalances, b.rebalances);
    }
}
