//! The closed-loop controller: observe → estimate → decide.
//!
//! The [`Controller`] owns the active plan and the loop state. Each
//! kernel iteration feeds it one [`IterationSample`]; the drift
//! detector folds it into its estimates and compares them with the
//! plan's reference times, and — only when drift is confirmed — the
//! cost/benefit policy prices a re-solve on the times the detector
//! hands back. A positive decision swaps the plan and hands the caller
//! the old one, so the caller can actuate the data migration (see
//! [`crate::actuator`]).

use crate::detector::{DriftDetector, DriftDetectorConfig};
use crate::plan::ActivePlan;
use crate::policy::{self, Decision, PolicyConfig};
use crate::telemetry::IterationSample;

/// All tuning knobs of the adaptive loop.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// EWMA half-life of the cycle-time estimator, in iterations
    /// (default 3).
    pub half_life: f64,
    /// Drift-detector hysteresis parameters.
    pub detector: DriftDetectorConfig,
    /// Rebalancing decision parameters.
    pub policy: PolicyConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            half_life: 3.0,
            detector: DriftDetectorConfig::default(),
            policy: PolicyConfig::default(),
        }
    }
}

impl ControllerConfig {
    /// Checks every knob's range; the error names the first knob out of
    /// range, what it must be, and its value.
    pub fn validate(&self) -> Result<(), String> {
        let (h, d, p) = (self.half_life, &self.detector, &self.policy);
        let (t, n, s, c) = (d.threshold, d.patience, p.safety_factor, p.block_move_cost);
        for (what, got, ok, want) in [
            ("half-life", h, h > 0.0, "finite and > 0"),
            ("drift threshold", t, t > 0.0, "finite and > 0"),
            ("drift patience", n as f64, n > 0, ">= 1"),
            ("safety factor", s, s >= 1.0, "finite and >= 1"),
            ("block move cost", c, c >= 0.0, "finite and >= 0"),
        ] {
            if !(ok && got.is_finite()) {
                return Err(format!("{what} must be {want}, got {got}"));
            }
        }
        Ok(())
    }
}

/// What the controller did with one iteration's sample.
#[derive(Clone, Debug)]
pub enum Action {
    /// No confirmed drift; the plan stands.
    Continue,
    /// Drift was confirmed but the policy declined to rebalance (the
    /// decision explains why); the plan stands.
    Evaluated(Decision),
    /// The plan was swapped. `old_plan` is the plan the live data still
    /// follows — actuate a redistribution from its placement to the
    /// controller's new [`Controller::plan`].
    Rebalanced {
        /// The priced decision that justified the swap.
        decision: Decision,
        /// The superseded plan.
        old_plan: ActivePlan,
    },
}

/// Closed-loop adaptive rebalancing controller.
#[derive(Clone, Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    plan: ActivePlan,
    nb: usize,
    detector: DriftDetector,
    rebalances: usize,
}

impl Controller {
    /// Solves the initial plan for `times` (indexed by processor id) on
    /// a `p x q` grid with `bp x bq` panels, for kernels over `nb x nb`
    /// block matrices, and seeds the drift detector's estimates with the
    /// same times.
    ///
    /// # Panics
    /// Panics with [`ControllerConfig::validate`]'s error on a bad `cfg`.
    pub fn new(
        times: &[f64],
        p: usize,
        q: usize,
        bp: usize,
        bq: usize,
        nb: usize,
        cfg: ControllerConfig,
    ) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("ControllerConfig: {e}"));
        let plan = ActivePlan::solve(times, p, q, bp, bq, cfg.policy.method);
        Controller {
            plan,
            nb,
            detector: DriftDetector::new(cfg.detector, cfg.half_life, times),
            rebalances: 0,
            cfg,
        }
    }

    /// The plan currently in force.
    pub fn plan(&self) -> &ActivePlan {
        &self.plan
    }

    /// Number of rebalances performed so far.
    pub fn rebalances(&self) -> usize {
        self.rebalances
    }

    /// Block-matrix order `nb` the controller prices iterations for.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Feeds one iteration's telemetry. `remaining_iters` is the number
    /// of kernel iterations still ahead — the amortization horizon of
    /// any rebalancing decision.
    pub fn observe(&mut self, sample: &IterationSample, remaining_iters: usize) -> Action {
        let by_proc = sample.by_proc(&self.plan.arr);
        let reference = self.plan.planned_times();
        let Some(times) = self.detector.observe(&reference, &by_proc) else {
            return Action::Continue;
        };
        // Drift confirmations and re-solve decisions are rare (at most
        // one per iteration, gated by detector hysteresis), so the obs
        // registry lookups here are off the per-sample hot path.
        hetgrid_obs::metrics()
            .counter("adapt.drift.detections")
            .inc();

        let (decision, candidate) = policy::evaluate(
            &self.plan,
            &times,
            self.nb,
            remaining_iters,
            &self.cfg.policy,
        );
        if !decision.rebalance {
            hetgrid_obs::metrics()
                .counter("adapt.rebalances.declined")
                .inc();
            return Action::Evaluated(decision);
        }
        let m = hetgrid_obs::metrics();
        m.counter("adapt.rebalances.accepted").inc();
        m.counter("adapt.blocks.moved")
            .add(decision.blocks_moved as u64);
        let old_plan = std::mem::replace(&mut self.plan, candidate);
        self.rebalances += 1;
        Action::Rebalanced { decision, old_plan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(times: &[f64]) -> Controller {
        Controller::new(times, 2, 2, 4, 4, 16, ControllerConfig::default())
    }

    fn feed(c: &mut Controller, truth: &[f64], iters: usize, remaining: usize) -> Vec<Action> {
        (0..iters)
            .map(|_| {
                let sample = IterationSample::from_true_times(&c.plan().arr, truth);
                c.observe(&sample, remaining)
            })
            .collect()
    }

    #[test]
    fn stationary_telemetry_never_triggers() {
        let times = [1.0, 2.0, 3.0, 4.0];
        let mut c = controller(&times);
        let actions = feed(&mut c, &times, 50, 100);
        assert!(actions.iter().all(|a| matches!(a, Action::Continue)));
        assert_eq!(c.rebalances(), 0);
    }

    #[test]
    fn sustained_drift_rebalances_and_settles() {
        let mut c = controller(&[1.0; 4]);
        let drifted = [6.0, 1.0, 1.0, 1.0];
        let actions = feed(&mut c, &drifted, 40, 100);
        // The re-solve runs on the streak's samples, not on the still
        // converging estimates, so no follow-up correction is needed.
        assert_eq!(c.rebalances(), 1);
        let when = actions
            .iter()
            .position(|a| matches!(a, Action::Rebalanced { .. }))
            .expect("no rebalance happened");
        // EWMA warm-up plus detector patience delay the confirmation past
        // the first few iterations.
        assert!(when >= 2, "rebalanced already at iteration {}", when);
        // Once the estimates have converged the loop settles: no
        // rebalance in the last stretch of the run.
        assert!(
            actions[30..]
                .iter()
                .all(|a| matches!(a, Action::Continue | Action::Evaluated(_))),
            "still rebalancing after convergence"
        );
        // Estimates track the true post-step cycle-times.
        assert!((c.detector.estimates[0] - 6.0).abs() < 0.1);
    }

    #[test]
    fn a_step_rebalances_once() {
        // {1,2,3,5} -> {5,2,3,5} at iteration 5. The re-solve targets
        // the post-step times, not the EWMA's blend of old and new, so
        // no correcting second rebalance follows.
        let base = [1.0, 2.0, 3.0, 5.0];
        let stepped = [5.0, 2.0, 3.0, 5.0];
        let mut c = Controller::new(&base, 2, 2, 8, 8, 32, ControllerConfig::default());
        for iter in 0..60 {
            let truth = if iter < 5 { base } else { stepped };
            let sample = IterationSample::from_true_times(&c.plan().arr, &truth);
            c.observe(&sample, 59 - iter);
        }
        assert_eq!(c.rebalances(), 1);
        assert_eq!(c.plan().planned_times(), stepped);
    }

    #[test]
    fn short_horizon_declines_rebalance() {
        let mut c = Controller::new(
            &[1.0; 4],
            2,
            2,
            4,
            4,
            16,
            ControllerConfig {
                policy: PolicyConfig {
                    block_move_cost: 50.0,
                    ..PolicyConfig::default()
                },
                ..ControllerConfig::default()
            },
        );
        let drifted = [6.0, 1.0, 1.0, 1.0];
        let actions = feed(&mut c, &drifted, 20, 0);
        assert_eq!(c.rebalances(), 0);
        assert!(actions.iter().any(|a| matches!(a, Action::Evaluated(_))));
    }

    #[test]
    fn rebalanced_action_carries_the_old_plan() {
        let mut c = controller(&[1.0; 4]);
        let before = c.plan().clone();
        let drifted = [6.0, 1.0, 1.0, 1.0];
        for _ in 0..20 {
            let sample = IterationSample::from_true_times(&c.plan().arr, &drifted);
            if let Action::Rebalanced { old_plan, decision } = c.observe(&sample, 100) {
                let old = old_plan.placement();
                assert_eq!(
                    before.placement().blocks_moved(&old, 16),
                    0,
                    "old_plan is not the superseded plan"
                );
                assert_eq!(
                    old.blocks_moved(&c.plan().placement(), 16),
                    decision.blocks_moved
                );
                return;
            }
        }
        panic!("no rebalance happened");
    }
}
