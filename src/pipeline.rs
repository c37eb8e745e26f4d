//! End-to-end pipeline helpers: one call from machine pool to a ready
//! data distribution, rebalancing when the pool's effective speeds
//! drift (the multi-user scenario of Section 2.2), and a [`Session`]
//! running executed kernel iterations under the closed-loop adaptive
//! controller.

use hetgrid_adapt::{Action, Controller, ControllerConfig, Decision, IterationSample};
use hetgrid_exec::{DistributedMatrix, ExecReport};
use hetgrid_linalg::Matrix;

/// A solved placement plus its realized block-panel distribution: the
/// adaptive runtime's plan under execution, under the name the one-call
/// `solve` / `simulate` helpers are documented by.
pub use hetgrid_adapt::ActivePlan as Plan;

/// What one [`Session::step`] produced.
#[derive(Clone, Debug)]
pub struct SessionStep {
    /// The computed product `C = A * B`.
    pub c: Matrix,
    /// The executor's measurements for this iteration.
    pub report: ExecReport,
    /// The rebalancing decision taken after this iteration, if drift was
    /// confirmed and the controller re-solved.
    pub decision: Option<Decision>,
    /// Blocks migrated between processors after this iteration (0 when
    /// no rebalance happened).
    pub blocks_moved: usize,
}

/// An adaptive execution session: repeated executed matrix products
/// under the [`hetgrid_adapt::Controller`], with the operand matrices
/// held in distributed form and migrated whenever the controller swaps
/// plans.
///
/// The current executor kernels take global matrices and re-scatter them
/// internally on every run, so the persistent [`DistributedMatrix`]
/// copies held here are gathered before each step; they exist to make
/// the *data migration* real — every rebalance physically moves blocks
/// between per-processor stores via [`hetgrid_adapt::actuator`] — while
/// the compute path reuses the executor unchanged.
///
/// Four equal workstations on a 2x2 grid, one of which slows down 5x
/// from iteration 4 on; the synthetic cycle-times make the drift
/// deterministic (see [`Session::step_with_times`]):
///
/// ```
/// use hetgrid::adapt::ControllerConfig;
/// use hetgrid::linalg::{gemm, Matrix};
/// use hetgrid::pipeline::Session;
///
/// let (nb, r, iters) = (8, 4, 12); // 8x8 blocks of order 4: 32x32 operands
/// let n = nb * r;
/// let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 13) as f64);
/// let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 17) % 11) as f64);
/// let reference = gemm::matmul(&a, &b);
/// let base = [1.0; 4];
/// let config = ControllerConfig::default();
/// let mut session = Session::new(&base, 2, 2, 4, 4, nb, r, &a, &b, iters, config);
/// for iter in 0..iters {
///     let truth = if iter >= 4 { [5.0, 1.0, 1.0, 1.0] } else { base };
///     let step = session.step_with_times(&truth);
///     assert!(step.c.approx_eq(&reference, 1e-9), "wrong product at {iter}");
/// }
/// assert!(session.controller().rebalances() >= 1);
/// assert!(session.blocks_moved() > 0);
/// ```
pub struct Session {
    controller: Controller,
    a: DistributedMatrix,
    b: DistributedMatrix,
    r: usize,
    iters_total: usize,
    iters_done: usize,
    blocks_moved: usize,
}

impl Session {
    /// Plans for `times` (by processor id) on a `p x q` grid and
    /// scatters the operands over the initial distribution.
    ///
    /// `a` and `b` must be square with side `nb * r`; the session plans
    /// for `iters` kernel iterations (the controller's amortization
    /// horizon).
    ///
    /// # Panics
    /// Panics on inconsistent dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        times: &[f64],
        p: usize,
        q: usize,
        bp: usize,
        bq: usize,
        nb: usize,
        r: usize,
        a: &Matrix,
        b: &Matrix,
        iters: usize,
        config: ControllerConfig,
    ) -> Self {
        let controller = Controller::new(times, p, q, bp, bq, nb, config);
        let dist = &controller.plan().dist;
        let a = DistributedMatrix::scatter(a, dist, nb, r);
        let b = DistributedMatrix::scatter(b, dist, nb, r);
        Session {
            controller,
            a,
            b,
            r,
            iters_total: iters,
            iters_done: 0,
            blocks_moved: 0,
        }
    }

    /// The controller driving this session.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Completed iterations.
    pub fn iters_done(&self) -> usize {
        self.iters_done
    }

    /// Total blocks migrated so far (summed over both operands).
    pub fn blocks_moved(&self) -> usize {
        self.blocks_moved
    }

    /// Runs one executed iteration, feeding the controller the *real*
    /// observed per-unit times from the run. This is the path for
    /// genuinely heterogeneous or drifting hardware.
    pub fn step(&mut self) -> SessionStep {
        let (c, report) = self.execute();
        let sample = IterationSample::from_exec_report(&report);
        self.finish_step(c, report, sample)
    }

    /// Runs one executed iteration but feeds the controller noiseless
    /// telemetry derived from `truth_by_proc` (true cycle-times by
    /// processor id) — deterministic drift emulation on homogeneous
    /// hardware, where the executor's slowdown-weight emulation cancels
    /// out of real per-unit timings by construction.
    pub fn step_with_times(&mut self, truth_by_proc: &[f64]) -> SessionStep {
        let (c, report) = self.execute();
        let sample = IterationSample::from_true_times(&self.controller.plan().arr, truth_by_proc);
        self.finish_step(c, report, sample)
    }

    fn execute(&mut self) -> (Matrix, ExecReport) {
        let plan = self.controller.plan();
        let weights = plan.arr.slowdown_weights();
        let (ga, gb) = (self.a.gather(), self.b.gather());
        let out = hetgrid_exec::run(
            &hetgrid_exec::ChannelTransport,
            hetgrid_exec::Kernel::Mm,
            &[&ga, &gb],
            &plan.dist,
            self.controller.nb(),
            self.r,
            &weights,
            hetgrid_exec::ExecConfig::default(),
        )
        .expect("pipeline executor run aborted (dropped peer)");
        (out.result, out.report)
    }

    fn finish_step(
        &mut self,
        c: Matrix,
        report: ExecReport,
        sample: IterationSample,
    ) -> SessionStep {
        self.iters_done += 1;
        let remaining = self.iters_total.saturating_sub(self.iters_done);
        let (decision, blocks_moved) = match self.controller.observe(&sample, remaining) {
            Action::Rebalanced { decision, old_plan } => {
                let (from, to) = (old_plan.placement(), self.controller.plan().placement());
                let moved = hetgrid_adapt::redistribute(&mut self.a, &from, &to)
                    + hetgrid_adapt::redistribute(&mut self.b, &from, &to);
                self.blocks_moved += moved;
                (Some(decision), moved)
            }
            Action::Evaluated(decision) => (Some(decision), 0),
            Action::Continue => (None, 0),
        };
        SessionStep {
            c,
            report,
            decision,
            blocks_moved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgrid_adapt::{policy, PolicyConfig};
    use hetgrid_core::Method;
    use hetgrid_plan::Kernel;
    use hetgrid_sim::CostModel;

    fn plan(times: &[f64], bp: usize, bq: usize) -> Plan {
        Plan::solve(times, 2, 2, bp, bq, Method::Heuristic)
    }

    #[test]
    fn plan_builds_and_simulates() {
        let plan = plan(&[1.0, 2.0, 3.0, 5.0], 8, 6);
        assert!(plan.alloc.obj2() > 1.8);
        let rep = plan.simulate(Kernel::Mm, 12, CostModel::default());
        assert!(rep.makespan > 0.0);
        let lu = plan.simulate(Kernel::Lu, 12, CostModel::default());
        assert!(lu.makespan > 0.0);
    }

    #[test]
    fn rebalance_on_identical_times_moves_nothing() {
        let times = [1.0, 2.0, 3.0, 5.0];
        let plan = plan(&times, 8, 6);
        let (d, next) = policy::evaluate(&plan, &times, 24, 0, &PolicyConfig::default());
        assert_eq!(d.blocks_moved, 0);
        assert!((next.alloc.obj2() - plan.alloc.obj2()).abs() < 1e-12);
    }

    #[test]
    fn rebalance_on_drifted_times_moves_something_and_helps() {
        // Night: homogeneous. Afternoon: one machine heavily loaded.
        let night = [1.0, 1.0, 1.0, 1.0];
        let afternoon = [1.0, 1.0, 1.0, 4.0];
        let plan = plan(&night, 8, 8);
        let (d, fresh) = policy::evaluate(&plan, &afternoon, 24, 0, &PolicyConfig::default());
        assert!(
            d.moved_fraction > 0.0 && d.moved_fraction < 1.0,
            "moved = {}",
            d.moved_fraction
        );
        // Both plans priced on the afternoon speeds.
        assert!(
            d.fresh_cost < d.stale_cost,
            "rebalance did not help: {} vs {}",
            d.fresh_cost,
            d.stale_cost
        );
        assert_eq!(fresh.grid(), (2, 2));
    }

    #[test]
    fn session_computes_correct_products_across_rebalances() {
        use hetgrid_sim::DriftProfile;

        let nb = 8;
        let r = 2;
        let n = nb * r;
        let a = Matrix::from_fn(n, n, |i, j| ((i + 1) * (j + 2) % 7) as f64);
        let b = Matrix::from_fn(n, n, |i, j| ((2 * i + 3 * j) % 5) as f64);
        let expected = hetgrid_linalg::gemm::matmul(&a, &b);

        let base = [1.0; 4];
        let iters = 30;
        let mut session = Session::new(
            &base,
            2,
            2,
            4,
            4,
            nb,
            r,
            &a,
            &b,
            iters,
            hetgrid_adapt::ControllerConfig::default(),
        );
        let profile = DriftProfile::Step {
            at: 2,
            factors: vec![5.0, 1.0, 1.0, 1.0],
        };
        let mut rebalanced_steps = 0;
        for iter in 0..iters {
            let truth = profile.times_at(&base, iter);
            let step = session.step_with_times(&truth);
            // Every iteration's product is exact, before and after any
            // data migration.
            assert!(
                step.c.approx_eq(&expected, 1e-9),
                "wrong product at iteration {}",
                iter
            );
            if step.blocks_moved > 0 {
                rebalanced_steps += 1;
            }
        }
        assert_eq!(session.iters_done(), iters);
        assert!(
            session.controller().rebalances() >= 1,
            "controller never adapted to the step drift"
        );
        assert_eq!(
            session.blocks_moved() > 0,
            rebalanced_steps > 0,
            "move accounting inconsistent"
        );
        // The operands themselves survived the migrations intact.
        assert!(session.a.gather().approx_eq(&a, 0.0));
        assert!(session.b.gather().approx_eq(&b, 0.0));
    }

    #[test]
    fn session_and_run_scenario_make_the_same_decisions() {
        // The executed loop (`Session`) and the analytic one
        // (`run_scenario`) drive the same controller over the same trace,
        // so they must rebalance at the same iterations and move the same
        // blocks (the session moves both operands).
        use hetgrid_adapt::{run_scenario, Scenario};
        use hetgrid_sim::DriftProfile;

        let (nb, r, iters) = (8, 2, 40);
        let n = nb * r;
        let a = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as f64);
        let b = Matrix::from_fn(n, n, |i, j| ((3 * i + j) % 7) as f64);
        let cases = [
            (
                vec![1.0; 4],
                (2, 2),
                DriftProfile::Step {
                    at: 3,
                    factors: vec![5.0, 1.0, 1.0, 1.0],
                },
            ),
            (
                vec![1.0, 2.0, 3.0, 4.0],
                (2, 2),
                DriftProfile::Ramp {
                    from: 2,
                    to: 12,
                    factors: vec![4.0, 1.0, 1.0, 0.5],
                },
            ),
            (
                vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
                (2, 3),
                DriftProfile::Step {
                    at: 5,
                    factors: vec![1.0, 1.0, 6.0, 1.0, 1.0, 1.0],
                },
            ),
            (
                vec![1.0; 4],
                (2, 2),
                DriftProfile::PeriodicSpike {
                    period: 10,
                    width: 6,
                    factors: vec![4.0, 1.0, 1.0, 1.0],
                },
            ),
        ];
        for (base, (p, q), profile) in cases {
            let config = ControllerConfig::default();
            let out = run_scenario(&Scenario {
                base_times: base.clone(),
                p,
                q,
                bp: 4,
                bq: 4,
                nb,
                iters,
                profile: profile.clone(),
                config,
            });
            assert!(out.rebalances >= 1, "{profile:?}: no rebalance to compare");
            let mut session = Session::new(&base, p, q, 4, 4, nb, r, &a, &b, iters, config);
            for (iter, h) in out.history.iter().enumerate() {
                let before = session.controller().rebalances();
                session.step_with_times(&profile.times_at(&base, iter));
                let rebalanced = session.controller().rebalances() > before;
                assert_eq!(rebalanced, h.rebalanced, "{profile:?} iteration {iter}");
            }
            assert_eq!(session.blocks_moved(), 2 * out.blocks_moved, "{profile:?}");
        }
    }

    #[test]
    fn session_real_telemetry_path_runs() {
        // On homogeneous hardware with real telemetry the loop should
        // simply not find drift; this exercises the exec-report path.
        let nb = 4;
        let r = 2;
        let n = nb * r;
        let a = Matrix::identity(n);
        let b = Matrix::from_fn(n, n, |i, j| (i * n + j) as f64);
        let mut session = Session::new(
            &[1.0; 4],
            2,
            2,
            4,
            4,
            nb,
            r,
            &a,
            &b,
            4,
            hetgrid_adapt::ControllerConfig::default(),
        );
        for _ in 0..4 {
            let step = session.step();
            assert!(step.c.approx_eq(&b, 1e-12));
            assert!(step.report.wall_seconds >= 0.0);
        }
    }
}
