//! Acceptance tests for the closed adaptive loop: deterministic
//! simulation shows adaptive execution beating the static plan under
//! drift, touching nothing when the pool is stationary, and keeping live
//! distributed data intact across redistributions.

use hetgrid_adapt::{
    redistribute, run_scenario, Action, Controller, ControllerConfig, IterationSample, Scenario,
};
use hetgrid_exec::DistributedMatrix;
use hetgrid_linalg::Matrix;
use hetgrid_sim::DriftProfile;
use rand::prelude::*;

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
fn adaptive_beats_static_under_step_drift() {
    let out = run_scenario(&scenario(DriftProfile::Step {
        at: 5,
        factors: vec![6.0, 1.0, 1.0, 1.0],
    }));
    assert!(out.rebalances >= 1, "controller never rebalanced");
    assert!(
        out.adaptive_makespan < out.static_makespan,
        "adaptive {} did not beat static {} (redistribution bill {})",
        out.adaptive_makespan,
        out.static_makespan,
        out.redistribution_cost
    );
    assert!(out.speedup() > 1.1, "speedup only {:.3}", out.speedup());
}

#[test]
fn stationary_pool_sees_zero_redistributions() {
    let out = run_scenario(&scenario(DriftProfile::Stationary));
    assert_eq!(out.rebalances, 0);
    assert_eq!(out.blocks_moved, 0);
    assert_eq!(out.redistribution_cost, 0.0);
    assert_eq!(out.adaptive_makespan, out.static_makespan);
}

#[test]
fn heterogeneous_stationary_pool_is_also_left_alone() {
    // A pool that is *already* heterogeneous but stable: the initial
    // plan is correct, so perfect telemetry must never look like drift.
    let mut sc = scenario(DriftProfile::Stationary);
    sc.base_times = vec![1.0, 2.0, 3.0, 6.0];
    let out = run_scenario(&sc);
    assert_eq!(out.rebalances, 0);
    assert_eq!(out.adaptive_makespan, out.static_makespan);
}

#[test]
fn brief_periodic_spikes_do_not_cause_churn() {
    // A one-iteration load spike is smoothed by the EWMA to well below
    // the drift threshold: transients must not trigger redistribution.
    let out = run_scenario(&scenario(DriftProfile::PeriodicSpike {
        period: 8,
        width: 1,
        factors: vec![2.0, 1.0, 1.0, 1.0],
    }));
    assert_eq!(out.rebalances, 0, "smoothing failed to absorb transients");
}

/// A random but fully seeded scenario: grid shape, base cycle-times and
/// drift profile all drawn from `seed`.
fn random_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let grids = [(2, 2), (2, 3)];
    let (p, q) = grids[rng.gen_range(0..grids.len())];
    let base_times: Vec<f64> = (0..p * q).map(|_| rng.gen_range(0.5..4.0)).collect();
    let factors: Vec<f64> = (0..p * q)
        .map(|_| {
            if rng.gen_bool(0.5) {
                1.0
            } else {
                rng.gen_range(1.5..6.0)
            }
        })
        .collect();
    let profile = match rng.gen_range(0..4u32) {
        0 => DriftProfile::Stationary,
        1 => DriftProfile::Step {
            at: rng.gen_range(2..10),
            factors,
        },
        2 => {
            let from = rng.gen_range(2..6usize);
            DriftProfile::Ramp {
                from,
                to: from + rng.gen_range(4..12usize),
                factors,
            }
        }
        _ => {
            let period = rng.gen_range(6..12);
            DriftProfile::PeriodicSpike {
                period,
                width: rng.gen_range(1..=period / 2),
                factors,
            }
        }
    };
    Scenario {
        base_times,
        p,
        q,
        bp: 4,
        bq: 4,
        nb: 16,
        iters: 40,
        profile,
        config: ControllerConfig::default(),
    }
}

#[test]
fn same_seed_replays_identical_decisions_and_plan() {
    // The whole closed loop — estimator, drift detector, amortized
    // decision, plan re-solve — must be a pure function of the scenario.
    // Bitwise equality, not approximate: any hidden nondeterminism
    // (iteration order over a hash map, time-dependent tuning) would
    // break exact replay of harness failures.
    for seed in 0..24u64 {
        let sc = random_scenario(seed);
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.rebalances, b.rebalances, "seed {seed}");
        assert_eq!(a.blocks_moved, b.blocks_moved, "seed {seed}");
        assert_eq!(a.static_makespan.to_bits(), b.static_makespan.to_bits());
        assert_eq!(a.adaptive_makespan.to_bits(), b.adaptive_makespan.to_bits());
        assert_eq!(
            a.redistribution_cost.to_bits(),
            b.redistribution_cost.to_bits()
        );
        assert_eq!(a.history.len(), b.history.len());
        for (ha, hb) in a.history.iter().zip(&b.history) {
            assert_eq!(ha.rebalanced, hb.rebalanced, "seed {seed} iter {}", ha.iter);
            assert_eq!(ha.adaptive_cost.to_bits(), hb.adaptive_cost.to_bits());
            assert_eq!(ha.true_times, hb.true_times);
        }

        // Same check at the plan level: two controllers fed the same
        // trace end with identical block ownership.
        let drive = |sc: &Scenario| {
            let mut c = Controller::new(&sc.base_times, sc.p, sc.q, sc.bp, sc.bq, sc.nb, sc.config);
            for iter in 0..sc.iters {
                let truth = sc.profile.times_at(&sc.base_times, iter);
                let sample = IterationSample::from_true_times(&c.plan().arr, &truth);
                c.observe(&sample, sc.iters - iter - 1);
            }
            let place = c.plan().placement();
            let owners: Vec<usize> = (0..sc.nb)
                .flat_map(|bi| (0..sc.nb).map(move |bj| (bi, bj)).collect::<Vec<_>>())
                .map(|(bi, bj)| place.owner(bi, bj))
                .collect();
            (c.rebalances(), owners)
        };
        assert_eq!(
            drive(&sc),
            drive(&sc),
            "final plan diverged for seed {seed}"
        );
    }
}

#[test]
fn live_data_survives_closed_loop_redistributions() {
    // Drive a controller manually and actuate every rebalance against a
    // real distributed matrix, as the pipeline session does.
    let nb = 16;
    let r = 2;
    let base = [1.0; 4];
    let mut controller = Controller::new(&base, 2, 2, 4, 4, nb, ControllerConfig::default());
    let m = Matrix::from_fn(nb * r, nb * r, |i, j| (i * 7 + j) as f64);
    let mut dm = DistributedMatrix::scatter(&m, &controller.plan().dist, nb, r);

    let profile = DriftProfile::Step {
        at: 3,
        factors: vec![6.0, 1.0, 1.0, 1.0],
    };
    let iters = 40;
    let mut moves_applied = 0;
    for iter in 0..iters {
        let truth = profile.times_at(&base, iter);
        let sample = IterationSample::from_true_times(&controller.plan().arr, &truth);
        if let Action::Rebalanced { decision, old_plan } =
            controller.observe(&sample, iters - iter - 1)
        {
            let to = controller.plan().placement();
            let moved = redistribute(&mut dm, &old_plan.placement(), &to);
            assert_eq!(moved, decision.blocks_moved);
            moves_applied += moved;
        }
    }
    assert!(controller.rebalances() >= 1);
    assert!(moves_applied > 0);
    // Every block ended up where the final distribution says it lives,
    // and the matrix content is untouched.
    let final_dist = &controller.plan().dist;
    for bi in 0..nb {
        for bj in 0..nb {
            let (i, j) = hetgrid_dist::BlockDist::owner(final_dist, bi, bj);
            assert!(
                dm.store(i, j).contains_key(&(bi, bj)),
                "block ({}, {}) not at its owner",
                bi,
                bj
            );
        }
    }
    assert!(dm.gather().approx_eq(&m, 0.0));
}
