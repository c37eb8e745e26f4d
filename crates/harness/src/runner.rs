//! Case runners: draw a scenario from a seed, execute the real kernel
//! over the fault-injecting transport, and judge the run with the
//! differential oracles. Every failure message carries the seed, the
//! fault profile, and the scenario description, so any red run is a
//! one-command deterministic replay.

use crate::faults::{FaultProfile, KillSchedule};
use crate::oracles;
use crate::scenario::{
    dominant_matrix, exec_scenario, general_matrix, kernel_inputs, random_arrangement, random_dist,
    spd_matrix, star_scenario, ExecScenario,
};
use crate::vtransport::VirtualTransport;
use hetgrid_adapt::{ControllerConfig, Outcome, Scenario};
use hetgrid_core::Arrangement;
use hetgrid_dist::{BlockCyclic, Placement};
use hetgrid_exec::{
    run, run_recovery, run_solve_on_cfg, run_star_mm_on_cfg, slowdown_weights, ExecConfig,
    ExecReport, GridFault, RecoveryStats, SolveKind,
};
use hetgrid_linalg::gemm::matvec;
use hetgrid_linalg::Matrix;
use hetgrid_plan::Kernel;
use hetgrid_sim::counts::{self, star_mm_counts, star_residency_peaks};
use hetgrid_sim::DriftProfile;
use rand::prelude::*;

/// The matrix stream of a case: independent of the scenario draw, so
/// the scenario stays stable if matrix generation ever changes, and
/// shared by the plain and recovery runners so a recovery failure
/// replays on the exact matrices the plain case uses.
fn matrix_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x00D1_5EA5_E000_0000)
}

/// Panics with the case context when an oracle rejected the run.
fn check(result: Result<(), String>, ctx: &str) {
    if let Err(msg) = result {
        panic!("harness oracle failed: {msg}\n  case: {ctx}");
    }
}

/// The oracles every grid run answers to, whatever it computed: the
/// observed counts equal the plan fold, a multi-processor grid actually
/// communicated, and the live telemetry registry (with whatever
/// per-processor / per-edge names this run interned) survives the serve
/// `Metrics` response round trip bit-exactly.
fn check_report(report: &ExecReport, kernel: Kernel, sc: &ExecScenario, ctx: &str) {
    let plan = kernel.plan(sc.dist.as_ref(), sc.nb);
    let predicted = counts::fold(&plan, 0, &sc.weights);
    check(oracles::check_counts(report, &predicted), ctx);
    let (p, q) = sc.grid();
    if p * q > 1 && report.total_messages() == 0 {
        panic!("harness oracle failed: no messages on a {p}x{q} grid\n  case: {ctx}");
    }
    check(
        oracles::check_metrics_roundtrip(&hetgrid_obs::metrics().snapshot()),
        ctx,
    );
}

/// Runs one executor case and validates it with every applicable
/// oracle.
///
/// # Panics
/// Panics — with the seed, profile, and scenario in the message — when
/// any oracle rejects the run.
pub fn run_exec_case(kernel: Kernel, profile: FaultProfile, seed: u64) {
    let sc = exec_scenario(seed);
    let ctx = format!(
        "{kernel:?} under '{}' on {} — replay: HARNESS_SEED={seed} cargo test -p hetgrid-harness",
        profile.name,
        sc.describe()
    );
    let transport = VirtualTransport::new(seed, profile);
    let inputs = kernel_inputs(kernel, &mut matrix_rng(seed), sc.nb * sc.r);
    let refs: Vec<&Matrix> = inputs.iter().collect();
    let cfg = ExecConfig {
        lookahead: sc.lookahead,
    };
    let out = run(
        &transport,
        kernel,
        &refs,
        sc.dist.as_ref(),
        sc.nb,
        sc.r,
        &sc.weights,
        cfg,
    )
    .unwrap_or_else(|e| panic!("harness: {e}\n  case: {ctx}"));
    check(
        oracles::check_kernel(kernel, &inputs, &out, sc.nb, sc.r),
        &ctx,
    );
    check_report(&out.report, kernel, &sc, &ctx);
}

/// Runs one full linear solve (LU- or Cholesky-backed, by seed parity)
/// and validates the residual plus the factorization's report.
///
/// # Panics
/// Panics — with the seed, profile, and scenario in the message — when
/// any oracle rejects the run.
pub fn run_solve_case(profile: FaultProfile, seed: u64) {
    let sc = exec_scenario(seed);
    let ctx = format!(
        "Solve under '{}' on {} — replay: HARNESS_SEED={seed} cargo test -p hetgrid-harness",
        profile.name,
        sc.describe()
    );
    let transport = VirtualTransport::new(seed, profile);
    let mut rng = matrix_rng(seed);
    let n = sc.nb * sc.r;
    let (a, kind, kernel) = if seed.is_multiple_of(2) {
        (dominant_matrix(&mut rng, n), SolveKind::Lu, Kernel::Lu)
    } else {
        (
            spd_matrix(&mut rng, n),
            SolveKind::Cholesky,
            Kernel::Cholesky,
        )
    };
    let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let b = matvec(&a, &x0);
    let cfg = ExecConfig {
        lookahead: sc.lookahead,
    };
    let (x, report) = run_solve_on_cfg(
        &transport,
        &a,
        &b,
        sc.dist.as_ref(),
        sc.nb,
        sc.r,
        &sc.weights,
        kind,
        cfg,
    )
    .unwrap_or_else(|e| panic!("harness: {e}\n  case: {ctx}"));
    check(oracles::check_solve(&a, &x, &b, 1e-6), &ctx);
    check_report(&report, kernel, &sc, &ctx);
}

/// Runs one master-worker (star) case and validates it with the full
/// oracle stack: the product against the `hetgrid-linalg` reference,
/// the observed message/work tables against the
/// [`hetgrid_sim::counts::star_mm_counts`] closed forms, the
/// memory-bound oracle ([`oracles::check_star_memory`]) against the
/// plan's residency fold, and the telemetry round trip.
///
/// # Panics
/// Panics — with the seed, profile, and scenario in the message — when
/// any oracle rejects the run.
pub fn run_star_case(profile: FaultProfile, seed: u64) {
    let sc = star_scenario(seed);
    let ctx = format!(
        "Star MM under '{}' on {} — replay: HARNESS_SEED={seed} cargo test -p hetgrid-harness",
        profile.name,
        sc.describe()
    );
    let transport = VirtualTransport::new(seed, profile);
    let mut rng = matrix_rng(seed);
    let (mb, nb, kb) = sc.dims;
    let a = general_matrix(&mut rng, mb * sc.r, kb * sc.r);
    let b = general_matrix(&mut rng, kb * sc.r, nb * sc.r);
    let cfg = ExecConfig {
        lookahead: sc.lookahead,
    };

    let (c, report) = run_star_mm_on_cfg(
        &transport,
        &a,
        &b,
        &sc.topo,
        sc.dims,
        sc.r,
        &sc.weights,
        cfg,
    )
    .unwrap_or_else(|e| panic!("harness: {e}\n  case: {ctx}"));
    check(oracles::check_mm(&a, &b, &c, 1e-9), &ctx);
    let predicted = star_mm_counts(&sc.topo, sc.dims, &sc.weights);
    check(oracles::check_counts(&report, &predicted), &ctx);
    let hetgrid_core::Topology::Star { worker_mem, .. } = sc.topo else {
        unreachable!("star_scenario draws a star topology")
    };
    let plan = hetgrid_plan::star_mm_plan(&sc.topo, sc.dims);
    let peaks = star_residency_peaks(&plan);
    check(oracles::check_star_memory(&peaks, worker_mem), &ctx);
    if report.total_messages() == 0 {
        panic!("harness oracle failed: a star run sent no messages\n  case: {ctx}");
    }
    check(
        oracles::check_metrics_roundtrip(&hetgrid_obs::metrics().snapshot()),
        &ctx,
    );
}

/// Runs one elastic-grid recovery case: the scenario of `seed` under a
/// seeded single-crash kill schedule (`variant` picks the victim and
/// the retirement boundary), driven through
/// [`hetgrid_exec::run_recovery`] and judged by the
/// [`oracles::check_recovery`] differential oracle — the recovered
/// result must be bit-exact against the fault-free reference run — plus
/// the kernel's own numerical oracle. Returns what recovery did.
///
/// # Panics
/// Panics — with the seed, kill schedule, profile, and scenario in the
/// message — when recovery fails or any oracle rejects the run.
pub fn run_recovery_case(
    kernel: Kernel,
    profile: FaultProfile,
    seed: u64,
    variant: u64,
) -> RecoveryStats {
    let sc = exec_scenario(seed);
    let (p, q) = sc.grid();
    let schedule = KillSchedule::single_crash(seed, variant, p * q, sc.nb);
    recovery_case(kernel, profile, seed, sc, schedule)
}

/// Like [`run_recovery_case`], but the grid fault is a processor *join*:
/// the grid pauses at a seeded retirement boundary, grows by a row, and
/// resumes on the re-solved distribution.
///
/// # Panics
/// Panics with the replay seed in the message when any oracle rejects
/// the run.
pub fn run_recovery_join_case(
    kernel: Kernel,
    profile: FaultProfile,
    seed: u64,
    variant: u64,
) -> RecoveryStats {
    let sc = exec_scenario(seed);
    let schedule = KillSchedule::single_join(seed, variant, sc.nb);
    recovery_case(kernel, profile, seed, sc, schedule)
}

/// Two crashes in a row on the paper's 2x2 grid {1, 2, 3, 5}, cyclic,
/// nb = 6, r = 2: processor 3 dies after retiring step 0, then
/// processor 0 of the 1x2 grid that recovery left after step 3. Judged
/// like [`run_recovery_case`]; returns what recovery did.
///
/// The run is in order (lookahead 0), which fixes the faults' order:
/// with processor 3 gone after step 0, processor 0 of the first grid
/// cannot retire step 3 (even MM, which never reads processor 3's
/// blocks there, stalls on processor 1 at step 3), so the second crash
/// can only fire on the survivor grid.
///
/// # Panics
/// Panics with the replay seed in the message when any oracle rejects
/// the run.
pub fn run_two_crash_case(kernel: Kernel, profile: FaultProfile, seed: u64) -> RecoveryStats {
    let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
    let sc = ExecScenario {
        weights: slowdown_weights(&arr),
        arr,
        dist: Box::new(BlockCyclic::new(2, 2)),
        dist_name: "cyclic",
        nb: 6,
        r: 2,
        slowdown: None,
        lookahead: 0,
    };
    let crash = |proc, at_step| GridFault::Crash { proc, at_step };
    let schedule = KillSchedule {
        events: vec![crash(3, 0), crash(0, 3)],
    };
    recovery_case(kernel, profile, seed, sc, schedule)
}

fn recovery_case(
    kernel: Kernel,
    profile: FaultProfile,
    seed: u64,
    sc: ExecScenario,
    schedule: KillSchedule,
) -> RecoveryStats {
    let ctx = format!(
        "{kernel:?} recovery from {:?} under '{}' on {} — replay: HARNESS_SEED={seed} \
         cargo test -p hetgrid-harness",
        schedule.events,
        profile.name,
        sc.describe()
    );
    let inputs = kernel_inputs(kernel, &mut matrix_rng(seed), sc.nb * sc.r);
    let refs: Vec<&Matrix> = inputs.iter().collect();
    let dist = sc.dist.as_ref();
    let cfg = ExecConfig {
        lookahead: sc.lookahead,
    };

    // The fault-free reference: the same scenario and message-fault
    // profile, no kill schedule.
    let fault_free = VirtualTransport::new(seed, profile);
    let reference = run(
        &fault_free,
        kernel,
        &refs,
        dist,
        sc.nb,
        sc.r,
        &sc.weights,
        cfg,
    )
    .unwrap_or_else(|e| panic!("harness (fault-free reference): {e}\n  case: {ctx}"));

    // The faulty run: same transport semantics plus the kill schedule.
    let transport = VirtualTransport::new(seed, profile).with_kills(&schedule);
    let out = run_recovery(
        &transport,
        kernel,
        &refs,
        dist,
        sc.nb,
        sc.r,
        &sc.weights,
        cfg,
        &sc.arr,
    )
    .unwrap_or_else(|e| panic!("harness: {e}\n  case: {ctx}"));
    let (out, stats) = (out.run, out.stats);

    check(
        oracles::check_recovery(
            &reference.result,
            &out.result,
            reference.taus.as_deref(),
            out.taus.as_deref(),
            &stats,
            schedule.events.len(),
        ),
        &ctx,
    );
    // The recovered numerics must also satisfy the kernel's own
    // reference oracle (not just agree with the fault-free executor).
    check(
        oracles::check_kernel(kernel, &inputs, &out, sc.nb, sc.r),
        &ctx,
    );
    stats
}

/// Runs one redistribution case: scatter a matrix, move it between two
/// seeded placements (arrangement plus distribution) on the same grid,
/// and apply the conservation oracle.
///
/// # Panics
/// Panics with the seed in the message when conservation fails.
pub fn run_redistribution_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (p, q) = [(2, 2), (2, 3), (3, 2), (3, 3)][rng.gen_range(0..4usize)];
    let arr_from = random_arrangement(&mut rng, p, q);
    let arr_to = random_arrangement(&mut rng, p, q);
    let (from, from_name) = random_dist(&mut rng, &arr_from);
    let (to, to_name) = random_dist(&mut rng, &arr_to);
    let nb = rng.gen_range(4..=8usize);
    let r = rng.gen_range(2..=3usize);
    let m = general_matrix(&mut rng, nb * r, nb * r);
    let from = Placement {
        arr: &arr_from,
        dist: from.as_ref(),
    };
    let to = Placement {
        arr: &arr_to,
        dist: to.as_ref(),
    };
    let ctx = format!(
        "redistribution {from_name} -> {to_name} on {p}x{q}, nb={nb}, r={r} — replay: \
         HARNESS_SEED={seed} cargo test -p hetgrid-harness"
    );
    check(oracles::check_redistribution(&m, &from, &to, nb, r), &ctx);
}

/// Draws a seeded closed-loop scenario for `hetgrid-adapt`: a random
/// pool, a random drift profile (the injected cycle-time drift), and
/// the default controller.
pub fn adapt_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let (p, q) = [(2, 2), (2, 3)][rng.gen_range(0..2usize)];
    let n = p * q;
    let base_times: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
    let factors: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                rng.gen_range(1.5..6.0)
            } else {
                1.0
            }
        })
        .collect();
    let profile = match rng.gen_range(0..4u32) {
        0 => DriftProfile::Stationary,
        1 => DriftProfile::Step {
            at: rng.gen_range(2..10usize),
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
            let period = rng.gen_range(6..12usize);
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

/// Runs a seeded adapt scenario twice and checks the closed loop is
/// deterministic: identical rebalance decisions, identical makespans,
/// identical move counts. Returns the outcome for further inspection.
///
/// # Panics
/// Panics with the seed in the message when the two runs diverge.
pub fn run_adapt_case(seed: u64) -> Outcome {
    let sc = adapt_scenario(seed);
    let a = hetgrid_adapt::run_scenario(&sc);
    let b = hetgrid_adapt::run_scenario(&sc);
    let same = a.rebalances == b.rebalances
        && a.blocks_moved == b.blocks_moved
        && a.static_makespan == b.static_makespan
        && a.adaptive_makespan == b.adaptive_makespan
        && a.redistribution_cost == b.redistribution_cost
        && a.history.len() == b.history.len()
        && a.history
            .iter()
            .zip(&b.history)
            .all(|(x, y)| x.rebalanced == y.rebalanced && x.adaptive_cost == y.adaptive_cost);
    assert!(
        same,
        "harness oracle failed: adapt closed loop not deterministic \
         (runs diverged)\n  case: profile {:?} — replay: HARNESS_SEED={seed} \
         cargo test -p hetgrid-harness",
        sc.profile
    );
    a
}
