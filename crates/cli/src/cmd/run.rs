//! `hetgrid run`: a real kernel on the threaded executor, verified.

use crate::args::Args;
use crate::obs_out::ObsSession;
use hetgrid_core::exact::ExactOptions;
use hetgrid_exec::{
    run as exec_run, run_recovery, ChannelTransport, ExecConfig, GridFault, RunOutput,
    DEFAULT_LOOKAHEAD,
};
use hetgrid_harness::scenario::kernel_inputs;
use hetgrid_harness::{FaultProfile, KillSchedule, VirtualTransport};
use hetgrid_linalg::gemm::matmul;
use hetgrid_linalg::tri::{unit_lower_from_packed, upper_from_packed};
use hetgrid_linalg::Matrix;
use hetgrid_obs::vdiag;
use hetgrid_plan::Kernel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `--crash PROC@STEP` on a `p x q` grid running an `nb`-step plan.
fn crash_spec(
    args: &Args,
    (p, q): (usize, usize),
    nb: usize,
) -> Result<Option<(usize, usize)>, String> {
    let Some(spec) = args.get("crash") else {
        return Ok(None);
    };
    let (proc, step) = spec
        .split_once('@')
        .and_then(|(x, y)| Some((x.parse::<usize>().ok()?, y.parse::<usize>().ok()?)))
        .ok_or_else(|| format!("invalid --crash (want PROC@STEP, e.g. 2@3): {}", spec))?;
    if proc >= p * q {
        return Err(format!(
            "--crash processor {} outside the {}x{} grid",
            proc, p, q
        ));
    }
    if step >= nb {
        return Err(format!(
            "--crash step {} outside the {}-step plan",
            step, nb
        ));
    }
    Ok(Some((proc, step)))
}

/// Runs a real distributed kernel on the threaded executor (one OS
/// thread per grid processor, heterogeneity emulated by slowdown
/// weights), verifies the numerical result against the sequential
/// reference, and reports the executor's measurements. With
/// `--trace-out` / `--metrics-out` the executor's probes are live: the
/// trace has one track per processor and the metrics carry the
/// per-processor / per-edge message and work counters.
pub fn run(args: &Args) -> Result<(), String> {
    // `--topology star` switches to the master-worker platform model:
    // no 2D grid, no distribution — a bandwidth-bound master streaming
    // blocks to memory-bounded workers.
    match args.get("topology").unwrap_or("grid") {
        "grid" => {}
        "star" => return super::star::run(args),
        other => return Err(format!("unknown topology: {} (grid or star)", other)),
    }

    let (times, p, q) = args.grid_times()?;
    let nb = args.count("nb", 8)?;
    let r = args.count("block", 8)?;
    let seed: u64 = args.get_parse("seed", 0)?;
    let kernel = args.kernel(Kernel::Mm)?;
    let cfg = ExecConfig {
        lookahead: args.get_parse("lookahead", DEFAULT_LOOKAHEAD)?,
    };
    // `--crash PROC@STEP` routes the run through the elastic-grid
    // recovery driver: the named processor is killed at that retirement
    // boundary, the survivor grid is re-solved (dropping the victim's
    // weakest grid line), lost blocks are restored from the checkpoint
    // log, and the plan resumes — the result is still verified against
    // the sequential reference.
    let crash = crash_spec(args, (p, q), nb)?;

    let solved = args
        .method((p, q))?
        .solve(&times, p, q, &ExactOptions::default());
    let arr = &solved.arr;
    let scheme = args.scheme()?;
    let (bp, bq) = args.panel(scheme, (p, q), (4, 4))?;
    let dist = scheme.build(arr, &solved.alloc, bp, bq);
    let weights = arr.slowdown_weights();
    let n = nb * r;
    vdiag!(
        "executor: kernel {} on {} {}x{} blocks ({} worker threads, matrix {}x{})",
        kernel.name(),
        nb * nb,
        r,
        r,
        p * q,
        n,
        n
    );

    let flight = arm_flight(args);
    let session = ObsSession::begin(args);
    let inputs = kernel_inputs(kernel, &mut StdRng::seed_from_u64(seed), n);
    let refs: Vec<&Matrix> = inputs.iter().collect();
    let (out, recovered) = match crash {
        None => {
            let t = ChannelTransport;
            let out = exec_run(&t, kernel, &refs, dist.as_ref(), nb, r, &weights, cfg)
                .map_err(|e| e.to_string())?;
            (out, None)
        }
        Some((proc, at_step)) => {
            let schedule = KillSchedule {
                events: vec![GridFault::Crash { proc, at_step }],
            };
            let transport = VirtualTransport::new(seed, FaultProfile::FIFO).with_kills(&schedule);
            let rec = run_recovery(
                &transport,
                kernel,
                &refs,
                dist.as_ref(),
                nb,
                r,
                &weights,
                cfg,
                arr,
            )
            .map_err(|e| e.to_string())?;
            (rec.run, Some(((proc, at_step), rec.stats)))
        }
    };
    let residual = residual_line(kernel, &inputs, &out, nb, r);
    session.finish(None)?;

    let report = &out.report;
    match &recovered {
        Some(((cproc, cstep), stats)) => {
            println!(
                "kernel {} on a {}x{} grid: processor {} crashed at step {}, run recovered",
                kernel.name(),
                p,
                q,
                cproc,
                cstep
            );
            println!(
                "recovery         : resumed at step {}, {} dead blocks restored, \
                 {} blocks moved, {} steps replayed",
                stats.frontier, stats.dead_blocks, stats.blocks_moved, stats.replayed_steps
            );
        }
        None => println!(
            "kernel {} on a {}x{} grid, scheme {}: {}x{} blocks of order {} (matrix {}x{})",
            kernel.name(),
            p,
            q,
            scheme.name(),
            nb,
            nb,
            r,
            n,
            n
        ),
    }
    println!("lookahead depth  : {}", report.lookahead);
    println!("wall time        : {:.4} s", report.wall_seconds);
    println!("{}", residual);
    println!("messages sent    : {}", report.total_messages());
    if recovered.is_none() {
        println!("work imbalance   : {:.3}", report.work_imbalance());
        println!("busy imbalance   : {:.3}", report.imbalance());
        println!("per-processor work units:");
        for row in &report.work_units {
            println!("  {:?}", row);
        }
    }
    finish_flight(flight);
    Ok(())
}

/// The line verifying a run's result against the sequential reference:
/// the max-norm error of the identity its kernel promises.
fn residual_line(
    kernel: Kernel,
    inputs: &[Matrix],
    out: &RunOutput,
    nb: usize,
    r: usize,
) -> String {
    let res = &out.result;
    let (label, rebuilt) = match kernel {
        Kernel::Mm => return mm_residual_line(&inputs[0], &inputs[1], res),
        Kernel::Lu => (
            "max |L*U - A|    ",
            matmul(&unit_lower_from_packed(res), &upper_from_packed(res)),
        ),
        Kernel::Cholesky => ("max |L*L^T - A|  ", matmul(res, &res.transpose())),
        Kernel::Qr => {
            let taus = out.taus.as_deref().expect("qr returns taus");
            let (qm, rm) = hetgrid_exec::qr_unpack(res, taus, nb, r);
            ("max |Q*R - A|    ", matmul(&qm, &rm))
        }
    };
    format!("{}= {:.3e}", label, rebuilt.sub(&inputs[0]).max_abs())
}

/// `max |C - A*B|` of an MM result, grid or star.
pub(super) fn mm_residual_line(a: &Matrix, b: &Matrix, c: &Matrix) -> String {
    format!("max |C - A*B|    = {:.3e}", c.sub(&matmul(a, b)).max_abs())
}

/// `--flight-recorder [FILE]` arms the always-on crash ring: spans are
/// retained per thread (last 4096) even with tracing export off, and
/// dumped as a Chrome trace when a fault path fires (peer drop,
/// watchdog, recovery epoch) and again when the run ends. Returns
/// whether it was armed, for [`finish_flight`].
pub(super) fn arm_flight(args: &Args) -> bool {
    let armed = args.has("flight-recorder");
    if armed {
        let path = args.get("flight-recorder").unwrap_or("hetgrid-flight.json");
        hetgrid_obs::trace::set_flight(true);
        hetgrid_obs::flight::arm(path);
    }
    armed
}

/// End-of-run flight dump: re-dumps the rings so the file on disk
/// covers the whole run (a mid-run fault dump, if any, recorded the
/// same rings at an earlier point and is superseded).
pub(super) fn finish_flight(armed: bool) {
    if !armed {
        return;
    }
    if let Some(path) = hetgrid_obs::flight::dump("run complete") {
        hetgrid_obs::diag!("wrote flight-recorder dump to {}", path.display());
    }
}
