//! `hetgrid run --topology star`: master-worker matrix multiplication.

use super::run::{arm_flight, finish_flight, mm_residual_line};
use crate::args::Args;
use crate::obs_out::ObsSession;
use hetgrid_exec::{run_star_mm_on_cfg, ChannelTransport, ExecConfig, DEFAULT_LOOKAHEAD};
use hetgrid_harness::scenario::general_matrix;
use hetgrid_obs::vdiag;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The grid path's flags, and what the star platform lacks that makes
/// each meaningless here. Given one, the run is refused: a flag dropped
/// in silence reads as a flag obeyed.
const GRID_ONLY: [(&str, &str); 7] = [
    (
        "crash",
        "crash recovery is grid-only (drop --topology star to inject and recover a crash)",
    ),
    (
        "times",
        "the workers are homogeneous (size it with --workers)",
    ),
    ("grid", "a master and its workers are not a 2D grid"),
    ("method", "there is no arrangement to solve for"),
    (
        "scheme",
        "the master holds every block, no block distribution",
    ),
    ("ordering", "there is no panel distribution to order"),
    ("panel", "there is no panel distribution to size"),
];

/// Matrix multiplication on the master-worker platform — the
/// maximum-reuse streaming schedule over the threaded executor,
/// verified against the sequential reference and cross-checked against
/// the closed-form one-port traffic and the per-worker residency bound.
pub fn run(args: &Args) -> Result<(), String> {
    let kernel = args.get("kernel").unwrap_or("mm");
    if kernel != "mm" {
        return Err(format!(
            "kernel {} not supported on the star topology (only mm)",
            kernel
        ));
    }
    if let Some((flag, why)) = GRID_ONLY.iter().find(|(flag, _)| args.has(flag)) {
        return Err(format!(
            "--{} is not supported on the star topology: {}",
            flag, why
        ));
    }
    let workers: usize = args.get_parse("workers", 4)?;
    let worker_mem: usize = args.get_parse("worker-mem", 7)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if worker_mem < 3 {
        return Err(format!(
            "--worker-mem {} too small: streaming MM needs at least 3 resident blocks",
            worker_mem
        ));
    }
    let nb = args.count("nb", 8)?;
    let r: usize = args.get_parse("block", 8)?;
    let seed: u64 = args.get_parse("seed", 0)?;
    let cfg = ExecConfig {
        lookahead: args.get_parse("lookahead", DEFAULT_LOOKAHEAD)?,
    };
    let topo = hetgrid_core::Topology::Star {
        workers,
        worker_mem,
        master_bw: 1.0,
    };
    let weights = vec![vec![1u64; workers + 1]];
    let n = nb * r;
    vdiag!(
        "executor: star MM, {} workers, mem {} blocks, {} {}x{} blocks (matrix {}x{})",
        workers,
        worker_mem,
        nb * nb,
        r,
        r,
        n,
        n
    );

    let flight = arm_flight(args);
    let session = ObsSession::begin(args);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = general_matrix(&mut rng, n, n);
    let b = general_matrix(&mut rng, n, n);
    let (c, report) = run_star_mm_on_cfg(
        &ChannelTransport,
        &a,
        &b,
        &topo,
        (nb, nb, nb),
        r,
        &weights,
        cfg,
    )
    .map_err(|e| e.to_string())?;
    let residual = mm_residual_line(&a, &b, &c);
    session.finish()?;

    let plan = hetgrid_plan::star_mm_plan(&topo, (nb, nb, nb));
    let peaks = hetgrid_sim::counts::star_residency_peaks(&plan);
    let peak = peaks.iter().copied().max().unwrap_or(0);
    let sends = report.messages_sent[0][0];
    let returns: u64 = report.messages_sent[0][1..].iter().sum();

    println!(
        "kernel mm on {}: {}x{} blocks of order {} (matrix {}x{})",
        topo, nb, nb, r, n, n
    );
    println!(
        "tile side mu     : {}",
        hetgrid_plan::star_tile_side(worker_mem)
    );
    println!("lookahead depth  : {}", report.lookahead);
    println!("wall time        : {:.4} s", report.wall_seconds);
    println!("{}", residual);
    println!(
        "one-port traffic : {} sends + {} returns = {} messages",
        sends,
        returns,
        report.total_messages()
    );
    println!(
        "residency peak   : {} of {} blocks per worker",
        peak, worker_mem
    );
    println!("per-worker work units:");
    for row in &report.work_units {
        println!("  {:?}", row);
    }
    finish_flight(flight);
    Ok(())
}
