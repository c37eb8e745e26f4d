//! The solver-only commands: `solve`, `bounds`, `rank1`, `sweep`.

use crate::args::Args;
use crate::obs_out::ObsSession;
use hetgrid_core::objective::workload_matrix;
use hetgrid_core::{bounds, exact, rank1, Effort, Method};
use hetgrid_obs::vdiag;

fn shares(xs: &[f64]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| format!("{:.4}", x)).collect();
    cells.join(", ")
}

/// Solves the placement + allocation problem and prints the result.
pub fn solve(args: &Args) -> Result<(), String> {
    let (times, p, q) = args.grid_times()?;
    let method = args.method((p, q))?;
    let opts = if args.flag("no-prune") {
        exact::ExactOptions::exhaustive()
    } else {
        exact::ExactOptions::default()
    };
    let session = ObsSession::begin(args);
    let solve_track = hetgrid_obs::trace::track("solver");
    let span = hetgrid_obs::span!(solve_track, "solve {}x{} ({})", p, q, method.name());
    vdiag!(
        "solving {}x{} placement with method '{}'",
        p,
        q,
        method.name()
    );
    let baseline = hetgrid_obs::metrics().snapshot();
    let solved = method.solve(&times, p, q, &opts);
    drop(span);
    session.finish(None)?;
    let (arr, alloc) = (&solved.arr, &solved.alloc);
    match solved.effort {
        Effort::Heuristic { steps, converged } => {
            println!("method: heuristic ({steps} steps, converged: {converged})")
        }
        Effort::Published => {
            let effort = hetgrid_obs::metrics().snapshot().delta(&baseline);
            println!(
                "method: exact ({} arrangements, {} trees examined, {} subtrees pruned)",
                effort.counter("solver.arrangements.examined"),
                effort.counter("solver.trees.examined"),
                effort.counter("solver.trees.pruned")
            )
        }
        Effort::Evaluations(n) if method == Method::LocalSearch => {
            println!("method: local search ({n} evaluations)")
        }
        Effort::Evaluations(n) => println!("method: simulated annealing ({n} evaluations)"),
    }
    println!("arrangement:\n{}", arr);
    println!("r = [{}]", shares(&alloc.r));
    println!("c = [{}]", shares(&alloc.c));
    println!("objective (sum r)(sum c) = {:.4}", alloc.obj2());
    let b = workload_matrix(arr, alloc);
    println!("average workload = {:.4}", b.mean());
    let cert = hetgrid_core::certify::certify(arr, alloc);
    println!(
        "certificate: feasible={} rows-tight={} cols-tight={} spanning={} gap<= {:.2}%",
        cert.feasible,
        cert.rows_tight,
        cert.cols_tight,
        cert.tight_graph_connected,
        cert.gap_bound() * 100.0
    );
    Ok(())
}

/// Prints the analytic objective brackets for a pool (core::bounds).
pub fn bounds(args: &Args) -> Result<(), String> {
    let (times, p, q) = args.grid_times()?;
    let solved = Method::Heuristic.solve(&times, p, q, &exact::ExactOptions::default());
    let (arr, achieved) = (&solved.arr, solved.alloc.obj2());
    println!(
        "total-rate upper bound (any distribution): {:.4}",
        bounds::total_rate_upper_bound(arr)
    );
    println!(
        "uniform block-cyclic lower bound          : {:.4}",
        bounds::cyclic_lower_bound(arr)
    );
    println!(
        "row-harmonic feasible lower bound         : {:.4}",
        bounds::row_harmonic_lower_bound(arr)
    );
    println!(
        "heuristic achieved                        : {:.4}",
        achieved
    );
    println!(
        "grid price (upper bound / achieved)       : {:.4}",
        bounds::grid_price(arr, achieved)
    );
    if p <= 4 && q <= 4 {
        let ex = exact::solve_arrangement(arr);
        println!("exact optimum for this arrangement        : {:.4}", ex.obj2);
    }
    Ok(())
}

/// Checks whether a perfectly balancing rank-1 arrangement exists.
pub fn rank1(args: &Args) -> Result<(), String> {
    let (times, p, q) = args.grid_times()?;
    match rank1::try_rank1_arrangement(&times, p, q, 1e-9) {
        Some(arr) => {
            println!("a rank-1 arrangement exists — perfect balance is achievable:");
            println!("{}", arr);
            let alloc = rank1::rank1_allocation(&arr, 1e-9).expect("rank-1 by construction");
            println!("shares: r = {:?}", alloc.r);
            println!("        c = {:?}", alloc.c);
            println!("every processor is busy 100% of the time (Section 4.3.2).");
        }
        None => {
            println!(
                "no rank-1 arrangement of these cycle-times exists for {}x{}:",
                p, q
            );
            println!("perfect balance is impossible; use `solve` for the best achievable.");
        }
    }
    Ok(())
}

/// Figures 6-8 data: the heuristic on random square grids, drawn at
/// Figure 6's seed (so `avg_workload` is `report fig6`'s column).
pub fn sweep(args: &Args) -> Result<(), String> {
    let max_n: usize = args.get_parse("max-n", 12)?;
    let trials = args.count("trials", 100)?;
    let csv = args.flag("csv");
    if csv {
        println!("n,avg_workload,tau,iterations");
    } else {
        println!(
            "{:>3} {:>14} {:>10} {:>12}",
            "n", "avg workload", "tau", "iterations"
        );
    }
    let ns: Vec<usize> = (2..=max_n).collect();
    for pt in hetgrid_repro::heuristic_sweep(&ns, trials, hetgrid_repro::SWEEP_SEED) {
        let (n, workload, tau, iters) = (pt.n, pt.average_workload, pt.tau, pt.iterations);
        if csv {
            println!("{},{:.4},{:.4},{:.2}", n, workload, tau, iters);
        } else {
            println!("{:>3} {:>14.4} {:>10.4} {:>12.2}", n, workload, tau, iters);
        }
    }
    Ok(())
}
