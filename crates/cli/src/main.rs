//! `hetgrid` — command-line interface to the heterogeneous 2D grid
//! load-balancing toolkit (IPPS 2000 reproduction).
//!
//! ```text
//! hetgrid solve      --times 1,2,3,5 --grid 2x2 [--method heuristic|exact|local-search|anneal]
//! hetgrid distribute --times 1,2,3,5 --grid 2x2 --panel 8x6 [--scheme panel|kl|cyclic]
//! hetgrid run        --times 1,2,3,5 --grid 2x2 --kernel mm|lu|cholesky|qr [--nb 8] [--block 8]
//!                    [--method heuristic|exact] [--scheme panel|kl|cyclic] [--seed 0]
//!                    [--lookahead 2]   (0 = strict in-order execution)
//!                    [--crash P@S]     (kill processor P at step S, recover, verify)
//!                    [--flight-recorder [FILE]]  (crash ring; dump on faults/run end)
//! hetgrid run        --topology star --workers 4 --worker-mem 7 [--nb 8] [--block 8]
//!                    (master-worker MM: one-port master, memory-bounded workers)
//! hetgrid simulate   --times 1,2,3,5 --grid 2x2 --nb 32 --kernel mm|lu|qr|cholesky
//!                    [--scheme panel|kl|cyclic] [--network switched|bus]
//!                    [--latency 0.2] [--transfer 0.02] [--broadcast direct|ring|tree] [--gantt]
//! hetgrid sweep      [--max-n 12] [--trials 100] [--csv]
//! hetgrid adapt      --times 1,1,1,1 --new-times 6,1,1,1 --grid 2x2 [--iters 60]
//!                    [--drift step|ramp|spike] [--nb 32] [--panel 8x8] [--csv]
//! ```
//!
//! Global options: `--trace-out FILE` (Chrome trace-event JSON, on
//! `run`/`adapt`/`solve`/`simulate`), `--metrics-out FILE` (per-run
//! metrics delta as JSON, on `run`/`adapt`/`solve`), `--quiet`/`-q`,
//! `--verbose`/`-v`. Machine-readable results go to stdout; progress
//! diagnostics go to stderr through `hetgrid_obs::diag`.

mod args;
mod obs_out;

use args::Args;
use hetgrid_core::objective::workload_matrix;
use hetgrid_core::search::{anneal, local_search, SearchOptions};
use hetgrid_core::{exact, heuristic, Arrangement};
use hetgrid_dist::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
use hetgrid_obs::vdiag;
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::{CostModel, Network};
use hetgrid_sim::{simulate, Broadcast};
use obs_out::ObsSession;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {}", e);
            std::process::exit(2);
        }
    };
    hetgrid_obs::diag::set_verbosity(args.verbosity());
    let result = match args.command.as_deref() {
        Some("solve") => cmd_solve(&args),
        Some("distribute") => cmd_distribute(&args),
        Some("run") => cmd_run(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("bounds") => cmd_bounds(&args),
        Some("rank1") => cmd_rank1(&args),
        Some("rebalance") => cmd_rebalance(&args),
        Some("adapt") => cmd_adapt(&args),
        Some("serve") => cmd_serve(&args),
        Some("submit") => cmd_submit(&args),
        Some("top") => cmd_top(&args),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command: {}", other)),
    };
    if let Err(e) = result {
        eprintln!("error: {}", e);
        std::process::exit(2);
    }
}

fn print_usage() {
    println!("hetgrid — load balancing for dense linear algebra on heterogeneous 2D grids");
    println!();
    println!("commands:");
    println!(
        "  solve      --times T1,T2,.. --grid PxQ [--method heuristic|exact|local-search|anneal]"
    );
    println!("  distribute --times .. --grid PxQ --panel BPxBQ [--scheme panel|kl|cyclic]");
    println!("             [--ordering interleaved|contiguous|columns]");
    println!("  run        --times .. --grid PxQ --kernel mm|lu|cholesky|qr [--nb 8] [--block 8]");
    println!("             [--method heuristic|exact] [--scheme panel|kl|cyclic] [--panel BPxBQ]");
    println!("             [--seed 0] [--lookahead 2]   (threaded executor on real data;");
    println!("             --lookahead 0 forces strict in-order step execution)");
    println!("             [--crash P@S]  kill processor P at step S, then recover from the");
    println!("             checkpoint log on the re-solved survivor grid and verify the result");
    println!("             (grid topology only)");
    println!("             [--flight-recorder [FILE]]  keep the last spans per thread in a");
    println!("             crash ring (even with tracing off) and dump a Chrome trace on");
    println!("             faults and at run end (default FILE: hetgrid-flight.json)");
    println!("             [--topology star --workers W --worker-mem M]  master-worker MM:");
    println!("             the master streams blocks over its one-port link to W workers");
    println!("             holding at most M resident blocks (maximum-reuse schedule)");
    println!("  simulate   --times .. --grid PxQ --nb N --kernel mm|lu|qr|cholesky");
    println!("             [--scheme panel|kl|cyclic] [--network switched|bus]");
    println!("             [--latency L] [--transfer B] [--broadcast direct|ring|tree] [--gantt]");
    println!("             (ring|tree: mm|lu|qr on the Cartesian schemes panel|cyclic only)");
    println!("  sweep      [--max-n 12] [--trials 100] [--csv]   (Figures 6-8 data)");
    println!("  bounds     --times .. --grid PxQ                  (objective brackets)");
    println!("  rank1      --times .. --grid PxQ                  (perfect-balance check)");
    println!("  rebalance  --times .. --new-times .. --grid PxQ [--nb 32] [--panel BPxBQ]");
    println!("  adapt      --times .. --new-times .. --grid PxQ [--nb 32] [--panel BPxBQ]");
    println!("             [--iters 60] [--drift step|ramp|spike] [--at 5] [--until 25]");
    println!("             [--period 10] [--width 2] [--half-life 3] [--threshold 0.2]");
    println!("             [--patience 3] [--cooldown 5] [--safety 1.5] [--move-cost 1]");
    println!("             [--csv]       (closed-loop static vs adaptive comparison)");
    println!("  serve      [--addr 127.0.0.1:7421] [--cache 256] [--queue 64]");
    println!("             [--quota-rps R --quota-burst B]   (scheduling service; runs");
    println!("             until a client sends --op shutdown)");
    println!("  submit     --addr HOST:PORT [--op solve|plan|simulate|metrics|shutdown]");
    println!("             [--times .. --grid PxQ] [--kernel mm|lu|cholesky|qr] [--nb 8]");
    println!("             [--tenant NAME] [--repeat 1] [--format json|expo|series]");
    println!("             (client for a running serve; prints the trace id of each");
    println!("             request on stderr — correlate with the server's --trace-out)");
    println!("  top        --addr HOST:PORT [--interval 2] [--once]   (live dashboard");
    println!("             over a running serve: per-tenant qps, cache hit ratio, quota");
    println!("             rejections, pool hit rate, recovery counters, latency p50/95/99)");
    println!();
    println!("global options:");
    println!("  --trace-out FILE    Chrome trace-event JSON (run/adapt/solve/simulate);");
    println!("                      open in Perfetto or chrome://tracing");
    println!("  --metrics-out FILE  per-run metrics delta as JSON (run/adapt/solve)");
    println!("  --quiet, -q         suppress stderr diagnostics");
    println!("  --verbose, -v       extra stderr diagnostics");
}

/// Runs the deterministic closed-loop scenario: static plan vs adaptive
/// controller over a drifting pool, reporting both makespans.
fn cmd_adapt(args: &Args) -> Result<(), String> {
    use hetgrid_adapt::{
        run_scenario, ControllerConfig, DriftDetectorConfig, PolicyConfig, Scenario,
    };
    use hetgrid_sim::DriftProfile;

    let times = args.times()?;
    let (p, q) = args.grid()?;
    if times.len() != p * q {
        return Err(format!("{} times for a {}x{} grid", times.len(), p, q));
    }
    let raw_new = args.require("new-times")?;
    let new_times: Vec<f64> = raw_new
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|_| format!("invalid cycle-time: {}", t))
        })
        .collect::<Result<_, _>>()?;
    if new_times.len() != p * q {
        return Err(format!("need {} drifted cycle-times", p * q));
    }
    let factors: Vec<f64> = times
        .iter()
        .zip(&new_times)
        .map(|(&base, &new)| {
            if base <= 0.0 {
                return Err("cycle-times must be positive".to_string());
            }
            Ok(new / base)
        })
        .collect::<Result<_, _>>()?;

    let nb: usize = args.get_parse("nb", 32)?;
    let iters: usize = args.get_parse("iters", 60)?;
    let panel_raw = args.get("panel").unwrap_or("8x8");
    let (bp, bq) = panel_raw
        .split_once(['x', 'X'])
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .ok_or_else(|| format!("invalid --panel: {}", panel_raw))?;

    let at: usize = args.get_parse("at", 5)?;
    let profile = match args.get("drift").unwrap_or("step") {
        "step" => DriftProfile::Step { at, factors },
        "ramp" => DriftProfile::Ramp {
            from: at,
            to: args.get_parse("until", at + 20)?,
            factors,
        },
        "spike" => DriftProfile::PeriodicSpike {
            period: args.get_parse("period", 10)?,
            width: args.get_parse("width", 2)?,
            factors,
        },
        other => return Err(format!("unknown drift profile: {}", other)),
    };

    let config = ControllerConfig {
        half_life: Some(args.get_parse("half-life", 3.0)?),
        detector: DriftDetectorConfig {
            threshold: args.get_parse("threshold", 0.2)?,
            patience: args.get_parse("patience", 3)?,
            cooldown: args.get_parse("cooldown", 5)?,
            ..DriftDetectorConfig::default()
        },
        policy: PolicyConfig {
            safety_factor: args.get_parse("safety", 1.5)?,
            block_move_cost: args.get_parse("move-cost", 1.0)?,
            ..PolicyConfig::default()
        },
    };

    let scenario = Scenario {
        base_times: times,
        p,
        q,
        bp,
        bq,
        nb,
        iters,
        profile,
        config,
    };
    let session = ObsSession::begin(args);
    vdiag!(
        "running closed loop: {} iterations on a {}x{} grid",
        iters,
        p,
        q
    );
    let out = run_scenario(&scenario);
    if session.wants_trace() {
        session.finish_with_trace(adapt_chrome_trace(&out))?;
    } else {
        session.finish()?;
    }

    if args.flag("csv") {
        println!("iter,static_cost,adaptive_cost,rebalanced");
        for h in &out.history {
            println!(
                "{},{:.4},{:.4},{}",
                h.iter, h.static_cost, h.adaptive_cost, h.rebalanced as u8
            );
        }
        return Ok(());
    }
    println!(
        "closed loop over {} iterations of {}x{} blocks:",
        iters, nb, nb
    );
    println!("static makespan     : {:.1}", out.static_makespan);
    println!(
        "adaptive makespan   : {:.1}  (incl. redistribution cost {:.1})",
        out.adaptive_makespan, out.redistribution_cost
    );
    println!("rebalances          : {}", out.rebalances);
    println!("blocks moved        : {}", out.blocks_moved);
    println!("adaptive speedup    : {:.2}x", out.speedup());
    Ok(())
}

/// Renders the adaptive-loop history as a Chrome trace-event document:
/// one track per strategy (`static`, `adaptive`) with a complete event
/// per kernel iteration (duration = that iteration's cost, one
/// simulated time unit = one second), plus an instant `rebalance`
/// marker on the adaptive track at every plan swap.
fn adapt_chrome_trace(out: &hetgrid_adapt::Outcome) -> String {
    const US_PER_UNIT: f64 = 1e6;
    let mut ct = hetgrid_obs::ChromeTrace::new();
    ct.thread_name(0, "static");
    ct.thread_name(1, "adaptive");
    let (mut t_static, mut t_adaptive) = (0.0f64, 0.0f64);
    for h in &out.history {
        let name = format!("iter {}", h.iter);
        ct.complete(
            0,
            &name,
            t_static * US_PER_UNIT,
            h.static_cost * US_PER_UNIT,
            &[("cost", hetgrid_obs::Arg::F64(h.static_cost))],
        );
        ct.complete(
            1,
            &name,
            t_adaptive * US_PER_UNIT,
            h.adaptive_cost * US_PER_UNIT,
            &[("cost", hetgrid_obs::Arg::F64(h.adaptive_cost))],
        );
        t_static += h.static_cost;
        t_adaptive += h.adaptive_cost;
        if h.rebalanced {
            ct.instant(1, "rebalance", t_adaptive * US_PER_UNIT, &[]);
        }
    }
    ct.finish()
}

/// Quantifies a rebalance: solve for both pools, report the makespan
/// gain and the fraction of blocks that must move.
fn cmd_rebalance(args: &Args) -> Result<(), String> {
    let times = args.times()?;
    let raw_new = args.require("new-times")?;
    let new_times: Vec<f64> = raw_new
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|_| format!("invalid cycle-time: {}", t))
        })
        .collect::<Result<_, _>>()?;
    let (p, q) = args.grid()?;
    if times.len() != p * q || new_times.len() != p * q {
        return Err(format!("need {} cycle-times in both pools", p * q));
    }
    let nb: usize = args.get_parse("nb", 32)?;
    let panel_raw = args.get("panel").unwrap_or("8x8");
    let (bp, bq) = panel_raw
        .split_once(['x', 'X'])
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .ok_or_else(|| format!("invalid --panel: {}", panel_raw))?;

    let old = heuristic::solve_default(&times, p, q);
    let new = heuristic::solve_default(&new_times, p, q);
    let old_best = old.best();
    let new_best = new.best();
    let old_dist = PanelDist::from_allocation(
        &old_best.arrangement,
        &old_best.alloc,
        bp,
        bq,
        PanelOrdering::Interleaved,
    );
    let new_dist = PanelDist::from_allocation(
        &new_best.arrangement,
        &new_best.alloc,
        bp,
        bq,
        PanelOrdering::Interleaved,
    );

    let moved = hetgrid_dist::redistribution::moved_fraction(&old_dist, &new_dist, nb);
    let cost = CostModel::default();
    // Both evaluated against the NEW speeds (the machine has drifted).
    let mm = |dist: &PanelDist| {
        let arr = &new_best.arrangement;
        let run = simulate(Kernel::Mm, arr, dist, nb, cost, Broadcast::Direct);
        run.map(|run| run.report).map_err(|e| e.to_string())
    };
    let (stale, fresh) = (mm(&old_dist)?, mm(&new_dist)?);
    println!(
        "blocks moved by rebalancing : {:.1}% of the matrix",
        moved * 100.0
    );
    println!("MM makespan with stale plan : {:.1}", stale.makespan);
    println!("MM makespan with fresh plan : {:.1}", fresh.makespan);
    println!(
        "gain per run                : {:.2}x",
        stale.makespan / fresh.makespan
    );
    Ok(())
}

/// Prints the analytic objective brackets for a pool (core::bounds).
fn cmd_bounds(args: &Args) -> Result<(), String> {
    use hetgrid_core::bounds;
    let times = args.times()?;
    let (p, q) = args.grid()?;
    if times.len() != p * q {
        return Err(format!("{} times for a {}x{} grid", times.len(), p, q));
    }
    let res = heuristic::solve_default(&times, p, q);
    let best = res.best();
    let arr = &best.arrangement;
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
        best.obj2
    );
    println!(
        "grid price (upper bound / achieved)       : {:.4}",
        bounds::grid_price(arr, best.obj2)
    );
    if p <= 4 && q <= 4 {
        let ex = exact::solve_arrangement(arr);
        println!("exact optimum for this arrangement        : {:.4}", ex.obj2);
    }
    Ok(())
}

/// Checks whether a perfectly balancing rank-1 arrangement exists.
fn cmd_rank1(args: &Args) -> Result<(), String> {
    use hetgrid_core::rank1;
    let times = args.times()?;
    let (p, q) = args.grid()?;
    if times.len() != p * q {
        return Err(format!("{} times for a {}x{} grid", times.len(), p, q));
    }
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

/// Solves the placement + allocation problem and prints the result.
fn cmd_solve(args: &Args) -> Result<(), String> {
    let times = args.times()?;
    let (p, q) = args.grid()?;
    if times.len() != p * q {
        return Err(format!("{} times for a {}x{} grid", times.len(), p, q));
    }
    let method = args.get("method").unwrap_or("heuristic");
    let session = ObsSession::begin(args);
    // Per-solve solver effort: the exact solver publishes its tree
    // counters to the obs registry (the one counting mechanism), so the
    // label below reads the delta across this solve.
    let solver_baseline = hetgrid_obs::metrics().snapshot();
    let solve_track = hetgrid_obs::trace::track("solver");
    let span = hetgrid_obs::span!(solve_track, "solve {}x{} ({})", p, q, method);
    vdiag!("solving {}x{} placement with method '{}'", p, q, method);
    let (arr, alloc, label): (Arrangement, hetgrid_core::Allocation, String) = match method {
        "heuristic" => {
            let res = heuristic::solve_default(&times, p, q);
            let b = res.best();
            (
                b.arrangement.clone(),
                b.alloc.clone(),
                format!(
                    "heuristic ({} steps, converged: {})",
                    res.iterations(),
                    res.converged
                ),
            )
        }
        "exact" => {
            let opts = if args.flag("no-prune") {
                exact::ExactOptions::exhaustive()
            } else {
                exact::ExactOptions::default()
            };
            let g = exact::solve_global_with(&times, p, q, &opts);
            let effort = hetgrid_obs::metrics().snapshot().delta(&solver_baseline);
            (
                g.arrangement,
                g.alloc,
                format!(
                    "exact ({} arrangements, {} trees examined, {} subtrees pruned)",
                    effort.counter("solver.arrangements.examined"),
                    effort.counter("solver.trees.examined"),
                    effort.counter("solver.trees.pruned")
                ),
            )
        }
        "local-search" => {
            let r = local_search(&times, p, q, SearchOptions::default());
            (
                r.arrangement,
                r.alloc,
                format!("local search ({} evaluations)", r.evaluations),
            )
        }
        "anneal" => {
            let r = anneal(&times, p, q, SearchOptions::default());
            (
                r.arrangement,
                r.alloc,
                format!("simulated annealing ({} evaluations)", r.evaluations),
            )
        }
        other => return Err(format!("unknown method: {}", other)),
    };
    drop(span);
    session.finish()?;
    println!("method: {}", label);
    println!("arrangement:\n{}", arr);
    println!(
        "r = [{}]",
        alloc
            .r
            .iter()
            .map(|x| format!("{:.4}", x))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "c = [{}]",
        alloc
            .c
            .iter()
            .map(|x| format!("{:.4}", x))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("objective (sum r)(sum c) = {:.4}", alloc.obj2());
    let b = workload_matrix(&arr, &alloc);
    println!("average workload = {:.4}", b.mean());
    let cert = hetgrid_core::certify::certify(&arr, &alloc);
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

/// Builds the requested distribution for the solved arrangement.
fn build_dist(
    args: &Args,
    arr: &Arrangement,
    alloc: &hetgrid_core::Allocation,
    bp: usize,
    bq: usize,
) -> Result<Box<dyn BlockDist + Sync>, String> {
    let scheme = args.get("scheme").unwrap_or("panel");
    let ordering = match args.get("ordering").unwrap_or("interleaved") {
        "interleaved" => PanelOrdering::Interleaved,
        "contiguous" => PanelOrdering::Contiguous,
        "columns" => PanelOrdering::ColumnsInterleaved,
        other => return Err(format!("unknown ordering: {}", other)),
    };
    Ok(match scheme {
        "panel" => Box::new(PanelDist::from_allocation(arr, alloc, bp, bq, ordering)),
        "kl" => Box::new(KlDist::new(arr, bp.max(arr.p()), bq.max(arr.q()))),
        "cyclic" => Box::new(BlockCyclic::new(arr.p(), arr.q())),
        other => return Err(format!("unknown scheme: {}", other)),
    })
}

/// Runs a real distributed kernel on the threaded executor (one OS
/// thread per grid processor, heterogeneity emulated by slowdown
/// weights), verifies the numerical result against the sequential
/// reference, and reports the executor's measurements. With
/// `--trace-out` / `--metrics-out` the executor's probes are live: the
/// trace has one track per processor and the metrics carry the
/// per-processor / per-edge message and work counters.
fn cmd_run(args: &Args) -> Result<(), String> {
    use hetgrid_exec::{
        run, run_recovery, slowdown_weights, ChannelTransport, ExecConfig, GridFault,
        RecoveryHooks, DEFAULT_LOOKAHEAD,
    };
    use hetgrid_harness::scenario::kernel_inputs;
    use hetgrid_harness::{resolve_grid_fault, FaultProfile, KillSchedule, VirtualTransport};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // `--topology star` switches to the master-worker platform model:
    // no 2D grid, no distribution — a bandwidth-bound master streaming
    // blocks to memory-bounded workers.
    match args.get("topology").unwrap_or("grid") {
        "grid" => {}
        "star" => return cmd_run_star(args),
        other => return Err(format!("unknown topology: {} (grid or star)", other)),
    }

    let times = args.times()?;
    let (p, q) = args.grid()?;
    if times.len() != p * q {
        return Err(format!("{} times for a {}x{} grid", times.len(), p, q));
    }
    let nb: usize = args.get_parse("nb", 8)?;
    let r: usize = args.get_parse("block", 8)?;
    let seed: u64 = args.get_parse("seed", 0)?;
    let kernel_name = args.get("kernel").unwrap_or("mm");
    let kernel = Kernel::parse(kernel_name).ok_or_else(|| {
        format!(
            "unknown kernel: {} (run supports mm, lu, cholesky, qr)",
            kernel_name
        )
    })?;
    let cfg = ExecConfig {
        lookahead: args.get_parse("lookahead", DEFAULT_LOOKAHEAD)?,
    };
    // `--crash PROC@STEP` routes the run through the elastic-grid
    // recovery driver: the named processor is killed at that retirement
    // boundary, the survivor grid is re-solved (dropping the victim's
    // weakest grid line), lost blocks are restored from the checkpoint
    // log, and the plan resumes — the result is still verified against
    // the sequential reference.
    let crash = match args.get("crash") {
        None => None,
        Some(spec) => {
            let (cproc, cstep) = spec
                .split_once('@')
                .and_then(|(x, y)| Some((x.parse::<usize>().ok()?, y.parse::<usize>().ok()?)))
                .ok_or_else(|| format!("invalid --crash (want PROC@STEP, e.g. 2@3): {}", spec))?;
            if cproc >= p * q {
                return Err(format!(
                    "--crash processor {} outside the {}x{} grid",
                    cproc, p, q
                ));
            }
            if cstep >= nb {
                return Err(format!(
                    "--crash step {} outside the {}-step plan",
                    cstep, nb
                ));
            }
            Some((cproc, cstep))
        }
    };

    let method = args.get("method").unwrap_or("heuristic");
    let (arr, alloc) = match method {
        "heuristic" => {
            let res = heuristic::solve_default(&times, p, q);
            let b = res.best();
            (b.arrangement.clone(), b.alloc.clone())
        }
        "exact" => {
            let g = exact::solve_global_with(&times, p, q, &exact::ExactOptions::default());
            (g.arrangement, g.alloc)
        }
        other => return Err(format!("unknown method: {}", other)),
    };
    let panel_raw = args.get("panel").unwrap_or("4x4");
    let (bp, bq) = panel_raw
        .split_once(['x', 'X'])
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .ok_or_else(|| format!("invalid --panel: {}", panel_raw))?;
    let dist = build_dist(args, &arr, &alloc, bp, bq)?;
    let weights = slowdown_weights(&arr);
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
    let refs: Vec<&hetgrid_linalg::Matrix> = inputs.iter().collect();
    let (out, recovered) = match crash {
        None => {
            let t = ChannelTransport;
            let out = run(&t, kernel, &refs, dist.as_ref(), nb, r, &weights, cfg)
                .map_err(|e| e.to_string())?;
            (out, None)
        }
        Some((proc, at_step)) => {
            let schedule = KillSchedule {
                events: vec![GridFault::Crash { proc, at_step }],
            };
            let transport = VirtualTransport::new(seed, FaultProfile::FIFO).with_kills(&schedule);
            let hooks = RecoveryHooks {
                events: Box::new(|| transport.fault_events()),
                resolve: Box::new(|fault| resolve_grid_fault(&arr, &weights, fault)),
                redistribute: Box::new(|dm, from, to| hetgrid_adapt::redistribute(dm, from, to)),
            };
            let rec = run_recovery(
                &transport,
                kernel,
                &refs,
                dist.as_ref(),
                nb,
                r,
                &weights,
                cfg,
                &hooks,
            )
            .map_err(|e| e.to_string())?;
            (rec.run, Some(((proc, at_step), rec.stats)))
        }
    };
    let residual = residual_line(kernel, &inputs, &out, nb, r);
    session.finish()?;

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
            args.get("scheme").unwrap_or("panel"),
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
    inputs: &[hetgrid_linalg::Matrix],
    out: &hetgrid_exec::RunOutput,
    nb: usize,
    r: usize,
) -> String {
    use hetgrid_linalg::gemm::matmul;
    use hetgrid_linalg::tri::{unit_lower_from_packed, upper_from_packed};

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
fn mm_residual_line(
    a: &hetgrid_linalg::Matrix,
    b: &hetgrid_linalg::Matrix,
    c: &hetgrid_linalg::Matrix,
) -> String {
    let err = c.sub(&hetgrid_linalg::gemm::matmul(a, b)).max_abs();
    format!("max |C - A*B|    = {:.3e}", err)
}

/// `hetgrid run --topology star`: matrix multiplication on the
/// master-worker platform — the maximum-reuse streaming schedule over
/// the threaded executor, verified against the sequential reference and
/// cross-checked against the closed-form one-port traffic and the
/// per-worker residency bound.
fn cmd_run_star(args: &Args) -> Result<(), String> {
    use hetgrid_exec::{run_star_mm_on_cfg, ChannelTransport, ExecConfig, DEFAULT_LOOKAHEAD};
    use hetgrid_harness::scenario::general_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let kernel = args.get("kernel").unwrap_or("mm");
    if kernel != "mm" {
        return Err(format!(
            "kernel {} not supported on the star topology (only mm)",
            kernel
        ));
    }
    // Recovery re-solves the survivor *grid* and resumes a grid plan
    // from the checkpoint log; the star executor has neither, so a
    // requested crash must not be dropped in silence.
    if args.get("crash").is_some() || args.flag("crash") {
        return Err(
            "--crash is not supported on the star topology: crash recovery is grid-only \
             (drop --topology star to inject and recover a crash)"
                .into(),
        );
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
    let nb: usize = args.get_parse("nb", 8)?;
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

/// `--flight-recorder [FILE]` arms the always-on crash ring: spans are
/// retained per thread (last 4096) even with tracing export off, and
/// dumped as a Chrome trace when a fault path fires (peer drop,
/// watchdog, recovery epoch) and again when the run ends. Returns
/// whether it was armed, for [`finish_flight`].
fn arm_flight(args: &Args) -> bool {
    let armed = args.flag("flight-recorder") || args.get("flight-recorder").is_some();
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
fn finish_flight(armed: bool) {
    if !armed {
        return;
    }
    if let Some(path) = hetgrid_obs::flight::dump("run complete") {
        hetgrid_obs::diag!("wrote flight-recorder dump to {}", path.display());
    }
}

fn cmd_distribute(args: &Args) -> Result<(), String> {
    let times = args.times()?;
    let (p, q) = args.grid()?;
    if times.len() != p * q {
        return Err(format!("{} times for a {}x{} grid", times.len(), p, q));
    }
    let panel_raw = args.get("panel").unwrap_or("8x8");
    let (bp, bq) = panel_raw
        .split_once(['x', 'X'])
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .ok_or_else(|| format!("invalid --panel (want BPxBQ): {}", panel_raw))?;

    let res = heuristic::solve_default(&times, p, q);
    let best = res.best();
    let dist = build_dist(args, &best.arrangement, &best.alloc, bp, bq)?;

    println!("arrangement:\n{}", best.arrangement);
    println!("owner map over one {}x{} period:", bp, bq);
    for bi in 0..bp {
        let row: Vec<String> = (0..bq)
            .map(|bj| {
                let (i, j) = dist.owner(bi, bj);
                format!("({},{})", i + 1, j + 1)
            })
            .collect();
        println!("  {}", row.join(" "));
    }
    let counts = dist.owned_counts(bp, bq);
    println!("blocks per processor in one period:");
    for row in &counts {
        println!("  {:?}", row);
    }
    let report = hetgrid_dist::balance_report(dist.as_ref(), &best.arrangement, bp, bq);
    println!(
        "per-period makespan {:.3}, average utilization {:.1}%",
        report.makespan,
        report.average_utilization * 100.0
    );
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let times = args.times()?;
    let (p, q) = args.grid()?;
    if times.len() != p * q {
        return Err(format!("{} times for a {}x{} grid", times.len(), p, q));
    }
    let nb: usize = args.get_parse("nb", 32)?;
    let kernel_name = args.get("kernel").unwrap_or("mm");
    let kernel =
        Kernel::parse(kernel_name).ok_or_else(|| format!("unknown kernel: {}", kernel_name))?;
    let network = match args.get("network").unwrap_or("switched") {
        "switched" => Network::Switched,
        "bus" | "ethernet" => Network::SharedBus,
        other => return Err(format!("unknown network: {}", other)),
    };
    let broadcast = match args.get("broadcast").unwrap_or("direct") {
        "direct" => Broadcast::Direct,
        "ring" => Broadcast::Ring,
        "tree" => Broadcast::Tree,
        other => return Err(format!("unknown broadcast: {}", other)),
    };
    let cost = CostModel {
        latency: args.get_parse("latency", 0.2)?,
        block_transfer: args.get_parse("transfer", 0.02)?,
        network,
        ..Default::default()
    };

    let res = heuristic::solve_default(&times, p, q);
    let best = res.best();
    let panel = (2 * p).max(4);
    let dist = build_dist(args, &best.arrangement, &best.alloc, panel, (2 * q).max(4))?;

    let arr = &best.arrangement;
    let run =
        simulate(kernel, arr, dist.as_ref(), nb, cost, broadcast).map_err(|e| e.to_string())?;
    let report = &run.report;
    println!(
        "kernel {} on {}x{} blocks, scheme {}, network {:?}, broadcast {:?}",
        kernel.name(),
        nb,
        nb,
        args.get("scheme").unwrap_or("panel"),
        network,
        broadcast
    );
    println!("makespan        : {:.1}", report.makespan);
    println!("comm time (sum) : {:.1}", report.comm_time);
    println!("compute (sum)   : {:.1}", report.compute_time);
    println!(
        "avg utilization : {:.1}%",
        report.average_utilization() * 100.0
    );
    println!("per-processor busy time:");
    for row in &report.core_busy {
        let cells: Vec<String> = row.iter().map(|x| format!("{:>10.1}", x)).collect();
        println!("  {}", cells.join(" "));
    }
    let labels = hetgrid_sim::trace::grid_labels(p, q, matches!(network, Network::SharedBus));
    if let Some(path) = args.get("trace-out") {
        let doc = hetgrid_sim::trace::chrome_trace(&run.engine, &run.schedule, &labels);
        obs_out::write_file(path, &doc)?;
        hetgrid_obs::diag!("wrote chrome trace to {path} (open in Perfetto or chrome://tracing)");
    }
    if args.flag("gantt") {
        println!("\nschedule (compute = #, communication = ~, idle = .):");
        print!(
            "{}",
            hetgrid_sim::trace::ascii_gantt(&run.engine, &run.schedule, &labels, 100)
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let max_n: usize = args.get_parse("max-n", 12)?;
    let trials: usize = args.get_parse("trials", 100)?;
    let csv = args.flag("csv");
    if csv {
        println!("n,avg_workload,tau,iterations");
    } else {
        println!(
            "{:>3} {:>14} {:>10} {:>12}",
            "n", "avg workload", "tau", "iterations"
        );
    }
    for n in 2..=max_n {
        let mut rng = StdRng::seed_from_u64(0xC11 ^ n as u64);
        let mut workload = 0.0;
        let mut tau = 0.0;
        let mut iters = 0.0;
        for _ in 0..trials {
            let times: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.01..=1.0)).collect();
            let res = heuristic::solve_default(&times, n, n);
            workload += res.last().average_workload;
            tau += res.tau();
            iters += res.iterations() as f64;
        }
        let t = trials as f64;
        if csv {
            println!("{},{:.4},{:.4},{:.2}", n, workload / t, tau / t, iters / t);
        } else {
            println!(
                "{:>3} {:>14.4} {:>10.4} {:>12.2}",
                n,
                workload / t,
                tau / t,
                iters / t
            );
        }
    }
    Ok(())
}

/// Runs the scheduling service until a client sends a `Shutdown`
/// request. With `--trace-out`, per-request spans from the `serve`
/// track (and any executor activity) are exported when the server
/// drains; `--metrics-out` writes the session's metrics delta.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use hetgrid_serve::{QuotaConfig, ServiceConfig};

    let addr = args.get("addr").unwrap_or("127.0.0.1:7421");
    let cfg = ServiceConfig {
        cache_capacity: args.get_parse("cache", 256usize)?,
        queue_limit: args.get_parse("queue", 64usize)?,
        quota: QuotaConfig {
            rate_per_sec: args.get_parse("quota-rps", 0.0f64)?,
            burst: args.get_parse("quota-burst", 8.0f64)?,
        },
    };
    let obs = ObsSession::begin(args);
    let handle = hetgrid_serve::spawn(addr, cfg).map_err(|e| format!("binding {}: {}", addr, e))?;
    // The resolved address on stdout is the machine-readable contract:
    // harnesses bind `:0` and read the port from here. Flush
    // explicitly: stdout is block-buffered when redirected to a file,
    // and a harness polls for this line while the server runs.
    println!("listening {}", handle.addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    handle.join();
    let snapshot = hetgrid_obs::metrics().snapshot().filtered("serve.");
    println!("{}", snapshot.to_text());
    obs.finish()
}

/// Client for a running `hetgrid serve`: sends one request kind
/// `--repeat` times over a single connection and prints each response.
fn cmd_submit(args: &Args) -> Result<(), String> {
    use hetgrid_serve::proto::{PlanSpec, Request, RequestBody, SolveSpec};
    use hetgrid_serve::Client;

    let addr = args.require("addr")?;
    let op = args.get("op").unwrap_or("plan");
    let tenant = args.get("tenant").unwrap_or("").to_string();
    let repeat: usize = args.get_parse("repeat", 1usize)?;

    let body = match op {
        "metrics" => {
            use hetgrid_serve::proto::MetricsFormat;
            RequestBody::Metrics(match args.get("format").unwrap_or("json") {
                "json" => MetricsFormat::Json,
                "expo" => MetricsFormat::Expo,
                "series" => MetricsFormat::Series,
                other => return Err(format!("unknown --format: {}", other)),
            })
        }
        "shutdown" => RequestBody::Shutdown,
        "solve" | "plan" | "simulate" => {
            let times = args.times()?;
            let (p, q) = args.grid()?;
            if times.len() != p * q {
                return Err(format!("{} times for a {}x{} grid", times.len(), p, q));
            }
            let solve = SolveSpec { p, q, times };
            if op == "solve" {
                RequestBody::Solve(solve)
            } else {
                let kernel = hetgrid_serve::Kernel::parse(args.get("kernel").unwrap_or("lu"))
                    .ok_or_else(|| format!("unknown kernel: {:?}", args.get("kernel")))?;
                let nb: usize = args.get_parse("nb", 8usize)?;
                let spec = PlanSpec { solve, kernel, nb };
                if op == "plan" {
                    RequestBody::Plan(spec)
                } else {
                    RequestBody::Simulate(spec)
                }
            }
        }
        other => return Err(format!("unknown --op: {}", other)),
    };

    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {}: {}", addr, e))?;
    for i in 0..repeat {
        let resp = client
            .request(&Request {
                tenant: tenant.clone(),
                body: body.clone(),
            })
            .map_err(|e| format!("request {} failed: {}", i, e))?;
        // The echoed trace id goes to stderr (stdout stays
        // machine-readable): grep for it in the server's --trace-out
        // export to find this request's span tree.
        if let Some(id) = client.last_trace_id() {
            hetgrid_obs::diag!("trace id: {:032x}", id);
        }
        print_response(&resp, args.verbosity());
    }
    Ok(())
}

/// Live in-terminal dashboard over a running `hetgrid serve`: polls
/// the metrics endpoint (text exposition format), derives rates from
/// successive snapshots, and redraws. `--once` prints a single frame
/// (totals instead of rates) and exits — the CI smoke job uses it.
fn cmd_top(args: &Args) -> Result<(), String> {
    use hetgrid_serve::proto::{MetricsFormat, Request, RequestBody, Response};
    use hetgrid_serve::Client;

    let addr = args.require("addr")?;
    let once = args.flag("once");
    let interval: f64 = args.get_parse("interval", 2.0)?;
    if !interval.is_finite() || interval <= 0.0 {
        return Err(format!("--interval must be positive, got {}", interval));
    }

    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {}: {}", addr, e))?;
    let mut prev: Option<(std::time::Instant, hetgrid_obs::MetricsSnapshot)> = None;
    loop {
        let resp = client
            .request(&Request {
                tenant: "top".into(),
                body: RequestBody::Metrics(MetricsFormat::Expo),
            })
            .map_err(|e| format!("polling {}: {}", addr, e))?;
        let text = match resp {
            Response::Metrics(text) => text,
            other => return Err(format!("unexpected response: {:?}", other.status())),
        };
        let snap = hetgrid_obs::expo::parse(&text)
            .map_err(|e| format!("server exposition did not parse: {}", e))?;
        let now = std::time::Instant::now();
        let frame = render_top(
            addr,
            &snap,
            prev.as_ref()
                .map(|(t, s)| (now.duration_since(*t).as_secs_f64(), s)),
        );
        if once {
            print!("{}", frame);
            return Ok(());
        }
        // Clear + home, then redraw in place.
        print!("\x1b[2J\x1b[H{}", frame);
        let _ = std::io::Write::flush(&mut std::io::stdout());
        prev = Some((now, snap));
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// One dashboard frame. `prev` is `(seconds_since, snapshot)` of the
/// previous poll: present, counters render as rates; absent (first
/// frame, `--once`), they render as totals.
fn render_top(
    addr: &str,
    snap: &hetgrid_obs::MetricsSnapshot,
    prev: Option<(f64, &hetgrid_obs::MetricsSnapshot)>,
) -> String {
    use std::fmt::Write as _;

    let rate = |name: &str| -> (f64, &'static str) {
        match prev {
            Some((dt, p)) if dt > 0.0 => (
                (snap.counter(name).saturating_sub(p.counter(name))) as f64 / dt,
                "/s",
            ),
            _ => (snap.counter(name) as f64, " total"),
        }
    };
    let ratio = |num: u64, den: u64| -> String {
        if den == 0 {
            "  n/a".to_string()
        } else {
            format!("{:5.1}%", 100.0 * num as f64 / den as f64)
        }
    };

    let mut out = String::new();
    let _ = writeln!(out, "hetgrid top — {}", addr);
    let (qps, unit) = rate("serve.requests.admitted");
    let _ = writeln!(
        out,
        "requests   admitted {:8.1}{}   shed {}   quota-denied {}   malformed {}",
        qps,
        unit,
        snap.counter("serve.shed"),
        snap.counter("serve.quota.denied"),
        snap.counter("serve.requests.malformed"),
    );

    let hits = snap.counter("serve.cache.hits");
    let misses = snap.counter("serve.cache.misses");
    let _ = writeln!(
        out,
        "cache      hit ratio {}   hits {}   misses {}   coalesced {}   evictions {}",
        ratio(hits, hits + misses),
        hits,
        misses,
        snap.counter("serve.cache.coalesced"),
        snap.counter("serve.cache.evictions"),
    );

    let ph = snap.counter("exec.pool.hits");
    let pm = snap.counter("exec.pool.misses");
    let _ = writeln!(
        out,
        "exec       pool hit rate {}   recovery crashes {} joins {} blocks-moved {} replayed {}",
        ratio(ph, ph + pm),
        snap.counter("exec.recovery.crashes"),
        snap.counter("exec.recovery.joins"),
        snap.counter("exec.recovery.blocks_moved"),
        snap.counter("exec.recovery.replayed_steps"),
    );

    // Latency quantiles per endpoint, interpolated from the histogram
    // buckets the exposition carries.
    for (name, h) in &snap.histograms {
        let Some(endpoint) = name.strip_prefix("serve.latency.") else {
            continue;
        };
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "latency    {:9} p50 {:9.6}s  p95 {:9.6}s  p99 {:9.6}s  ({} reqs)",
            endpoint,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.count,
        );
    }
    if let Some(h) = snap.histograms.get("exec.step.compute_us") {
        if h.count > 0 {
            let _ = writeln!(
                out,
                "compute    step p50 {:.1}us  p95 {:.1}us  p99 {:.1}us  ({} chunks)",
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.count,
            );
        }
    }

    // Per-tenant admission, busiest first.
    let mut tenants: Vec<(&str, f64, &'static str)> = snap
        .counters
        .keys()
        .filter_map(|name| {
            let t = name
                .strip_prefix("serve.tenant.")?
                .strip_suffix(".admitted")?;
            let (r, unit) = rate(name);
            Some((t, r, unit))
        })
        .collect();
    tenants.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    for (tenant, r, unit) in tenants.iter().take(8) {
        let _ = writeln!(out, "tenant     {:24} {:8.1}{}", tenant, r, unit);
    }
    out
}

fn print_response(resp: &hetgrid_serve::Response, verbosity: i32) {
    use hetgrid_serve::proto::Response;
    match resp {
        Response::Solve(r) => {
            println!(
                "solve ok: {}x{} obj2 {:.6} rows {:?} cols {:?}",
                r.p, r.q, r.obj2, r.rows, r.cols
            );
        }
        Response::Plan(r) => {
            let steps = hetgrid_plan_steps(&r.plan_bytes);
            println!(
                "plan ok: {}x{} obj2 {:.6} plan {} bytes ({} steps)",
                r.solve.p,
                r.solve.q,
                r.solve.obj2,
                r.plan_bytes.len(),
                steps
            );
        }
        Response::Simulate(r) => {
            println!(
                "simulate ok: {}x{} messages {} work {}",
                r.p,
                r.q,
                r.messages.iter().sum::<u64>(),
                r.work.iter().sum::<u64>()
            );
            if verbosity > 1 {
                println!("  per-proc messages {:?}", r.messages);
                println!("  per-proc work     {:?}", r.work);
            }
        }
        Response::Metrics(json) => println!("{}", json),
        Response::ShuttingDown => println!("server shutting down"),
        Response::Busy => println!("server busy (load shed)"),
        Response::QuotaExceeded => println!("quota exceeded"),
        Response::BadRequest(msg) => println!("bad request: {}", msg),
        Response::ServerError(msg) => println!("server error: {}", msg),
    }
}

/// Step count of an encoded plan, or 0 when it fails to decode (the
/// server produced it, so failure here is cosmetic only).
fn hetgrid_plan_steps(bytes: &[u8]) -> usize {
    hetgrid_plan::wire::decode(bytes)
        .map(|p| p.steps.len())
        .unwrap_or(0)
}
