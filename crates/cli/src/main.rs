//! `hetgrid` — command-line interface to the heterogeneous 2D grid
//! load-balancing toolkit (IPPS 2000 reproduction).
//!
//! This file dispatches to one module per command (`cmd/`) and holds
//! the one usage text (`hetgrid help`). Machine-readable results go to
//! stdout; progress diagnostics go to stderr through
//! `hetgrid_obs::diag`.

mod args;
mod cmd;
mod obs_out;

use args::Args;

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
        Some("solve") => cmd::solve::solve(&args),
        Some("distribute") => cmd::distribute::distribute(&args),
        Some("run") => cmd::run::run(&args),
        Some("simulate") => cmd::simulate::simulate(&args),
        Some("sweep") => cmd::solve::sweep(&args),
        Some("bounds") => cmd::solve::bounds(&args),
        Some("rank1") => cmd::solve::rank1(&args),
        Some("rebalance") => cmd::rebalance::rebalance(&args),
        Some("adapt") => cmd::adapt::adapt(&args),
        Some("serve") => cmd::serve::serve(&args),
        Some("submit") => cmd::submit::submit(&args),
        Some("top") => cmd::top::top(&args),
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
    println!(
        "             [--method heuristic|exact|local-search|anneal] [--scheme panel|kl|cyclic]"
    );
    println!("             [--panel BPxBQ] [--seed 0] [--lookahead 2]   (threaded executor on real data;");
    println!("             --lookahead 0 forces strict in-order step execution)");
    println!("             [--crash P@S]  kill processor P at step S, then recover from the");
    println!("             checkpoint log on the re-solved survivor grid and verify the result");
    println!("             (grid topology only)");
    println!("             [--flight-recorder [FILE]]  keep the last spans per thread in a");
    println!("             crash ring (even with tracing off) and dump a Chrome trace on");
    println!("             faults and at run end (default FILE: hetgrid-flight.json)");
    println!("             [--topology star --workers W --worker-mem M]  master-worker MM:");
    println!("             the master streams blocks over its one-port link to W workers");
    println!("             holding at most M resident blocks (maximum-reuse schedule); the grid");
    println!("             flags --times --grid --method --scheme --ordering --panel --crash");
    println!("             are refused there");
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
    println!("             [--tenant NAME] [--repeat 1] [--format json|expo]");
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
