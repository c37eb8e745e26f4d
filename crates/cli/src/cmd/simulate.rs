//! `hetgrid simulate`: one kernel through the discrete-event simulator.

use crate::args::Args;
use crate::obs_out;
use hetgrid_core::exact::ExactOptions;
use hetgrid_core::Method;
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::Network;
use hetgrid_sim::{simulate as des, Broadcast};

pub fn simulate(args: &Args) -> Result<(), String> {
    let (times, p, q) = args.grid_times()?;
    let nb = args.count("nb", 32)?;
    let kernel = args.kernel(Kernel::Mm)?;
    let broadcasts = [
        ("direct", Broadcast::Direct),
        ("ring", Broadcast::Ring),
        ("tree", Broadcast::Tree),
    ];
    let broadcast = args.choice("broadcast", "direct", &broadcasts)?;
    let cost = args.cost_model()?;
    let network = cost.network;

    let solved = Method::Heuristic.solve(&times, p, q, &ExactOptions::default());
    let scheme = args.scheme()?;
    let (bp, bq) = ((2 * p).max(4), (2 * q).max(4));
    let dist = scheme.build(&solved.arr, &solved.alloc, bp, bq);

    let run =
        des(kernel, &solved.arr, dist.as_ref(), nb, cost, broadcast).map_err(|e| e.to_string())?;
    let report = &run.report;
    println!(
        "kernel {} on {}x{} blocks, scheme {}, network {:?}, broadcast {:?}",
        kernel.name(),
        nb,
        nb,
        scheme.name(),
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
