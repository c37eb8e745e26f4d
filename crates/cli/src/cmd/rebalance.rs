//! `hetgrid rebalance`: what adopting a fresh plan costs and buys.

use super::PANELS;
use crate::args::Args;
use hetgrid_core::exact::ExactOptions;
use hetgrid_core::Method;
use hetgrid_dist::BlockDist;
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::CostModel;
use hetgrid_sim::{simulate, Broadcast};

/// Quantifies a rebalance: solve for both pools, report the makespan
/// gain and the fraction of blocks that must move.
pub fn rebalance(args: &Args) -> Result<(), String> {
    let (times, p, q) = args.grid_times()?;
    let new_times = args.pool("new-times", p, q)?;
    let nb: usize = args.get_parse("nb", 32)?;
    let (bp, bq) = args.panel(PANELS, (p, q), (8, 8))?;

    let panels = |pool: &[f64]| {
        let s = Method::Heuristic.solve(pool, p, q, &ExactOptions::default());
        let dist = PANELS.build(&s.arr, &s.alloc, bp, bq);
        (s.arr, dist)
    };
    let (_, old_dist) = panels(&times);
    let (new_arr, new_dist) = panels(&new_times);

    let (old_dist, new_dist) = (old_dist.as_ref(), new_dist.as_ref());
    let moved = hetgrid_dist::redistribution::moved_fraction(old_dist, new_dist, nb);
    let cost = CostModel::default();
    // Both evaluated against the NEW speeds (the machine has drifted).
    let mm = |dist: &dyn BlockDist| {
        let run = simulate(Kernel::Mm, &new_arr, dist, nb, cost, Broadcast::Direct);
        run.map(|run| run.report).map_err(|e| e.to_string())
    };
    let (stale, fresh) = (mm(old_dist)?, mm(new_dist)?);
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
