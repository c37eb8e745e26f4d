//! `hetgrid rebalance`: what adopting a fresh plan costs and buys.

use super::PANELS;
use crate::args::Args;
use hetgrid_adapt::{policy, ActivePlan, PolicyConfig};

/// Prices a rebalance the way the adaptive controller does: solve for
/// the old pool, let [`policy::evaluate`] re-solve for the new one, and
/// report the share of blocks that change processor and both plans'
/// per-iteration cost on the new speeds.
pub fn rebalance(args: &Args) -> Result<(), String> {
    let (times, p, q) = args.grid_times()?;
    let new_times = args.pool("new-times", p, q)?;
    let nb = args.count("nb", 32)?;
    let (bp, bq) = args.panel(PANELS, (p, q), (8, 8))?;

    let cfg = PolicyConfig::default();
    let current = ActivePlan::solve(&times, p, q, bp, bq, cfg.method);
    let (d, _) = policy::evaluate(&current, &new_times, nb, 0, &cfg);
    println!(
        "blocks moved by rebalancing : {:.1}% of the matrix",
        d.moved_fraction * 100.0
    );
    println!("stale plan cost / iteration : {:.1}", d.stale_cost);
    println!("fresh plan cost / iteration : {:.1}", d.fresh_cost);
    println!(
        "gain per run                : {:.2}x",
        d.stale_cost / d.fresh_cost
    );
    Ok(())
}
