//! Quickstart: balance a heterogeneous 2D grid and see what it buys.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! We take the paper's running example — four workstations with relative
//! cycle-times 1, 2, 3 and 5 (the time each needs to update one matrix
//! block) — arrange them on a 2x2 grid, compute the optimal block
//! shares, build the heterogeneous block-panel distribution, and compare
//! it against plain ScaLAPACK block-cyclic in the simulator.

use hetgrid::core::{exact, heuristic};
use hetgrid::dist::{balance_report, BlockCyclic, BlockDist, PanelDist, PanelOrdering};
use hetgrid::plan::Kernel;
use hetgrid::sim::{machine::CostModel, simulate, Broadcast, SimError};

fn main() -> Result<(), SimError> {
    // --- 1. Describe the machines by cycle-time (lower = faster).
    let times = [1.0, 2.0, 3.0, 5.0];

    // --- 2. Let the polynomial heuristic arrange them on a 2x2 grid and
    // compute row/column shares.
    let result = heuristic::solve_default(&times, 2, 2);
    let best = result.best();
    println!("arrangement (cycle-times):\n{}", best.arrangement);
    println!(
        "shares: r = {:?}, c = {:?} (objective {:.4})",
        best.alloc.r, best.alloc.c, best.obj2
    );

    // For a 2x2 grid we can also afford the exact spanning-tree solver:
    let exact_sol = exact::solve_arrangement(&best.arrangement);
    println!(
        "exact objective for the same arrangement: {:.4}",
        exact_sol.obj2
    );

    // --- 3. Build the block-panel distribution (8x6 panels, LU-style
    // interleaved columns) and inspect the static balance.
    let panel = PanelDist::from_allocation(
        &best.arrangement,
        &exact_sol.alloc,
        8,
        6,
        PanelOrdering::Interleaved,
    );
    let report = balance_report(&panel, &best.arrangement, 48, 48);
    println!(
        "\nstatic balance of the panel distribution over 48x48 blocks: {:.1}% average utilization",
        report.average_utilization * 100.0
    );

    // --- 4. Simulate matrix multiplication against the homogeneous
    // ScaLAPACK baseline.
    let nb = 48;
    let cost = CostModel::default();
    let cyclic = BlockCyclic::new(2, 2);
    let mm = |dist: &dyn BlockDist| {
        simulate(
            Kernel::Mm,
            &best.arrangement,
            dist,
            nb,
            cost,
            Broadcast::Direct,
        )
        .map(|run| run.report.makespan)
    };
    let (t_cyclic, t_panel) = (mm(&cyclic)?, mm(&panel)?);
    println!("\nsimulated MM makespan, {0}x{0} blocks:", nb);
    println!("  uniform block-cyclic : {:.0}", t_cyclic);
    println!("  heterogeneous panels : {:.0}", t_panel);
    println!("  speedup              : {:.2}x", t_cyclic / t_panel);
    Ok(())
}
