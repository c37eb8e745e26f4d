//! A dedicated parallel machine shared by multiple users (the paper's
//! second motivating scenario, Section 2.2): all sixteen processors are
//! identical, but background load makes their *effective* speeds differ
//! and drift. We periodically re-run the static allocator on fresh load
//! measurements and simulate LU on the resulting distributions.
//!
//! ```text
//! cargo run --release --example multiuser_parallel_machine
//! ```

use hetgrid::core::heuristic;
use hetgrid::dist::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
use hetgrid::plan::Kernel;
use hetgrid::sim::machine::{CostModel, Network};
use hetgrid::sim::{simulate, Broadcast, SimError};

/// Effective cycle-time of a processor with `load` background jobs of
/// equal priority: the application gets 1/(1+load) of the CPU.
fn effective_time(load: u32) -> f64 {
    (1 + load) as f64
}

fn main() -> Result<(), SimError> {
    let (p, q) = (4, 4);
    // Three epochs of background load on the 16 processors, as a
    // multi-user day might produce them.
    let epochs: [[u32; 16]; 3] = [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], // night: idle
        [2, 0, 1, 0, 0, 3, 0, 1, 0, 0, 0, 2, 1, 0, 0, 0], // morning
        [3, 2, 4, 1, 2, 3, 1, 2, 0, 1, 2, 3, 2, 1, 1, 2], // afternoon rush
    ];
    let nb = 32;
    let cost = CostModel {
        latency: 0.2,
        block_transfer: 0.02,
        network: Network::Switched,
        ..Default::default()
    };

    println!(
        "simulated LU makespans on a 4x4 multi-user machine ({} block columns)\n",
        nb
    );
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>10}",
        "epoch", "cyclic", "panel(paper)", "kalinov-l", "speedup"
    );
    for (e, loads) in epochs.iter().enumerate() {
        let times: Vec<f64> = loads.iter().map(|&l| effective_time(l)).collect();
        let res = heuristic::solve_default(&times, p, q);
        let best = res.best();

        let cyclic = BlockCyclic::new(p, q);
        let panel = PanelDist::from_allocation(
            &best.arrangement,
            &best.alloc,
            12,
            12,
            PanelOrdering::Interleaved,
        );
        let kl = KlDist::new(&best.arrangement, 12, 12);

        let lu = |dist: &dyn BlockDist| {
            simulate(
                Kernel::Lu,
                &best.arrangement,
                dist,
                nb,
                cost,
                Broadcast::Direct,
            )
            .map(|run| run.report.makespan)
        };
        let (t_cyc, t_panel, t_kl) = (lu(&cyclic)?, lu(&panel)?, lu(&kl)?);
        println!(
            "{:<12} {:>14.0} {:>14.0} {:>14.0} {:>9.2}x",
            match e {
                0 => "night",
                1 => "morning",
                _ => "afternoon",
            },
            t_cyc,
            t_panel,
            t_kl,
            t_cyc / t_panel
        );
    }
    println!("\nwhen the machine is idle (homogeneous), all layouts coincide; under");
    println!("multi-user load the static re-balancing recovers most of the loss.");

    // Also show what ignoring the drift costs: reuse the night layout in
    // the afternoon.
    let afternoon: Vec<f64> = epochs[2].iter().map(|&l| effective_time(l)).collect();
    let stale = heuristic::solve_default(&[1.0; 16], p, q);
    let fresh = heuristic::solve_default(&afternoon, p, q);
    // Evaluate both distributions against the *afternoon* speeds, on the
    // fresh arrangement for a fair comparison of the allocation itself.
    let fresh_best = fresh.best();
    // Build the stale panel from raw proportional rounding (no
    // arrangement-aware polish — the whole point is that it ignores the
    // current load).
    let stale_alloc = &stale.best().alloc;
    let stale_rows = hetgrid::core::rounding::round_proportional(&stale_alloc.r, 12);
    let stale_cols = hetgrid::core::rounding::round_proportional(&stale_alloc.c, 12);
    let stale_panel = PanelDist::from_counts(
        &fresh_best.arrangement,
        &stale_rows,
        &stale_cols,
        PanelOrdering::Interleaved,
    );
    let fresh_panel = PanelDist::from_allocation(
        &fresh_best.arrangement,
        &fresh_best.alloc,
        12,
        12,
        PanelOrdering::Interleaved,
    );
    let mm = |dist: &dyn BlockDist| {
        let arr = &fresh_best.arrangement;
        simulate(Kernel::Mm, arr, dist, nb, cost, Broadcast::Direct).map(|run| run.report.makespan)
    };
    let (t_stale, t_fresh) = (mm(&stale_panel)?, mm(&fresh_panel)?);
    println!(
        "\nMM with stale (uniform) shares under afternoon load: {:.0} vs fresh shares {:.0} ({:.2}x)",
        t_stale,
        t_fresh,
        t_stale / t_fresh
    );
    Ok(())
}
