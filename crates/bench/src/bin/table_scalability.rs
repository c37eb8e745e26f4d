//! Weak-scaling study across grid sizes and heterogeneity models —
//! "2D-grids are the key to scalability and efficiency" (abstract) and
//! the headline speedup over uniform block-cyclic per machine model.
//!
//! Usage: `table_scalability [nb_per_proc] [trials]` (defaults: 8, 3).

use hetgrid_bench::workloads::Heterogeneity;
use hetgrid_bench::{build_instance, print_table, sim_row, Strategy};
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::{CostModel, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nb_per: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let trials: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);

    let cost = CostModel {
        latency: 0.2,
        block_transfer: 0.02,
        network: Network::Switched,
        ..Default::default()
    };

    println!("=== Weak scaling: speedup of the heuristic panel over uniform cyclic ===");
    println!(
        "(matrix grows with the grid: nb = {} * max(p, q); {} instances per cell)\n",
        nb_per, trials
    );

    let grids: &[(usize, usize)] = &[(2, 2), (3, 3), (4, 4)];
    let mut rows = Vec::new();
    for model in Heterogeneity::ALL {
        let mut cells = vec![model.name().to_string()];
        for &(p, q) in grids {
            let nb = nb_per * p.max(q);
            let mut rng = StdRng::seed_from_u64(0x5CA1E ^ ((p * 31 + q) as u64));
            let mut speedup = 0.0;
            for _ in 0..trials {
                let times = model.sample(p * q, &mut rng);
                let inst = build_instance(&times, p, q, 3 * p.max(q));
                let row = sim_row(&inst, Kernel::Mm, nb, cost);
                let cyc = row.iter().find(|(s, _)| *s == Strategy::Cyclic).unwrap().1;
                let heur = row
                    .iter()
                    .find(|(s, _)| *s == Strategy::HeuristicPanel)
                    .unwrap()
                    .1;
                speedup += cyc / heur;
            }
            cells.push(format!("{:.2}x", speedup / trials as f64));
        }
        rows.push(cells);
    }
    print_table(&["model", "2x2", "3x3", "4x4"], &rows);
    println!("\nexpected: ~1.0x for near-homogeneous pools, growing with the");
    println!("heterogeneity ratio (bounded by max(t)*mean(1/t) of each pool).");
}
