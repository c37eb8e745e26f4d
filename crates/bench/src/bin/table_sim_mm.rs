//! E10 — simulated matrix-multiplication makespans on a heterogeneous
//! NOW for the four strategies (uniform cyclic, heuristic panel, exact
//! panel, Kalinov–Lastovetsky), over grid sizes, matrix sizes, and both
//! network models.
//!
//! Usage: `table_sim_mm [nb] [trials]` (defaults: 32, 5).

use hetgrid_bench::{build_instance, print_table, random_times, sim_row, Strategy};
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::{CostModel, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nb: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let trials: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    println!("=== Simulated outer-product MM on a heterogeneous NOW ===");
    println!(
        "(nb = {} block columns, {} random instances per row; entries are mean makespans,",
        nb, trials
    );
    println!(" normalized to the heuristic panel strategy = 1.00)\n");

    let grids: &[(usize, usize)] = &[(2, 2), (2, 4), (3, 3), (4, 4)];
    let networks = [
        ("switched", Network::Switched),
        ("ethernet", Network::SharedBus),
    ];

    for (netname, network) in networks {
        println!("--- network: {} ---", netname);
        let cost = CostModel {
            latency: 0.2,
            block_transfer: 0.02,
            network,
            ..Default::default()
        };
        let mut rows = Vec::new();
        for &(p, q) in grids {
            let mut sums: Vec<(Strategy, f64)> = Vec::new();
            let mut rng = StdRng::seed_from_u64(0x51AB_u64 ^ ((p * 100 + q) as u64));
            for _ in 0..trials {
                let times = random_times(p * q, &mut rng);
                let inst = build_instance(&times, p, q, 3 * p.max(q));
                let row = sim_row(&inst, Kernel::Mm, nb, cost);
                if sums.is_empty() {
                    sums = row;
                } else {
                    for (acc, (s, v)) in sums.iter_mut().zip(row) {
                        assert_eq!(acc.0, s);
                        acc.1 += v;
                    }
                }
            }
            let heur = sums
                .iter()
                .find(|(s, _)| *s == Strategy::HeuristicPanel)
                .expect("heuristic strategy present")
                .1;
            let mut cells = vec![format!("{}x{}", p, q)];
            for (s, v) in &sums {
                cells.push(format!("{}={:.2}", s.name(), v / heur));
            }
            rows.push(cells);
        }
        print_table(&["grid", "", "", "", ""], &rows);
        println!();
    }
    println!("expected shape: cyclic >> heur-panel ~ exact-panel; kalinov-l close on");
    println!("switched networks but penalized on ethernet (extra broadcasts).");
}
