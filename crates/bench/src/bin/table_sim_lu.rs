//! E11 — simulated right-looking LU (and QR) makespans on a
//! heterogeneous NOW for the four strategies, over grid sizes and both
//! network models.
//!
//! Usage: `table_sim_lu [nb] [trials]` (defaults: 32, 5).

use hetgrid_bench::{build_instance, print_table, random_times, sim_row, Strategy};
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::{CostModel, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nb: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let trials: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    println!("=== Simulated right-looking LU on a heterogeneous NOW ===");
    println!(
        "(nb = {}, {} instances/row; mean makespans normalized to heur-panel = 1.00)\n",
        nb, trials
    );

    let grids: &[(usize, usize)] = &[(2, 2), (2, 4), (3, 3), (4, 4)];
    for (netname, network) in [
        ("switched", Network::Switched),
        ("ethernet", Network::SharedBus),
    ] {
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
            let mut rng = StdRng::seed_from_u64(0x10_u64 ^ ((p * 100 + q) as u64));
            for _ in 0..trials {
                let times = random_times(p * q, &mut rng);
                let inst = build_instance(&times, p, q, 3 * p.max(q));
                let row = sim_row(&inst, Kernel::Lu, nb, cost);
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

    // QR and Cholesky columns to show the analogous behaviour of the
    // other two ScaLAPACK factorizations (Section 3.2, reference [8]).
    println!("--- QR and Cholesky (switched network, one 2x2 instance) ---");
    let cost = CostModel {
        latency: 0.2,
        block_transfer: 0.02,
        network: Network::Switched,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(0x99);
    let times = random_times(4, &mut rng);
    let inst = build_instance(&times, 2, 2, 8);
    let qr = sim_row(&inst, Kernel::Qr, nb, cost);
    let ch = sim_row(&inst, Kernel::Cholesky, nb, cost);
    let cells = |((s, qr), (_, ch)): (&(Strategy, f64), &(Strategy, f64))| {
        vec![s.name().to_string(), format!("{qr:.1}"), format!("{ch:.1}")]
    };
    let rows: Vec<Vec<String>> = qr.iter().zip(&ch).map(cells).collect();
    print_table(&["strategy", "QR makespan", "Cholesky makespan"], &rows);
}
