//! Grid designer: given a pool of machines, which grid shape and
//! arrangement should you use?
//!
//! ```text
//! cargo run --release --example grid_designer [t1 t2 t3 ...]
//! ```
//!
//! For every factorization `p x q` of the processor count this tool runs
//! the polynomial heuristic, reports the predicted utilization, checks
//! whether a *perfectly balancing* rank-1 arrangement exists (Section
//! 4.3.2), and — for small pools — compares against the exact
//! exponential search.

use hetgrid::core::{exact, heuristic, rank1};
use hetgrid::dist::{PanelDist, PanelOrdering};
use hetgrid::plan::Kernel;
use hetgrid::sim::machine::{CostModel, Network};
use hetgrid::sim::{simulate, Broadcast, SimError};

fn main() -> Result<(), SimError> {
    let args: Vec<f64> = std::env::args()
        .skip(1)
        .map(|s| s.parse().expect("cycle-times must be numbers"))
        .collect();
    // Default: the 12-machine pool 1,1,2,2,2,3,3,3,4,5,5,6.
    let times = if args.is_empty() {
        vec![1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0, 5.0, 6.0]
    } else {
        args
    };
    let n = times.len();
    println!("designing a 2D grid for {} processors: {:?}\n", n, times);

    // All factorizations p * q == n with p <= q.
    let mut shapes = Vec::new();
    for p in 1..=n {
        if n % p == 0 && p <= n / p {
            shapes.push((p, n / p));
        }
    }

    // Simulated MM on an Ethernet-like NOW: the objective alone always
    // favours 1 x n shapes (fewest balance constraints), but their long
    // broadcast rows pay for it in communication — this is why the paper
    // insists on 2D grids for scalability (Section 2.2).
    let cost = CostModel {
        latency: 0.3,
        block_transfer: 0.03,
        network: Network::SharedBus,
        ..Default::default()
    };
    let nb = 24;

    println!(
        "{:<8} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "grid", "heur obj2", "utilization", "steps", "exact obj2", "sim MM"
    );
    let mut best: Option<(f64, (usize, usize))> = None;
    for &(p, q) in &shapes {
        let res = heuristic::solve_default(&times, p, q);
        let b = res.best();
        let exact_str = if p <= 3 && q <= 6 {
            let g = exact::solve_global(&times, p, q);
            format!("{:.4}", g.obj2)
        } else {
            "-".to_string()
        };
        let panel = PanelDist::from_allocation(
            &b.arrangement,
            &b.alloc,
            (2 * p).max(4),
            (2 * q).max(4),
            PanelOrdering::Interleaved,
        );
        let sim = simulate(
            Kernel::Mm,
            &b.arrangement,
            &panel,
            nb,
            cost,
            Broadcast::Direct,
        )?
        .report;
        println!(
            "{:<8} {:>12.4} {:>11.1}% {:>8} {:>12} {:>12.0}",
            format!("{}x{}", p, q),
            b.obj2,
            b.average_workload * 100.0,
            res.iterations(),
            exact_str,
            sim.makespan
        );
        if best.is_none_or(|(m, _)| sim.makespan < m) {
            best = Some((sim.makespan, (p, q)));
        }
    }
    let (mk, (p, q)) = best.expect("at least one shape");
    println!(
        "\nrecommended grid by simulated makespan: {}x{} ({:.0} time units)",
        p, q, mk
    );

    // Does a perfectly balancing arrangement exist for that shape?
    match rank1::try_rank1_arrangement(&times, p, q, 1e-9) {
        Some(arr) => {
            println!("\na rank-1 arrangement exists — perfect balance is achievable:");
            println!("{}", arr);
        }
        None => {
            println!(
                "\nno rank-1 arrangement of these cycle-times exists for {}x{};",
                p, q
            );
            println!("perfect balance is impossible (Section 4.3.2), the heuristic is as good as it gets.");
        }
    }
    Ok(())
}
