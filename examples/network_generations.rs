//! Mixed network generations: the department's old machines have old
//! NICs too. This example exercises the heterogeneous-communication
//! extension (`Machine::with_nic_factors`): what slow NICs on the slow
//! machines cost in makespan and utilization, and the Gantt chart that
//! shows where.
//!
//! ```text
//! cargo run --release --example network_generations
//! ```

#![allow(clippy::type_complexity, clippy::needless_range_loop)]

use hetgrid::core::heuristic;
use hetgrid::dist::{PanelDist, PanelOrdering};
use hetgrid::sim::engine::Engine;
use hetgrid::sim::kernels::TracedRun;
use hetgrid::sim::machine::{CostModel, Machine, Network, SimReport};
use hetgrid::sim::trace::{ascii_gantt, grid_labels};

/// A hand-rolled MM step loop with per-processor NIC factors (the
/// kernels module uses uniform NICs; this example drives the machine
/// layer directly to show the extension).
fn simulate_mm_with_nics(
    arr: &hetgrid::core::Arrangement,
    dist: &dyn hetgrid::dist::BlockDist,
    nb: usize,
    cost: CostModel,
    nic_factors: Vec<f64>,
) -> TracedRun {
    use std::collections::BTreeMap;
    let (p, q) = dist.grid();
    let mut engine = Engine::new();
    let machine = Machine::with_nic_factors(&mut engine, arr, cost, nic_factors);
    let owned = dist.owned_counts(nb, nb);
    let mut last: Vec<Option<usize>> = vec![None; p * q];

    for k in 0..nb {
        let mut incoming: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        let mut msgs: BTreeMap<((usize, usize), (usize, usize)), usize> = BTreeMap::new();
        for bi in 0..nb {
            let src = dist.owner(bi, k);
            for bj in 0..nb {
                let dst = dist.owner(bi, bj);
                if dst != src {
                    *msgs.entry((src, dst)).or_insert(0) += 1;
                }
            }
        }
        for bj in 0..nb {
            let src = dist.owner(k, bj);
            for bi in 0..nb {
                let dst = dist.owner(bi, bj);
                if dst != src {
                    *msgs.entry((src, dst)).or_insert(0) += 1;
                }
            }
        }
        for (&(src, dst), &blocks) in &msgs {
            let deps = last[src.0 * q + src.1].map(|t| vec![t]).unwrap_or_default();
            let m = machine.message(&mut engine, deps, src, dst, blocks);
            incoming.entry(dst).or_default().push(m);
        }
        for i in 0..p {
            for j in 0..q {
                if owned[i][j] == 0 {
                    continue;
                }
                let mut deps = incoming.remove(&(i, j)).unwrap_or_default();
                if let Some(t) = last[i * q + j] {
                    deps.push(t);
                }
                let t = machine.compute(&mut engine, deps, (i, j), owned[i][j], 1.0);
                last[i * q + j] = Some(t);
            }
        }
    }
    let schedule = engine.run();
    let report = SimReport {
        makespan: schedule.makespan,
        core_busy: machine.core_busy(&schedule),
        comm_time: schedule.comm_time,
        compute_time: schedule.compute_time,
    };
    TracedRun {
        engine,
        schedule,
        report,
    }
}

fn main() {
    // Old machines: slow CPU (t = 3) *and* slow NIC (3x transfer time).
    let times = [1.0, 1.0, 3.0, 3.0];
    let res = heuristic::solve_default(&times, 2, 2);
    let best = res.best();
    let panel = PanelDist::from_allocation(
        &best.arrangement,
        &best.alloc,
        8,
        8,
        PanelOrdering::Interleaved,
    );

    let cost = CostModel {
        latency: 0.4,
        block_transfer: 0.05,
        network: Network::Switched,
        ..Default::default()
    };
    let nb = 16;

    // NIC factor per grid position: match the cycle-times (old machine =
    // old NIC).
    let nic_factors: Vec<f64> = best
        .arrangement
        .times()
        .iter()
        .map(|&t| if t > 1.5 { 3.0 } else { 1.0 })
        .collect();

    println!("arrangement:\n{}", best.arrangement);
    println!("NIC slowdown factors: {:?}\n", nic_factors);

    let uniform = simulate_mm_with_nics(&best.arrangement, &panel, nb, cost, vec![1.0; 4]);
    let mixed = simulate_mm_with_nics(&best.arrangement, &panel, nb, cost, nic_factors);

    for (name, run) in [("uniform NICs", &uniform), ("mixed NICs  ", &mixed)] {
        println!(
            "{}: makespan {:>8.1}, comm {:>7.1}, utilization {:.2}",
            name,
            run.report.makespan,
            run.report.comm_time,
            run.report.average_utilization()
        );
    }

    println!("\nschedule with mixed NICs (compute #, comm ~):");
    print!(
        "{}",
        ascii_gantt(
            &mixed.engine,
            &mixed.schedule,
            &grid_labels(2, 2, false),
            90
        )
    );
}
