//! Collective-communication building blocks, in isolation: cost models
//! and event-driven simulations of the broadcast topologies the kernels
//! use (star, increasing ring, binomial tree).
//!
//! The closed-form costs double as cross-checks for the event engine:
//! the tests assert the simulated makespans match the formulas exactly
//! on a dedicated (switched) network.

use crate::kernels::{Broadcast, Des};
use crate::machine::CostModel;
use hetgrid_core::Arrangement;

/// Closed-form makespan of a *star* broadcast of one message of
/// `blocks` blocks to `n - 1` destinations on a switched network: the
/// source NIC serializes the sends.
pub fn star_cost(n: usize, blocks: usize, cost: &CostModel) -> f64 {
    (n.saturating_sub(1)) as f64 * cost.message_time(blocks)
}

/// Closed-form makespan of a pipelined *ring* broadcast: the message
/// hops through `n - 1` links; hop `k` finishes at `(k+1) * t`.
pub fn ring_cost(n: usize, blocks: usize, cost: &CostModel) -> f64 {
    (n.saturating_sub(1)) as f64 * cost.message_time(blocks)
}

/// Closed-form makespan of a *binomial tree* broadcast:
/// `ceil(log2 n)` rounds of parallel transfers.
pub fn tree_cost(n: usize, blocks: usize, cost: &CostModel) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    ((n as f64).log2().ceil()) * cost.message_time(blocks)
}

/// Simulates a single broadcast of `blocks` blocks from processor
/// `(0, 0)` to every other processor of the arrangement's grid, with the
/// given topology, returning the makespan.
pub fn simulate_broadcast(
    arr: &Arrangement,
    cost: CostModel,
    blocks: usize,
    topology: Broadcast,
) -> f64 {
    let (p, q) = (arr.p(), arr.q());
    let src = (0, 0);
    let dests: Vec<(usize, usize)> = (0..p)
        .flat_map(|i| (0..q).map(move |j| (i, j)))
        .filter(|&d| d != src)
        .collect();
    let mut des = Des::new(arr, cost);
    des.emit_ordered_broadcast(topology, src, &dests, blocks, vec![]);
    des.finish().report.makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, TaskTag};
    use crate::machine::{Machine, Network};

    fn homogeneous(p: usize, q: usize) -> Arrangement {
        Arrangement::from_times(p, q, vec![1.0; p * q])
    }

    fn cost() -> CostModel {
        CostModel {
            latency: 1.0,
            block_transfer: 0.5,
            network: Network::Switched,
            ..Default::default()
        }
    }

    #[test]
    fn star_matches_formula() {
        for n in [2usize, 4, 8] {
            let arr = homogeneous(1, n);
            let sim = simulate_broadcast(&arr, cost(), 3, Broadcast::Direct);
            assert!((sim - star_cost(n, 3, &cost())).abs() < 1e-12, "n={}", n);
        }
    }

    #[test]
    fn ring_matches_formula() {
        for n in [2usize, 5, 9] {
            let arr = homogeneous(1, n);
            let sim = simulate_broadcast(&arr, cost(), 2, Broadcast::Ring);
            assert!((sim - ring_cost(n, 2, &cost())).abs() < 1e-12, "n={}", n);
        }
    }

    #[test]
    fn tree_matches_formula() {
        for n in [2usize, 4, 8, 16] {
            let arr = homogeneous(1, n);
            let sim = simulate_broadcast(&arr, cost(), 1, Broadcast::Tree);
            assert!(
                (sim - tree_cost(n, 1, &cost())).abs() < 1e-12,
                "n={}: sim {} vs formula {}",
                n,
                sim,
                tree_cost(n, 1, &cost())
            );
        }
    }

    #[test]
    fn tree_beats_star_and_ring_for_single_broadcast() {
        // One isolated broadcast: log rounds beat linear chains.
        let n = 16;
        let c = cost();
        assert!(tree_cost(n, 4, &c) < star_cost(n, 4, &c));
        assert!(tree_cost(n, 4, &c) < ring_cost(n, 4, &c));
    }

    #[test]
    fn non_power_of_two_tree() {
        // n = 6: rounds needed = ceil(log2 6) = 3.
        let arr = homogeneous(2, 3);
        let c = cost();
        let sim = simulate_broadcast(&arr, c, 1, Broadcast::Tree);
        assert!((sim - 3.0 * c.message_time(1)).abs() < 1e-12);
    }

    #[test]
    fn shared_bus_serializes_tree() {
        // On a bus, the "parallel" tree rounds serialize: total time is
        // the star time again.
        let arr = homogeneous(1, 8);
        let c = CostModel {
            network: Network::SharedBus,
            ..cost()
        };
        let sim = simulate_broadcast(&arr, c, 1, Broadcast::Tree);
        assert!((sim - star_cost(8, 1, &c)).abs() < 1e-12);
    }

    #[test]
    fn engine_taktag_comm_accounting() {
        // All collective tasks are Comm-tagged: compute time must be 0.
        let arr = homogeneous(2, 2);
        let mut engine = Engine::new();
        let machine = Machine::new(&mut engine, &arr, cost());
        machine.message(&mut engine, vec![], (0, 0), (1, 1), 2);
        let s = engine.run();
        assert_eq!(s.compute_time, 0.0);
        assert!(s.comm_time > 0.0);
        let _ = TaskTag::Comm;
    }
}
