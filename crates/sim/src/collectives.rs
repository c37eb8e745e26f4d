//! Collective-communication building blocks, in isolation: cost models
//! and event-driven simulations of the broadcast topologies the kernels
//! use (star, increasing ring, binomial tree), plus the initial
//! scatter of a matrix from one master workstation — the step a real
//! HNOW library performs before any kernel runs.
//!
//! The closed-form costs double as cross-checks for the event engine:
//! the tests assert the simulated makespans match the formulas exactly
//! on a dedicated (switched) network.

use crate::engine::Engine;
use crate::kernels::{simulate_mm, Broadcast, Des};
use crate::machine::{CostModel, Machine};
use hetgrid_core::Arrangement;
use hetgrid_dist::BlockDist;

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

/// Simulates the initial *scatter*: the master processor `(0, 0)` owns
/// the whole `nb x nb` block matrix and sends every processor its
/// portion under the target distribution (one aggregated message per
/// destination). Returns the makespan — the start-up cost a real
/// library pays before the kernel runs.
pub fn simulate_scatter(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
) -> f64 {
    let (p, q) = dist.grid();
    assert_eq!(
        (p, q),
        (arr.p(), arr.q()),
        "simulate_scatter: grid mismatch"
    );
    let mut engine = Engine::new();
    let machine = Machine::new(&mut engine, arr, cost);
    let counts = dist.owned_counts(nb, nb);
    let master = (0usize, 0usize);
    for i in 0..p {
        for j in 0..q {
            if (i, j) == master || counts[i][j] == 0 {
                continue;
            }
            machine.message(&mut engine, vec![], master, (i, j), counts[i][j]);
        }
    }
    if engine.is_empty() {
        // Single processor: nothing to scatter.
        return 0.0;
    }
    engine.run().makespan
}

/// Ratio of scatter cost to kernel cost — how many MM runs it takes to
/// amortize the initial distribution.
pub fn scatter_amortization(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
) -> f64 {
    let scatter = simulate_scatter(arr, dist, nb, cost);
    scatter / simulate_mm(arr, dist, nb, cost, Broadcast::Direct).makespan
}

/// The number of messages in one full broadcast, per topology (all
/// topologies deliver to `n - 1` destinations; they differ in *when*,
/// not how many).
pub fn broadcast_message_count(n: usize) -> usize {
    n.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TaskTag;
    use crate::machine::Network;

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
    fn scatter_volume_scales_with_matrix() {
        let arr = homogeneous(2, 2);
        let dist = hetgrid_dist::BlockCyclic::new(2, 2);
        let c = cost();
        let s1 = simulate_scatter(&arr, &dist, 4, c);
        let s2 = simulate_scatter(&arr, &dist, 8, c);
        assert!(s2 > s1);
        // 3 destinations, one message each; serialized on the master NIC.
        let counts = dist.owned_counts(4, 4);
        let expect: f64 = [(0, 1), (1, 0), (1, 1)]
            .iter()
            .map(|&(i, j)| c.message_time(counts[i][j]))
            .sum();
        assert!((s1 - expect).abs() < 1e-12);
    }

    #[test]
    fn scatter_amortizes_quickly_for_large_matrices() {
        let arr = homogeneous(2, 2);
        let dist = hetgrid_dist::BlockCyclic::new(2, 2);
        let c = CostModel::default();
        let small = scatter_amortization(&arr, &dist, 4, c);
        let large = scatter_amortization(&arr, &dist, 16, c);
        // MM grows like nb^3, scatter like nb^2: the ratio must shrink.
        assert!(large < small);
        assert!(large < 0.05, "scatter should be negligible: {}", large);
    }

    #[test]
    fn single_processor_scatter_is_free() {
        let arr = homogeneous(1, 1);
        let dist = hetgrid_dist::BlockCyclic::new(1, 1);
        assert_eq!(simulate_scatter(&arr, &dist, 8, cost()), 0.0);
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
