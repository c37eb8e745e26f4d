//! Property-based tests for the discrete-event simulator: engine
//! invariants (no resource double-booking, dependency respect) and
//! kernel-level monotonicity.

#![allow(clippy::type_complexity, clippy::needless_range_loop)]

use hetgrid_core::{alternating, sorted_row_major, Arrangement};
use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
use hetgrid_sim::engine::{Engine, TaskTag};
use hetgrid_sim::machine::{CostModel, Network};
use hetgrid_sim::plan::Kernel;
use hetgrid_sim::trace::resource_timelines;
use hetgrid_sim::{bsp, counts, simulate, Broadcast, SimReport};

use proptest::prelude::*;

/// The report of a [`simulate`] call the test expects to be accepted.
fn sim(
    kernel: Kernel,
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
    broadcast: Broadcast,
) -> SimReport {
    simulate(kernel, arr, dist, nb, cost, broadcast)
        .unwrap()
        .report
}

fn times_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..1.0, n)
}

/// Strategy: a random DAG of tasks over a handful of resources. Each
/// task may depend on a sample of earlier tasks.
fn task_graph_strategy() -> impl Strategy<Value = (usize, Vec<(Vec<usize>, Vec<usize>, f64)>)> {
    (2usize..5).prop_flat_map(|n_res| {
        let task = (
            prop::collection::vec(0usize..50, 0..3), // raw dep indices (mod id)
            prop::collection::vec(0usize..n_res, 1..3.min(n_res + 1)), // resources
            0.0f64..5.0,                             // duration
        );
        prop::collection::vec(task, 1..40).prop_map(move |tasks| (n_res, tasks))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_never_double_books_resources((n_res, raw) in task_graph_strategy()) {
        let mut e = Engine::new();
        let r0 = e.add_resources(n_res);
        for (id, (deps, resources, duration)) in raw.iter().enumerate() {
            let deps: Vec<usize> = if id == 0 {
                vec![]
            } else {
                let mut d: Vec<usize> = deps.iter().map(|&x| x % id).collect();
                d.sort_unstable();
                d.dedup();
                d
            };
            let mut res: Vec<usize> = resources.iter().map(|&r| r0 + r).collect();
            res.sort_unstable();
            res.dedup();
            e.add_task(deps, res, *duration, TaskTag::Comm);
        }
        let s = e.run();
        // No two intervals on the same resource overlap.
        for line in resource_timelines(&e, &s) {
            for w in line.windows(2) {
                prop_assert!(w[1].start >= w[0].end - 1e-12,
                    "overlap: {:?} then {:?}", w[0], w[1]);
            }
        }
        // Every task starts after all its dependencies end.
        for (id, (deps, _, _)) in raw.iter().enumerate() {
            if id == 0 { continue; }
            for &d in deps {
                let d = d % id;
                prop_assert!(s.start[id] >= s.finish[d] - 1e-12);
            }
        }
        // Makespan equals the max finish.
        let max_finish = s.finish.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!((s.makespan - max_finish).abs() < 1e-12);
    }

    #[test]
    fn mm_makespan_monotone_in_latency(times in times_strategy(4), lat in 0.0f64..2.0) {
        let arr = sorted_row_major(&times, 2, 2);
        let dist = BlockCyclic::new(2, 2);
        let base = CostModel { latency: lat, block_transfer: 0.01, ..Default::default() };
        let more = CostModel { latency: lat + 0.5, ..base };
        let m0 = sim(Kernel::Mm, &arr, &dist, 8, base, Broadcast::Direct).makespan;
        let m1 = sim(Kernel::Mm, &arr, &dist, 8, more, Broadcast::Direct).makespan;
        // Greedy list scheduling admits small Graham-style anomalies, so
        // allow a 5% slack rather than strict monotonicity.
        prop_assert!(m1 >= 0.95 * m0, "latency increase reduced makespan: {} -> {}", m0, m1);
    }

    #[test]
    fn utilization_at_most_one(times in times_strategy(4), nb in 2usize..12) {
        let arr = sorted_row_major(&times, 2, 2);
        let alt = alternating::optimize(&arr, 10_000);
        let d = PanelDist::from_allocation(&arr, &alt.alloc, 4, 4, PanelOrdering::Interleaved);
        for rep in [
            sim(Kernel::Mm, &arr, &d, nb, CostModel::default(), Broadcast::Direct),
            sim(Kernel::Lu, &arr, &d, nb, CostModel::default(), Broadcast::Direct),
            sim(Kernel::Cholesky, &arr, &d, nb, CostModel::default(), Broadcast::Direct),
        ] {
            prop_assert!(rep.average_utilization() <= 1.0 + 1e-9);
            prop_assert!(rep.average_utilization() > 0.0);
            // Busy time never exceeds the makespan on any core.
            for row in &rep.core_busy {
                for &b in row {
                    prop_assert!(b <= rep.makespan + 1e-9);
                }
            }
        }
    }

    #[test]
    fn broadcast_modes_preserve_compute(times in times_strategy(4), nb in 2usize..10) {
        let arr = sorted_row_major(&times, 2, 2);
        let dist = BlockCyclic::new(2, 2);
        let cost = CostModel::default();
        let base = sim(Kernel::Mm, &arr, &dist, nb, cost, Broadcast::Direct);
        for mode in [Broadcast::Ring, Broadcast::Tree] {
            let rep = sim(Kernel::Mm, &arr, &dist, nb, cost, mode);
            prop_assert!((rep.compute_time - base.compute_time).abs() < 1e-9);
        }
    }

    #[test]
    fn des_dominates_compute_lower_bound(times in times_strategy(4), nb in 2usize..12) {
        let arr = sorted_row_major(&times, 2, 2);
        let alt = alternating::optimize(&arr, 10_000);
        let d = PanelDist::from_allocation(&arr, &alt.alloc, 4, 4, PanelOrdering::Interleaved);
        let lb = bsp::mm_compute_lower_bound(&arr, &d, nb);
        for mode in [Broadcast::Direct, Broadcast::Ring, Broadcast::Tree] {
            let rep = sim(Kernel::Mm, &arr, &d, nb, CostModel::default(), mode);
            prop_assert!(rep.makespan >= lb - 1e-9);
        }
    }

    #[test]
    fn shared_bus_never_faster_than_switched(times in times_strategy(4), nb in 2usize..10) {
        let arr = sorted_row_major(&times, 2, 2);
        let dist = BlockCyclic::new(2, 2);
        let sw = CostModel { network: Network::Switched, ..Default::default() };
        let bus = CostModel { network: Network::SharedBus, ..Default::default() };
        let m_sw = sim(Kernel::Mm, &arr, &dist, nb, sw, Broadcast::Direct).makespan;
        let m_bus = sim(Kernel::Mm, &arr, &dist, nb, bus, Broadcast::Direct).makespan;
        // 5% slack for list-scheduling anomalies (see above).
        prop_assert!(m_bus >= 0.95 * m_sw, "bus {} < switched {}", m_bus, m_sw);
    }

    #[test]
    fn qr_exactly_doubles_lu_without_comm(times in times_strategy(4), nb in 2usize..10) {
        let arr = sorted_row_major(&times, 2, 2);
        let dist = BlockCyclic::new(2, 2);
        let lu = sim(Kernel::Lu, &arr, &dist, nb, CostModel::zero_comm(), Broadcast::Direct);
        let qr = sim(Kernel::Qr, &arr, &dist, nb, CostModel::zero_comm(), Broadcast::Direct);
        prop_assert!((qr.makespan - 2.0 * lu.makespan).abs() < 1e-9 * qr.makespan.max(1.0));
    }
}

/// A deliberately irregular (non-Cartesian) distribution: the owner is a
/// hash of the block coordinates. Exercises the generic code paths that
/// make no structural assumptions.
struct ScrambledDist {
    p: usize,
    q: usize,
    salt: u64,
}

impl BlockDist for ScrambledDist {
    fn grid(&self) -> (usize, usize) {
        (self.p, self.q)
    }
    fn owner(&self, bi: usize, bj: usize) -> (usize, usize) {
        let mut h = (bi as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(bj as u64)
            .wrapping_mul(0xD1342543DE82EF95)
            ^ self.salt;
        h ^= h >> 33;
        let k = (h % (self.p * self.q) as u64) as usize;
        (k / self.q, k % self.q)
    }
    fn is_cartesian(&self) -> bool {
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scrambled_distribution_simulates_soundly(times in times_strategy(4), salt in 0u64..1000, nb in 2usize..10) {
        let arr = sorted_row_major(&times, 2, 2);
        let d = ScrambledDist { p: 2, q: 2, salt };
        // MM, LU and Cholesky must all run, respect bounds, and account
        // for all the work even on a structureless owner map.
        let mm = sim(Kernel::Mm, &arr, &d, nb, CostModel::default(), Broadcast::Direct);
        prop_assert!(mm.makespan >= bsp::mm_compute_lower_bound(&arr, &d, nb) - 1e-9);
        prop_assert!(mm.makespan <= bsp::bsp_mm(&arr, &d, nb, CostModel::default()) + 1e-9);
        let lu = sim(Kernel::Lu, &arr, &d, nb, CostModel::zero_comm(), Broadcast::Direct);
        let total: f64 = lu.core_busy.iter().flatten().sum();
        // LU total work with t-weighting: sum over owned blocks of each
        // phase; just check it is positive and utilization is sane.
        prop_assert!(total > 0.0);
        prop_assert!(lu.average_utilization() <= 1.0 + 1e-9);
        let ch = sim(Kernel::Cholesky, &arr, &d, nb, CostModel::default(), Broadcast::Direct);
        prop_assert!(ch.makespan <= lu.makespan + ch.comm_time + ch.makespan, "sanity");
    }

    #[test]
    fn des_busy_time_is_cycle_time_times_count_fold(
        times in times_strategy(6),
        wide in 0usize..2,
        which in 0usize..3,
        salt in 0u64..1000,
        nb in 2usize..10,
        latency in 0.0f64..1.0,
    ) {
        // The simulator and the executor's count oracle read the same
        // plans: with unit panel and solve costs, processor (i, j) is
        // busy exactly t_ij times its folded work units, whatever the
        // distribution and the communication costs.
        let (p, q) = if wide == 1 { (2, 3) } else { (3, 2) };
        let arr = sorted_row_major(&times, p, q);
        let d: Box<dyn BlockDist> = match which {
            0 => Box::new(BlockCyclic::new(p, q)),
            1 => {
                let alt = alternating::optimize(&arr, 10_000);
                Box::new(PanelDist::from_allocation(&arr, &alt.alloc, 6, 6, PanelOrdering::Interleaved))
            }
            _ => Box::new(ScrambledDist { p, q, salt }),
        };
        let cost = CostModel { latency, panel_cost: 1.0, trsm_cost: 1.0, ..Default::default() };
        let unit = vec![vec![1u64; q]; p];
        for kernel in [Kernel::Mm, Kernel::Lu, Kernel::Cholesky] {
            let busy = sim(kernel, &arr, d.as_ref(), nb, cost, Broadcast::Direct).core_busy;
            let work = counts::fold(&kernel.plan(d.as_ref(), nb), 0, &unit).work_units;
            for i in 0..p {
                for j in 0..q {
                    let want = arr.time(i, j) * work[i][j] as f64;
                    prop_assert!(
                        (busy[i][j] - want).abs() <= 1e-9 * want.max(1.0),
                        "{:?} ({}, {}): DES busy {} != t * fold {}", kernel, i, j, busy[i][j], want
                    );
                }
            }
        }
    }
}
