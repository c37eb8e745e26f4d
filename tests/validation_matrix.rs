//! A systematic consistency sweep: every distribution x every kernel x
//! every network model, checking the invariants that must hold across
//! the full cartesian product. This is the repo's "nothing is wired
//! backwards" test.

use hetgrid::core::{exact, heuristic, Arrangement};
use hetgrid::dist::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
use hetgrid::plan::Kernel;
use hetgrid::sim::machine::{CostModel, Network};
use hetgrid::sim::{bsp, Broadcast};

mod common;
use common::sim;

fn strategies(arr: &Arrangement) -> Vec<(&'static str, Box<dyn BlockDist + Sync>)> {
    let sol = exact::solve_arrangement(arr);
    vec![
        ("cyclic", Box::new(BlockCyclic::new(arr.p(), arr.q()))),
        (
            "panel-interleaved",
            Box::new(PanelDist::from_allocation(
                arr,
                &sol.alloc,
                6,
                6,
                PanelOrdering::Interleaved,
            )),
        ),
        (
            "panel-suffix",
            Box::new(PanelDist::from_allocation(
                arr,
                &sol.alloc,
                6,
                6,
                PanelOrdering::SuffixInterleaved,
            )),
        ),
        (
            "panel-contiguous",
            Box::new(PanelDist::from_allocation(
                arr,
                &sol.alloc,
                6,
                6,
                PanelOrdering::Contiguous,
            )),
        ),
        ("kl", Box::new(KlDist::new(arr, 6, 6))),
    ]
}

#[test]
fn full_matrix_of_kernels_distributions_networks() {
    let times = [0.4, 0.7, 0.9, 1.3];
    let res = heuristic::solve_default(&times, 2, 2);
    let arr = res.best().arrangement.clone();
    let nb = 12;

    for network in [Network::Switched, Network::SharedBus] {
        let cost = CostModel {
            latency: 0.15,
            block_transfer: 0.02,
            network,
            ..Default::default()
        };
        for (name, dist) in strategies(&arr) {
            let d = dist.as_ref();
            // --- MM: bracketed by the compute bound and the BSP bound.
            let mm = sim(Kernel::Mm, &arr, d, nb, cost, Broadcast::Direct);
            let lb = bsp::mm_compute_lower_bound(&arr, d, nb);
            let ub = bsp::bsp_mm(&arr, d, nb, cost);
            assert!(
                mm.makespan >= lb - 1e-9 && mm.makespan <= ub + 1e-9,
                "{}/{:?}: MM {} outside [{}, {}]",
                name,
                network,
                mm.makespan,
                lb,
                ub
            );
            assert!(mm.average_utilization() <= 1.0 + 1e-9);

            // --- LU and QR: QR is exactly twice LU in compute.
            let lu = sim(Kernel::Lu, &arr, d, nb, cost, Broadcast::Direct);
            let qr = sim(Kernel::Qr, &arr, d, nb, cost, Broadcast::Direct);
            assert!(
                (qr.compute_time - 2.0 * lu.compute_time).abs() < 1e-6 * qr.compute_time,
                "{}/{:?}: QR compute {} != 2x LU {}",
                name,
                network,
                qr.compute_time,
                lu.compute_time
            );
            assert!(lu.makespan <= bsp::bsp_lu(&arr, d, nb, cost) + 1e-9);

            // --- Cholesky: strictly less compute than LU (half the
            // trailing updates), same comm structure family.
            let ch = sim(Kernel::Cholesky, &arr, d, nb, cost, Broadcast::Direct);
            assert!(
                ch.compute_time < lu.compute_time,
                "{}/{:?}: Cholesky compute {} !< LU {}",
                name,
                network,
                ch.compute_time,
                lu.compute_time
            );

            // --- Conservation: every kernel accounts the same compute
            // on every network (network only affects comm).
            let mm_sw = sim(
                Kernel::Mm,
                &arr,
                d,
                nb,
                CostModel {
                    network: Network::Switched,
                    ..cost
                },
                Broadcast::Direct,
            );
            assert!((mm_sw.compute_time - mm.compute_time).abs() < 1e-9);
        }
    }
}

#[test]
fn cartesian_strategies_support_all_broadcasts() {
    let times = [0.5, 0.8, 1.1, 1.9];
    let res = heuristic::solve_default(&times, 2, 2);
    let arr = res.best().arrangement.clone();
    let cost = CostModel::default();
    let nb = 10;
    for (name, dist) in strategies(&arr) {
        let d = dist.as_ref();
        if !d.is_cartesian() {
            continue;
        }
        let direct = sim(Kernel::Mm, &arr, d, nb, cost, Broadcast::Direct);
        for mode in [Broadcast::Ring, Broadcast::Tree] {
            let rep = sim(Kernel::Mm, &arr, d, nb, cost, mode);
            assert!(
                (rep.compute_time - direct.compute_time).abs() < 1e-9,
                "{}: compute differs under {:?}",
                name,
                mode
            );
            let lu = sim(Kernel::Lu, &arr, d, nb, cost, mode);
            assert!(lu.makespan > 0.0);
        }
    }
}

#[test]
fn balance_ordering_is_consistent_across_layers() {
    // For a strongly skewed pool, the static balance ranking
    // (cyclic worst) must survive into every simulated kernel.
    let times = [1.0, 1.0, 1.0, 6.0];
    let res = heuristic::solve_default(&times, 2, 2);
    let arr = res.best().arrangement.clone();
    let sol = exact::solve_arrangement(&arr);
    let cyc = BlockCyclic::new(2, 2);
    let panel = PanelDist::from_allocation(&arr, &sol.alloc, 8, 8, PanelOrdering::Interleaved);
    let nb = 16;
    let cost = CostModel::zero_comm();

    let pairs: Vec<(f64, f64)> = vec![
        (
            sim(Kernel::Mm, &arr, &cyc, nb, cost, Broadcast::Direct).makespan,
            sim(Kernel::Mm, &arr, &panel, nb, cost, Broadcast::Direct).makespan,
        ),
        (
            sim(Kernel::Lu, &arr, &cyc, nb, cost, Broadcast::Direct).makespan,
            sim(Kernel::Lu, &arr, &panel, nb, cost, Broadcast::Direct).makespan,
        ),
        (
            sim(Kernel::Cholesky, &arr, &cyc, nb, cost, Broadcast::Direct).makespan,
            sim(Kernel::Cholesky, &arr, &panel, nb, cost, Broadcast::Direct).makespan,
        ),
    ];
    for (k, (cyclic, heterogeneous)) in pairs.iter().enumerate() {
        assert!(
            heterogeneous < cyclic,
            "kernel {}: panel {} !< cyclic {}",
            k,
            heterogeneous,
            cyclic
        );
    }
}
