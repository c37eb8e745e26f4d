//! Cross-crate integration tests: solver -> distribution -> simulator
//! -> executor, closing the loop the paper describes.

use hetgrid::core::{exact, heuristic, objective, Arrangement};
use hetgrid::dist::{balance_report, BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
use hetgrid::exec::{run, slowdown_weights, ChannelTransport, ExecConfig, Kernel};
use hetgrid::linalg::gemm::matmul;
use hetgrid::linalg::tri::{unit_lower_from_packed, upper_from_packed};
use hetgrid::linalg::Matrix;
use hetgrid::sim::machine::{CostModel, Network};
use hetgrid::sim::{bsp, Broadcast};

mod common;
use common::sim;

fn random_matrix(n: usize, seed: u64, dominant: bool) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(n, n, |i, j| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        if dominant && i == j {
            v + 2.0 * n as f64
        } else {
            v
        }
    })
}

/// The full pipeline on the paper's 2x2 example: heuristic arrangement,
/// exact shares, panel distribution, simulated and real execution.
#[test]
fn paper_pipeline_2x2() {
    let times = [1.0, 2.0, 3.0, 5.0];
    let res = heuristic::solve_default(&times, 2, 2);
    assert!(res.converged);
    let best = res.best();

    // Exact shares for the chosen arrangement.
    let sol = exact::solve_arrangement(&best.arrangement);
    assert!(sol.obj2 >= best.obj2 - 1e-9);

    // The distribution realizes the shares: per-panel counts proportional
    // to r x c.
    let panel = PanelDist::from_allocation(
        &best.arrangement,
        &sol.alloc,
        8,
        6,
        PanelOrdering::Interleaved,
    );
    let counts = panel.per_panel_counts();
    let total: usize = counts.iter().flatten().sum();
    assert_eq!(total, 48);

    // Static balance beats uniform cyclic.
    let rep_panel = balance_report(&panel, &best.arrangement, 24, 24);
    let rep_cyc = balance_report(&BlockCyclic::new(2, 2), &best.arrangement, 24, 24);
    assert!(rep_panel.makespan < rep_cyc.makespan);

    // Dynamic (simulated) behaviour agrees.
    let cost = CostModel::default();
    let t_panel = sim(
        Kernel::Mm,
        &best.arrangement,
        &panel,
        24,
        cost,
        Broadcast::Direct,
    );
    let t_cyc = sim(
        Kernel::Mm,
        &best.arrangement,
        &BlockCyclic::new(2, 2),
        24,
        cost,
        Broadcast::Direct,
    );
    assert!(t_panel.makespan < t_cyc.makespan);

    // Real threaded execution produces the right numbers.
    let nb = 8;
    let r = 4;
    let a = random_matrix(nb * r, 0xE2E, false);
    let b = random_matrix(nb * r, 0xE2F, false);
    let w = slowdown_weights(&best.arrangement);
    let cfg = ExecConfig::default();
    let out = run(
        &ChannelTransport,
        Kernel::Mm,
        &[&a, &b],
        &panel,
        nb,
        r,
        &w,
        cfg,
    )
    .unwrap();
    assert!(out.result.approx_eq(&matmul(&a, &b), 1e-9));
    assert!(out.report.work_imbalance() < 1.8);
}

/// The simulator's relative ordering of strategies matches the static
/// balance reports across several random instances.
#[test]
fn simulator_consistent_with_static_balance() {
    let instances: &[&[f64]] = &[
        &[1.0, 1.0, 1.0, 8.0],
        &[0.2, 0.4, 0.6, 0.8],
        &[1.0, 2.0, 2.0, 4.0],
    ];
    for times in instances {
        let res = heuristic::solve_default(times, 2, 2);
        let best = res.best();
        let panel = PanelDist::from_allocation(
            &best.arrangement,
            &best.alloc,
            6,
            6,
            PanelOrdering::Interleaved,
        );
        let cyc = BlockCyclic::new(2, 2);
        let nb = 18;
        let static_ratio = balance_report(&cyc, &best.arrangement, nb, nb).makespan
            / balance_report(&panel, &best.arrangement, nb, nb).makespan;
        let sim_ratio = sim(
            Kernel::Mm,
            &best.arrangement,
            &cyc,
            nb,
            CostModel::zero_comm(),
            Broadcast::Direct,
        )
        .makespan
            / sim(
                Kernel::Mm,
                &best.arrangement,
                &panel,
                nb,
                CostModel::zero_comm(),
                Broadcast::Direct,
            )
            .makespan;
        // With zero communication the simulated ratio equals the static
        // one (both are pure per-processor work maxima).
        assert!(
            (static_ratio - sim_ratio).abs() < 0.05 * static_ratio,
            "static {} vs sim {} for {:?}",
            static_ratio,
            sim_ratio,
            times
        );
    }
}

/// Kalinov-Lastovetsky balances at least as well as the panel
/// distribution but pays more communication on a shared bus; the
/// grid-pattern panel wins as latency grows.
#[test]
fn kl_tradeoff_emerges_in_simulation() {
    let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
    let sol = exact::solve_arrangement(&arr);
    let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
    let kl = KlDist::new(&arr, 28, 12);
    let nb = 28;

    // Balance: KL is at least as balanced (its splits are per-column
    // optimal).
    let b_panel = balance_report(&panel, &arr, nb, nb);
    let b_kl = balance_report(&kl, &arr, nb, nb);
    assert!(b_kl.makespan <= b_panel.makespan * 1.05);

    // Communication: on a high-latency shared bus, KL's extra west
    // neighbours cost real time.
    let cost = CostModel {
        latency: 1.0,
        block_transfer: 0.01,
        network: Network::SharedBus,
        ..Default::default()
    };
    let t_panel = sim(Kernel::Mm, &arr, &panel, nb, cost, Broadcast::Direct);
    let t_kl = sim(Kernel::Mm, &arr, &kl, nb, cost, Broadcast::Direct);
    assert!(
        t_kl.comm_time > t_panel.comm_time,
        "KL comm {} <= panel comm {}",
        t_kl.comm_time,
        t_panel.comm_time
    );
}

/// LU end-to-end: heuristic shares, interleaved panel, simulated + real
/// execution, against the paper's Figure 4 grid.
#[test]
fn lu_pipeline_fig4() {
    let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
    let sol = exact::solve_arrangement(&arr);
    let panel =
        PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::ColumnsInterleaved);
    assert_eq!(panel.col_pattern(), &[0, 1, 0, 0, 1, 0]); // ABAABA

    // Simulated LU: panel beats cyclic.
    let cost = CostModel::default();
    let t_panel = sim(Kernel::Lu, &arr, &panel, 24, cost, Broadcast::Direct);
    let t_cyc = sim(
        Kernel::Lu,
        &arr,
        &BlockCyclic::new(2, 2),
        24,
        cost,
        Broadcast::Direct,
    );
    assert!(t_panel.makespan < t_cyc.makespan);

    // DES stays below the analytic BSP bound.
    assert!(t_panel.makespan <= bsp::bsp_lu(&arr, &panel, 24, cost) + 1e-9);

    // Real threaded LU reconstructs A.
    let nb = 8;
    let r = 3;
    let a = random_matrix(nb * r, 0x10, true);
    let w = slowdown_weights(&arr);
    let cfg = ExecConfig::default();
    let f = run(&ChannelTransport, Kernel::Lu, &[&a], &panel, nb, r, &w, cfg)
        .unwrap()
        .result;
    let l = unit_lower_from_packed(&f);
    let u = upper_from_packed(&f);
    assert!(matmul(&l, &u).approx_eq(&a, 1e-7));
}

/// The objective value predicts simulated throughput: across arrangements
/// of the same processors, higher obj2 means lower zero-comm makespan.
#[test]
fn objective_predicts_simulated_makespan() {
    // Note: on a 2x2 grid the two non-decreasing arrangements are
    // transposes with identical objectives, so a 2x3 grid is used.
    let times = [1.0, 1.3, 2.0, 4.0, 6.5, 9.0];
    let mut all: Vec<(f64, f64)> = Vec::new(); // (obj2, makespan)
    hetgrid::core::enumerate_nondecreasing(&times, 2, 3, |arr| {
        let sol = exact::solve_arrangement(arr);
        let panel = PanelDist::from_allocation(arr, &sol.alloc, 12, 12, PanelOrdering::Interleaved);
        let t = sim(
            Kernel::Mm,
            arr,
            &panel,
            24,
            CostModel::zero_comm(),
            Broadcast::Direct,
        );
        all.push((sol.obj2, t.makespan));
    });
    assert!(all.len() >= 3);
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let measured = [all[0], *all.last().unwrap()];
    // The prediction is only meaningful when the objectives actually
    // differ (rational ties can be broken either way by the integer
    // rounding of the panel counts).
    assert!(
        measured[1].0 > 1.02 * measured[0].0,
        "test premise: objectives should differ by > 2%: {:?}",
        measured
    );
    // Higher objective -> smaller (or equal) makespan.
    assert!(
        measured[1].1 <= measured[0].1 * 1.05,
        "obj2 ordering not reflected: {:?}",
        measured
    );
}

/// Homogeneous grids: every strategy coincides with plain block-cyclic
/// behaviour (sanity for the whole stack).
#[test]
fn homogeneous_everything_coincides() {
    let times = [1.0; 4];
    let res = heuristic::solve_default(&times, 2, 2);
    assert_eq!(res.iterations(), 1);
    let best = res.best();
    assert!((objective::average_workload(&best.arrangement, &best.alloc) - 1.0).abs() < 1e-9);

    let panel = PanelDist::from_allocation(
        &best.arrangement,
        &best.alloc,
        2,
        2,
        PanelOrdering::Interleaved,
    );
    let cyc = BlockCyclic::new(2, 2);
    let kl = KlDist::new(&best.arrangement, 2, 2);
    for bi in 0..6 {
        for bj in 0..6 {
            assert_eq!(panel.owner(bi, bj), cyc.owner(bi, bj));
            assert_eq!(kl.owner(bi, bj), cyc.owner(bi, bj));
        }
    }
}
