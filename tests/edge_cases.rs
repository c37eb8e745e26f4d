//! Edge-case and stress coverage across the workspace: degenerate grid
//! shapes, single-pass vs fixpoint normalization on the paper's example,
//! non-divisible periods, and large-scale smoke tests (`#[ignore]`d by
//! default; run with `cargo test -- --ignored --release`).

use hetgrid::core::heuristic::{self, HeuristicOptions, NormalizeMode};
use hetgrid::core::{exact, Arrangement};
use hetgrid::dist::{BlockDist, KlDist, PanelDist, PanelOrdering, Placement};
use hetgrid::plan::Kernel;
use hetgrid::sim::machine::CostModel;
use hetgrid::sim::Broadcast;

mod common;
use common::sim;

#[test]
fn degenerate_row_and_column_grids() {
    // 1 x q: the 2D problem degenerates to the 1D one; exact optimum is
    // the total rate.
    let arr_row = Arrangement::from_rows(&[vec![1.0, 2.0, 4.0, 8.0]]);
    let sol = exact::solve_arrangement(&arr_row);
    assert!((sol.obj2 - (1.0 + 0.5 + 0.25 + 0.125)).abs() < 1e-9);

    // p x 1: same by symmetry.
    let arr_col = Arrangement::from_rows(&[vec![1.0], vec![2.0], vec![4.0]]);
    let sol = exact::solve_arrangement(&arr_col);
    assert!((sol.obj2 - 1.75).abs() < 1e-9);

    // Heuristic on the degenerate shapes reaches the same optimum (the
    // rank-1 structure is trivial for a single row/column).
    let res = heuristic::solve_default(&[8.0, 1.0, 4.0, 2.0], 1, 4);
    assert!((res.best().obj2 - 1.875).abs() < 1e-6);
}

#[test]
fn single_pass_vs_fixpoint_on_paper_example() {
    let times: Vec<f64> = (1..=9).map(|x| x as f64).collect();
    let fix = heuristic::solve(
        &times,
        3,
        3,
        HeuristicOptions {
            normalize: NormalizeMode::Fixpoint,
            ..Default::default()
        },
    );
    let single = heuristic::solve(
        &times,
        3,
        3,
        HeuristicOptions {
            normalize: NormalizeMode::SinglePass,
            ..Default::default()
        },
    );
    // On the worked example the single pass already lands on the
    // fixpoint for the first step (the paper prints fixpoint values), so
    // the first-step objectives agree tightly.
    assert!(
        (fix.first().obj2 - single.first().obj2).abs() < 1e-6,
        "fixpoint {} vs single pass {}",
        fix.first().obj2,
        single.first().obj2
    );
    // And in general the fixpoint can only improve on the single pass.
    let wild = [0.93, 0.12, 0.47, 0.81, 0.26, 0.64, 0.05, 0.58, 0.39];
    let f = heuristic::solve_arrangement(
        &hetgrid::core::sorted_row_major(&wild, 3, 3),
        NormalizeMode::Fixpoint,
    );
    let s = heuristic::solve_arrangement(
        &hetgrid::core::sorted_row_major(&wild, 3, 3),
        NormalizeMode::SinglePass,
    );
    assert!(f.obj2() >= s.obj2() - 1e-12);
}

#[test]
fn kl_with_awkward_periods() {
    // Periods that divide nothing evenly still cover everyone and
    // partition the matrix.
    let arr = Arrangement::from_rows(&[vec![0.3, 0.7, 1.1], vec![0.5, 0.9, 1.3]]);
    for (bp, bq) in [(2, 3), (5, 7), (11, 13)] {
        let d = KlDist::new(&arr, bp, bq);
        let counts = d.owned_counts(29, 31); // primes: no alignment
        let total: usize = counts.iter().flatten().sum();
        assert_eq!(total, 29 * 31);
        assert!(counts.iter().flatten().all(|&c| c > 0));
    }
}

#[test]
fn redistribution_between_kl_and_panel() {
    let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
    let sol = exact::solve_arrangement(&arr);
    let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
    let kl = KlDist::new(&arr, 4, 6);
    let nb = 24;
    let from = Placement {
        arr: &arr,
        dist: &panel,
    };
    let to = Placement {
        arr: &arr,
        dist: &kl,
    };
    let moved = from.blocks_moved(&to, nb);
    assert_eq!(moved, to.blocks_moved(&from, nb));
    // Sanity: the two heterogeneous layouts agree on much of the matrix.
    assert!(moved > 0 && moved < nb * nb * 8 / 10, "moved {moved}");
}

#[test]
fn simulation_with_one_block_matrix() {
    // nb = 1: a single block; only its owner works.
    let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
    let d = hetgrid::dist::BlockCyclic::new(2, 2);
    let rep = sim(
        Kernel::Mm,
        &arr,
        &d,
        1,
        CostModel::default(),
        Broadcast::Direct,
    );
    assert_eq!(rep.comm_time, 0.0);
    assert!((rep.makespan - arr.time(0, 0)).abs() < 1e-12);
    let lu = sim(
        Kernel::Lu,
        &arr,
        &d,
        1,
        CostModel::default(),
        Broadcast::Direct,
    );
    assert!((lu.makespan - arr.time(0, 0)).abs() < 1e-12);
}

#[test]
#[ignore = "stress test: run with --ignored in release mode"]
fn heuristic_scales_to_900_processors() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(30);
    let times: Vec<f64> = (0..900).map(|_| rng.gen_range(0.01..=1.0)).collect();
    let res = heuristic::solve_default(&times, 30, 30);
    assert!(res.converged || res.cycled || res.iterations() > 10);
    assert!(res.best().average_workload > 0.6);
}

#[test]
#[ignore = "stress test: run with --ignored in release mode"]
fn des_handles_large_task_graphs() {
    let arr = Arrangement::from_rows(&[
        vec![0.2, 0.4, 0.6, 0.8],
        vec![0.3, 0.5, 0.7, 0.9],
        vec![0.25, 0.45, 0.65, 0.85],
        vec![0.35, 0.55, 0.75, 0.95],
    ]);
    let d = hetgrid::dist::BlockCyclic::new(4, 4);
    let rep = sim(
        Kernel::Lu,
        &arr,
        &d,
        96,
        CostModel::default(),
        Broadcast::Direct,
    );
    assert!(rep.makespan > 0.0);
    assert!(rep.average_utilization() <= 1.0 + 1e-9);
}
