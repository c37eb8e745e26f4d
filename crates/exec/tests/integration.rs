//! Integration tests: the distributed kernels on heterogeneous
//! 2x2 - 3x3 grids, checked element-wise against the single-node
//! `hetgrid-linalg` references.
//!
//! The unit tests inside each kernel module cover one distribution
//! each; this suite sweeps every kernel over every distribution family
//! on genuinely heterogeneous arrangements (distinct cycle-times, so
//! the panel shares are uneven and the slowdown weights differ per
//! processor).

use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
use hetgrid_exec::{run, slowdown_weights, ChannelTransport, ExecConfig, RunOutput};
use hetgrid_linalg::gemm::matmul;
use hetgrid_linalg::tri::{unit_lower_from_packed, upper_from_packed};
use hetgrid_linalg::Matrix;
use hetgrid_plan::Kernel;

fn exec(
    kernel: Kernel,
    inputs: &[&Matrix],
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
) -> RunOutput {
    let cfg = ExecConfig::default();
    run(&ChannelTransport, kernel, inputs, dist, nb, r, weights, cfg).unwrap()
}

/// Deterministic dense matrix with entries in `[-1, 1)`.
fn dense(n: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Matrix::from_fn(n, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn dominant(n: usize, seed: u64) -> Matrix {
    let mut m = dense(n, seed);
    for i in 0..n {
        m[(i, i)] += 2.0 * n as f64;
    }
    m
}

fn spd(n: usize, seed: u64) -> Matrix {
    let b = dense(n, seed);
    let mut a = matmul(&b.transpose(), &b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Heterogeneous arrangements for each grid shape under test: distinct
/// cycle-times, spread by roughly a factor of five.
fn arrangements() -> Vec<Arrangement> {
    vec![
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]),
        Arrangement::from_rows(&[vec![1.0, 2.5, 4.0], vec![1.5, 3.0, 5.0]]),
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![2.5, 4.0], vec![1.5, 5.0]]),
        Arrangement::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![2.5, 4.0, 1.5],
            vec![5.0, 1.2, 2.2],
        ]),
    ]
}

/// Every distribution family over `arr`, with a name for messages.
fn distributions(arr: &Arrangement) -> Vec<(Box<dyn BlockDist + Sync>, &'static str)> {
    let (p, q) = (arr.p(), arr.q());
    let sol = exact::solve_arrangement(arr);
    vec![
        (Box::new(BlockCyclic::new(p, q)), "cyclic"),
        (
            Box::new(PanelDist::from_allocation(
                arr,
                &sol.alloc,
                2 * p,
                2 * q,
                PanelOrdering::Contiguous,
            )),
            "panel-contiguous",
        ),
        (
            Box::new(PanelDist::from_allocation(
                arr,
                &sol.alloc,
                2 * p,
                2 * q,
                PanelOrdering::Interleaved,
            )),
            "panel-interleaved",
        ),
        (Box::new(KlDist::new(arr, 2 * p, 2 * q)), "kl"),
    ]
}

#[test]
fn mm_matches_reference_on_heterogeneous_grids() {
    for (ai, arr) in arrangements().iter().enumerate() {
        let w = slowdown_weights(arr);
        let (nb, r) = (6, 2);
        let a = dense(nb * r, 100 + ai as u64);
        let b = dense(nb * r, 200 + ai as u64);
        let reference = matmul(&a, &b);
        for (dist, name) in distributions(arr) {
            let out = exec(Kernel::Mm, &[&a, &b], dist.as_ref(), nb, r, &w);
            let (c, report) = (out.result, out.report);
            assert!(
                c.approx_eq(&reference, 1e-9),
                "MM mismatch on {}x{} {}: max err {:.3e}",
                arr.p(),
                arr.q(),
                name,
                c.sub(&reference).max_abs()
            );
            assert!(
                report.total_messages() > 0,
                "{name}: grid never communicated"
            );
        }
    }
}

#[test]
fn lu_matches_reference_on_heterogeneous_grids() {
    for (ai, arr) in arrangements().iter().enumerate() {
        let w = slowdown_weights(arr);
        let (nb, r) = (6, 2);
        let a = dominant(nb * r, 300 + ai as u64);
        for (dist, name) in distributions(arr) {
            let f = exec(Kernel::Lu, &[&a], dist.as_ref(), nb, r, &w).result;
            let lu = matmul(&unit_lower_from_packed(&f), &upper_from_packed(&f));
            assert!(
                lu.approx_eq(&a, 1e-8),
                "LU mismatch on {}x{} {}: max err {:.3e}",
                arr.p(),
                arr.q(),
                name,
                lu.sub(&a).max_abs()
            );
        }
    }
}

#[test]
fn cholesky_matches_reference_on_heterogeneous_grids() {
    for (ai, arr) in arrangements().iter().enumerate() {
        let w = slowdown_weights(arr);
        let (nb, r) = (6, 2);
        let a = spd(nb * r, 400 + ai as u64);
        for (dist, name) in distributions(arr) {
            let l = exec(Kernel::Cholesky, &[&a], dist.as_ref(), nb, r, &w).result;
            let llt = matmul(&l, &l.transpose());
            assert!(
                llt.approx_eq(&a, 1e-8),
                "Cholesky mismatch on {}x{} {}: max err {:.3e}",
                arr.p(),
                arr.q(),
                name,
                llt.sub(&a).max_abs()
            );
        }
    }
}

#[test]
fn weighted_work_reflects_the_arrangement() {
    // On a uniform distribution the weighted work tables must scale
    // exactly with the slowdown weights: every processor owns the same
    // number of blocks under 2x2 cyclic with nb divisible by 2.
    let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
    let w = slowdown_weights(&arr);
    let dist = BlockCyclic::new(2, 2);
    let (nb, r) = (4, 2);
    let a = dense(nb * r, 77);
    let b = dense(nb * r, 78);
    let report = exec(Kernel::Mm, &[&a, &b], &dist, nb, r, &w).report;
    let blocks_each = (nb * nb / 4) as u64;
    for (i, row) in w.iter().enumerate() {
        for (j, &wij) in row.iter().enumerate() {
            assert_eq!(
                report.work_units[i][j],
                blocks_each * nb as u64 * wij,
                "processor ({i}, {j})"
            );
        }
    }
}
