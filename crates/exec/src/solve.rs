//! Distributed linear system solve: the user-facing "solve `A x = b` on
//! the cluster" entry point. The O(n^3) factorization runs distributed
//! (LU or Cholesky over the chosen layout); the O(n^2) triangular
//! solves run on the gathered factors — the standard split for a
//! library whose expensive phase is the factorization.

use crate::step::ExecConfig;
use crate::store::ExecReport;
use crate::transport::{ExecError, Transport};
use hetgrid_dist::BlockDist;
use hetgrid_linalg::tri::{solve_lower, solve_upper};
use hetgrid_linalg::Matrix;
use hetgrid_plan::Kernel;

/// Which factorization backs the solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveKind {
    /// Distributed LU without pivoting — use diagonally dominant
    /// systems.
    Lu,
    /// Distributed Cholesky — use symmetric positive definite systems.
    Cholesky,
}

/// Solves `A x = b` over the distribution: [`crate::run`] factors `a`
/// (communicating through `transport`, tuned by `cfg`), the triangular
/// solves run on the gathered factors. Returns the solution and the
/// factorization's execution report, or a typed [`ExecError`] if a
/// worker dropped out mid-run.
///
/// # Panics
/// Panics on size mismatch or numerical breakdown, like [`crate::run`].
pub fn run_solve_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    b: &[f64],
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    kind: SolveKind,
    cfg: ExecConfig,
) -> Result<(Vec<f64>, ExecReport), ExecError> {
    let n = nb * r;
    assert_eq!(a.shape(), (n, n), "run_solve: matrix size mismatch");
    assert_eq!(b.len(), n, "run_solve: rhs length mismatch");
    let bm = Matrix::from_fn(n, 1, |i, _| b[i]);
    let factor = |kernel| crate::run(transport, kernel, &[a], dist, nb, r, weights, cfg);
    let (x, report) = match kind {
        SolveKind::Lu => {
            let out = factor(Kernel::Lu)?;
            let y = solve_lower(&out.result, &bm, true);
            (solve_upper(&out.result, &y), out.report)
        }
        SolveKind::Cholesky => {
            let out = factor(Kernel::Cholesky)?;
            let y = solve_lower(&out.result, &bm, false);
            (solve_upper(&out.result.transpose(), &y), out.report)
        }
    };
    Ok(((0..n).map(|i| x[(i, 0)]).collect(), report))
}

/// Max-norm residual `|A x - b|_inf` — the caller-side check.
pub fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = hetgrid_linalg::gemm::matvec(a, x);
    ax.iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dominant, spd};
    use crate::transport::ChannelTransport;
    use hetgrid_core::{exact, Arrangement};

    fn run_solve(
        a: &Matrix,
        b: &[f64],
        dist: &(dyn BlockDist + Sync),
        nb: usize,
        r: usize,
        weights: &[Vec<u64>],
        kind: SolveKind,
    ) -> Result<(Vec<f64>, ExecReport), ExecError> {
        let cfg = ExecConfig::default();
        run_solve_on_cfg(&ChannelTransport, a, b, dist, nb, r, weights, kind, cfg)
    }

    use hetgrid_dist::{BlockCyclic, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matvec;

    #[test]
    fn lu_solve_on_panel_layout() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 4, 4, PanelOrdering::Interleaved);
        let nb = 6;
        let r = 3;
        let a = dominant(nb * r, 0x50);
        let x0: Vec<f64> = (0..nb * r).map(|i| (i as f64 * 0.31).cos()).collect();
        let b = matvec(&a, &x0);
        let w = crate::store::slowdown_weights(&arr);
        let (x, _) = run_solve(&a, &b, &dist, nb, r, &w, SolveKind::Lu).unwrap();
        for i in 0..nb * r {
            assert!(
                (x[i] - x0[i]).abs() < 1e-7,
                "x[{}] = {} != {}",
                i,
                x[i],
                x0[i]
            );
        }
        assert!(residual(&a, &x, &b) < 1e-7);
    }

    #[test]
    fn cholesky_solve_on_cyclic_layout() {
        let dist = BlockCyclic::new(2, 2);
        let nb = 4;
        let r = 3;
        let a = spd(nb * r, 0x51);
        let x0: Vec<f64> = (0..nb * r).map(|i| (i % 5) as f64 - 2.0).collect();
        let b = matvec(&a, &x0);
        let (x, report) = run_solve(
            &a,
            &b,
            &dist,
            nb,
            r,
            &vec![vec![1; 2]; 2],
            SolveKind::Cholesky,
        )
        .unwrap();
        for i in 0..nb * r {
            assert!((x[i] - x0[i]).abs() < 1e-6);
        }
        assert!(report.total_messages() > 0);
    }

    #[test]
    fn residual_metric() {
        let a = Matrix::identity(3);
        assert_eq!(residual(&a, &[1.0, 2.0, 3.0], &[1.0, 2.0, 2.5]), 0.5);
    }
}
