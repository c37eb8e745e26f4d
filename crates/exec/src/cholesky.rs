//! Threaded distributed right-looking Cholesky factorization
//! (`A = L L^T`, lower triangle): the [`hetgrid_plan::cholesky_plan`]
//! step stream lowered for [`crate::grid`]. (QR lives in [`crate::qr`],
//! with its own fan-in/fan-out plan; LU in [`crate::lu`].)
//!
//! Step `k`: the owner of the diagonal block factors it and sends the
//! factor down the panel (the plan's `diag_dests`); panel owners
//! right-solve their blocks and broadcast them along the plan's
//! per-block destination lists to the trailing lower-triangle owners
//! (each block `L(bi, k)` serves both as the left factor for row `bi`
//! and, transposed, as the right factor for column `bi`); the trailing
//! lower-triangle blocks are then updated. Under the lookahead driver
//! the factor/solve actions are critical and each trailing block is an
//! independent action, column `k + 1` first, so the next panel starts
//! while this step's updates drain.

use crate::grid::{self, Kern, Send, Src, Work};
use crate::step::Action;
use hetgrid_plan::Step;

/// Message tags: the diagonal Cholesky factor, solved panel blocks.
const TAG_DIAG: u8 = 0;
const TAG_L: u8 = 1;

/// One processor's Cholesky actions for `step`, in program order:
/// diagonal factorization, panel right-solves (critical), then one
/// update action per owned trailing lower-triangle block with column
/// `k + 1` first. Any other kind of step has no Cholesky actions.
pub(crate) fn cholesky_actions(
    step: &Step,
    my: (usize, usize),
    owned: &[(usize, usize)],
) -> Vec<Action> {
    let Step::Cholesky {
        k,
        diag,
        diag_dests,
        panel_bcasts,
        owners,
        ..
    } = step
    else {
        return Vec::new();
    };
    let k = *k;
    let is_mine = |blk: (usize, usize)| owned.binary_search(&blk).is_ok();
    let mut out = Vec::new();
    if *diag == my {
        out.push(grid::action(
            k,
            Some("factor"),
            (k, k),
            true,
            vec![Work::on(Kern::Potrf, vec![], (k, k))],
            vec![Send::of(TAG_DIAG, 0, (k, k), diag_dests.clone())],
        ));
    }
    // Panel right-solve: A_ik := A_ik * L_kk^{-T}.
    let lkk = Src::of(*diag == my, 0, (k, k), k, TAG_DIAG);
    for bc in panel_bcasts.iter().filter(|bc| bc.src == my) {
        out.push(grid::action(
            k,
            Some("panel"),
            bc.block,
            true,
            vec![Work::on(Kern::TrsmRightLowerT, vec![lkk], bc.block)],
            vec![Send::of(TAG_L, 0, bc.block, owners.dests(bc))],
        ));
    }
    let mut trailing: Vec<(usize, usize)> = owned
        .iter()
        .copied()
        .filter(|&(bi, bj)| bi > k && bj > k && bj <= bi)
        .collect();
    // Column k+1 feeds step k+1's panel: update it first.
    trailing.sort_unstable_by_key(|&(bi, bj)| (usize::from(bj != k + 1), bi, bj));
    // Symmetric trailing update of one owned lower block:
    // A_ij -= L_ik * L_jk^T.
    for (bi, bj) in trailing {
        let ins = [bi, bj]
            .map(|b| Src::of(is_mine((b, k)), 0, (b, k), k, TAG_L))
            .to_vec();
        out.push(grid::action(
            k,
            None,
            (bi, bj),
            false,
            vec![Work::on(Kern::GemmNt(-1.0), ins, (bi, bj))],
            vec![],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::testutil::{lookahead_cases, spd};
    use crate::{run_cholesky_on_cfg, ChannelTransport, ExecConfig, ExecError, ExecReport};
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matmul;
    use hetgrid_linalg::Matrix;

    fn run_cholesky(
        a: &Matrix,
        dist: &(dyn BlockDist + Sync),
        nb: usize,
        r: usize,
        weights: &[Vec<u64>],
    ) -> Result<(Matrix, ExecReport), ExecError> {
        let cfg = ExecConfig::default();
        run_cholesky_on_cfg(&ChannelTransport, a, dist, nb, r, weights, cfg)
    }

    fn check(a: &Matrix, l: &Matrix, tol: f64) {
        let llt = matmul(l, &l.transpose());
        assert!(
            llt.approx_eq(a, tol),
            "A != L L^T, max err {}",
            llt.sub(a).max_abs()
        );
    }

    #[test]
    fn cholesky_cyclic_reconstructs() {
        let nb = 4;
        let r = 3;
        let a = spd(nb * r, 0xC0);
        let dist = BlockCyclic::new(2, 2);
        let (l, _) = run_cholesky(&a, &dist, nb, r, &vec![vec![1; 2]; 2]).unwrap();
        check(&a, &l, 1e-8);
    }

    #[test]
    fn cholesky_panel_with_weights() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let nb = 8;
        let r = 2;
        let a = spd(nb * r, 0xC1);
        let w = crate::store::slowdown_weights(&arr);
        let (l, report) = run_cholesky(&a, &dist, nb, r, &w).unwrap();
        check(&a, &l, 1e-8);
        assert!(report.work_units.iter().flatten().sum::<u64>() > 0);
    }

    #[test]
    fn cholesky_matches_sequential() {
        let nb = 3;
        let r = 4;
        let a = spd(nb * r, 0xC2);
        let dist = BlockCyclic::new(1, 2);
        let (l, _) = run_cholesky(&a, &dist, nb, r, &[vec![1; 2]]).unwrap();
        let seq = hetgrid_linalg::cholesky::cholesky_blocked(&a, r).unwrap();
        assert!(l.approx_eq(&seq, 1e-8));
    }

    #[test]
    fn lookahead_is_bit_exact_with_in_order() {
        let t = ChannelTransport;
        for (dist, w, nb, r) in lookahead_cases() {
            let a = spd(nb * r, 0xC4);
            let run = |lookahead| {
                run_cholesky_on_cfg(&t, &a, dist.as_ref(), nb, r, &w, ExecConfig { lookahead })
                    .unwrap()
                    .0
            };
            let inorder = run(0);
            for depth in 1..=3 {
                assert!(
                    run(depth).approx_eq(&inorder, 0.0),
                    "nb {nb} r {r} depth {depth} diverged from in-order"
                );
            }
        }
    }

    #[test]
    fn single_processor_cholesky() {
        let a = spd(8, 0xC3);
        let dist = BlockCyclic::new(1, 1);
        let (l, _) = run_cholesky(&a, &dist, 4, 2, &[vec![1]]).unwrap();
        check(&a, &l, 1e-9);
    }
}
