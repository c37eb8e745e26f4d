//! Threaded distributed right-looking LU factorization (without
//! pivoting): the [`hetgrid_plan::factor_plan`] step stream lowered for
//! [`crate::grid`], following the ScaLAPACK structure of Section 3.2.1
//! — factor the diagonal block, solve the pivot block column and row,
//! broadcast them along the plan's destination lists, rank-`r` update
//! the trailing submatrix.
//!
//! Under the lookahead driver the factorization/solve/send actions are
//! critical (they feed the whole grid) and each trailing-update block
//! is its own non-critical action, ordered so the blocks feeding step
//! `k + 1`'s panel — column `k + 1` first, then pivot row `k + 1` —
//! update first. That lets the next panel factorize and its broadcasts
//! depart while the rest of this step's trailing updates drain.
//!
//! Pivoting is omitted (the executor demonstrates distribution
//! correctness and load balance; feed it diagonally dominant matrices).
//! The invariant checked by the tests is the factorization itself:
//! gathering the in-place result and splitting it into unit-lower `L`
//! and upper `U` must reproduce the input, `A = L * U`.

use crate::grid::{self, Kern, Send, Src, Work};
use crate::step::Action;
use hetgrid_plan::Step;

/// Message tags: packed diagonal factors, solved L blocks, solved U
/// blocks.
const TAG_DIAG: u8 = 0;
const TAG_L: u8 = 1;
const TAG_U: u8 = 2;

/// One processor's LU actions for `step`, in program order: diagonal
/// factorization, panel-column solves, pivot-row solves (all critical),
/// then one update action per owned trailing block with the blocks
/// feeding step `k + 1` first. Any other kind of step has no LU
/// actions.
pub(crate) fn lu_actions(step: &Step, my: (usize, usize), owned: &[(usize, usize)]) -> Vec<Action> {
    let Step::Factor {
        k,
        diag,
        diag_dests,
        l_bcasts,
        u_bcasts,
        owners,
        ..
    } = step
    else {
        return Vec::new();
    };
    let k = *k;
    let is_mine = |blk: (usize, usize)| owned.binary_search(&blk).is_ok();
    let packed = Src::of(*diag == my, 0, (k, k), k, TAG_DIAG);
    let mut out = Vec::new();
    if *diag == my {
        // The packed factors go to the panel-column owners (for the L
        // solves) and the pivot-row owners (for the U solves).
        out.push(grid::action(
            k,
            Some("factor"),
            (k, k),
            true,
            vec![Work::on(Kern::Getrf, vec![], (k, k))],
            vec![Send::of(TAG_DIAG, 0, (k, k), diag_dests.clone())],
        ));
    }
    // Solve the owned blocks of panel column k against U11 and of pivot
    // row k against L11; each goes out along its grid row or column.
    let solves = [
        ("panelL", Kern::TrsmRightUpper, TAG_L, &l_bcasts[1..]),
        ("panelU", Kern::TrsmLeftUnitLower, TAG_U, &u_bcasts[..]),
    ];
    for (span, kern, tag, bcasts) in solves {
        for bc in bcasts.iter().filter(|bc| bc.src == my) {
            out.push(grid::action(
                k,
                Some(span),
                bc.block,
                true,
                vec![Work::on(kern, vec![packed], bc.block)],
                vec![Send::of(tag, 0, bc.block, owners.dests(bc))],
            ));
        }
    }
    let mut trailing: Vec<(usize, usize)> = owned
        .iter()
        .copied()
        .filter(|&(bi, bj)| bi > k && bj > k)
        .collect();
    // Step k+1's panel column, then its pivot row, then the rest: the
    // sooner those blocks finish, the sooner the next panel starts.
    trailing.sort_unstable_by_key(|&(bi, bj)| {
        let tier = if bj == k + 1 {
            0
        } else if bi == k + 1 {
            1
        } else {
            2
        };
        (tier, bi, bj)
    });
    for (bi, bj) in trailing {
        let ins = vec![
            Src::of(is_mine((bi, k)), 0, (bi, k), k, TAG_L),
            Src::of(is_mine((k, bj)), 0, (k, bj), k, TAG_U),
        ];
        out.push(grid::action(
            k,
            None,
            (bi, bj),
            false,
            vec![Work::on(Kern::Gemm(-1.0), ins, (bi, bj))],
            vec![],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::testutil::{dominant, lookahead_cases};
    use crate::{run_lu_on_cfg, ChannelTransport, ExecConfig, ExecError, ExecReport};
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matmul;
    use hetgrid_linalg::tri::{unit_lower_from_packed, upper_from_packed};
    use hetgrid_linalg::Matrix;

    fn run_lu(
        a: &Matrix,
        dist: &(dyn BlockDist + Sync),
        nb: usize,
        r: usize,
        weights: &[Vec<u64>],
    ) -> Result<(Matrix, ExecReport), ExecError> {
        let cfg = ExecConfig::default();
        run_lu_on_cfg(&ChannelTransport, a, dist, nb, r, weights, cfg)
    }

    fn check_lu(a: &Matrix, f: &Matrix, tol: f64) {
        let l = unit_lower_from_packed(f);
        let u = upper_from_packed(f);
        let lu = matmul(&l, &u);
        assert!(
            lu.approx_eq(a, tol),
            "A != L*U, max err {}",
            lu.sub(a).max_abs()
        );
    }

    #[test]
    fn lu_cyclic_reconstructs() {
        let nb = 4;
        let r = 3;
        let a = dominant(nb * r, 1);
        let dist = BlockCyclic::new(2, 2);
        let (f, _) = run_lu(&a, &dist, nb, r, &vec![vec![1; 2]; 2]).unwrap();
        check_lu(&a, &f, 1e-8);
    }

    #[test]
    fn lu_panel_reconstructs() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let nb = 8;
        let r = 2;
        let a = dominant(nb * r, 2);
        let w = crate::store::slowdown_weights(&arr);
        let (f, report) = run_lu(&a, &dist, nb, r, &w).unwrap();
        check_lu(&a, &f, 1e-8);
        assert!(report.work_units.iter().flatten().sum::<u64>() > 0);
    }

    #[test]
    fn lu_matches_sequential_factors() {
        // Against the library's blocked LU (which pivots, but a strongly
        // dominant diagonal makes pivoting a no-op).
        let nb = 3;
        let r = 4;
        let a = dominant(nb * r, 3);
        let dist = BlockCyclic::new(1, 2);
        let (f, _) = run_lu(&a, &dist, nb, r, &vec![vec![1; 2]; 1]).unwrap();
        let seq = hetgrid_linalg::lu::lu_factor(&a).unwrap();
        assert_eq!(seq.swaps, 0, "test premise: no pivoting happened");
        assert!(f.approx_eq(&seq.lu, 1e-8));
    }

    #[test]
    fn lookahead_is_bit_exact_with_in_order() {
        let t = ChannelTransport;
        for (dist, w, nb, r) in lookahead_cases() {
            let a = dominant(nb * r, 9);
            let run = |lookahead| {
                run_lu_on_cfg(&t, &a, dist.as_ref(), nb, r, &w, ExecConfig { lookahead })
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
    fn single_processor_lu() {
        let a = dominant(8, 4);
        let dist = BlockCyclic::new(1, 1);
        let (f, _) = run_lu(&a, &dist, 4, 2, &[vec![1]]).unwrap();
        check_lu(&a, &f, 1e-9);
    }
}
