//! Threaded distributed outer-product matrix multiplication: the
//! [`hetgrid_plan::mm_rect_plan`] step stream lowered for
//! [`crate::grid`] (horizontal broadcasts of the pivot block column of
//! `A`, vertical broadcasts of the pivot block row of `B`, Section
//! 3.1.1). Heterogeneity is emulated by integer *slowdown weights*:
//! processor `(i, j)` repeats every block kernel `w_ij` times.
//!
//! Under the lookahead driver each step is two actions: a critical
//! `bcast` (no dependencies — the pivot panels of step `k + 1` can go
//! out while step `k`'s update still runs) and one `compute` with a
//! GEMM per owned C block, so updates of consecutive steps stay in
//! order per block while communication overlaps compute.

use crate::grid::{self, Kern, Send, Src, Work};
use crate::step::Action;
use hetgrid_plan::Step;

/// Message tags: a block of `A` or of `B`.
const TAG_A: u8 = 0;
const TAG_B: u8 = 1;
/// Store namespaces of the read-only operands ([`Src::Own`]).
const NS_A: u8 = 1;
const NS_B: u8 = 2;

/// One processor's MM actions for `step`: a critical dependency-free
/// broadcast of its pivot panel blocks, then one update of every owned
/// C block needing the foreign pivot blocks of this step. Any other
/// kind of step has no MM actions.
pub(crate) fn mm_actions(step: &Step, my: (usize, usize), owned: &[(usize, usize)]) -> Vec<Action> {
    let Step::Mm {
        k,
        a_bcasts,
        b_bcasts,
        owners,
    } = step
    else {
        return Vec::new();
    };
    let k = *k;
    let sends: Vec<Send> = [(TAG_A, NS_A, a_bcasts), (TAG_B, NS_B, b_bcasts)]
        .into_iter()
        .flat_map(|(tag, ns, bcasts)| {
            bcasts
                .iter()
                .filter(|bc| bc.src == my)
                .map(move |bc| Send::of(tag, ns, bc.block, owners.dests(bc)))
        })
        .filter(|send| !send.dests.is_empty())
        .collect();
    let mut out = Vec::new();
    if !sends.is_empty() {
        let span = Some("bcast");
        out.push(grid::action(k, span, (k, k), true, vec![], sends));
    }
    if !owned.is_empty() {
        // The plan lists block `(bi, k)` of `A` at `a_bcasts[bi]` and
        // `(k, bj)` of `B` at `b_bcasts[bj]`, each with its owner.
        let work = owned
            .iter()
            .map(|&(bi, bj)| {
                let ins = vec![
                    Src::of(a_bcasts[bi].src == my, NS_A, (bi, k), k, TAG_A),
                    Src::of(b_bcasts[bj].src == my, NS_B, (k, bj), k, TAG_B),
                ];
                Work::on(Kern::Gemm(1.0), ins, (bi, bj))
            })
            .collect();
        out.push(grid::action(
            k,
            Some("compute"),
            (k, k),
            false,
            work,
            vec![],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::testutil::{dense, lookahead_cases, uniform};
    use crate::{run_mm_on_cfg, ChannelTransport, ExecConfig, ExecError, ExecReport};
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matmul;
    use hetgrid_linalg::Matrix;

    fn run_mm(
        a: &Matrix,
        b: &Matrix,
        dist: &(dyn BlockDist + Sync),
        nb: usize,
        r: usize,
        weights: &[Vec<u64>],
    ) -> Result<(Matrix, ExecReport), ExecError> {
        let cfg = ExecConfig::default();
        run_mm_on_cfg(&ChannelTransport, a, b, dist, nb, r, weights, cfg)
    }

    #[test]
    fn mm_matches_sequential_cyclic() {
        let nb = 4;
        let r = 3;
        let a = dense(nb * r, nb * r, 1);
        let b = dense(nb * r, nb * r, 2);
        let dist = BlockCyclic::new(2, 2);
        let (c, report) = run_mm(&a, &b, &dist, nb, r, &uniform(2, 2)).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
        assert_eq!(
            report.work_units.iter().flatten().sum::<u64>() as usize,
            nb * nb * nb
        );
    }

    #[test]
    fn mm_matches_sequential_panel() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let nb = 8;
        let r = 2;
        let a = dense(nb * r, nb * r, 3);
        let b = dense(nb * r, nb * r, 4);
        let w = crate::store::slowdown_weights(&arr);
        let (c, report) = run_mm(&a, &b, &dist, nb, r, &w).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
        // Weighted work should be close to balanced for this rank-1 grid.
        assert!(
            report.work_imbalance() < 1.4,
            "work imbalance {}",
            report.work_imbalance()
        );
    }

    #[test]
    fn mm_matches_sequential_kl() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let dist = KlDist::new(&arr, 4, 6);
        let nb = 6;
        let r = 2;
        let a = dense(nb * r, nb * r, 5);
        let b = dense(nb * r, nb * r, 6);
        let (c, _) = run_mm(&a, &b, &dist, nb, r, &uniform(2, 2)).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
    }

    #[test]
    fn lookahead_is_bit_exact_with_in_order() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let mut cases = lookahead_cases();
        cases.push((Box::new(dist), crate::store::slowdown_weights(&arr), 8, 2));
        let t = ChannelTransport;
        for (dist, w, nb, r) in cases {
            let a = dense(nb * r, nb * r, 11);
            let b = dense(nb * r, nb * r, 12);
            let run = |lookahead| {
                let cfg = ExecConfig { lookahead };
                run_mm_on_cfg(&t, &a, &b, dist.as_ref(), nb, r, &w, cfg)
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
    fn cyclic_work_imbalance_reflects_heterogeneity() {
        // With slowdown weights on a uniform distribution, the weighted
        // work is imbalanced by ~max(w)/mean(w).
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let dist = BlockCyclic::new(2, 2);
        let nb = 4;
        let r = 2;
        let a = dense(nb * r, nb * r, 7);
        let b = dense(nb * r, nb * r, 8);
        let w = crate::store::slowdown_weights(&arr);
        let (_, report) = run_mm(&a, &b, &dist, nb, r, &w).unwrap();
        // weights 1,2,3,6, equal counts -> imbalance 6 / 3 = 2.
        assert!((report.work_imbalance() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_processor() {
        let a = dense(6, 6, 9);
        let b = dense(6, 6, 10);
        let dist = BlockCyclic::new(1, 1);
        let (c, report) = run_mm(&a, &b, &dist, 3, 2, &uniform(1, 1)).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
        assert_eq!(report.total_messages(), 0, "no peers, no messages");
    }

    #[test]
    fn message_volume_equal_panel_vs_kl() {
        // Per-block payload volume is the same for panel and KL layouts
        // (each block of the pivot column/row reaches one processor per
        // grid column/row); KL's penalty is in the number of *distinct
        // broadcasts* — i.e. per-message latency — which the simulator
        // measures (see hetgrid-sim's kl_pays_more_messages_than_panel).
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let kl = KlDist::new(&arr, 4, 6);
        let nb = 12;
        let r = 2;
        let a = dense(nb * r, nb * r, 21);
        let b = dense(nb * r, nb * r, 22);
        let w = uniform(2, 2);
        let (_, rep_panel) = run_mm(&a, &b, &panel, nb, r, &w).unwrap();
        let (_, rep_kl) = run_mm(&a, &b, &kl, nb, r, &w).unwrap();
        assert!(rep_panel.total_messages() > 0);
        assert_eq!(rep_kl.total_messages(), rep_panel.total_messages());
    }
}
