//! Threaded distributed outer-product matrix multiplication: the
//! [`hetgrid_plan::mm_rect_plan`] step stream interpreted over real
//! threads (horizontal broadcasts of the pivot block column of `A`,
//! vertical broadcasts of the pivot block row of `B`, Section 3.1.1).
//! Heterogeneity is emulated by integer *slowdown weights*: processor
//! `(i, j)` repeats every block kernel `w_ij` times.
//!
//! Under the lookahead driver each step is two actions: a critical
//! `MmSend` (no dependencies — the pivot panels of step `k + 1` can go
//! out while step `k`'s update still runs) and one `MmUpdate` touching
//! every owned C block, so updates of consecutive steps stay in order
//! per block while communication overlaps compute.

use crate::pool::PoolClone;
use crate::step::{block_bytes, Action, Courier, Op, StepInterp, WorkClock};
use crate::store::BlockStore;
use crate::transport::Closed;
use hetgrid_linalg::gemm::gemm;
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Plan, Step};
use std::sync::Arc;
use std::time::Instant;

/// Message tags: a block of `A` or of `B`. Payloads are `Arc`-shared: a
/// broadcast clones the block once and each recipient only bumps the
/// refcount, so fanning a pivot block out to a whole row or column of
/// the grid costs one deep copy, not one per destination.
const TAG_A: u8 = 0;
const TAG_B: u8 = 1;

/// One processor's MM actions for `step`: a critical dependency-free
/// broadcast of its pivot panel blocks, then one update of every owned
/// C block needing the foreign pivot blocks of this step.
pub(crate) fn mm_actions(step: &Step, my: (usize, usize), owned: &[(usize, usize)]) -> Vec<Action> {
    let Step::Mm {
        k,
        a_bcasts,
        b_bcasts,
    } = step
    else {
        panic!("run_mm: non-MM step in plan")
    };
    let k = *k;
    let mut out = Vec::new();
    if [a_bcasts, b_bcasts]
        .iter()
        .any(|bcs| bcs.iter().any(|bc| bc.src == my && !bc.dests.is_empty()))
    {
        out.push(Action {
            step: k,
            op: Op::MmSend,
            blk: (k, k),
            crit: true,
            needs: vec![],
            // A/B panel blocks are never written; no conflicts to track.
            reads: vec![],
            writes: vec![],
        });
    }
    if !owned.is_empty() {
        out.push(Action {
            step: k,
            op: Op::MmUpdate,
            blk: (k, k),
            crit: false,
            needs: a_bcasts
                .iter()
                .filter(|bc| bc.dests.contains(&my))
                .map(|bc| (k, TAG_A, bc.block))
                .chain(
                    b_bcasts
                        .iter()
                        .filter(|bc| bc.dests.contains(&my))
                        .map(|bc| (k, TAG_B, bc.block)),
                )
                .collect(),
            reads: vec![],
            writes: owned.iter().map(|&(bi, bj)| (0, bi, bj)).collect(),
        });
    }
    out
}

/// One processor's MM worker: its read-only `A`/`B` blocks and the `C`
/// blocks it accumulates into (`c_blocks` starts as the epoch baseline —
/// zeros for a fresh run, the checkpointed state when resuming).
pub(crate) struct MmInterp<'a> {
    plan: &'a Plan,
    my: (usize, usize),
    owned: &'a [(usize, usize)],
    my_a: &'a BlockStore,
    my_b: &'a BlockStore,
    c_blocks: BlockStore,
    scratch: Matrix,
    block_bytes: u64,
}

impl<'a> MmInterp<'a> {
    pub(crate) fn new(
        plan: &'a Plan,
        my: (usize, usize),
        owned: &'a [(usize, usize)],
        my_a: &'a BlockStore,
        my_b: &'a BlockStore,
        c_blocks: BlockStore,
        r: usize,
    ) -> Self {
        MmInterp {
            plan,
            my,
            owned,
            my_a,
            my_b,
            c_blocks,
            scratch: Matrix::zeros(r, r),
            block_bytes: block_bytes(r),
        }
    }
}

impl StepInterp for MmInterp<'_> {
    type P = Arc<Matrix>;

    fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    fn emit(&self, k: usize, out: &mut Vec<Action>) {
        out.extend(mm_actions(&self.plan.steps[k], self.my, self.owned));
    }

    fn peek(&self, blk: (usize, usize)) -> Option<&Matrix> {
        self.c_blocks.get(&blk)
    }

    fn into_store(self) -> BlockStore {
        self.c_blocks
    }

    fn execute(
        &mut self,
        a: &Action,
        courier: &mut Courier<Arc<Matrix>>,
        clock: &mut WorkClock,
    ) -> Result<(), Closed> {
        let Step::Mm {
            k,
            a_bcasts,
            b_bcasts,
        } = &self.plan.steps[a.step]
        else {
            unreachable!("emit checked the step kind")
        };
        let k = *k;
        match a.op {
            Op::MmSend => {
                let mut bcast_span = courier.span_with(|| format!("bcast {k}"));
                let sent_before = courier.sent();
                for (tag, bcasts) in [(TAG_A, a_bcasts), (TAG_B, b_bcasts)] {
                    for bc in bcasts {
                        if bc.src != self.my || bc.dests.is_empty() {
                            continue;
                        }
                        let store = if tag == TAG_A { self.my_a } else { self.my_b };
                        // One pool-backed copy; recipients share it via
                        // the Arc and the last drop reshelves it.
                        let payload = Arc::new(store[&bc.block].pool_clone(courier.pool_mut()));
                        courier.bcast(&bc.dests, k, tag, bc.block, &payload, self.block_bytes)?;
                    }
                }
                if let Some(g) = bcast_span.as_mut() {
                    g.arg_u64("msgs", courier.sent() - sent_before);
                }
            }
            Op::MmUpdate => {
                let mut compute_span = courier.span_with(|| format!("compute {k}"));
                let units_before = clock.units;
                let t0 = Instant::now();
                for &(bi, bj) in self.owned {
                    let ablk: &Matrix = match self.my_a.get(&(bi, k)) {
                        Some(m) => m,
                        None => courier.get(k, TAG_A, (bi, k)),
                    };
                    let bblk: &Matrix = match self.my_b.get(&(k, bj)) {
                        Some(m) => m,
                        None => courier.get(k, TAG_B, (k, bj)),
                    };
                    let c = self.c_blocks.get_mut(&(bi, bj)).expect("C block missing");
                    gemm(1.0, ablk, bblk, 1.0, c);
                    for _ in 1..clock.weight() {
                        gemm(1.0, ablk, bblk, 0.0, &mut self.scratch);
                    }
                    clock.charge(1);
                }
                clock.add_busy(t0.elapsed().as_secs_f64());
                courier.step_done(t0.elapsed().as_secs_f64());
                if let Some(g) = compute_span.as_mut() {
                    g.arg_u64("units", clock.units - units_before);
                }
            }
            op => unreachable!("non-MM action {op:?} in MM plan"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dense, uniform};
    use crate::{
        run_mm_on_cfg, run_mm_rect_on_cfg, ChannelTransport, ExecConfig, ExecError, ExecReport,
    };
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matmul;

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
        let nb = 8;
        let r = 2;
        let a = dense(nb * r, nb * r, 11);
        let b = dense(nb * r, nb * r, 12);
        let w = crate::store::slowdown_weights(&arr);
        let t = ChannelTransport;
        let run = |lookahead| {
            run_mm_on_cfg(&t, &a, &b, &dist, nb, r, &w, ExecConfig { lookahead })
                .unwrap()
                .0
        };
        let inorder = run(0);
        for depth in [1, 3] {
            assert!(
                run(depth).approx_eq(&inorder, 0.0),
                "depth {depth} diverged from in-order"
            );
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
    fn rect_mm_matches_sequential() {
        // C(8x4 blocks) = A(8x6) * B(6x4), r = 2.
        let (mb, nb, kb) = (8usize, 4usize, 6usize);
        let r = 2;
        let a = dense(mb * r, kb * r, 0x31);
        let b = dense(kb * r, nb * r, 0x32);
        let dist = BlockCyclic::new(2, 2);
        let (c, _) = run_mm_rect_on_cfg(
            &ChannelTransport,
            &a,
            &b,
            &dist,
            (mb, nb, kb),
            r,
            &uniform(2, 2),
            ExecConfig::default(),
        )
        .unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
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
