//! Threaded distributed Householder QR: the [`hetgrid_plan::qr_plan`]
//! fan-in/fan-out step stream interpreted over real threads.
//!
//! QR's panel factorization couples all panel rows through the
//! reflector norms, so unlike LU/Cholesky the panel cannot be solved
//! block-locally. Step `k` instead runs a fan-in cycle (Section 3.2.2
//! notes QR parallelizes "analogously" to LU at this granularity): the
//! panel blocks `(bi, k)` fan in to the diagonal owner, which factors
//! the stacked panel with [`qr_factor_with`] and scatters the packed
//! reflector segments back; the packed panel factors are broadcast to
//! the trailing column heads; each head gathers its column, applies
//! `Q^T` to the stacked column in place, and scatters the updated
//! blocks back.
//!
//! Both kernels run through the worker's own [`Packs`], as the grid
//! interpreter's do: above `linalg::qr`'s leaf they are GEMMs with a
//! compact-WY `T`. The wire carries the packed factors and the scalars
//! only; a remote head rebuilds `T` with
//! [`QrFactors::from_parts`](hetgrid_linalg::qr::QrFactors::from_parts),
//! which applies exactly the diagonal owner's bits, and keeps it with
//! the step's factors. Every block op is a pure function of its inputs,
//! so the result is the same to the bit at every lookahead depth.
//!
//! Under the lookahead driver the fan-in sends, the panel
//! factorization, and the segment receives are critical actions; each
//! trailing column's `Q^T` application is an independent non-critical
//! action, so step `k + 1`'s fan-in begins while step `k`'s columns
//! still update. The packed panel factors of step `k` are modeled as a
//! pseudo-resource `(3, k, 0)` so column applications on the diagonal
//! owner order after its factorization.
//!
//! The gathered result is the *globally packed* factorization:
//! Householder vectors below the block diagonal of each panel column,
//! `R` on and above, with the Householder scalars (`nb * r` of them,
//! panel-major) alongside. [`qr_unpack`] rebuilds `(Q, R)` from both.

use crate::step::{Action, Courier, Op, StepInterp, WorkClock};
use crate::store::BlockStore;
use crate::transport::Closed;
use hetgrid_linalg::gemm::Packs;
use hetgrid_linalg::qr::{qr_factor_with, QrFactors};
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Plan, Step};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Message tags: panel fan-in, reflector segment scatter-back, packed
/// panel factor broadcast, column gather, updated column scatter-back.
/// Every payload is one `r x r` block except `TAG_REFL`'s: the stacked
/// panel's `nk*r x r` packed factors with the `r` Householder scalars
/// as one more row.
const TAG_PANEL: u8 = 0;
const TAG_SEG: u8 = 1;
const TAG_REFL: u8 = 2;
const TAG_COL: u8 = 3;
const TAG_COLRET: u8 = 4;

/// Rebuilds `(Q, R)` from a QR run's globally packed factors: `Q` is
/// `n x n` orthogonal, `R` upper triangular, `A = Q * R`. Accumulates
/// `Q` backwards, as [`qr_blocked`](hetgrid_linalg::qr::qr_blocked)
/// does: `Q = Q_0 (Q_1 (... (Q_{nb-1} I)))`.
///
/// # Panics
/// Panics if `packed` is not `nb * r` square or `taus` is not `nb * r`
/// long.
pub fn qr_unpack(packed: &Matrix, taus: &[f64], nb: usize, r: usize) -> (Matrix, Matrix) {
    let n = nb * r;
    assert_eq!(packed.shape(), (n, n), "qr_unpack: packed shape mismatch");
    assert_eq!(taus.len(), n, "qr_unpack: tau count mismatch");
    let mut q = Matrix::identity(n);
    for k0 in (0..nb).rev().map(|k| k * r) {
        let pf = QrFactors::from_parts(packed.block(k0, k0, n - k0, r), taus[k0..k0 + r].to_vec());
        // Panel `k` acts on rows `k0..`, where every column left of
        // `k0` is still zero.
        let block = q.block(k0, k0, n - k0, n - k0);
        q.set_block(k0, k0, &pf.q_mul(&block));
    }
    let rmat = Matrix::from_fn(n, n, |i, j| if i <= j { packed[(i, j)] } else { 0.0 });
    (q, rmat)
}

/// One processor's QR actions for `step`, in program order: fan-in
/// sends first (panel blocks to the diagonal owner, column members to
/// their heads — before any receive, so the step's send/receive graph
/// stays acyclic), then factor / take-segment, then the column
/// applications, then the updated-column receives.
pub(crate) fn qr_actions(step: &Step, my: (usize, usize)) -> Vec<Action> {
    let Step::Qr {
        k,
        diag,
        panel,
        reflector_dests: _,
        columns,
    } = step
    else {
        panic!("run_qr: non-QR step in plan")
    };
    let k = *k;
    let mut out = Vec::new();
    if *diag != my {
        for &((bi, bk), owner) in panel {
            if owner == my {
                out.push(Action {
                    step: k,
                    op: Op::QrSendPanel,
                    blk: (bi, bk),
                    crit: true,
                    needs: vec![],
                    reads: vec![(0, bi, bk)],
                    writes: vec![],
                });
            }
        }
    }
    for col in columns {
        if col.head == my {
            continue;
        }
        for &((bi, bj), owner) in &col.members {
            if owner == my {
                out.push(Action {
                    step: k,
                    op: Op::QrSendCol,
                    blk: (bi, bj),
                    crit: true,
                    needs: vec![],
                    reads: vec![(0, bi, bj)],
                    writes: vec![],
                });
            }
        }
    }
    if *diag == my {
        let mut needs = vec![];
        let mut writes = vec![(3, k, 0)];
        for &((bi, _), owner) in panel {
            if owner == my {
                writes.push((0, bi, k));
            } else {
                needs.push((k, TAG_PANEL, (bi, k)));
            }
        }
        out.push(Action {
            step: k,
            op: Op::QrFactor,
            blk: (k, k),
            crit: true,
            needs,
            reads: vec![],
            writes,
        });
    } else {
        for &((bi, _), owner) in panel {
            if owner == my {
                out.push(Action {
                    step: k,
                    op: Op::QrTakeSeg,
                    blk: (bi, k),
                    crit: true,
                    needs: vec![(k, TAG_SEG, (bi, k))],
                    reads: vec![],
                    writes: vec![(0, bi, k)],
                });
            }
        }
    }
    for col in columns {
        if col.head != my {
            continue;
        }
        let (mut needs, mut reads) = (vec![], vec![]);
        if *diag == my {
            reads.push((3, k, 0));
        } else {
            needs.push((k, TAG_REFL, (k, k)));
        }
        let mut writes = vec![(0, k, col.bj)];
        for &((bi, bj), owner) in &col.members {
            if owner == my {
                writes.push((0, bi, bj));
            } else {
                needs.push((k, TAG_COL, (bi, bj)));
            }
        }
        out.push(Action {
            step: k,
            op: Op::QrColUpdate,
            blk: (k, col.bj),
            crit: false,
            needs,
            reads,
            writes,
        });
    }
    for col in columns {
        if col.head == my {
            continue;
        }
        for &((bi, bj), owner) in &col.members {
            if owner == my {
                out.push(Action {
                    step: k,
                    op: Op::QrTakeColRet,
                    blk: (bi, bj),
                    crit: true,
                    needs: vec![(k, TAG_COLRET, (bi, bj))],
                    reads: vec![],
                    writes: vec![(0, bi, bj)],
                });
            }
        }
    }
    out
}

/// One processor's QR worker over its blocks of the matrix being
/// factored in place.
pub(crate) struct QrInterp<'a> {
    plan: &'a Plan,
    r: usize,
    my: (usize, usize),
    blocks: BlockStore,
    /// Each step's Householder scalars, reported by whichever worker
    /// owned that step's diagonal block. A resumed epoch *overwrites*
    /// (not appends) the slots of the steps it re-runs, so replayed
    /// work lands bit-identically and scalars from steps retired before
    /// a fault survive untouched.
    taus_acc: &'a Mutex<Vec<Vec<f64>>>,
    /// Packed panel factors by step, kept while the step's column
    /// applications may still run; dropped on retire.
    factors: HashMap<usize, QrFactors>,
    packs: Packs,
}

impl<'a> QrInterp<'a> {
    pub(crate) fn new(
        plan: &'a Plan,
        my: (usize, usize),
        blocks: BlockStore,
        r: usize,
        taus_acc: &'a Mutex<Vec<Vec<f64>>>,
    ) -> Self {
        QrInterp {
            plan,
            r,
            my,
            blocks,
            taus_acc,
            factors: HashMap::new(),
            packs: Packs::default(),
        }
    }
}

impl StepInterp for QrInterp<'_> {
    fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    fn emit(&self, k: usize, out: &mut Vec<Action>) {
        out.extend(qr_actions(&self.plan.steps[k], self.my));
    }

    fn peek(&self, blk: (usize, usize)) -> Option<&Matrix> {
        self.blocks.get(&blk)
    }

    fn into_store(self: Box<Self>) -> BlockStore {
        self.blocks
    }

    fn execute(
        &mut self,
        a: &Action,
        courier: &mut Courier,
        clock: &mut WorkClock,
    ) -> Result<(), Closed> {
        let Step::Qr {
            k,
            diag,
            panel,
            reflector_dests,
            columns,
        } = &self.plan.steps[a.step]
        else {
            unreachable!("emit checked the step kind")
        };
        let k = *k;
        let r = self.r;
        let nk = panel.len(); // nb - k stacked panel blocks
        match a.op {
            Op::QrSendPanel => {
                let payload = courier.pool_mut().dup(&self.blocks[&a.blk]);
                courier.send(*diag, k, TAG_PANEL, a.blk, payload)?;
            }
            Op::QrSendCol => {
                let col = columns
                    .iter()
                    .find(|c| c.bj == a.blk.1)
                    .expect("column for fan-in send");
                let payload = courier.pool_mut().dup(&self.blocks[&a.blk]);
                courier.send(col.head, k, TAG_COL, a.blk, payload)?;
            }
            // Stack the panel, factor it, scatter the packed reflector
            // segments back, broadcast the factors to the column heads.
            Op::QrFactor => {
                let _span = courier.span_with(|| format!("factor {k}"));
                // Pool buffer with stale contents: the loop below
                // writes every row block (bi ranges over k..nb).
                let mut stacked = courier.pool_mut().take(nk * r, r);
                for &((bi, _), owner) in panel {
                    if owner == self.my {
                        stacked.set_block((bi - k) * r, 0, &self.blocks[&(bi, k)]);
                    } else {
                        let blk = courier.take(k, TAG_PANEL, (bi, k))?;
                        stacked.set_block((bi - k) * r, 0, &blk);
                        courier.pool_mut().put(blk);
                    }
                }
                let packs = &mut self.packs;
                let pf = clock.run(2 * nk as u64, |weight| {
                    for _ in 1..weight {
                        qr_factor_with(packs, &stacked);
                    }
                    qr_factor_with(packs, &stacked)
                });
                courier.pool_mut().put(stacked);
                for &((bi, _), owner) in panel {
                    let seg = pf.packed().block((bi - k) * r, 0, r, r);
                    if owner == self.my {
                        if let Some(old) = self.blocks.insert((bi, k), seg) {
                            courier.pool_mut().put(old);
                        }
                    } else {
                        courier.send(owner, k, TAG_SEG, (bi, k), Arc::new(seg))?;
                    }
                }
                self.taus_acc.lock().unwrap_or_else(|p| p.into_inner())[k] = pf.taus().to_vec();
                if !reflector_dests.is_empty() {
                    // Stale pool buffer: both writes together cover it.
                    let mut factors = courier.pool_mut().take(nk * r + 1, r);
                    factors.set_block(0, 0, pf.packed());
                    factors.row_mut(nk * r).copy_from_slice(pf.taus());
                    courier.bcast(reflector_dests, k, TAG_REFL, (k, k), Arc::new(factors))?;
                }
                self.factors.insert(k, pf);
            }
            Op::QrTakeSeg => {
                let seg = courier.take(k, TAG_SEG, a.blk)?;
                if let Some(old) = self.blocks.insert(a.blk, seg) {
                    courier.pool_mut().put(old);
                }
            }
            // Gather one owned trailing column, apply Q^T of the
            // stacked panel, scatter the updated blocks back.
            Op::QrColUpdate => {
                let _span = courier.span_with(|| format!("apply {k}"));
                let col = columns
                    .iter()
                    .find(|c| c.bj == a.blk.1)
                    .expect("column for update");
                if let std::collections::hash_map::Entry::Vacant(slot) = self.factors.entry(k) {
                    let f = courier.get(k, TAG_REFL, (k, k));
                    let (packed, taus) = (f.block(0, 0, nk * r, r), f.row(nk * r).to_vec());
                    slot.insert(QrFactors::from_parts(packed, taus));
                }
                let t0 = Instant::now();
                // Pool buffer with stale contents: head block fills row
                // 0, the members fill every remaining row block.
                let mut stacked = courier.pool_mut().take(nk * r, r);
                stacked.set_block(0, 0, &self.blocks[&(k, col.bj)]);
                for &((bi, bj), owner) in &col.members {
                    if owner == self.my {
                        stacked.set_block((bi - k) * r, 0, &self.blocks[&(bi, bj)]);
                    } else {
                        let blk = courier.take(k, TAG_COL, (bi, bj))?;
                        stacked.set_block((bi - k) * r, 0, &blk);
                        courier.pool_mut().put(blk);
                    }
                }
                let (pf, packs) = (&self.factors[&k], &mut self.packs);
                let col_blocks = col.members.len() as u64 + 1;
                // In place on the stacked column; the repeats go first, on
                // copies of it.
                let mut scratch = (clock.weight > 1).then(|| courier.pool_mut().take(nk * r, r));
                clock.run(2 * col_blocks, |weight| {
                    if let Some(copy) = scratch.as_mut() {
                        for _ in 1..weight {
                            copy.copy_from(&stacked);
                            pf.qt_mul_with(packs, copy);
                        }
                    }
                    pf.qt_mul_with(packs, &mut stacked);
                });
                if let Some(copy) = scratch {
                    courier.pool_mut().put(copy);
                }
                if let Some(old) = self.blocks.insert((k, col.bj), stacked.block(0, 0, r, r)) {
                    courier.pool_mut().put(old);
                }
                for &((bi, bj), owner) in &col.members {
                    let blk = stacked.block((bi - k) * r, 0, r, r);
                    if owner == self.my {
                        if let Some(old) = self.blocks.insert((bi, bj), blk) {
                            courier.pool_mut().put(old);
                        }
                    } else {
                        courier.send(owner, k, TAG_COLRET, (bi, bj), Arc::new(blk))?;
                    }
                }
                courier.pool_mut().put(stacked);
                courier.step_done(t0.elapsed().as_secs_f64());
            }
            Op::QrTakeColRet => {
                let blk = courier.take(k, TAG_COLRET, a.blk)?;
                if let Some(old) = self.blocks.insert(a.blk, blk) {
                    courier.pool_mut().put(old);
                }
            }
            ref op => unreachable!("non-QR action {op:?} in QR plan"),
        }
        Ok(())
    }

    fn retire(&mut self, k: usize) {
        self.factors.remove(&k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dense, fnv1a, lookahead_cases, paper_grid};
    use crate::{run_qr_on_cfg, ChannelTransport, ExecConfig, ExecError, ExecReport};
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matmul;

    fn run_qr(
        a: &Matrix,
        dist: &(dyn BlockDist + Sync),
        nb: usize,
        r: usize,
        weights: &[Vec<u64>],
    ) -> Result<(Matrix, Vec<f64>, ExecReport), ExecError> {
        let cfg = ExecConfig::default();
        run_qr_on_cfg(&ChannelTransport, a, dist, nb, r, weights, cfg)
    }

    fn check_qr(a: &Matrix, packed: &Matrix, taus: &[f64], nb: usize, r: usize, tol: f64) {
        let (qm, rmat) = qr_unpack(packed, taus, nb, r);
        let reconstructed = matmul(&qm, &rmat);
        assert!(
            reconstructed.approx_eq(a, tol),
            "A != Q R, max err {}",
            reconstructed.sub(a).max_abs()
        );
        let n = nb * r;
        let qtq = matmul(&qm.transpose(), &qm);
        assert!(
            qtq.approx_eq(&Matrix::identity(n), tol),
            "Q not orthonormal, max err {}",
            qtq.sub(&Matrix::identity(n)).max_abs()
        );
    }

    #[test]
    fn qr_cyclic_reconstructs() {
        let nb = 4;
        let r = 3;
        let a = dense(nb * r, nb * r, 0xA1);
        let dist = BlockCyclic::new(2, 2);
        let (packed, taus, _) = run_qr(&a, &dist, nb, r, &vec![vec![1; 2]; 2]).unwrap();
        check_qr(&a, &packed, &taus, nb, r, 1e-9);
    }

    /// The distributed schedule performs `qr_blocked`'s arithmetic: the
    /// same panel factorisations, and `Q^T` applied a block column at a
    /// time where `qr_blocked` applies it to the whole trailing matrix —
    /// the same bits, since `qt_mul` is column-partition invariant
    /// (`kernel_bits`). So `R` agrees to the bit, in the sweep (`r = 4`)
    /// and above its leaf (`r = 24`).
    #[test]
    fn qr_matches_blocked_reference() {
        let nb = 3;
        for r in [4, 24] {
            let a = dense(nb * r, nb * r, 0xA2);
            let dist = BlockCyclic::new(1, 2);
            let (packed, taus, _) = run_qr(&a, &dist, nb, r, &[vec![1; 2]]).unwrap();
            check_qr(&a, &packed, &taus, nb, r, 1e-9);
            let (_, r_seq) = hetgrid_linalg::qr::qr_blocked(&a, r);
            let n = nb * r;
            let r_dist = Matrix::from_fn(n, n, |i, j| if i <= j { packed[(i, j)] } else { 0.0 });
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&r_dist) == bits(&r_seq),
                "r {r}: R differs from qr_blocked's"
            );
        }
    }

    #[test]
    fn qr_panel_with_weights() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let nb = 8;
        let r = 2;
        let a = dense(nb * r, nb * r, 0xA3);
        let w = crate::store::slowdown_weights(&arr);
        let (packed, taus, report) = run_qr(&a, &dist, nb, r, &w).unwrap();
        check_qr(&a, &packed, &taus, nb, r, 1e-8);
        assert!(report.work_units.iter().flatten().sum::<u64>() > 0);
        assert!(report.messages_sent.iter().flatten().sum::<u64>() > 0);
    }

    #[test]
    fn lookahead_is_bit_exact_with_in_order() {
        let t = ChannelTransport;
        for (dist, w, nb, r) in lookahead_cases() {
            let a = dense(nb * r, nb * r, 0xA5);
            let run = |lookahead| {
                let cfg = ExecConfig { lookahead };
                let (packed, taus, _) =
                    run_qr_on_cfg(&t, &a, dist.as_ref(), nb, r, &w, cfg).unwrap();
                (packed, taus)
            };
            let (packed0, taus0) = run(0);
            for depth in 1..=3 {
                let (packed, taus) = run(depth);
                assert!(
                    packed.approx_eq(&packed0, 0.0),
                    "r {r} depth {depth} packed factors diverged from in-order"
                );
                assert_eq!(
                    taus, taus0,
                    "r {r} depth {depth} taus diverged from in-order"
                );
            }
        }
    }

    /// FNV-1a over a whole distributed QR run's output bits, computed
    /// before the block kernels became row sweeps. Above `linalg::qr`'s
    /// leaf the kernels call `gemm`, whose AVX2/FMA vs portable dispatch
    /// legitimately changes last digits between hosts; at `r = 8` every
    /// stacked panel has at most a leaf of columns, so both kernels are
    /// the sweep and the pin is a property of the code alone. A sweep
    /// rewrite that reorders one floating-point operation changes this
    /// constant.
    #[test]
    fn packed_factors_are_pinned_to_the_bit() {
        let (dist, w) = paper_grid();
        let (nb, r) = (6, 8);
        let a = dense(nb * r, nb * r, 0xA6);
        for lookahead in [0, 2] {
            let cfg = ExecConfig { lookahead };
            let (packed, taus, _) =
                run_qr_on_cfg(&ChannelTransport, &a, &dist, nb, r, &w, cfg).unwrap();
            let values = packed.as_slice().iter().chain(&taus);
            let hash = fnv1a(values.flat_map(|x| x.to_bits().to_le_bytes()));
            assert_eq!(
                hash, 0xb41b_2198_7732_8eb3,
                "lookahead {lookahead}: {hash:#018x}"
            );
        }
    }

    #[test]
    fn single_processor_qr() {
        let a = dense(8, 8, 0xA4);
        let dist = BlockCyclic::new(1, 1);
        let (packed, taus, report) = run_qr(&a, &dist, 4, 2, &[vec![1]]).unwrap();
        check_qr(&a, &packed, &taus, 4, 2, 1e-10);
        assert_eq!(report.messages_sent.iter().flatten().sum::<u64>(), 0);
    }
}
