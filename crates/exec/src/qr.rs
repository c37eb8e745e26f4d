//! Threaded distributed Householder QR: the [`hetgrid_plan::qr_plan`]
//! fan-in/fan-out step stream lowered for [`crate::grid`].
//!
//! QR's panel factorization couples all panel rows through the
//! reflector norms, so unlike LU/Cholesky the panel cannot be solved
//! block-locally. Step `k` instead runs a fan-in cycle (Section 3.2.2
//! notes QR parallelizes "analogously" to LU at this granularity): the
//! panel blocks `(bi, k)` fan in to the diagonal owner, which factors
//! the stacked panel ([`Kern::Geqrf`]) and sends the factored blocks
//! home; the step's reflectors — the packed stack with the Householder
//! scalars as one more row — are broadcast to the trailing column
//! heads; each head gathers its column, applies `Q^T` to the stack
//! ([`Kern::Ormqr`]), and sends the updated blocks home.
//!
//! A block away from its owner is *on loan* ([`on_loan`]): taken from
//! its owner's message into namespace [`LOAN`], worked on in the stack
//! beside the blocks the worker owns, and sent home by the same action,
//! which moves it into the payload. So a QR step is `grid` actions like
//! any other kernel's, and its hazard sets are derived like theirs. The
//! reflectors of step `k` are the block `(REFL, k, k)`: the diagonal
//! owner's column applications read it, so they order after its
//! factorization.
//!
//! Every block op is a pure function of its inputs, so the result is
//! the same to the bit at every lookahead depth. Under the lookahead
//! driver the fan-in sends, the panel factorization and the takes are
//! critical actions; each trailing column's `Q^T` application is an
//! independent non-critical action, so step `k + 1`'s fan-in begins
//! while step `k`'s columns still update.
//!
//! The gathered result is the *globally packed* factorization:
//! Householder vectors below the block diagonal of each panel column,
//! `R` on and above, with the Householder scalars (`nb * r` of them,
//! panel-major) alongside. [`qr_unpack`] rebuilds `(Q, R)` from both.

use crate::grid::{self, Kern, Send, Src, Take, Work};
use crate::step::{Action, Res};
use hetgrid_linalg::qr::QrFactors;
use hetgrid_linalg::Matrix;
use hetgrid_plan::{down_column, QrColumn, Step};

/// Message tags: panel fan-in, factored panel block home, reflector
/// broadcast, column gather, updated column block home. Every payload
/// is one `r x r` block except `TAG_REFL`'s: the stacked panel's
/// `nk*r x r` packed factors with the `r` Householder scalars as one
/// more row.
const TAG_PANEL: u8 = 0;
const TAG_SEG: u8 = 1;
const TAG_REFL: u8 = 2;
const TAG_COL: u8 = 3;
const TAG_COLRET: u8 = 4;

/// QR's namespaces: the step-`k` reflectors `(REFL, k, k)`, and a block
/// on loan from its owner for one action.
pub(crate) const REFL: u8 = 3;
pub(crate) const LOAN: u8 = 4;

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
/// stays acyclic), then the panel factorization or the takes of the
/// factored blocks, then the column applications, then the takes of
/// the updated column blocks. Any other kind of step has no QR
/// actions.
pub(crate) fn qr_actions(step: &Step, my: (usize, usize), _: &[(usize, usize)]) -> Vec<Action> {
    let Step::Qr {
        k,
        diag,
        panel,
        reflector_dests,
        columns,
    } = step
    else {
        return Vec::new();
    };
    let (k, diag) = (*k, *diag);
    let panel = || down_column(k, k, panel);
    // An owned block leaves for one action, or comes home from it.
    let lend = |tag: u8, blk: (usize, usize), to: (usize, usize)| {
        let send = Send::of(tag, 0, blk, &[to]);
        grid::action(k, None, blk, true, vec![], vec![send])
    };
    let home = |tag: u8, (bi, bj): (usize, usize)| {
        let take = Take {
            msg: Some((k, tag, (bi, bj))),
            res: (0, bi, bj),
        };
        grid::action_moving(k, None, (bi, bj), true, vec![take], vec![], vec![], vec![])
    };
    let mut out = Vec::new();
    if diag != my {
        out.extend(mine(my, panel()).map(|blk| lend(TAG_PANEL, blk, diag)));
    }
    for col in columns.iter().filter(|col| col.head != my) {
        out.extend(mine(my, members(k, col)).map(|blk| lend(TAG_COL, blk, col.head)));
    }
    if diag == my {
        let top = (REFL, k, k);
        let (takes, stack, mut sends, drops) = on_loan(k, my, top, panel(), (TAG_PANEL, TAG_SEG));
        sends.push(Send::of(TAG_REFL, REFL, (k, k), reflector_dests));
        let work = vec![Work {
            kern: Kern::Geqrf,
            ins: vec![],
            out: stack,
        }];
        let span = Some("factor");
        out.push(grid::action_moving(
            k,
            span,
            (k, k),
            true,
            takes,
            work,
            sends,
            drops,
        ));
    } else {
        out.extend(mine(my, panel()).map(|blk| home(TAG_SEG, blk)));
    }
    for col in columns.iter().filter(|col| col.head == my) {
        let (top, tags) = ((0, k, col.bj), (TAG_COL, TAG_COLRET));
        let (takes, stack, sends, drops) = on_loan(k, my, top, members(k, col), tags);
        let work = vec![Work {
            kern: Kern::Ormqr,
            ins: vec![Src::of(diag == my, REFL, (k, k), k, TAG_REFL)],
            out: stack,
        }];
        let span = Some("apply");
        out.push(grid::action_moving(
            k,
            span,
            (k, col.bj),
            false,
            takes,
            work,
            sends,
            drops,
        ));
    }
    for col in columns.iter().filter(|col| col.head != my) {
        out.extend(mine(my, members(k, col)).map(|blk| home(TAG_COLRET, blk)));
    }
    out
}

/// A block and its owner.
type Owned = ((usize, usize), (usize, usize));

/// Step `k`'s trailing blocks of `col`, below the head, with their
/// owners.
fn members(k: usize, col: &QrColumn) -> impl Iterator<Item = Owned> + '_ {
    down_column(k + 1, col.bj, &col.members)
}

/// The blocks among `blocks` that `my` owns.
fn mine(
    my: (usize, usize),
    blocks: impl Iterator<Item = Owned>,
) -> impl Iterator<Item = (usize, usize)> {
    blocks
        .filter(move |&(_, owner)| owner == my)
        .map(|(blk, _)| blk)
}

/// The stack `top`, then `blocks`, for a block op on processor `my`: a
/// block `my` owns where it lies, any other on loan — taken from its
/// owner's step-`k` message tagged `lent`, sent home tagged `back` after
/// the work and dropped, so the send moves it into the payload. Returns
/// the action's takes, the stack, its sends and its drops.
fn on_loan(
    k: usize,
    my: (usize, usize),
    top: Res,
    blocks: impl Iterator<Item = Owned>,
    (lent, back): (u8, u8),
) -> (Vec<Take>, Vec<Res>, Vec<Send>, Vec<Res>) {
    let (mut takes, mut stack, mut sends, mut drops) = (vec![], vec![top], vec![], vec![]);
    for ((bi, bj), owner) in blocks {
        if owner == my {
            stack.push((0, bi, bj));
            continue;
        }
        let res = (LOAN, bi, bj);
        let msg = Some((k, lent, (bi, bj)));
        takes.push(Take { msg, res });
        stack.push(res);
        sends.push(Send::of(back, LOAN, (bi, bj), &[owner]));
        drops.push(res);
    }
    (takes, stack, sends, drops)
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
