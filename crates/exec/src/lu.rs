//! Threaded distributed right-looking LU factorization (without
//! pivoting): the [`hetgrid_plan::factor_plan`] step stream interpreted
//! over real threads, following the ScaLAPACK structure of Section
//! 3.2.1 — factor the diagonal block, solve the pivot block column and
//! row, broadcast them along the plan's destination lists, rank-`r`
//! update the trailing submatrix.
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

use crate::pool::PoolClone;
use crate::step::{block_bytes, Action, Courier, Op, StepInterp, WorkClock};
use crate::store::BlockStore;
use crate::transport::Closed;
use hetgrid_linalg::gemm::gemm;
use hetgrid_linalg::tri::{solve_lower, solve_right_upper};
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Plan, Step};
use std::time::Instant;

/// Message tags: packed diagonal factors, solved L blocks, solved U
/// blocks.
const TAG_DIAG: u8 = 0;
const TAG_L: u8 = 1;
const TAG_U: u8 = 2;

/// Skew threshold above which LU falls back to the in-order schedule.
///
/// On a strongly skewed grid (the paper's 2x2 `{1,2,3,5}`, hetero ratio
/// 5.0, is the `lu_grid` workload of `benchmark/`) the window keeps the
/// fast processors busy with trailing updates whose blocks the slow
/// processors' panel work will need buffered for longer, so lookahead
/// buys nothing and pays buffer churn: every depth > 0 ran slower than
/// in-order there when the clamp went in. Clamping to the in-order
/// schedule when `max weight >= 4 * min weight` restores the depth-0
/// time for exactly that regime — `lu_grid` reports it as
/// `exec.lookahead_gain` ~ 1.0 — while leaving balanced and mildly
/// heterogeneous grids at the requested depth. Results are unaffected
/// either way — every depth is bit-exact by construction.
const LU_SKEW_CLAMP: u64 = 4;

/// The lookahead depth LU actually runs at: the requested depth, or 0
/// when the slowdown-weight skew crosses [`LU_SKEW_CLAMP`].
pub(crate) fn effective_lu_lookahead(requested: usize, weights: &[Vec<u64>]) -> usize {
    let max = weights.iter().flatten().copied().max().unwrap_or(1);
    let min = weights.iter().flatten().copied().min().unwrap_or(1).max(1);
    if max >= LU_SKEW_CLAMP * min {
        0
    } else {
        requested
    }
}

/// Unblocked LU without pivoting of a single block, in place, packed:
/// each pivot row is swept along the rows below it.
fn lu_block_nopivot(a: &mut Matrix) {
    let n = a.rows();
    for k in 0..n {
        let (top, below) = a.as_mut_slice().split_at_mut((k + 1) * n);
        let pivot_row = &top[k * n + k..];
        assert!(
            pivot_row[0].abs() > 1e-300,
            "run_lu: zero pivot (matrix needs pivoting; use a diagonally dominant input)"
        );
        for row in below.chunks_exact_mut(n) {
            let m = row[k] / pivot_row[0];
            row[k] = m;
            for (x, p) in row[k + 1..].iter_mut().zip(&pivot_row[1..]) {
                *x -= m * p;
            }
        }
    }
}

/// One processor's LU actions for `step`, in program order: diagonal
/// factorization, panel-column solves, pivot-row solves (all critical),
/// then one update action per owned trailing block with the blocks
/// feeding step `k + 1` first.
pub(crate) fn lu_actions(step: &Step, my: (usize, usize), owned: &[(usize, usize)]) -> Vec<Action> {
    let Step::Factor {
        k,
        diag,
        diag_col_dests: _,
        l_bcasts,
        trsm: _,
        u_bcasts,
        ..
    } = step
    else {
        panic!("run_lu: non-factor step in plan")
    };
    let k = *k;
    let is_mine = |blk: (usize, usize)| owned.binary_search(&blk).is_ok();
    let diag_dep = |needs: &mut Vec<(usize, u8, (usize, usize))>,
                    reads: &mut Vec<(u8, usize, usize)>| {
        if *diag == my {
            reads.push((0, k, k));
        } else {
            needs.push((k, TAG_DIAG, (k, k)));
        }
    };
    let mut out = Vec::new();
    if *diag == my {
        out.push(Action {
            step: k,
            op: Op::LuFactor,
            blk: (k, k),
            crit: true,
            needs: vec![],
            reads: vec![],
            writes: vec![(0, k, k)],
        });
    }
    for bc in &l_bcasts[1..] {
        if bc.src != my {
            continue;
        }
        let (mut needs, mut reads) = (vec![], vec![]);
        diag_dep(&mut needs, &mut reads);
        out.push(Action {
            step: k,
            op: Op::LuSolveL,
            blk: bc.block,
            crit: true,
            needs,
            reads,
            writes: vec![(0, bc.block.0, k)],
        });
    }
    for bc in u_bcasts {
        if bc.src != my {
            continue;
        }
        let (mut needs, mut reads) = (vec![], vec![]);
        diag_dep(&mut needs, &mut reads);
        out.push(Action {
            step: k,
            op: Op::LuSolveU,
            blk: bc.block,
            crit: true,
            needs,
            reads,
            writes: vec![(0, k, bc.block.1)],
        });
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
        let (mut needs, mut reads) = (vec![], vec![]);
        if is_mine((bi, k)) {
            reads.push((0, bi, k));
        } else {
            needs.push((k, TAG_L, (bi, k)));
        }
        if is_mine((k, bj)) {
            reads.push((0, k, bj));
        } else {
            needs.push((k, TAG_U, (k, bj)));
        }
        out.push(Action {
            step: k,
            op: Op::LuUpdate,
            blk: (bi, bj),
            crit: false,
            needs,
            reads,
            writes: vec![(0, bi, bj)],
        });
    }
    out
}

/// One processor's LU worker over its blocks of the matrix being
/// factored in place.
pub(crate) struct LuInterp<'a> {
    plan: &'a Plan,
    my: (usize, usize),
    owned: &'a [(usize, usize)],
    blocks: BlockStore,
    scratch: Matrix,
    block_bytes: u64,
}

impl<'a> LuInterp<'a> {
    pub(crate) fn new(
        plan: &'a Plan,
        my: (usize, usize),
        owned: &'a [(usize, usize)],
        blocks: BlockStore,
        r: usize,
    ) -> Self {
        LuInterp {
            plan,
            my,
            owned,
            blocks,
            scratch: Matrix::zeros(r, r),
            block_bytes: block_bytes(r),
        }
    }
}

impl StepInterp for LuInterp<'_> {
    type P = Matrix;

    fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    fn emit(&self, k: usize, out: &mut Vec<Action>) {
        out.extend(lu_actions(&self.plan.steps[k], self.my, self.owned));
    }

    fn peek(&self, blk: (usize, usize)) -> Option<&Matrix> {
        self.blocks.get(&blk)
    }

    fn into_store(self) -> BlockStore {
        self.blocks
    }

    fn execute(
        &mut self,
        a: &Action,
        courier: &mut Courier<Matrix>,
        clock: &mut WorkClock,
    ) -> Result<(), Closed> {
        let Step::Factor {
            k,
            diag,
            diag_col_dests,
            l_bcasts,
            u_bcasts,
            ..
        } = &self.plan.steps[a.step]
        else {
            unreachable!("emit checked the step kind")
        };
        let k = *k;
        match a.op {
            // Factor the diagonal block in place; the packed factors go
            // to the panel-column owners (for the L solves) and the
            // pivot-row owners (for the U solves), one message per
            // distinct owner.
            Op::LuFactor => {
                let _span = courier.span_with(|| format!("factor {k}"));
                let t0 = Instant::now();
                if clock.weight() > 1 {
                    let original = self.blocks[&(k, k)].pool_clone(courier.pool_mut());
                    lu_block_nopivot(self.blocks.get_mut(&(k, k)).expect("diag block missing"));
                    for _ in 1..clock.weight() {
                        let mut copy = original.pool_clone(courier.pool_mut());
                        lu_block_nopivot(&mut copy);
                        copy.reclaim(courier.pool_mut());
                    }
                    original.reclaim(courier.pool_mut());
                } else {
                    lu_block_nopivot(self.blocks.get_mut(&(k, k)).expect("diag block missing"));
                }
                clock.add_busy(t0.elapsed().as_secs_f64());
                clock.charge(1);
                let mut dests = diag_col_dests.clone();
                for d in &l_bcasts[0].dests {
                    if !dests.contains(d) {
                        dests.push(*d);
                    }
                }
                courier.bcast(
                    &dests,
                    k,
                    TAG_DIAG,
                    (k, k),
                    &self.blocks[&(k, k)],
                    self.block_bytes,
                )?;
            }
            // Solve one panel block of column k against U11 and
            // broadcast it across its grid row.
            Op::LuSolveL => {
                let _span = courier.span_with(|| format!("panelL {k}"));
                let solved = {
                    let packed: &Matrix = if *diag == self.my {
                        &self.blocks[&(k, k)]
                    } else {
                        courier.obtain(k, TAG_DIAG, (k, k))?
                    };
                    // The solve reads only the upper triangle: U11.
                    clock.run(
                        1,
                        || solve_right_upper(packed, &self.blocks[&a.blk]),
                        || {
                            solve_right_upper(packed, &self.blocks[&a.blk]);
                        },
                    )
                };
                if let Some(old) = self.blocks.insert(a.blk, solved) {
                    old.reclaim(courier.pool_mut());
                }
                let bc = l_bcasts[1..]
                    .iter()
                    .find(|bc| bc.block == a.blk)
                    .expect("solve action without a plan bcast");
                courier.bcast(
                    &bc.dests,
                    k,
                    TAG_L,
                    a.blk,
                    &self.blocks[&a.blk],
                    self.block_bytes,
                )?;
            }
            // Solve one pivot-row block against L11 and broadcast it
            // down its grid column.
            Op::LuSolveU => {
                let _span = courier.span_with(|| format!("panelU {k}"));
                let solved = {
                    let packed: &Matrix = if *diag == self.my {
                        &self.blocks[&(k, k)]
                    } else {
                        courier.obtain(k, TAG_DIAG, (k, k))?
                    };
                    // The unit solve reads only the strict lower
                    // triangle: L11.
                    clock.run(
                        1,
                        || solve_lower(packed, &self.blocks[&a.blk], true),
                        || {
                            solve_lower(packed, &self.blocks[&a.blk], true);
                        },
                    )
                };
                if let Some(old) = self.blocks.insert(a.blk, solved) {
                    old.reclaim(courier.pool_mut());
                }
                let bc = u_bcasts
                    .iter()
                    .find(|bc| bc.block == a.blk)
                    .expect("solve action without a plan bcast");
                courier.bcast(
                    &bc.dests,
                    k,
                    TAG_U,
                    a.blk,
                    &self.blocks[&a.blk],
                    self.block_bytes,
                )?;
            }
            // GEMM update of one owned trailing block.
            Op::LuUpdate => {
                let (bi, bj) = a.blk;
                let mut c = self.blocks.remove(&a.blk).expect("trailing block missing");
                let t0 = Instant::now();
                {
                    let lblk: &Matrix = match self.blocks.get(&(bi, k)) {
                        Some(m) => m,
                        None => courier.get(k, TAG_L, (bi, k)),
                    };
                    let ublk: &Matrix = match self.blocks.get(&(k, bj)) {
                        Some(m) => m,
                        None => courier.get(k, TAG_U, (k, bj)),
                    };
                    gemm(-1.0, lblk, ublk, 1.0, &mut c);
                    for _ in 1..clock.weight() {
                        gemm(-1.0, lblk, ublk, 0.0, &mut self.scratch);
                    }
                }
                clock.add_busy(t0.elapsed().as_secs_f64());
                clock.charge(1);
                courier.step_done(t0.elapsed().as_secs_f64());
                self.blocks.insert(a.blk, c);
            }
            op => unreachable!("non-LU action {op:?} in LU plan"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dominant, paper_grid};
    use crate::{run_lu_on_cfg, ChannelTransport, ExecConfig, ExecError, ExecReport};
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matmul;
    use hetgrid_linalg::tri::{unit_lower_from_packed, upper_from_packed};

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
        let (dist, w) = paper_grid();
        let t = ChannelTransport;
        // r = 64 is wide enough for the kernels' row sweeps to run
        // their vectorised bodies, not only the scalar remainder.
        for (nb, r) in [(8, 2), (4, 64)] {
            let a = dominant(nb * r, 9);
            let run = |lookahead| {
                run_lu_on_cfg(&t, &a, &dist, nb, r, &w, ExecConfig { lookahead })
                    .unwrap()
                    .0
            };
            let inorder = run(0);
            for depth in [1, 3] {
                assert!(
                    run(depth).approx_eq(&inorder, 0.0),
                    "r {r} depth {depth} diverged from in-order"
                );
            }
        }
    }

    /// Guard for the skewed-grid lookahead regression (`lu_grid`'s
    /// `exec.lookahead_gain` in `benchmark/`): that workload's grid must
    /// clamp to the in-order schedule, and the clamp must not leak into
    /// balanced or mildly heterogeneous configurations, where lookahead
    /// pays.
    #[test]
    fn skewed_grid_clamps_lu_lookahead() {
        // The `lu_grid` arrangement: hetero ratio 5.0.
        let skewed = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let w = crate::store::slowdown_weights(&skewed);
        for depth in [1, 2, 4] {
            assert_eq!(effective_lu_lookahead(depth, &w), 0, "depth {depth}");
        }
        // Balanced and mildly heterogeneous grids keep their window.
        let uniform = vec![vec![1u64; 2]; 2];
        let mild = vec![vec![1, 2], vec![2, 3]];
        for depth in [0, 1, 2, 4] {
            assert_eq!(effective_lu_lookahead(depth, &uniform), depth);
            assert_eq!(effective_lu_lookahead(depth, &mild), depth);
        }
        // The clamped run still factors correctly.
        let nb = 4;
        let r = 2;
        let a = dominant(nb * r, 11);
        let dist = BlockCyclic::new(2, 2);
        let (f, _) = run_lu_on_cfg(
            &ChannelTransport,
            &a,
            &dist,
            nb,
            r,
            &w,
            ExecConfig { lookahead: 4 },
        )
        .unwrap();
        check_lu(&a, &f, 1e-8);
    }

    #[test]
    fn single_processor_lu() {
        let a = dominant(8, 4);
        let dist = BlockCyclic::new(1, 1);
        let (f, _) = run_lu(&a, &dist, 4, 2, &[vec![1]]).unwrap();
        check_lu(&a, &f, 1e-9);
    }
}
