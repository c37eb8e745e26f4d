//! The one interpreter of the grid block kernels. The paper gives MM,
//! LU and Cholesky one shape (Sections 3.1.1, 3.2.1): step `k`
//! broadcasts panel blocks along grid rows and columns, then every
//! processor updates the blocks it owns — only the block operation
//! differs. So a kernel here is only an *emitter* ([`crate::mm`],
//! [`crate::lu`], [`crate::cholesky`]) that lowers one plan step into
//! [`Action`]s made of [`Work`]s (a [`Kern`] on an owned block) and
//! [`Send`]s (a broadcast of an owned block); [`action`] derives the
//! scheduler's hazard sets from them and [`GridInterp`] runs them.
//! This module is the only place a grid block kernel is called.

use crate::step::{Action, Courier, MsgKey, Op, Res, StepInterp, WorkClock};
use crate::store::BlockStore;
use crate::transport::Closed;
use hetgrid_linalg::cholesky::cholesky;
use hetgrid_linalg::gemm::{gemm_with, Packs};
use hetgrid_linalg::tri::{solve_lower_in_place, solve_upper_t_in_place};
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Plan, Step};
use std::time::Instant;

/// A block kernel on the output block `C` and the inputs `X`, `Y`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Kern {
    /// `C := L\U`, the packed unpivoted LU factors of `C`.
    Getrf,
    /// `C := L`, the lower Cholesky factor of `C`.
    Potrf,
    /// `C := C * U^-1`, `U` the upper triangle of `X` (LU's panel
    /// column against the packed diagonal factors).
    TrsmRightUpper,
    /// `C := L^-1 * C`, `L` the unit lower triangle of `X` (LU's pivot
    /// row against the packed diagonal factors).
    TrsmLeftUnitLower,
    /// `C := C * X^-T`, `X` lower triangular (Cholesky's panel).
    TrsmRightLowerT,
    /// `C += alpha * X * Y`.
    Gemm(f64),
    /// `C += alpha * X * Y^T`.
    GemmNt(f64),
}

/// Where an operand lives, decided once by the emitter: in one of this
/// processor's stores, or in a buffered message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// An owned block. Namespace 0 is the matrix being written, 1 and 2
    /// MM's read-only `A` and `B`.
    Own(Res),
    /// The payload of a message some other processor's [`Send`] made.
    Msg(MsgKey),
}

impl Src {
    /// Block `blk` of namespace `ns` when this processor holds it
    /// (`mine`), else the step-`k` message tagged `tag` that brings it.
    pub fn of(mine: bool, ns: u8, blk: (usize, usize), k: usize, tag: u8) -> Src {
        if mine {
            Src::Own((ns, blk.0, blk.1))
        } else {
            Src::Msg((k, tag, blk))
        }
    }
}

/// One block kernel call: `out` (an owned namespace-0 block) updated in
/// place from `ins`.
#[derive(Clone, Debug)]
pub(crate) struct Work {
    pub kern: Kern,
    pub ins: Vec<Src>,
    pub out: Res,
}

impl Work {
    /// `kern` on block `blk` of the matrix being written.
    pub fn on(kern: Kern, ins: Vec<Src>, (bi, bj): (usize, usize)) -> Work {
        let out = (0, bi, bj);
        Work { kern, ins, out }
    }
}

/// One broadcast of the owned block `res` to `dests`, routed as
/// `(step, tag, block index)`.
#[derive(Clone, Debug)]
pub(crate) struct Send {
    pub tag: u8,
    pub res: Res,
    pub dests: Vec<(usize, usize)>,
}

impl Send {
    /// Block `blk` of namespace `ns` to `dests`, tagged `tag`.
    pub fn of(tag: u8, ns: u8, (bi, bj): (usize, usize), dests: &[(usize, usize)]) -> Send {
        let (res, dests) = ((ns, bi, bj), dests.to_vec());
        Send { tag, res, dests }
    }
}

/// Builds the step-`k` action that runs `work` and then makes `sends`,
/// deriving what the scheduler must know from what the executor will
/// do, so the two cannot disagree: a [`Src::Msg`] input is a need, a
/// [`Src::Own`] input a read, every `out` a write, and a sent block a
/// read unless the action itself writes it. Broadcasts to nobody are
/// dropped.
pub(crate) fn action(
    k: usize,
    span: Option<&'static str>,
    blk: (usize, usize),
    crit: bool,
    work: Vec<Work>,
    mut sends: Vec<Send>,
) -> Action {
    fn note<T: PartialEq>(set: &mut Vec<T>, x: T) {
        if !set.contains(&x) {
            set.push(x);
        }
    }
    sends.retain(|s| !s.dests.is_empty());
    let (mut needs, mut reads, mut writes) = (vec![], vec![], vec![]);
    for w in &work {
        note(&mut writes, w.out);
        for src in &w.ins {
            match *src {
                Src::Msg(key) => note(&mut needs, key),
                Src::Own(res) => note(&mut reads, res),
            }
        }
    }
    for s in &sends {
        note(&mut reads, s.res);
    }
    reads.retain(|res| !writes.contains(res));
    Action {
        step: k,
        op: Op::Grid { span, work, sends },
        blk,
        crit,
        needs,
        reads,
        writes,
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

impl Kern {
    /// Runs the kernel on `c` once for real and `weight - 1` more times
    /// for nothing (the slowdown emulation: repeats land in `scratch`
    /// or are dropped; a GEMM or solve repeat is the whole kernel,
    /// packing included, through the same `packs`). Returns the buffer
    /// the kernel is done with — the block's previous contents, a
    /// transposed operand — for the caller's pool.
    fn apply(
        self,
        ins: &[&Matrix],
        c: &mut Matrix,
        scratch: &mut Matrix,
        packs: &mut Packs,
        weight: u64,
    ) -> Option<Matrix> {
        // The out-of-place kernel: the block becomes `f(block)`.
        fn replace(c: &mut Matrix, weight: u64, f: impl Fn(&Matrix) -> Matrix) -> Option<Matrix> {
            let new = f(c);
            for _ in 1..weight {
                f(c);
            }
            Some(std::mem::replace(c, new))
        }
        // The in-place kernels: the repeats go first, on copies of the
        // still untouched block.
        fn in_place(
            c: &mut Matrix,
            scratch: &mut Matrix,
            weight: u64,
            mut f: impl FnMut(&mut Matrix),
        ) -> Option<Matrix> {
            for _ in 1..weight {
                scratch.copy_from(c);
                f(scratch);
            }
            f(c);
            None
        }
        match self {
            Kern::Getrf => in_place(c, scratch, weight, lu_block_nopivot),
            Kern::Potrf => replace(c, weight, |c| cholesky(c).expect("diagonal block not SPD")),
            Kern::TrsmLeftUnitLower => in_place(c, scratch, weight, |x| {
                solve_lower_in_place(packs, ins[0], true, x)
            }),
            // `X * T = C` is `T^T * X^T = C^T`: a right-side solve is a
            // left-lower one between two transpositions of the block.
            Kern::TrsmRightUpper => in_place(c, scratch, weight, |x| {
                x.transpose_in_place();
                solve_upper_t_in_place(packs, ins[0], x);
                x.transpose_in_place();
            }),
            // L * X^T = C^T: the factor is read as it is.
            Kern::TrsmRightLowerT => in_place(c, scratch, weight, |x| {
                x.transpose_in_place();
                solve_lower_in_place(packs, ins[0], false, x);
                x.transpose_in_place();
            }),
            Kern::Gemm(alpha) => {
                gemm_with(packs, alpha, ins[0], ins[1], 1.0, c);
                for _ in 1..weight {
                    gemm_with(packs, alpha, ins[0], ins[1], 0.0, scratch);
                }
                None
            }
            Kern::GemmNt(alpha) => {
                let yt = ins[1].transpose();
                Kern::Gemm(alpha).apply(&[ins[0], &yt], c, scratch, packs, weight);
                Some(yt)
            }
        }
    }
}

/// A kernel's emitter: one processor's actions for one plan step, given
/// its grid position and its sorted owned block list.
pub(crate) type Emit = fn(&Step, (usize, usize), &[(usize, usize)]) -> Vec<Action>;

/// One processor's worker for MM, LU or Cholesky: the blocks of the
/// matrix it writes (`main`: the matrix factored in place, or MM's `C`
/// accumulators starting from the epoch baseline) and MM's read-only
/// `A`/`B` blocks (`operands`, namespaces 1 and 2).
pub(crate) struct GridInterp<'a> {
    plan: &'a Plan,
    emit: Emit,
    my: (usize, usize),
    owned: &'a [(usize, usize)],
    main: BlockStore,
    operands: Vec<&'a BlockStore>,
    scratch: Matrix,
    packs: Packs,
}

impl<'a> GridInterp<'a> {
    pub(crate) fn new(
        plan: &'a Plan,
        emit: Emit,
        my: (usize, usize),
        owned: &'a [(usize, usize)],
        main: BlockStore,
        operands: Vec<&'a BlockStore>,
        r: usize,
    ) -> Self {
        GridInterp {
            plan,
            emit,
            my,
            owned,
            main,
            operands,
            scratch: Matrix::zeros(r, r),
            packs: Packs::default(),
        }
    }
}

/// The owned block `res`: namespace 0 is `main`, `n > 0` is
/// `operands[n - 1]`.
fn own<'s>(main: &'s BlockStore, operands: &[&'s BlockStore], (ns, bi, bj): Res) -> &'s Matrix {
    let store = match ns {
        0 => main,
        _ => operands[ns as usize - 1],
    };
    store.get(&(bi, bj)).expect("owned block missing")
}

impl StepInterp for GridInterp<'_> {
    fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    fn emit(&self, k: usize, out: &mut Vec<Action>) {
        out.extend((self.emit)(&self.plan.steps[k], self.my, self.owned));
    }

    fn peek(&self, blk: (usize, usize)) -> Option<&Matrix> {
        self.main.get(&blk)
    }

    fn into_store(self: Box<Self>) -> BlockStore {
        self.main
    }

    fn execute(
        &mut self,
        a: &Action,
        courier: &mut Courier,
        clock: &mut WorkClock,
    ) -> Result<(), Closed> {
        let Op::Grid { span, work, sends } = &a.op else {
            unreachable!("non-grid action {:?} in a grid plan", a.op)
        };
        let GridInterp {
            main,
            operands,
            scratch,
            packs,
            ..
        } = self;
        let mut guard = span.and_then(|name| courier.span_with(|| format!("{name} {}", a.step)));
        let (units_before, sent_before) = (clock.units, courier.sent());
        let t0 = Instant::now();
        for w in work {
            let out = (w.out.1, w.out.2);
            // Out of the store while the kernel runs, so the inputs can
            // be borrowed from the same store.
            let slot = main.get_mut(&out).expect("output block missing");
            let mut c = std::mem::replace(slot, Matrix::zeros(0, 0));
            let ins: Vec<&Matrix> = w
                .ins
                .iter()
                .map(|src| match *src {
                    Src::Own(res) => own(main, operands, res),
                    Src::Msg((step, tag, idx)) => courier.get(step, tag, idx),
                })
                .collect();
            let spent = w.kern.apply(&ins, &mut c, scratch, packs, clock.weight());
            *main.get_mut(&out).expect("taken above") = c;
            if let Some(m) = spent {
                courier.pool_mut().put(m);
            }
            clock.charge(1);
        }
        let busy = t0.elapsed().as_secs_f64();
        clock.add_busy(busy);
        // The trailing updates (the only non-critical actions) are the
        // compute chunks `exec.step.compute_us` counts.
        if !a.crit {
            courier.step_done(busy);
        }
        for s in sends {
            // One pool-backed copy however many destinations share it.
            let payload = courier.pool_mut().dup(own(main, operands, s.res));
            courier.bcast(&s.dests, a.step, s.tag, (s.res.1, s.res.2), payload)?;
        }
        if let Some(g) = guard.as_mut() {
            g.arg_u64("units", clock.units - units_before);
            g.arg_u64("msgs", courier.sent() - sent_before);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dense, dominant, spd};
    use hetgrid_linalg::gemm::gemm;
    use hetgrid_linalg::tri::{solve_lower, solve_right_upper};

    #[test]
    fn hazard_sets_are_derived_from_work_and_sends() {
        let (own, sent_only) = ((0, 1, 0), (1, 7, 7));
        let msg = (3, 2, (0, 1));
        let gemm = |out| Work {
            kern: Kern::Gemm(1.0),
            ins: vec![Src::Own(own), Src::Msg(msg)],
            out,
        };
        let send = |res, dests| Send { tag: 0, res, dests };
        let a = action(
            3,
            Some("compute"),
            (3, 3),
            false,
            vec![gemm((0, 1, 1)), gemm((0, 2, 2))],
            vec![
                send((0, 1, 1), vec![(0, 1)]),
                send(sent_only, vec![(1, 0)]),
                send((0, 9, 9), vec![]),
            ],
        );
        assert_eq!((a.step, a.blk, a.crit), (3, (3, 3), false));
        // Named by both works: once each. The message is a need only.
        assert_eq!(a.needs, vec![msg]);
        assert_eq!(a.writes, vec![(0, 1, 1), (0, 2, 2)]);
        // (0,1,1) is sent but also written: a write, not a read. The
        // broadcast to nobody is gone and reads nothing.
        assert_eq!(a.reads, vec![own, sent_only]);
        let Op::Grid { work, sends, .. } = a.op else {
            panic!("not a grid action: {:?}", a.op)
        };
        assert_eq!((work.len(), sends.len()), (2, 2));
    }

    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.shape(), want.shape(), "{what}");
        assert!(bits(got) == bits(want), "{what}: bits differ");
    }

    /// `(kernel, inputs, block, the linalg call's result)` for every
    /// [`Kern`] on `n x n` blocks.
    fn kern_cases(n: usize) -> Vec<(Kern, Vec<Matrix>, Matrix, Matrix)> {
        let (x, y) = (dense(n, n, 0x61), dense(n, n, 0x62));
        let (diag_dom, diag_spd) = (dominant(n, 0x63), spd(n, 0x64));
        let lfac = cholesky(&diag_spd).unwrap();
        let mut packed = diag_dom.clone();
        lu_block_nopivot(&mut packed);
        let axpy = |alpha: f64, a: &Matrix, b: &Matrix| {
            let mut c = diag_dom.clone();
            gemm(alpha, a, b, 1.0, &mut c);
            c
        };
        let solves = [
            (
                Kern::TrsmRightUpper,
                &packed,
                solve_right_upper(&packed, &x),
            ),
            (
                Kern::TrsmLeftUnitLower,
                &packed,
                solve_lower(&packed, &x, true),
            ),
            (
                Kern::TrsmRightLowerT,
                &lfac,
                solve_right_upper(&lfac.transpose(), &x),
            ),
        ];
        let mut cases = vec![
            (Kern::Getrf, vec![], diag_dom.clone(), packed.clone()),
            (Kern::Potrf, vec![], diag_spd.clone(), lfac.clone()),
            (
                Kern::Gemm(-1.0),
                vec![x.clone(), y.clone()],
                diag_dom.clone(),
                axpy(-1.0, &x, &y),
            ),
            (
                Kern::GemmNt(-1.0),
                vec![x.clone(), y.clone()],
                diag_dom.clone(),
                axpy(-1.0, &x, &y.transpose()),
            ),
        ];
        cases.extend(solves.map(|(kern, t, want)| (kern, vec![t.clone()], x.clone(), want)));
        cases
    }

    /// One algorithm, two call shapes: in the leaf-sized recursion of a
    /// small block and at the benchmark's r = 128, a `Trsm*` arm on the
    /// worker's buffers is the public solve, to the bit.
    #[test]
    fn every_kern_matches_the_linalg_call_it_replaces() {
        for n in [48, 128] {
            // One worker's buffers through every kernel, as in a run.
            let (mut scratch, mut packs) = (Matrix::zeros(n, n), Packs::default());
            for (kern, ins, c0, want) in kern_cases(n) {
                let ins: Vec<&Matrix> = ins.iter().collect();
                for weight in [1, 3] {
                    let mut c = c0.clone();
                    kern.apply(&ins, &mut c, &mut scratch, &mut packs, weight);
                    assert_bits(&c, &want, &format!("{kern:?}, r = {n}, weight {weight}"));
                }
            }
        }
    }

    /// What keeps `exec.pool_hit_ratio` where it was: a solve works on
    /// the block where it lies and on the worker's `scratch`, hands the
    /// pool nothing and so takes nothing from it or the allocator.
    #[test]
    fn trsm_works_allocate_no_block() {
        let n = 48;
        let (mut scratch, mut packs) = (Matrix::zeros(n, n), Packs::default());
        let solves = kern_cases(n).into_iter().filter(|case| case.1.len() == 1);
        for (kern, ins, mut c, _) in solves {
            let ins = vec![&ins[0]];
            for weight in [1, 3, 1] {
                let buffers = (c.as_slice().as_ptr(), scratch.as_slice().as_ptr());
                let spent = kern.apply(&ins, &mut c, &mut scratch, &mut packs, weight);
                assert!(spent.is_none(), "{kern:?} retired a buffer");
                assert_eq!(
                    (c.as_slice().as_ptr(), scratch.as_slice().as_ptr()),
                    buffers
                );
            }
        }
    }
}
