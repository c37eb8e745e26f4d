//! The one interpreter of the block kernels. The paper gives MM, LU and
//! Cholesky one shape (Sections 3.1.1, 3.2.1): step `k` broadcasts
//! panel blocks along grid rows and columns, then every processor
//! updates the blocks it owns — only the block operation differs. So a
//! kernel here is only an *emitter* ([`crate::mm`], [`crate::lu`],
//! [`crate::cholesky`]) that lowers one plan step into [`Action`]s made
//! of [`Work`]s (a [`Kern`] on an owned block) and [`Send`]s (a
//! broadcast of an owned block); [`action`] derives the scheduler's
//! hazard sets from them and [`GridInterp`] runs them. The
//! master-worker star ([`crate::star`]) and QR's fan-in panels
//! ([`crate::qr`]) lower onto the same actions, adding blocks that
//! appear ([`Take`]) and disappear (drops) — and, for QR, a [`Work`] on
//! a stack of blocks. This module is the only place a block kernel of
//! either platform is called.

use crate::cholesky::cholesky_actions;
use crate::lu::lu_actions;
use crate::mm::mm_actions;
use crate::pool::BufferPool;
use crate::qr::{qr_actions, REFL};
use crate::star::star_actions;
use crate::step::{Action, Courier, MsgKey, Res, Stop, WorkClock};
use crate::store::BlockStore;
use hetgrid_linalg::cholesky::cholesky;
use hetgrid_linalg::gemm::{gemm_with, Packs};
use hetgrid_linalg::qr::{qr_factor_with, QrFactors};
use hetgrid_linalg::tri::{solve_lower_in_place, solve_upper_t_in_place};
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Plan, Step};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The namespaces that hold blocks: the matrix written, the `A` and `B`
/// of MM and the star, QR's reflectors and loans (see [`Res`]).
const STORES: usize = 5;

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
    /// QR's panel: the blocks `out[1..]`, stacked, become their packed
    /// Householder factors, and `out[0]`, which the kernel makes, the
    /// step's reflectors — the packed stack with the scalars as one
    /// more row.
    Geqrf,
    /// QR's trailing column: `C := Q^T C` on the blocks `out`, stacked,
    /// `Q` the step's reflectors — rebuilt from `ins[0]`, a `Geqrf`'s
    /// `out[0]`, unless this processor made them.
    Ormqr,
}

/// Where an operand lives, decided once by the emitter: in one of this
/// processor's stores, or in a buffered message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// An owned block. Namespace 0 is the matrix being written, 1 and 2
    /// MM's `A` and `B`.
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

/// One block kernel call: the owned blocks `out` updated in place from
/// `ins` — one block, or for QR's kernels a stack of them, top to
/// bottom.
#[derive(Clone, Debug)]
pub(crate) struct Work {
    pub kern: Kern,
    pub ins: Vec<Src>,
    pub out: Vec<Res>,
}

impl Work {
    /// `kern` on block `blk` of the matrix being written.
    pub fn on(kern: Kern, ins: Vec<Src>, (bi, bj): (usize, usize)) -> Work {
        let out = vec![(0, bi, bj)];
        Work { kern, ins, out }
    }

    /// The work units charged per unit of slowdown weight: one per
    /// block, and two per stacked block for QR's, whose Householder
    /// arithmetic is twice LU's (Section 3.2) — as `sim::counts` folds.
    fn units(&self) -> u64 {
        let blocks = self.out.len() as u64;
        match self.kern {
            Kern::Geqrf => 2 * (blocks - 1),
            Kern::Ormqr => 2 * blocks,
            _ => 1,
        }
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
    pub fn of(tag: u8, ns: u8, (bi, bj): (usize, usize), dests: Vec<(usize, usize)>) -> Send {
        let res = (ns, bi, bj);
        Send { tag, res, dests }
    }
}

/// A block that appears: the payload of message `msg` — moved, not
/// copied — or a fresh zero accumulator when `None`, installed as the
/// owned block `res`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Take {
    pub msg: Option<MsgKey>,
    pub res: Res,
}

/// The step-`k` action that runs `work` and then makes `sends`: a grid
/// kernel's, which never takes or drops a block ([`action_moving`]).
pub(crate) fn action(
    k: usize,
    span: Option<&'static str>,
    blk: (usize, usize),
    crit: bool,
    work: Vec<Work>,
    sends: Vec<Send>,
) -> Action {
    action_moving(k, span, blk, crit, vec![], work, sends, vec![])
}

/// Builds the step-`k` action that installs `takes`, runs `work`, makes
/// `sends` and then forgets the owned blocks `drops`, deriving what the
/// scheduler must know from what the executor will do, so the two
/// cannot disagree: a [`Src::Msg`] input or a taken message is a need,
/// a [`Src::Own`] input a read, every `out`, taken and dropped block a
/// write, and a sent block a read unless the action itself writes it.
/// Broadcasts to nobody are dropped.
pub(crate) fn action_moving(
    k: usize,
    span: Option<&'static str>,
    blk: (usize, usize),
    crit: bool,
    takes: Vec<Take>,
    work: Vec<Work>,
    mut sends: Vec<Send>,
    drops: Vec<Res>,
) -> Action {
    fn note<T: PartialEq>(set: &mut Vec<T>, x: T) {
        if !set.contains(&x) {
            set.push(x);
        }
    }
    sends.retain(|s| !s.dests.is_empty());
    let (mut needs, mut reads, mut writes) = (vec![], vec![], vec![]);
    for t in &takes {
        if let Some(key) = t.msg {
            note(&mut needs, key);
        }
        note(&mut writes, t.res);
    }
    for w in &work {
        for &res in &w.out {
            note(&mut writes, res);
        }
        for src in &w.ins {
            match *src {
                Src::Msg(key) => note(&mut needs, key),
                Src::Own(res) => note(&mut reads, res),
            }
        }
    }
    for &res in &drops {
        note(&mut writes, res);
    }
    for s in &sends {
        note(&mut reads, s.res);
    }
    reads.retain(|res| !writes.contains(res));
    Action {
        step: k,
        span,
        blk,
        crit,
        takes,
        work,
        sends,
        drops,
        needs,
        reads,
        writes,
    }
}

/// Unblocked LU without pivoting of a single block, in place, packed:
/// each pivot row is swept along the rows below it. A zero pivot (the
/// matrix needs pivoting) is a breakdown.
fn lu_block_nopivot(a: &mut Matrix) -> Result<(), &'static str> {
    let n = a.rows();
    for k in 0..n {
        let (top, below) = a.as_mut_slice().split_at_mut((k + 1) * n);
        let pivot_row = &top[k * n + k..];
        if pivot_row[0].abs() <= 1e-300 {
            return Err("zero LU pivot");
        }
        for row in below.chunks_exact_mut(n) {
            let m = row[k] / pivot_row[0];
            row[k] = m;
            for (x, p) in row[k + 1..].iter_mut().zip(&pivot_row[1..]) {
                *x -= m * p;
            }
        }
    }
    Ok(())
}

impl Kern {
    /// Runs the kernel on `c` once for real and `weight - 1` more times
    /// for nothing (the slowdown emulation: repeats land in `scratch`
    /// or are dropped; a GEMM or solve repeat is the whole kernel,
    /// packing included, through the same `packs`). Returns the buffer
    /// the kernel is done with — the block's previous contents, a
    /// transposed operand — for the caller's pool, or what broke down.
    fn apply(
        self,
        ins: &[&Matrix],
        c: &mut Matrix,
        scratch: &mut Matrix,
        packs: &mut Packs,
        weight: u64,
    ) -> Result<Option<Matrix>, &'static str> {
        // The in-place kernels: the repeats go first, on copies of the
        // still untouched block; the real run's outcome is returned.
        fn in_place<R>(
            c: &mut Matrix,
            scratch: &mut Matrix,
            weight: u64,
            mut f: impl FnMut(&mut Matrix) -> R,
        ) -> R {
            for _ in 1..weight {
                scratch.copy_from(c);
                let _ = f(scratch);
            }
            f(c)
        }
        Ok(match self {
            Kern::Getrf => {
                in_place(c, scratch, weight, lu_block_nopivot)?;
                None
            }
            // Out of place: the block becomes its factor.
            Kern::Potrf => {
                let l = cholesky(c).map_err(|_| "diagonal block not SPD")?;
                for _ in 1..weight {
                    let _ = cholesky(c);
                }
                Some(std::mem::replace(c, l))
            }
            Kern::TrsmLeftUnitLower => {
                in_place(c, scratch, weight, |x| {
                    solve_lower_in_place(packs, ins[0], true, x)
                });
                None
            }
            // `X * T = C` is `T^T * X^T = C^T`: a right-side solve is a
            // left-lower one between two transpositions of the block.
            Kern::TrsmRightUpper => {
                in_place(c, scratch, weight, |x| {
                    x.transpose_in_place();
                    solve_upper_t_in_place(packs, ins[0], x);
                    x.transpose_in_place();
                });
                None
            }
            // L * X^T = C^T: the factor is read as it is.
            Kern::TrsmRightLowerT => {
                in_place(c, scratch, weight, |x| {
                    x.transpose_in_place();
                    solve_lower_in_place(packs, ins[0], false, x);
                    x.transpose_in_place();
                });
                None
            }
            Kern::Gemm(alpha) => {
                gemm_with(packs, alpha, ins[0], ins[1], 1.0, c);
                for _ in 1..weight {
                    gemm_with(packs, alpha, ins[0], ins[1], 0.0, scratch);
                }
                None
            }
            Kern::GemmNt(alpha) => {
                let yt = ins[1].transpose();
                Kern::Gemm(alpha).apply(&[ins[0], &yt], c, scratch, packs, weight)?;
                Some(yt)
            }
            Kern::Geqrf | Kern::Ormqr => unreachable!("{self:?} runs on a stack: see `geqrf`"),
        })
    }
}

/// Copies the `r x r` blocks `blocks` into `stack`, top to bottom: in a
/// row-major stack `r` wide each block is one contiguous run.
fn stack_into(blocks: &[Matrix], stack: &mut Matrix) {
    let runs = stack
        .as_mut_slice()
        .chunks_exact_mut(blocks[0].as_slice().len());
    for (run, block) in runs.zip(blocks) {
        run.copy_from_slice(block.as_slice());
    }
}

/// Copies the stack's runs back into `blocks`.
fn unstack(stack: &Matrix, blocks: &mut [Matrix]) {
    let runs = stack.as_slice().chunks_exact(blocks[0].as_slice().len());
    for (run, block) in runs.zip(blocks) {
        block.as_mut_slice().copy_from_slice(run);
    }
}

/// [`Kern::Geqrf`] on `panel` through the worker's `packs`, the
/// `weight - 1` repeats factoring the same stack for nothing; `refl`
/// becomes the reflectors. Returns the factors.
fn geqrf(
    panel: &mut [Matrix],
    refl: &mut Matrix,
    pool: &mut BufferPool,
    packs: &mut Packs,
    weight: u64,
) -> QrFactors {
    let (rows, r) = (panel.len() * panel[0].rows(), panel[0].cols());
    // Pool buffers with stale contents: the blocks, then the packed
    // stack and the scalars, cover them.
    let mut stack = pool.take(rows, r);
    stack_into(panel, &mut stack);
    for _ in 1..weight {
        qr_factor_with(packs, &stack);
    }
    let pf = qr_factor_with(packs, &stack);
    pool.put(stack);
    unstack(pf.packed(), panel);
    *refl = pool.take(rows + 1, r);
    refl.as_mut_slice()[..rows * r].copy_from_slice(pf.packed().as_slice());
    refl.row_mut(rows).copy_from_slice(pf.taus());
    pf
}

/// [`Kern::Ormqr`] with the factors `pf` on `col` through the worker's
/// `packs`, in place on the stack; the `weight - 1` repeats go first, on
/// a copy of it.
fn ormqr(
    pf: &QrFactors,
    col: &mut [Matrix],
    pool: &mut BufferPool,
    packs: &mut Packs,
    weight: u64,
) {
    let (rows, r) = (col.len() * col[0].rows(), col[0].cols());
    let mut stack = pool.take(rows, r);
    stack_into(col, &mut stack);
    if weight > 1 {
        let mut copy = pool.take(rows, r);
        for _ in 1..weight {
            copy.copy_from(&stack);
            pf.qt_mul_with(packs, &mut copy);
        }
        pool.put(copy);
    }
    pf.qt_mul_with(packs, &mut stack);
    unstack(&stack, col);
    pool.put(stack);
}

/// The factors behind a [`Kern::Geqrf`]'s reflectors `refl`: they apply
/// the bits of the ones it made.
fn reflectors(refl: &Matrix) -> QrFactors {
    let n = refl.rows() - 1;
    QrFactors::from_parts(refl.block(0, 0, n, refl.cols()), refl.row(n).to_vec())
}

/// An operand: an owned block, or a buffered message's payload.
fn operand<'s>(stores: &'s [Cow<'_, BlockStore>], courier: &'s Courier, src: Src) -> &'s Matrix {
    match src {
        Src::Own((ns, bi, bj)) => &stores[ns as usize][&(bi, bj)],
        Src::Msg((step, tag, idx)) => courier.get(step, tag, idx),
    }
}

/// One processor's worker, for every kernel of either platform.
/// `stores` holds its blocks by namespace: 0 the matrix it writes
/// (factored in place, MM's `C` from the epoch baseline, a star
/// processor's `C` blocks), 1 and 2 the `A`/`B` blocks — borrowed on a
/// grid, so a recovery epoch copies nothing, and taken block by block
/// by a star worker — 3 and 4 QR's reflectors and loaned blocks. `cap`
/// bounds how many blocks it may hold at once: a star worker's memory,
/// `None` on a grid.
pub(crate) struct GridInterp<'a> {
    plan: &'a Plan,
    my: (usize, usize),
    /// The namespace-0 blocks it starts with, sorted.
    owned: Vec<(usize, usize)>,
    stores: Vec<Cow<'a, BlockStore>>,
    cap: Option<usize>,
    scratch: Matrix,
    packs: Packs,
    /// QR's factors by step — a `Geqrf`'s own, or rebuilt once from
    /// the broadcast reflectors — kept until the step retires.
    refl: HashMap<usize, QrFactors>,
    /// Where a `Geqrf` reports the Householder scalars, by step. A
    /// resumed epoch overwrites the steps it re-runs, so replayed work
    /// lands bit-identically and the scalars of steps retired before a
    /// fault survive.
    taus: Option<&'a Mutex<Vec<Vec<f64>>>>,
}

impl<'a> GridInterp<'a> {
    pub(crate) fn new(
        plan: &'a Plan,
        my: (usize, usize),
        mut stores: Vec<Cow<'a, BlockStore>>,
        cap: Option<usize>,
        r: usize,
        taus: Option<&'a Mutex<Vec<Vec<f64>>>>,
    ) -> Self {
        let mut owned: Vec<_> = stores[0].keys().copied().collect();
        owned.sort_unstable();
        stores.resize_with(STORES, || Cow::Owned(BlockStore::new()));
        GridInterp {
            plan,
            my,
            owned,
            stores,
            cap,
            scratch: Matrix::zeros(r, r),
            packs: Packs::default(),
            refl: HashMap::new(),
            taus,
        }
    }

    /// Steps in the plan.
    pub(crate) fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    /// Appends this processor's actions for step `k` to `out`, in the
    /// kernel's program order: earlier actions are preferred by the
    /// scheduler and define the conflict baseline. The step's variant
    /// picks its emitter.
    pub(crate) fn emit(&self, k: usize, out: &mut Vec<Action>) {
        let step = &self.plan.steps[k];
        let emit = match step {
            Step::Mm { .. } => mm_actions,
            Step::Factor { .. } => lu_actions,
            Step::Cholesky { .. } => cholesky_actions,
            Step::Qr { .. } => qr_actions,
            Step::Load { .. } | Step::Compute { .. } | Step::Evict { .. } => star_actions,
        };
        out.extend(emit(step, self.my, &self.owned));
    }

    /// The current content of namespace-0 block `blk`, if this
    /// processor owns it — the checkpoint journal's window into the
    /// worker's state.
    pub(crate) fn peek(&self, blk: (usize, usize)) -> Option<&Matrix> {
        self.stores[0].get(&blk)
    }

    /// Step `k` fully retired: QR's factors of it go.
    pub(crate) fn retire(&mut self, k: usize) {
        self.refl.remove(&k);
        self.stores[usize::from(REFL)].to_mut().remove(&(k, k));
    }

    /// This processor's share of the result once every step retired.
    pub(crate) fn into_store(mut self) -> BlockStore {
        self.stores.swap_remove(0).into_owned()
    }

    /// Runs one action: its takes, its block kernels under `clock`, its
    /// sends and its drops. The driver calls it exactly once per emitted
    /// action, with every `needs` message buffered, and never while an
    /// earlier conflicting action of the window is unfinished.
    pub(crate) fn execute(
        &mut self,
        a: &Action,
        courier: &mut Courier,
        clock: &mut WorkClock,
    ) -> Result<(), Stop> {
        let GridInterp {
            my,
            stores,
            cap,
            scratch,
            packs,
            refl,
            taus,
            ..
        } = self;
        let mut guard = a
            .span
            .and_then(|name| courier.span_with(|| format!("{name} {}", a.step)));
        let (units_before, sent_before) = (clock.units, courier.sent());
        for t in &a.takes {
            let (ns, bi, bj) = t.res;
            let data = match t.msg {
                Some((step, tag, idx)) => courier.take(step, tag, idx)?,
                None => Matrix::zeros(scratch.rows(), scratch.cols()),
            };
            // A block coming home replaces what its owner held.
            if let Some(old) = stores[ns as usize].to_mut().insert((bi, bj), data) {
                courier.pool_mut().put(old);
            }
            // The star's memory bound at runtime: takes and drops are
            // program-ordered, so this trips only on an over-budget plan.
            let held: usize = stores.iter().map(|s| s.len()).sum();
            let cap = cap.unwrap_or(usize::MAX);
            assert!(
                held <= cap,
                "P{my:?} at step {} holds {held} > {cap} blocks",
                a.step
            );
        }
        let t0 = Instant::now();
        for w in &a.work {
            // Out of the stores while the kernel runs, so the inputs can
            // be borrowed from the same stores; the block a `Geqrf` makes
            // starts out empty.
            let mut out: Vec<Matrix> = w
                .out
                .iter()
                .map(|&(ns, bi, bj)| {
                    let block = stores[ns as usize].to_mut().remove(&(bi, bj));
                    block.unwrap_or_else(|| Matrix::zeros(0, 0))
                })
                .collect();
            match w.kern {
                Kern::Geqrf => {
                    let (made, panel) = out.split_first_mut().expect("a Geqrf has a stack");
                    let pf = geqrf(panel, made, courier.pool_mut(), packs, clock.weight);
                    if let Some(taus) = taus {
                        let mut taus = taus.lock().unwrap_or_else(|p| p.into_inner());
                        taus[a.step] = pf.taus().to_vec();
                    }
                    refl.insert(a.step, pf);
                }
                Kern::Ormqr => {
                    let pf = refl
                        .entry(a.step)
                        .or_insert_with(|| reflectors(operand(&stores[..], courier, w.ins[0])));
                    ormqr(pf, &mut out, courier.pool_mut(), packs, clock.weight);
                }
                kern => {
                    let ins: Vec<&Matrix> = w
                        .ins
                        .iter()
                        .map(|&src| operand(&stores[..], courier, src))
                        .collect();
                    let spent = kern.apply(&ins, &mut out[0], scratch, packs, clock.weight);
                    if let Some(m) = spent.map_err(|what| Stop::Breakdown(a.step, what))? {
                        courier.pool_mut().put(m);
                    }
                }
            }
            for (&(ns, bi, bj), block) in w.out.iter().zip(out) {
                stores[ns as usize].to_mut().insert((bi, bj), block);
            }
            clock.units += clock.weight * w.units();
        }
        let busy = t0.elapsed().as_secs_f64();
        clock.busy += busy;
        // The trailing updates (the only non-critical works) are the
        // compute chunks `exec.step.compute_us` counts.
        if !a.crit && !a.work.is_empty() {
            courier.step_done(busy);
        }
        for s in &a.sends {
            let (ns, bi, bj) = s.res;
            // A block dropped after its send moves into the payload;
            // otherwise one pool-backed copy however many destinations
            // share it.
            let payload = if a.drops.contains(&s.res) {
                let gone = stores[ns as usize].to_mut().remove(&(bi, bj));
                Arc::new(gone.expect("sent block missing"))
            } else {
                courier.pool_mut().dup(&stores[ns as usize][&(bi, bj)])
            };
            courier.bcast(&s.dests, a.step, s.tag, (bi, bj), payload)?;
        }
        for &(ns, bi, bj) in &a.drops {
            if let Some(m) = stores[ns as usize].to_mut().remove(&(bi, bj)) {
                courier.pool_mut().put(m);
            }
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
    use hetgrid_linalg::qr::qr_factor;
    use hetgrid_linalg::tri::{solve_lower, solve_right_upper};

    #[test]
    fn hazard_sets_are_derived_from_work_and_sends() {
        let (own, sent_only) = ((0, 1, 0), (1, 7, 7));
        let (msg, fed) = ((3, 2, (0, 1)), (3, 1, (4, 4)));
        let (taken, zeroed) = ((1, 4, 4), (0, 5, 5));
        let (dropped, returned) = ((2, 6, 6), (1, 8, 8));
        let gemm = |out| Work {
            kern: Kern::Gemm(1.0),
            ins: vec![Src::Own(own), Src::Msg(msg)],
            out: vec![out],
        };
        let send = |res, dests| Send { tag: 0, res, dests };
        let a = action_moving(
            3,
            Some("compute"),
            (3, 3),
            false,
            vec![
                Take {
                    msg: Some(fed),
                    res: taken,
                },
                Take {
                    msg: None,
                    res: zeroed,
                },
            ],
            vec![gemm((0, 1, 1)), gemm((0, 2, 2))],
            vec![
                send((0, 1, 1), vec![(0, 1)]),
                send(sent_only, vec![(1, 0)]),
                send((0, 9, 9), vec![]),
                send(returned, vec![(0, 0)]),
            ],
            vec![dropped, returned],
        );
        assert_eq!((a.step, a.blk, a.crit), (3, (3, 3), false));
        // Named by both works: once each. The messages are needs only;
        // a zero accumulator needs none.
        assert_eq!(a.needs, vec![fed, msg]);
        // Taken, worked and dropped blocks are all writes.
        let writes = vec![taken, zeroed, (0, 1, 1), (0, 2, 2), dropped, returned];
        assert_eq!(a.writes, writes);
        // (0,1,1) is sent but also written, and the returned block is
        // sent and dropped: writes, not reads. The broadcast to nobody
        // is gone and reads nothing.
        assert_eq!(a.reads, vec![own, sent_only]);
        let counts = (a.takes.len(), a.work.len(), a.sends.len(), a.drops.len());
        assert_eq!(counts, (2, 2, 3, 2));
    }

    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.shape(), want.shape(), "{what}");
        assert!(bits(got) == bits(want), "{what}: bits differ");
    }

    /// `(kernel, inputs, block, the linalg call's result)` for every
    /// single-block [`Kern`] on `n x n` blocks.
    fn kern_cases(n: usize) -> Vec<(Kern, Vec<Matrix>, Matrix, Matrix)> {
        let (x, y) = (dense(n, n, 0x61), dense(n, n, 0x62));
        let (diag_dom, diag_spd) = (dominant(n, 0x63), spd(n, 0x64));
        let lfac = cholesky(&diag_spd).unwrap();
        let mut packed = diag_dom.clone();
        lu_block_nopivot(&mut packed).unwrap();
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
                    kern.apply(&ins, &mut c, &mut scratch, &mut packs, weight)
                        .unwrap();
                    assert_bits(&c, &want, &format!("{kern:?}, r = {n}, weight {weight}"));
                }
            }
        }
    }

    /// QR's two stacked kernels are the `linalg` calls on the stack, to
    /// the bit, at weight 1 and 3, in the sweep (`r = 8`) and above its
    /// leaf (`r = 24`): `Geqrf`'s blocks are `qr_factor`'s packed
    /// factors and its reflectors hold them and the scalars, and
    /// `Ormqr` is `qt_mul`, through the factors `Geqrf` returned or
    /// those rebuilt from its reflectors.
    #[test]
    fn stacked_qr_kerns_match_the_linalg_calls() {
        for r in [8, 24] {
            let (a, c) = (dense(3 * r, r, 0x65), dense(3 * r, r, 0x66));
            let split = |m: &Matrix| (0..3).map(|i| m.block(i * r, 0, r, r)).collect::<Vec<_>>();
            let factors = qr_factor(&a);
            let product = split(&factors.qt_mul(&c));
            let (mut pool, mut packs) = (BufferPool::new(), Packs::default());
            for weight in [1, 3] {
                let what = format!("r = {r}, weight {weight}");
                let (mut panel, mut refl) = (split(&a), Matrix::zeros(0, 0));
                let pf = geqrf(&mut panel, &mut refl, &mut pool, &mut packs, weight);
                for (got, want) in panel.iter().zip(&split(factors.packed())) {
                    assert_bits(got, want, &format!("Geqrf, {what}"));
                }
                let (stack, scalars) = (refl.block(0, 0, 3 * r, r), refl.block(3 * r, 0, 1, r));
                assert_bits(&stack, factors.packed(), &format!("reflectors, {what}"));
                let taus = Matrix::from_fn(1, r, |_, j| factors.taus()[j]);
                assert_bits(&scalars, &taus, &format!("scalars, {what}"));
                for pf in [pf, reflectors(&refl)] {
                    let mut col = split(&c);
                    ormqr(&pf, &mut col, &mut pool, &mut packs, weight);
                    for (got, want) in col.iter().zip(&product) {
                        assert_bits(got, want, &format!("Ormqr, {what}"));
                    }
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
                let spent = kern
                    .apply(&ins, &mut c, &mut scratch, &mut packs, weight)
                    .unwrap();
                assert!(spent.is_none(), "{kern:?} retired a buffer");
                assert_eq!(
                    (c.as_slice().as_ptr(), scratch.as_slice().as_ptr()),
                    buffers
                );
            }
        }
    }
}
