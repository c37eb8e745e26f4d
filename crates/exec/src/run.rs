//! The executor's one grid entry point: [`run`] takes a
//! [`Kernel`] and its input matrices, scatters them over the
//! distribution, interprets the kernel's step plan on one thread per
//! processor, and gathers the result.
//!
//! Everything between scatter and gather is written once, in
//! [`run_seg`]: one *epoch* of a plan from step `start` to completion
//! over an already-scattered [`GridState`], optionally journaling every
//! block write. A fresh run is the epoch with `start = 0` and no
//! journal; [`crate::recovery`] chains epochs across grid faults. The
//! only per-kernel code left is what differs by construction: the
//! emitters ([`crate::mm`], [`crate::lu`], [`crate::cholesky`],
//! [`crate::qr`]), which the block-op interpreter in [`crate::grid`]
//! picks by each step's variant, and that MM accumulates into a
//! separate `C` while the factorizations update their input in place.

use crate::grid::GridInterp;
use crate::step::{check_weights, gather_result, run_grid, run_steps, ExecConfig, Journal};
use crate::store::{BlockStore, CheckpointLog, DistributedMatrix, ExecReport};
use crate::transport::{ExecError, Transport};
use hetgrid_dist::BlockDist;
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Kernel, Plan};
use std::borrow::Cow;
use std::sync::Mutex;

/// What a grid run produces.
pub struct RunOutput {
    /// The gathered result: `C` for MM, the packed `L\U` factors for LU
    /// (strictly lower = `L` with unit diagonal, upper = `U`), the lower
    /// factor `L` for Cholesky (upper triangle zero), QR's globally
    /// packed factors (unpack with [`crate::qr_unpack`]).
    pub result: Matrix,
    /// QR's Householder scalars (`nb * r`, panel-major); `None` for the
    /// other kernels.
    pub taus: Option<Vec<f64>>,
    /// Per-processor measurements.
    pub report: ExecReport,
}

/// Runs `kernel` on `nb x nb` blocks of size `r` distributed by `dist`,
/// over `transport`, with per-processor slowdown `weights` (block
/// kernels repeated `w_ij` times) and executor tuning `cfg`.
///
/// `inputs` is `[a, b]` for [`Kernel::Mm`] (`C = A * B`) and `[a]` for
/// the factorizations: LU runs without pivoting (feed it diagonally
/// dominant matrices), Cholesky wants an SPD matrix and reads only its
/// lower triangle.
///
/// Returns a typed [`ExecError`] if a worker dropped out mid-run or a
/// block factorization broke down (a zero LU pivot, a Cholesky diagonal
/// block that is not SPD: [`ExecError::Breakdown`]).
///
/// # Panics
/// Panics if the input count or a matrix size does not match
/// `kernel` / `nb * r`, or if the weights table does not match the
/// grid.
pub fn run(
    transport: &impl Transport,
    kernel: Kernel,
    inputs: &[&Matrix],
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<RunOutput, ExecError> {
    let state = GridState::scatter(kernel, inputs, dist, nb, r);
    state.run_to_end(transport, &kernel.plan(dist, nb), weights, cfg)
}

/// [`run`] for `C = A * B`, returning `(C, report)`; errors and panics
/// as for [`run`].
pub fn run_mm_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    b: &Matrix,
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<(Matrix, ExecReport), ExecError> {
    run(transport, Kernel::Mm, &[a, b], dist, nb, r, weights, cfg).map(|o| (o.result, o.report))
}

/// [`run`] for LU, returning `(packed factors, report)`; errors and
/// panics as for [`run`].
pub fn run_lu_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<(Matrix, ExecReport), ExecError> {
    run(transport, Kernel::Lu, &[a], dist, nb, r, weights, cfg).map(|o| (o.result, o.report))
}

/// [`run`] for Cholesky, returning `(L, report)`; errors and panics as
/// for [`run`].
pub fn run_cholesky_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<(Matrix, ExecReport), ExecError> {
    run(transport, Kernel::Cholesky, &[a], dist, nb, r, weights, cfg).map(|o| (o.result, o.report))
}

/// [`run`] for QR, returning `(packed factors, taus, report)`; errors
/// and panics as for [`run`].
pub fn run_qr_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<(Matrix, Vec<f64>, ExecReport), ExecError> {
    run(transport, Kernel::Qr, &[a], dist, nb, r, weights, cfg)
        .map(|o| (o.result, o.taus.expect("QR returns taus"), o.report))
}

/// A kernel's distributed state, carried from scatter to gather and —
/// under recovery — across epochs and grid changes.
pub(crate) struct GridState {
    pub kernel: Kernel,
    /// The matrix the plan writes and recovery journals: the matrix
    /// being factored in place, or MM's `C`. Always the consistent
    /// state at the current epoch's start step on the current grid.
    pub main: DistributedMatrix,
    /// MM's read-only `A` and `B`; empty for the factorizations.
    pub operands: Vec<DistributedMatrix>,
    /// QR's Householder scalars by step, reported by the panel
    /// factorizations (see [`GridInterp`]); the other kernels leave
    /// every slot empty.
    taus: Mutex<Vec<Vec<f64>>>,
}

/// MM's `A` and `B` scattered over `dist`; nothing for the
/// factorizations, whose one input is the matrix they write.
pub(crate) fn scatter_operands(
    kernel: Kernel,
    inputs: &[&Matrix],
    dist: &dyn BlockDist,
    nb: usize,
    r: usize,
) -> Vec<DistributedMatrix> {
    match kernel {
        Kernel::Mm => vec![
            DistributedMatrix::scatter(inputs[0], dist, nb, r),
            DistributedMatrix::scatter(inputs[1], dist, nb, r),
        ],
        Kernel::Lu | Kernel::Cholesky | Kernel::Qr => vec![],
    }
}

impl GridState {
    /// Scatters `inputs` for a fresh run of `kernel` (MM's `C` baseline
    /// is zeros).
    pub fn scatter(
        kernel: Kernel,
        inputs: &[&Matrix],
        dist: &dyn BlockDist,
        nb: usize,
        r: usize,
    ) -> Self {
        let main = match (kernel, inputs) {
            (Kernel::Mm, [_, _]) => DistributedMatrix::zeros(dist, nb, r),
            (Kernel::Lu | Kernel::Cholesky | Kernel::Qr, [a]) => {
                DistributedMatrix::scatter(a, dist, nb, r)
            }
            _ => panic!("run: {} given {} inputs", kernel.name(), inputs.len()),
        };
        GridState {
            kernel,
            main,
            operands: scatter_operands(kernel, inputs, dist, nb, r),
            taus: Mutex::new(vec![Vec::new(); nb]),
        }
    }

    /// The fault-free run: one epoch from step 0, no journal.
    pub fn run_to_end(
        mut self,
        transport: &impl Transport,
        plan: &Plan,
        weights: &[Vec<u64>],
        cfg: ExecConfig,
    ) -> Result<RunOutput, ExecError> {
        let (stores, report) = self.run_moved(transport, plan, weights, cfg)?;
        Ok(self.gather(stores, report))
    }

    /// The one epoch of a fault-free run, whose workers take the main
    /// matrix's stores by move: with no recovery to roll back to, the
    /// scattered blocks need no epoch-start copy.
    fn run_moved(
        &mut self,
        transport: &impl Transport,
        plan: &Plan,
        weights: &[Vec<u64>],
        cfg: ExecConfig,
    ) -> Result<(Vec<BlockStore>, ExecReport), ExecError> {
        let slots: Vec<Mutex<BlockStore>> = std::mem::take(&mut self.main.stores)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let take =
            |me: usize| std::mem::take(&mut *slots[me].lock().unwrap_or_else(|p| p.into_inner()));
        run_seg(transport, self, take, plan, weights, cfg, 0, None)
    }

    /// Folds the final epoch's worker stores into the kernel's result.
    pub fn gather(self, stores: Vec<BlockStore>, report: ExecReport) -> RunOutput {
        let (rows_b, cols_b, r) = (self.main.nb_rows, self.main.nb_cols, self.main.r);
        let mut result = gather_result(stores, (rows_b, cols_b), r, self.kernel.name());
        if self.kernel == Kernel::Cholesky {
            // The in-place factorization leaves the input's upper
            // triangle behind; `L` is lower triangular.
            for i in 0..result.rows() {
                for j in i + 1..result.cols() {
                    result[(i, j)] = 0.0;
                }
            }
        }
        let taus = (self.kernel == Kernel::Qr).then(|| {
            let flat: Vec<f64> = self
                .taus
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(flat.len(), cols_b * r, "run: missing Householder scalars");
            flat
        });
        RunOutput {
            result,
            taus,
            report,
        }
    }
}

/// One epoch: interprets `plan` from step `start` to completion over
/// `state`, processor `me` starting from the main matrix's store
/// `main(me)`, journaling every write to the main matrix into `journal`
/// when given. Returns the raw per-processor stores of the main matrix;
/// [`GridState::gather`] folds them.
pub(crate) fn run_seg(
    transport: &impl Transport,
    state: &GridState,
    main: impl Fn(usize) -> BlockStore + Sync,
    plan: &Plan,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
    start: usize,
    journal: Option<&CheckpointLog>,
) -> Result<(Vec<BlockStore>, ExecReport), ExecError> {
    let kernel = state.kernel;
    let grid @ (_, q) = plan.grid;
    check_weights(weights, grid, kernel.name());
    let r = state.main.r;
    let (stores, mut report) = run_grid(transport, grid, weights, |me, courier, clock| {
        let main = Cow::Owned(main(me));
        let operands = state.operands.iter().map(|o| Cow::Borrowed(&o.stores[me]));
        let stores = std::iter::once(main).chain(operands).collect();
        let (my, taus) = ((me / q, me % q), Some(&state.taus));
        let interp = GridInterp::new(plan, my, stores, None, r, taus);
        let j = journal.map(|log| Journal { log, me });
        run_steps(interp, courier, clock, cfg.lookahead, start, j.as_ref())
    })?;
    report.lookahead = cfg.lookahead;
    Ok((stores, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dominant, uniform};
    use crate::transport::ChannelTransport;
    use hetgrid_dist::BlockCyclic;
    use std::collections::HashMap;

    /// Every block of `stores` by its index, as the address of its data.
    fn addresses(stores: &[BlockStore]) -> HashMap<(usize, usize), *const f64> {
        let blocks = stores.iter().flatten();
        blocks.map(|(&k, m)| (k, m.as_slice().as_ptr())).collect()
    }

    /// With no step to run, a fault-free epoch hands back every
    /// scattered block at the address it was scattered to: its workers
    /// took the stores, they did not copy them. Recovery's epochs,
    /// which must keep the epoch-start state, do copy.
    #[test]
    fn a_fault_free_epoch_moves_the_scattered_blocks() {
        let (dist, nb, r) = (BlockCyclic::new(2, 2), 4, 3);
        let a = dominant(nb * r, 7);
        let empty = Kernel::Lu.plan(&dist, 0);
        let (weights, cfg) = (uniform(2, 2), ExecConfig::default());
        let mut state = GridState::scatter(Kernel::Lu, &[&a], &dist, nb, r);
        let scattered = addresses(&state.main.stores);
        assert_eq!(scattered.len(), nb * nb);

        let copy = |me: usize| state.main.stores[me].clone();
        let (copies, _) = run_seg(
            &ChannelTransport,
            &state,
            copy,
            &empty,
            &weights,
            cfg,
            0,
            None,
        )
        .expect("an empty plan runs");
        let copied = addresses(&copies);
        assert!(scattered.iter().all(|(k, p)| copied[k] != *p));

        let (moved, _) = state
            .run_moved(&ChannelTransport, &empty, &weights, cfg)
            .expect("an empty plan runs");
        assert_eq!(addresses(&moved), scattered);
    }
}
