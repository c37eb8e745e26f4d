//! Elastic-grid recovery: resume a distributed kernel run after a
//! processor crashes out of (or joins into) the grid mid-run.
//!
//! The model is checkpoint-restart over the executor's step plans. An
//! epoch runs a kernel's plan from step `start` with every namespace-0
//! block write journaled into a [`CheckpointLog`] (the stand-in for a
//! reliable checkpoint store: the log lives in the driver, outside the
//! worker threads, so it survives any worker's death). A
//! fault-injecting transport kills a worker only at a *retirement
//! boundary* (the [`Endpoint::mark`](crate::transport::Endpoint::mark)
//! beacon), so when an epoch aborts the driver can compute the global
//! retirement frontier `F = min_i retired_i` — the *consistent cut*:
//! every step `< F` is fully executed on every processor, and the
//! journaled state at `F` (latest logged version of each block below
//! the cut, else the epoch baseline) is exactly what an in-order run
//! would hold after step `F - 1`.
//!
//! Recovery then:
//!
//! 1. asks the transport which fault fired ([`Transport::faults`]);
//! 2. rolls the distributed matrix back to the cut via
//!    [`CheckpointLog::state_at`];
//! 3. builds the survivor grid: a crash drops the victim's row or
//!    column (whichever carries less compute capacity), a join appends
//!    a row, and the paper's exact solver re-solves the allocation on
//!    the changed processor set;
//! 4. places every block of the cut at its owner under the re-solved
//!    distribution — a dead processor's blocks are restored from the
//!    log, a survivor's block counts as moved when that owner is not
//!    the survivor itself;
//! 5. re-derives the step plan for the survivor distribution and
//!    resumes execution at step `F` with a fresh journal.
//!
//! Because every plan's communication is intra-step (every `needs` key
//! names a same-step message) and per-block arithmetic order is fixed
//! by program order regardless of the distribution, the resumed epoch
//! is self-contained and the final result is **bit-exact** against the
//! fault-free run — which is what the harness's `check_recovery`
//! oracle asserts.
//!
//! Faults compose: each survivor grid is re-solved from the grid of
//! the epoch that aborted, so a later fault names a processor of the
//! grid recovery left behind, and the faults that fired during one
//! epoch are applied in firing order.

use crate::run::{run_seg, scatter_operands, GridState, RunOutput};
use crate::step::ExecConfig;
use crate::store::{BlockStore, CheckpointLog, DistributedMatrix};
use crate::transport::{ExecError, Transport};
use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{BlockDist, PanelDist, PanelOrdering};
use hetgrid_linalg::Matrix;
use hetgrid_plan::Kernel;

/// A grid-membership fault observed by the transport, always anchored
/// at a retirement boundary (the step the victim had just retired when
/// the fault fired).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridFault {
    /// Processor `proc` (linear id in the grid the fault fired on)
    /// died after retiring step `at_step`.
    Crash {
        /// Linear id of the dead processor.
        proc: usize,
        /// The last step the processor retired before dying.
        at_step: usize,
    },
    /// A new processor asked to join; the grid pauses after retiring
    /// step `at_step` to resize.
    Join {
        /// The retirement boundary the grid paused at.
        at_step: usize,
    },
}

/// The grid a sequence of [`GridFault`]s leaves behind.
struct SurvivorGrid {
    /// The survivors' cycle-times, arranged as the new grid.
    arr: Arrangement,
    /// Re-solved block distribution over the new grid.
    dist: PanelDist,
    /// Slowdown weights for the new grid.
    weights: Vec<Vec<u64>>,
    /// Old linear processor id to new linear id; `None` for a
    /// processor that died or left with its line. A join maps every
    /// old id and grows the id space.
    proc_map: Vec<Option<usize>>,
}

/// What happened across the epochs of a recovered run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Processor crashes recovered from.
    pub crashes: usize,
    /// Processor joins absorbed.
    pub joins: usize,
    /// The consistent cut of the last fault (the step the final epoch
    /// resumed at).
    pub frontier: usize,
    /// Blocks that lived on a dead processor at its cut and were
    /// restored from the checkpoint store.
    pub dead_blocks: usize,
    /// Survivor blocks the re-solved distribution placed on another
    /// processor.
    pub blocks_moved: usize,
    /// Retired-step progress discarded by rolling back to the cut
    /// (work replayed by the next epoch).
    pub replayed_steps: usize,
}

/// A recovered run's outputs.
pub struct RecoveryOutput {
    /// What [`crate::run`] would have returned — bit-exact in `result`
    /// and `taus`; `report` measures the final (completing) epoch.
    pub run: RunOutput,
    /// What recovery did.
    pub stats: RecoveryStats,
}

/// The survivor grid after `faults`, in firing order, on the grid of
/// `arr` (slowdown `weights`); `None` when no processor survives.
///
/// A crash drops the victim's entire grid *line* — its row or its
/// column, whichever carries less aggregate compute capacity
/// (`Σ 1/t` over the line; ties prefer the row) — so the survivor grid
/// keeps the paper's 2D shape. A join grows the grid by one row of
/// processors as fast as the fastest incumbent. Each fault names a
/// processor of `arr`'s grid and acts on the grid the faults before it
/// left (a victim whose line is already gone changes nothing more).
/// The survivor distribution is re-solved from scratch (exact column
/// allocation, interleaved panels on a `2p' x 2q'` panel grid), and the
/// weight table is carried over by deleting/extending lines of the
/// original — so an injected slowdown fault survives the resize with
/// its victim.
fn survivor_grid(
    arr: &Arrangement,
    weights: &[Vec<u64>],
    faults: &[GridFault],
) -> Option<SurvivorGrid> {
    let mut rows: Vec<Vec<f64>> = (0..arr.p()).map(|i| arr.row(i).to_vec()).collect();
    let mut weights = weights.to_vec();
    let mut proc_map: Vec<Option<usize>> = (0..arr.p() * arr.q()).map(Some).collect();
    for fault in faults {
        let (p, q) = (rows.len(), rows[0].len());
        // Ids on the grid before this fault to ids after it.
        let step: Vec<Option<usize>> = match *fault {
            GridFault::Crash { proc, .. } => {
                let Some(proc) = proc_map[proc] else {
                    continue;
                };
                let (di, dj) = (proc / q, proc % q);
                let row_loss: f64 = rows[di].iter().map(|t| 1.0 / t).sum();
                let col_loss: f64 = rows.iter().map(|row| 1.0 / row[dj]).sum();
                if p * q == 1 {
                    return None;
                } else if (p > 1 && row_loss <= col_loss) || q == 1 {
                    // Drop row `di`: the survivors below it move up a row.
                    rows.remove(di);
                    weights.remove(di);
                    (0..p * q)
                        .map(|id| (id / q != di).then(|| id - q * usize::from(id / q > di)))
                        .collect()
                } else {
                    // Drop column `dj`: each row's survivors close up.
                    for row in &mut rows {
                        row.remove(dj);
                    }
                    for row in &mut weights {
                        row.remove(dj);
                    }
                    (0..p * q)
                        .map(|id| {
                            let (i, j) = (id / q, id % q);
                            (j != dj).then(|| id - i - usize::from(j > dj))
                        })
                        .collect()
                }
            }
            GridFault::Join { .. } => {
                // One new row of joiners, as fast as the fastest
                // incumbent; existing linear ids are unchanged.
                let t_min = rows.iter().flatten().copied().fold(f64::INFINITY, f64::min);
                let w_min = weights.iter().flatten().copied().min().unwrap_or(1);
                rows.push(vec![t_min; q]);
                weights.push(vec![w_min; q]);
                (0..p * q).map(Some).collect()
            }
        };
        for id in &mut proc_map {
            *id = id.and_then(|id| step[id]);
        }
    }
    let arr = Arrangement::from_rows(&rows);
    let alloc = exact::solve_arrangement(&arr).alloc;
    let (np, nq) = (arr.p(), arr.q());
    Some(SurvivorGrid {
        dist: PanelDist::from_allocation(&arr, &alloc, 2 * np, 2 * nq, PanelOrdering::Interleaved),
        arr,
        weights,
        proc_map,
    })
}

/// Runs a kernel to completion over `transport`, surviving a grid
/// fault the transport injects by checkpoint-restarting on the
/// survivor grid (see the module docs for the protocol).
///
/// `kernel` and `inputs` are as for [`crate::run`]; the matrices are
/// `nb x nb` blocks of size `r`, initially laid out by `dist` with
/// slowdown `weights` on the processor grid of `arr`, which the
/// first survivor grid is re-solved from (each later one from the grid
/// before it). Returns the gathered result — bit-exact against the
/// fault-free run — or the original [`ExecError`] when an epoch aborts
/// without a fault event (a genuine failure, e.g. an un-recovered
/// crash), on a numerical breakdown (replaying it cannot help), or when
/// a crash leaves no processor.
///
/// # Panics
/// Panics if a survivor grid loses blocks (conservation is asserted
/// after every placement), or on the size mismatches the underlying
/// kernels reject.
pub fn run_recovery(
    transport: &impl Transport,
    kernel: Kernel,
    inputs: &[&Matrix],
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
    arr: &Arrangement,
) -> Result<RecoveryOutput, ExecError> {
    let (p, q) = dist.grid();
    let mut state = GridState::scatter(kernel, inputs, dist, nb, r);

    // The current epoch's grid: `None` means the initial `arr` /
    // `dist` / `weights`, `Some` a survivor grid installed by recovery.
    let mut survivor: Option<SurvivorGrid> = None;
    let mut start = 0usize;
    let mut log = CheckpointLog::new(p * q, 0);
    let mut stats = RecoveryStats::default();
    let mut handled = 0usize;

    loop {
        let (cur_arr, cur_dist, cur_weights): (_, &(dyn BlockDist + Sync), &[_]) = match &survivor {
            Some(s) => (&s.arr, &s.dist, &s.weights),
            None => (arr, dist, weights),
        };
        let plan = kernel.plan(cur_dist, nb);
        let err = match run_seg(
            transport,
            &state,
            &plan,
            cur_weights,
            cfg,
            start,
            Some(&log),
        ) {
            Ok((stores, report)) => {
                return Ok(RecoveryOutput {
                    run: state.gather(stores, report),
                    stats,
                })
            }
            Err(e) => e,
        };

        // The epoch aborted. New fault events mean the transport killed
        // (or paused) us on purpose; none means the grid really broke,
        // and the error propagates untouched, as does a breakdown.
        let faults = transport.faults();
        if faults.len() <= handled || matches!(err, ExecError::Breakdown { .. }) {
            return Err(err);
        }
        let new = &faults[handled..];
        handled = faults.len();

        let frontier = log.frontier();
        let Some(sv) = survivor_grid(cur_arr, cur_weights, new) else {
            return Err(err);
        };
        let (np, nq) = sv.dist.grid();
        let (op, oq) = cur_dist.grid();
        assert_eq!(
            sv.proc_map.len(),
            op * oq,
            "run_recovery: proc_map does not cover the old grid"
        );

        // Roll the journaled matrix back to the consistent cut.
        let jm = &state.main;
        let base: BlockStore = jm
            .stores
            .iter()
            .flat_map(|s| s.iter().map(|(&k, v)| (k, v.clone())))
            .collect();
        let cut = log.state_at(frontier, &base);

        // Stats + obs counters, before `sv` moves into place.
        let m = hetgrid_obs::metrics();
        let mut at_step = 0;
        for &fault in new {
            match fault {
                GridFault::Crash { proc, at_step: s } => {
                    stats.crashes += 1;
                    m.counter("exec.recovery.crashes").inc();
                    stats.dead_blocks += base
                        .keys()
                        .filter(|&&(bi, bj)| {
                            let (oi, oj) = cur_dist.owner(bi, bj);
                            oi * oq + oj == proc
                        })
                        .count();
                    at_step = at_step.max(s);
                }
                GridFault::Join { at_step: s } => {
                    stats.joins += 1;
                    m.counter("exec.recovery.joins").inc();
                    at_step = at_step.max(s);
                }
            }
        }
        stats.frontier = frontier;
        stats.replayed_steps += (at_step + 1).saturating_sub(frontier);

        // Place every block of the cut at its owner on the new grid.
        // A dead processor's blocks are restored from the log; a
        // survivor's block moves when that owner is not the survivor.
        let total_blocks = cut.len();
        let mut placed = DistributedMatrix {
            r,
            nb_rows: jm.nb_rows,
            nb_cols: jm.nb_cols,
            stores: vec![BlockStore::new(); np * nq],
            grid: (np, nq),
        };
        let mut moved = 0;
        for ((bi, bj), data) in cut {
            let (i, j) = sv.dist.owner(bi, bj);
            let (oi, oj) = cur_dist.owner(bi, bj);
            if sv.proc_map[oi * oq + oj].is_some_and(|id| id != i * nq + j) {
                moved += 1;
            }
            placed.stores[i * nq + j].insert((bi, bj), data);
        }
        stats.blocks_moved += moved;
        let placed_count: usize = placed.stores.iter().map(BlockStore::len).sum();
        assert_eq!(
            placed_count, total_blocks,
            "run_recovery: block conservation violated across the grid change"
        );

        m.counter("exec.recovery.blocks_moved").add(moved as u64);
        m.counter("exec.recovery.replayed_steps")
            .add((at_step + 1).saturating_sub(frontier) as u64);
        // Mark the epoch boundary on the recovery track and dump the
        // flight rings: the spans leading up to the fault are exactly
        // the forensics a postmortem wants, and the rings record them
        // even when tracing export was never enabled.
        let what: Vec<String> = new
            .iter()
            .map(|fault| match fault {
                GridFault::Crash { proc, .. } => format!("crash of proc {proc}"),
                GridFault::Join { .. } => "join".to_string(),
            })
            .collect();
        let note = format!(
            "recovery epoch: {} -> {np}x{nq} grid, resume at step {frontier}",
            what.join(", ")
        );
        hetgrid_obs::event!(hetgrid_obs::trace::track("recovery"), "{}", note);
        hetgrid_obs::flight::dump(&note);

        state.main = placed;
        // MM's operands are read-only: re-scatter them on the new
        // distribution instead of journaling them.
        state.operands = scatter_operands(kernel, inputs, &sv.dist, nb, r);

        survivor = Some(sv);
        start = frontier;
        log = CheckpointLog::new(np * nq, frontier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(proc: usize) -> GridFault {
        GridFault::Crash { proc, at_step: 0 }
    }

    /// The panels `survivor_grid` must build for the survivor
    /// cycle-time `rows`.
    fn panels(rows: &[Vec<f64>]) -> PanelDist {
        let arr = Arrangement::from_rows(rows);
        let sol = exact::solve_arrangement(&arr);
        PanelDist::from_allocation(
            &arr,
            &sol.alloc,
            2 * arr.p(),
            2 * arr.q(),
            PanelOrdering::Interleaved,
        )
    }

    fn weights(p: usize, q: usize) -> Vec<Vec<u64>> {
        (0..p)
            .map(|i| (0..q).map(|j| (10 * i + j + 1) as u64).collect())
            .collect()
    }

    #[test]
    fn a_crash_drops_the_line_with_less_capacity() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        // Proc 3 = (1,1): its row loses 1/3 + 1/5, its column 1/2 + 1/5.
        let sv = survivor_grid(&arr, &weights(2, 2), &[crash(3)]).unwrap();
        assert_eq!(sv.dist, panels(&[vec![1.0, 2.0]]));
        assert_eq!(sv.proc_map, [Some(0), Some(1), None, None]);
        // Proc 0 = (0,0): its row loses 1 + 1/2, its column 1 + 1/3.
        let sv = survivor_grid(&arr, &weights(2, 2), &[crash(0)]).unwrap();
        assert_eq!(sv.dist, panels(&[vec![2.0], vec![5.0]]));
        assert_eq!(sv.proc_map, [None, Some(0), None, Some(1)]);
    }

    #[test]
    fn later_faults_act_on_the_grid_the_earlier_ones_left() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        // Proc 3 takes row 1; proc 0 then leaves the row {1, 2}.
        let sv = survivor_grid(&arr, &weights(2, 2), &[crash(3), crash(0)]).unwrap();
        assert_eq!(sv.dist, panels(&[vec![2.0]]));
        assert_eq!(sv.arr, Arrangement::from_rows(&[vec![2.0]]));
        assert_eq!(sv.weights, [[2]]);
        assert_eq!(sv.proc_map, [None, Some(0), None, None]);
        // Proc 2 died with row 1 already: nothing more changes.
        let sv = survivor_grid(&arr, &weights(2, 2), &[crash(3), crash(2)]).unwrap();
        assert_eq!(sv.dist, panels(&[vec![1.0, 2.0]]));
        assert_eq!(sv.proc_map, [Some(0), Some(1), None, None]);
        // The last processor standing leaves no grid.
        let one = Arrangement::from_rows(&[vec![1.0]]);
        assert!(survivor_grid(&one, &weights(1, 1), &[crash(0)]).is_none());
    }

    #[test]
    fn a_tie_drops_the_row() {
        let arr = Arrangement::from_rows(&[vec![2.0, 2.0], vec![2.0, 2.0]]);
        let sv = survivor_grid(&arr, &weights(2, 2), &[crash(1)]).unwrap();
        assert_eq!(sv.dist.grid(), (1, 2));
        assert_eq!(sv.proc_map, [None, None, Some(0), Some(1)]);
    }

    #[test]
    fn a_single_column_loses_a_row_and_a_single_row_a_column() {
        let col = Arrangement::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let sv = survivor_grid(&col, &weights(3, 1), &[crash(1)]).unwrap();
        assert_eq!(sv.dist.grid(), (2, 1));
        assert_eq!(sv.proc_map, [Some(0), None, Some(1)]);
        let row = Arrangement::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let sv = survivor_grid(&row, &weights(1, 3), &[crash(1)]).unwrap();
        assert_eq!(sv.dist.grid(), (1, 2));
        assert_eq!(sv.proc_map, [Some(0), None, Some(1)]);
    }

    #[test]
    fn survivors_are_renumbered_and_keep_their_weights() {
        let rows = vec![
            vec![1.0, 9.0, 2.0],
            vec![9.0, 9.0, 9.0],
            vec![3.0, 9.0, 4.0],
        ];
        let arr = Arrangement::from_rows(&rows);
        let w = weights(3, 3);
        // Proc 4 = (1,1): row and column tie, the row goes.
        let sv = survivor_grid(&arr, &w, &[crash(4)]).unwrap();
        assert_eq!(sv.dist, panels(&[rows[0].clone(), rows[2].clone()]));
        assert_eq!(
            sv.proc_map,
            [
                Some(0),
                Some(1),
                Some(2),
                None,
                None,
                None,
                Some(3),
                Some(4),
                Some(5)
            ]
        );
        assert_eq!(sv.weights, [w[0].clone(), w[2].clone()]);
        // Proc 1 = (0,1): the slow middle column is cheaper than row 0.
        let sv = survivor_grid(&arr, &w, &[crash(1)]).unwrap();
        assert_eq!(
            sv.dist,
            panels(&[vec![1.0, 2.0], vec![9.0, 9.0], vec![3.0, 4.0]])
        );
        assert_eq!(
            sv.proc_map,
            [
                Some(0),
                None,
                Some(1),
                Some(2),
                None,
                Some(3),
                Some(4),
                None,
                Some(5)
            ]
        );
        assert_eq!(sv.weights, [[1, 3], [11, 13], [21, 23]]);
    }

    #[test]
    fn a_join_appends_the_fastest_time_and_smallest_weight() {
        let arr = Arrangement::from_rows(&[vec![2.0, 3.0], vec![5.0, 4.0]]);
        let w = weights(2, 2);
        let sv = survivor_grid(&arr, &w, &[GridFault::Join { at_step: 0 }]).unwrap();
        assert_eq!(
            sv.dist,
            panels(&[vec![2.0, 3.0], vec![5.0, 4.0], vec![2.0, 2.0]])
        );
        assert_eq!(sv.weights, [[1, 2], [11, 12], [1, 1]]);
        assert_eq!(sv.proc_map, [Some(0), Some(1), Some(2), Some(3)]);
    }
}
