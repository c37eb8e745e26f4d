//! The DES interpreter for the shared kernel step plans: the
//! outer-product matrix multiplication (Section 3.1), the right-looking
//! LU / QR factorizations (Section 3.2) and Cholesky, at `r x r` block
//! granularity over an arbitrary [`BlockDist`] — one entry point,
//! [`simulate`], over one private interpreter.
//!
//! The *schedule* — which block moves where, who computes what, in what
//! order — comes from [`hetgrid_plan`]; this module only applies the
//! machine cost model to it. Messages are aggregated per (source,
//! destination) pair, so on a Cartesian (strict-grid) distribution each
//! step produces exactly the grid broadcasts of the paper, while the
//! Kalinov–Lastovetsky distribution naturally produces its extra
//! horizontal transfers (Figure 3) — no special-casing, the penalty
//! emerges from the owner map itself. The Ring/Tree broadcast
//! topologies are an interpreter concern: they re-shape each plan
//! step's broadcasts into one pipelined transfer per grid row/column.

use crate::engine::{Engine, TaskId};
use crate::machine::{CostModel, Machine, SimReport};
use hetgrid_core::Arrangement;
use hetgrid_dist::BlockDist;
use hetgrid_plan::{Bcast, Dests, Kernel, OwnerWork, Owners, Plan, Step};
use std::collections::BTreeMap;
use std::fmt;

/// Grid coordinates `(i, j)` of a processor.
type Proc = (usize, usize);
/// Tasks by processor: what a phase left on each processor — its
/// compute task there, or the messages delivered to it.
type Events = BTreeMap<Proc, Vec<TaskId>>;

/// How a block is broadcast to the processors that need it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Broadcast {
    /// The owner sends one (aggregated) message to each destination; its
    /// NIC serializes the sends.
    Direct,
    /// Pipelined ring along each grid row / column (the increasing-ring
    /// topology ScaLAPACK uses for the L panel, Section 3.2.1). Only
    /// valid for Cartesian distributions.
    Ring,
    /// Binomial (minimum-spanning-tree style) broadcast — the topology
    /// ScaLAPACK uses for the U panel (Section 3.2.1). Only valid for
    /// Cartesian distributions.
    Tree,
}

/// Why [`simulate`] rejected its arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The distribution's grid shape differs from the arrangement's.
    GridMismatch {
        /// The distribution's `(p, q)`.
        dist: (usize, usize),
        /// The arrangement's `(p, q)`.
        arr: (usize, usize),
    },
    /// Ring/Tree pipeline a panel along grid rows and columns, which
    /// only a Cartesian (strict-grid) distribution has.
    NotCartesian(Broadcast),
    /// Cholesky broadcasts each panel block along its row *and* its
    /// column at once; a per-grid-line Ring/Tree is undefined for it.
    CholeskyTopology(Broadcast),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::GridMismatch { dist, arr } => write!(
                f,
                "grid mismatch: the distribution is {}x{}, the arrangement {}x{}",
                dist.0, dist.1, arr.0, arr.1
            ),
            SimError::NotCartesian(b) => write!(
                f,
                "{b:?} broadcasts require a Cartesian (strict-grid) distribution"
            ),
            SimError::CholeskyTopology(b) => write!(
                f,
                "{b:?} broadcasts are undefined for Cholesky's row+column panel broadcast; use direct"
            ),
        }
    }
}

impl std::error::Error for SimError {}

fn check_grid(arr: &Arrangement, dist: &dyn BlockDist) -> Result<(), SimError> {
    let (dist, arr) = (dist.grid(), (arr.p(), arr.q()));
    if dist == arr {
        Ok(())
    } else {
        Err(SimError::GridMismatch { dist, arr })
    }
}

/// A simulation run retaining the task graph and schedule, so the
/// execution can be rendered with [`crate::trace`].
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The task graph that was executed.
    pub engine: Engine,
    /// The resulting schedule.
    pub schedule: crate::engine::Schedule,
    /// The aggregate report (same as the `simulate_*` return value).
    pub report: SimReport,
}

/// Which grid lines a panel is pipelined along under Ring/Tree.
#[derive(Clone, Copy)]
enum Axis {
    /// Along each grid row (the `A` / `L` panels).
    Row,
    /// Down each grid column (the `B` / `U` panels).
    Col,
}

impl Axis {
    /// Grid coordinates to `(line index, position along the line)` and
    /// back — the mapping is its own inverse.
    fn flip(self, (a, b): (usize, usize)) -> (usize, usize) {
        match self {
            Axis::Row => (a, b),
            Axis::Col => (b, a),
        }
    }
}

/// One panel of a step's broadcast phase, as [`Des::comm`] takes it:
/// the plan's per-block broadcasts, the grid lines the panel travels
/// along under Ring/Tree, and — Ring/Tree only — the positions along
/// each line that receive. `Some`: a factorization's trailing lines —
/// only these receive, and a line holding no block of the panel sends
/// nothing. `None`: the whole grid takes part (MM) — every line
/// broadcasts to all its other members, a line without blocks a
/// latency-only message.
type Panel<'a> = (&'a [Bcast], Axis, Option<&'a [usize]>);

/// The machine under simulation and the task graph being built on it.
pub(crate) struct Des<'a> {
    engine: Engine,
    machine: Machine<'a>,
    dests: Dests,
}

impl<'a> Des<'a> {
    pub(crate) fn new(arr: &'a Arrangement, cost: CostModel) -> Self {
        let mut engine = Engine::new();
        let machine = Machine::new(&mut engine, arr, cost);
        Des {
            engine,
            machine,
            dests: Dests::default(),
        }
    }

    fn message(&mut self, deps: Vec<TaskId>, src: Proc, dst: Proc, blocks: usize) -> TaskId {
        self.machine
            .message(&mut self.engine, deps, src, dst, blocks)
    }

    /// Emits a broadcast of an identical payload from `src` to `dests`
    /// (in the given order) under the given topology. Returns the
    /// delivering message task per destination.
    pub(crate) fn emit_ordered_broadcast(
        &mut self,
        mode: Broadcast,
        src: Proc,
        dests: &[Proc],
        blocks: usize,
        root_deps: Vec<TaskId>,
    ) -> Vec<(Proc, TaskId)> {
        let mut out: Vec<(Proc, TaskId)> = Vec::with_capacity(dests.len());
        for (i, &dst) in dests.iter().enumerate() {
            // Which earlier destination forwards the payload to this
            // one; `None`: the source itself, once `root_deps` are done.
            let forwarder = match mode {
                Broadcast::Direct => None,
                Broadcast::Ring => i.checked_sub(1),
                // Binomial: the holders (source first, then destinations
                // in order) double every round, each sending to the next
                // destination not yet served — destination `i` is served
                // in round `log2(i + 1)` by holder `i + 1 - 2^round`.
                Broadcast::Tree => (i + 1 - (1 << (i + 1).ilog2())).checked_sub(1),
            };
            let (from, deps) = match forwarder {
                None => (src, root_deps.clone()),
                Some(h) => (out[h].0, vec![out[h].1]),
            };
            out.push((dst, self.message(deps, from, dst, blocks)));
        }
        out
    }

    /// One compute task of `blocks` block operations on `owner`, after
    /// `deps` and the owner's previous task — per-processor program
    /// order (SPMD execution), tracked in `last`.
    fn task(
        &mut self,
        last: &mut Events,
        owner: Proc,
        blocks: usize,
        unit_cost: f64,
        mut deps: Vec<TaskId>,
    ) -> TaskId {
        let previous = last.entry(owner).or_default();
        deps.append(previous);
        let t = self
            .machine
            .compute(&mut self.engine, deps, owner, blocks, unit_cost);
        previous.push(t);
        t
    }

    /// A compute phase: one [`Des::task`] per `(owner, blocks)` item, in
    /// item order, each after `deps_of(owner)`.
    fn work(
        &mut self,
        last: &mut Events,
        items: impl IntoIterator<Item = (Proc, usize)>,
        unit_cost: f64,
        deps_of: impl Fn(Proc) -> Vec<TaskId>,
    ) -> Events {
        let task = |(owner, blocks)| {
            let t = self.task(last, owner, blocks, unit_cost, deps_of(owner));
            (owner, vec![t])
        };
        items.into_iter().map(task).collect()
    }

    /// A `Direct` broadcast phase: one message per (source, destination)
    /// pair in sorted pair order, carrying every block of `transfers`
    /// (one entry per block) that the pair exchanges, after the source's
    /// tasks in `roots`.
    fn direct(&mut self, transfers: impl Iterator<Item = (Proc, Proc)>, roots: &Events) -> Events {
        let mut msgs: BTreeMap<(Proc, Proc), usize> = BTreeMap::new();
        for pair in transfers {
            *msgs.entry(pair).or_insert(0) += 1;
        }
        let mut incoming = Events::new();
        for ((src, dst), blocks) in msgs {
            let m = self.message(gather(&[roots], src), src, dst, blocks);
            incoming.entry(dst).or_default().push(m);
        }
        incoming
    }

    /// A broadcast phase under `mode`: [`Des::direct`] over all the
    /// panels at once, or — Ring/Tree, Cartesian distributions only —
    /// one [`Des::emit_ordered_broadcast`] per panel and grid line, from
    /// the line's member holding the panel to the receiving members, in
    /// ring order from the source.
    fn comm(
        &mut self,
        owners: &Owners,
        panels: &[Panel<'_>],
        mode: Broadcast,
        roots: &Events,
    ) -> Events {
        if mode == Broadcast::Direct {
            let dests = &mut self.dests;
            let pairs: Vec<_> = panels
                .iter()
                .flat_map(|p| transfers(dests, owners, p.0))
                .collect();
            return self.direct(pairs.into_iter(), roots);
        }
        let grid = (self.machine.arr.p(), self.machine.arr.q());
        let mut incoming = Events::new();
        // (A factorization's last step has no U panel.)
        for &(bcasts, axis, to) in panels.iter().filter(|p| !p.0.is_empty()) {
            let (lines, len) = axis.flip(grid);
            let src_pos = axis.flip(bcasts[0].src).1;
            for line in 0..lines {
                let blocks = bcasts.iter().filter(|b| axis.flip(b.src).0 == line).count();
                if blocks == 0 && to.is_some() {
                    continue;
                }
                let src = axis.flip((line, src_pos));
                let dests: Vec<Proc> = (1..len)
                    .map(|s| (src_pos + s) % len)
                    .filter(|pos| to.is_none_or(|to| to.contains(pos)))
                    .map(|pos| axis.flip((line, pos)))
                    .collect();
                let root = gather(&[roots], src);
                for (dst, m) in self.emit_ordered_broadcast(mode, src, &dests, blocks, root) {
                    incoming.entry(dst).or_default().push(m);
                }
            }
        }
        incoming
    }

    /// Runs the built task graph and extracts the grid report.
    pub(crate) fn finish(self) -> TracedRun {
        let schedule = self.engine.run();
        let report = SimReport {
            makespan: schedule.makespan,
            core_busy: self.machine.core_busy(&schedule),
            comm_time: schedule.comm_time,
            compute_time: schedule.compute_time,
        };
        TracedRun {
            engine: self.engine,
            schedule,
            report,
        }
    }
}

/// The non-empty entries of a per-processor block-count table,
/// row-major, as [`Des::work`] items.
fn table(blocks: &[Vec<usize>]) -> impl Iterator<Item = (Proc, usize)> + '_ {
    blocks
        .iter()
        .enumerate()
        .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, &n)| ((i, j), n)))
        .filter(|&(_, n)| n > 0)
}

/// A plan's per-owner work list as [`Des::work`] items.
fn list(work: &[OwnerWork]) -> impl Iterator<Item = (Proc, usize)> + '_ {
    work.iter().map(|w| (w.owner, w.blocks))
}

/// The plan's broadcasts as [`Des::direct`] transfers.
pub(crate) fn transfers(dests: &mut Dests, owners: &Owners, bcasts: &[Bcast]) -> Vec<(Proc, Proc)> {
    let mut out = Vec::new();
    for b in bcasts {
        out.extend(dests.of(owners, b).map(|dst| (b.src, dst)));
    }
    out
}

/// The tasks the given phases left on `proc`, in phase order.
fn gather(phases: &[&Events], proc: Proc) -> Vec<TaskId> {
    let mut tasks = Vec::new();
    for on_proc in phases.iter().filter_map(|phase| phase.get(&proc)) {
        tasks.extend_from_slice(on_proc);
    }
    tasks
}

/// Simulates `kernel` on an `nb x nb` block matrix laid out by `dist`
/// over the arrangement's grid, keeping the task graph and schedule.
///
/// Per outer step `k` of the kernel's [`hetgrid_plan`] schedule:
///
/// * [`Kernel::Mm`] (`C = A * B`, outer product) — the owners of block
///   column `k` of `A` broadcast horizontally, the owners of block row
///   `k` of `B` vertically, then every processor updates all the `C`
///   blocks it owns.
/// * [`Kernel::Lu`] — factor the panel (block column `k`, rows `>= k`),
///   broadcast the lower factor along grid rows, triangular-solve the
///   pivot block row, broadcast it along grid columns, then
///   rank-`r`-update the trailing submatrix. ScaLAPACK uses
///   increasing-ring for `L` and a minimum-spanning-tree for `U`
///   (Section 3.2.1); here `broadcast` applies to both.
/// * [`Kernel::Qr`] — the LU schedule ([`hetgrid_plan::factor_plan`])
///   at twice the arithmetic per block: Section 3.2's "analogous"
///   parallelization, same communication, double the flops. (The
///   executor's true Householder schedule, [`hetgrid_plan::qr_plan`],
///   has no DES model.)
/// * [`Kernel::Cholesky`] (`A = L L^T`, lower triangle only; the
///   paper's reference \[8]) — the diagonal owner factors its block and
///   sends it down the panel; the owners of `(bi, k)`, `bi > k`
///   triangular-solve; each panel block is broadcast to the owners of
///   the trailing lower-triangle blocks in its row **and** its column
///   (the symmetric update `A_ij -= L_ik L_jk^T` needs both factors);
///   the trailing lower triangle is updated.
///
/// # Errors
/// [`SimError`] if the distribution's grid differs from the
/// arrangement's, if Ring/Tree is requested on a non-Cartesian
/// distribution, or if Ring/Tree is requested for Cholesky.
pub fn simulate(
    kernel: Kernel,
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
    broadcast: Broadcast,
) -> Result<TracedRun, SimError> {
    check_grid(arr, dist)?;
    if broadcast != Broadcast::Direct {
        if kernel == Kernel::Cholesky {
            return Err(SimError::CholeskyTopology(broadcast));
        }
        if !dist.is_cartesian() {
            return Err(SimError::NotCartesian(broadcast));
        }
    }
    let (plan, flop_scale) = match kernel {
        Kernel::Mm => (hetgrid_plan::mm_plan(dist, nb), 1.0),
        Kernel::Lu => (hetgrid_plan::factor_plan(dist, nb), 1.0),
        Kernel::Qr => (hetgrid_plan::factor_plan(dist, nb), 2.0),
        Kernel::Cholesky => (hetgrid_plan::cholesky_plan(dist, nb), 1.0),
    };
    Ok(interpret(arr, &plan, cost, flop_scale, broadcast))
}

/// Applies the DES cost model to a grid step plan, every compute cost
/// scaled by `flop_scale`. [`simulate`] has validated `mode` against
/// the plan's distribution and kernel.
fn interpret(
    arr: &Arrangement,
    plan: &Plan,
    cost: CostModel,
    flop_scale: f64,
    mode: Broadcast,
) -> TracedRun {
    let panel_cost = cost.panel_cost * flop_scale;
    let trsm_cost = cost.trsm_cost * flop_scale;
    let update_cost = flop_scale;
    let mut des = Des::new(arr, cost);
    let mut last = Events::new();

    // A factorization's last step is its panel alone: every later list
    // of that step is empty and its phases emit nothing.
    for step in &plan.steps {
        match step {
            Step::Mm {
                a_bcasts,
                b_bcasts,
                owners,
                ..
            } => {
                // Block (bi, k) of A to every owner of block row bi,
                // (k, bj) of B to every owner of block column bj.
                let panels: [Panel; 2] = [(a_bcasts, Axis::Row, None), (b_bcasts, Axis::Col, None)];
                let incoming = des.comm(owners, &panels, mode, &last);
                let owned = table(&plan.owned);
                des.work(&mut last, owned, update_cost, |o| gather(&[&incoming], o));
            }
            Step::Factor {
                diag,
                panel,
                l_bcasts,
                trsm,
                u_bcasts,
                trailing,
                owners,
                ..
            } => {
                let panel_tasks = des.work(&mut last, list(panel), panel_cost, |_| vec![]);

                // L along rows: block (bi, k) goes to every owner of
                // trailing blocks in block row bi. For bi == k this also
                // delivers the diagonal block to the pivot row (needed
                // by the triangular solves).
                let trailing_cols: Vec<usize> = u_bcasts.iter().map(|b| b.src.1).collect();
                let l_panel: Panel = (l_bcasts, Axis::Row, Some(&trailing_cols));
                let l_in = des.comm(owners, &[l_panel], mode, &panel_tasks);

                // The diagonal owner solves against its own factor, the
                // rest of the pivot row against the delivered one.
                let trsm_tasks = des.work(&mut last, list(trsm), trsm_cost, |o| {
                    gather(&[if o == *diag { &panel_tasks } else { &l_in }], o)
                });

                // U down columns: block (k, bj) goes to every owner of
                // trailing blocks in block column bj.
                let trailing_rows: Vec<usize> = l_bcasts[1..].iter().map(|b| b.src.0).collect();
                let u_panel: Panel = (u_bcasts, Axis::Col, Some(&trailing_rows));
                let u_in = des.comm(owners, &[u_panel], mode, &trsm_tasks);

                des.work(&mut last, table(trailing), update_cost, |o| {
                    gather(&[&l_in, &u_in, &panel_tasks, &trsm_tasks], o)
                });
            }
            Step::Cholesky {
                diag,
                diag_dests,
                panel,
                panel_bcasts,
                trailing,
                owners,
                ..
            } => {
                // The diagonal factor, sent down the panel; `diag_in`
                // has no entry for the diagonal owner itself.
                let diag_task = des.work(&mut last, [(*diag, 1)], panel_cost, |_| vec![]);
                let diag_in = des.direct(diag_dests.iter().map(|&dst| (*diag, dst)), &diag_task);
                let panel_tasks = des.work(&mut last, list(panel), trsm_cost, |o| {
                    gather(&[&diag_task, &diag_in], o)
                });

                // Block (bi, k) to the owners of the trailing
                // lower-triangle blocks that need it — row bi (as the
                // left factor) and column bi (as the right factor).
                let pairs = transfers(&mut des.dests, owners, panel_bcasts);
                let incoming = des.direct(pairs.into_iter(), &panel_tasks);
                des.work(&mut last, list(trailing), update_cost, |o| {
                    gather(&[&incoming, &panel_tasks], o)
                });
            }
            Step::Qr { .. } | Step::Load { .. } | Step::Compute { .. } | Step::Evict { .. } => {
                unreachable!("simulate builds only Mm, Factor and Cholesky plans")
            }
        }
    }
    des.finish()
}

/// [`simulate`] of [`Kernel::Mm`], report only.
///
/// # Panics
/// Panics where [`simulate`] returns a [`SimError`]: the distribution's
/// grid differs from the arrangement's, or Ring/Tree is requested for
/// a non-Cartesian distribution.
pub fn simulate_mm(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
    broadcast: Broadcast,
) -> SimReport {
    simulate(Kernel::Mm, arr, dist, nb, cost, broadcast)
        .expect("simulate_mm")
        .report
}

/// [`simulate`] of [`Kernel::Lu`] with direct broadcasts, report only.
///
/// # Panics
/// Panics if the distribution's grid differs from the arrangement's.
pub fn simulate_lu(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
) -> SimReport {
    simulate(Kernel::Lu, arr, dist, nb, cost, Broadcast::Direct)
        .expect("simulate_lu")
        .report
}

/// [`simulate`] of [`Kernel::Cholesky`], report only.
///
/// # Panics
/// Panics if the distribution's grid differs from the arrangement's.
pub fn simulate_cholesky(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
) -> SimReport {
    simulate(Kernel::Cholesky, arr, dist, nb, cost, Broadcast::Direct)
        .expect("simulate_cholesky")
        .report
}

#[cfg(test)]
mod tests {
    use super::Broadcast::{Direct, Ring, Tree};
    use super::*;
    use crate::machine::Network;
    use hetgrid_core::exact;
    use hetgrid_dist::{BlockCyclic, KlDist, PanelDist, PanelOrdering};
    use Kernel::{Cholesky, Lu, Mm, Qr};

    fn fig1_arr() -> Arrangement {
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]])
    }

    /// The report of a [`simulate`] call that must be accepted.
    fn run(
        kernel: Kernel,
        arr: &Arrangement,
        dist: &dyn BlockDist,
        nb: usize,
        cost: CostModel,
        broadcast: Broadcast,
    ) -> SimReport {
        simulate(kernel, arr, dist, nb, cost, broadcast)
            .unwrap()
            .report
    }

    #[test]
    fn mm_zero_comm_homogeneous_exact_time() {
        // 2x2 homogeneous grid, 4x4 blocks, zero comm: every processor
        // updates 4 blocks per step for 4 steps -> makespan 16.
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dist = BlockCyclic::new(2, 2);
        let rep = run(Mm, &arr, &dist, 4, CostModel::zero_comm(), Direct);
        assert_eq!(rep.makespan, 16.0);
        assert!((rep.average_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mm_zero_comm_heterogeneous_cyclic_slowest_bound() {
        // Uniform cyclic on Figure 1's grid: the t=6 processor gets the
        // same block count as everyone else.
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let nb = 4;
        let rep = run(Mm, &arr, &dist, nb, CostModel::zero_comm(), Direct);
        // 4 owned blocks * 6.0 per step * 4 steps.
        assert_eq!(rep.makespan, 4.0 * 6.0 * 4.0);
    }

    #[test]
    fn mm_panel_beats_cyclic_on_heterogeneous_grid() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let cyclic = BlockCyclic::new(2, 2);
        let nb = 12;
        let cost = CostModel::default();
        let rp = run(Mm, &arr, &panel, nb, cost, Direct);
        let rc = run(Mm, &arr, &cyclic, nb, cost, Direct);
        assert!(
            rp.makespan < rc.makespan,
            "panel {} !< cyclic {}",
            rp.makespan,
            rc.makespan
        );
        // The paper's headline: on this rank-1 grid the panel
        // distribution should approach full utilization.
        assert!(
            rp.average_utilization() > 0.7,
            "util {}",
            rp.average_utilization()
        );
    }

    #[test]
    fn mm_ring_matches_direct_shape() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let cost = CostModel::default();
        let rd = run(Mm, &arr, &panel, 8, cost, Direct);
        let rr = run(Mm, &arr, &panel, 8, cost, Ring);
        // Both must exceed the zero-comm bound and be within 3x of each
        // other (they differ only in broadcast topology).
        let r0 = run(Mm, &arr, &panel, 8, CostModel::zero_comm(), Direct);
        assert!(rd.makespan >= r0.makespan);
        assert!(rr.makespan >= r0.makespan);
        assert!(rd.makespan < 3.0 * rr.makespan && rr.makespan < 3.0 * rd.makespan);
    }

    #[test]
    #[should_panic(expected = "Cartesian")]
    fn ring_on_kl_panics_in_the_typed_form() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let kl = KlDist::new(&arr, 4, 4);
        simulate_mm(&arr, &kl, 4, CostModel::default(), Ring);
    }

    #[test]
    fn invalid_combinations_are_errors_not_panics() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let kl = KlDist::new(&arr, 4, 4);
        let cyclic = BlockCyclic::new(2, 2);
        let cost = CostModel::default();
        for mode in [Ring, Tree] {
            for kernel in Kernel::ALL {
                // Cholesky is rejected for its kernel, the rest for KL.
                let want = if kernel == Cholesky {
                    SimError::CholeskyTopology(mode)
                } else {
                    SimError::NotCartesian(mode)
                };
                assert_eq!(simulate(kernel, &arr, &kl, 8, cost, mode).err(), Some(want));
                assert!(want.to_string().contains(&format!("{mode:?} broadcasts")));
            }
            let ch = simulate(Cholesky, &arr, &cyclic, 8, cost, mode);
            assert_eq!(ch.err(), Some(SimError::CholeskyTopology(mode)));
        }
        // Direct is defined for every kernel on every distribution.
        for kernel in Kernel::ALL {
            assert!(simulate(kernel, &arr, &kl, 8, cost, Direct).is_ok());
        }
        let (dist, arr_grid) = ((1, 4), (2, 2));
        let mismatch = simulate(Mm, &arr, &BlockCyclic::new(1, 4), 8, cost, Direct).err();
        assert_eq!(
            mismatch,
            Some(SimError::GridMismatch {
                dist,
                arr: arr_grid
            })
        );
    }

    #[test]
    fn kl_pays_more_messages_than_panel() {
        // Same aggregate balance, but KL's broken grid pattern must cost
        // more communication time on a shared bus.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let exact_sol = exact::solve_arrangement(&arr);
        let panel =
            PanelDist::from_allocation(&arr, &exact_sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let kl = KlDist::new(&arr, 4, 6);
        let cost = CostModel {
            latency: 0.5,
            block_transfer: 0.01,
            network: Network::SharedBus,
            ..Default::default()
        };
        let nb = 12;
        let rp = run(Mm, &arr, &panel, nb, cost, Direct);
        let rk = run(Mm, &arr, &kl, nb, cost, Direct);
        assert!(
            rk.comm_time > rp.comm_time,
            "KL comm {} !> panel comm {}",
            rk.comm_time,
            rp.comm_time
        );
    }

    #[test]
    fn lu_zero_comm_homogeneous_sums_step_maxima() {
        // 2x2 homogeneous, nb = 4, zero comm. With per-processor program
        // order, the makespan is bounded below by the critical
        // (diagonal-owner) chain and above by the sum of step maxima.
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dist = BlockCyclic::new(2, 2);
        let rep = run(Lu, &arr, &dist, 4, CostModel::zero_comm(), Direct);
        assert!(rep.makespan > 0.0);
        let total_work: f64 = rep.core_busy.iter().flatten().sum();
        // All work must be accounted: sum over steps of panel+trsm+update
        // block counts = sum_k [ (nb-k) + (nb-k-1) + (nb-k-1)^2 ].
        let nb = 4usize;
        let expect: usize = (0..nb)
            .map(|k| {
                (nb - k)
                    + if k + 1 < nb {
                        (nb - k - 1) + (nb - k - 1) * (nb - k - 1)
                    } else {
                        0
                    }
            })
            .sum();
        assert!((total_work - expect as f64).abs() < 1e-9);
    }

    #[test]
    fn lu_panel_interleaved_beats_cyclic() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let cyclic = BlockCyclic::new(2, 2);
        let nb = 24;
        let cost = CostModel::default();
        let rp = run(Lu, &arr, &panel, nb, cost, Direct);
        let rc = run(Lu, &arr, &cyclic, nb, cost, Direct);
        assert!(
            rp.makespan < rc.makespan,
            "panel {} !< cyclic {}",
            rp.makespan,
            rc.makespan
        );
    }

    #[test]
    fn qr_costs_twice_lu_with_zero_comm() {
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let lu = run(Lu, &arr, &dist, 6, CostModel::zero_comm(), Direct);
        let qr = run(Qr, &arr, &dist, 6, CostModel::zero_comm(), Direct);
        assert!((qr.makespan - 2.0 * lu.makespan).abs() < 1e-9);
    }

    #[test]
    fn mm_comm_increases_makespan() {
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let free = run(Mm, &arr, &dist, 6, CostModel::zero_comm(), Direct);
        let costly = run(
            Mm,
            &arr,
            &dist,
            6,
            CostModel {
                latency: 2.0,
                block_transfer: 0.5,
                ..Default::default()
            },
            Direct,
        );
        assert!(costly.makespan > free.makespan);
        assert!(costly.comm_time > 0.0);
    }

    #[test]
    fn tree_broadcast_bounded_by_direct_and_ring() {
        // On a wide grid with high latency, the binomial tree beats the
        // direct star (log vs linear source serialization).
        let arr = Arrangement::from_rows(&[vec![1.0; 8]]);
        let dist = BlockCyclic::new(1, 8);
        let cost = CostModel {
            latency: 5.0,
            block_transfer: 0.0,
            ..Default::default()
        };
        let td = run(Mm, &arr, &dist, 8, cost, Direct);
        let tt = run(Mm, &arr, &dist, 8, cost, Tree);
        assert!(
            tt.makespan < td.makespan,
            "tree {} !< direct {}",
            tt.makespan,
            td.makespan
        );
    }

    #[test]
    fn factor_broadcast_modes_all_valid() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let nb = 16;
        let cost = CostModel::default();
        let lb = crate::bsp::lu_update_lower_bound(&arr, &panel, nb);
        for mode in [Direct, Ring, Tree] {
            let rep = run(Lu, &arr, &panel, nb, cost, mode);
            assert!(
                rep.makespan >= lb - 1e-9,
                "mode {:?} below bound: {} < {}",
                mode,
                rep.makespan,
                lb
            );
            // Work is identical across modes; only comm differs.
            let direct = run(Lu, &arr, &panel, nb, cost, Direct);
            assert!((rep.compute_time - direct.compute_time).abs() < 1e-9);
        }
    }

    #[test]
    fn suffix_interleaved_lu_not_worse_on_skewed_counts() {
        // With skewed per-panel counts, the suffix-balanced panel order
        // must not lose to the prefix-greedy one in the full 2D LU
        // simulation (zero comm isolates the ordering effect).
        let arr = Arrangement::from_rows(&[vec![1.0, 3.0], vec![2.0, 6.0]]);
        let sol = exact::solve_arrangement(&arr);
        let nb = 32;
        let prefix = PanelDist::from_allocation(&arr, &sol.alloc, 8, 8, PanelOrdering::Interleaved);
        let suffix =
            PanelDist::from_allocation(&arr, &sol.alloc, 8, 8, PanelOrdering::SuffixInterleaved);
        assert_eq!(prefix.per_panel_counts(), suffix.per_panel_counts());
        let mp = run(Lu, &arr, &prefix, nb, CostModel::zero_comm(), Direct).makespan;
        let ms = run(Lu, &arr, &suffix, nb, CostModel::zero_comm(), Direct).makespan;
        assert!(
            ms <= mp * 1.02,
            "suffix-interleaved {} much worse than prefix {}",
            ms,
            mp
        );
    }

    #[test]
    fn cholesky_zero_comm_work_accounting() {
        // Total compute = sum over steps of (1 diag) + (nb-k-1 panel) +
        // lower-triangle trailing count, with homogeneous t = 1.
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dist = BlockCyclic::new(2, 2);
        let nb = 5;
        let rep = run(Cholesky, &arr, &dist, nb, CostModel::zero_comm(), Direct);
        let mut expect = 0usize;
        for k in 0..nb {
            expect += 1; // diagonal
            if k + 1 < nb {
                let m = nb - k - 1;
                expect += m; // panel solves
                expect += m * (m + 1) / 2; // trailing lower triangle
            }
        }
        let total: f64 = rep.core_busy.iter().flatten().sum();
        assert!((total - expect as f64).abs() < 1e-9);
    }

    #[test]
    fn cholesky_is_cheaper_than_lu() {
        // Cholesky touches only the lower triangle: roughly half the
        // trailing work of LU.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let dist = BlockCyclic::new(2, 2);
        let lu = run(Lu, &arr, &dist, 12, CostModel::zero_comm(), Direct);
        let ch = run(Cholesky, &arr, &dist, 12, CostModel::zero_comm(), Direct);
        assert!(
            ch.makespan < lu.makespan,
            "cholesky {} !< lu {}",
            ch.makespan,
            lu.makespan
        );
    }

    #[test]
    fn cholesky_panel_beats_cyclic() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let cyc = BlockCyclic::new(2, 2);
        let cost = CostModel::default();
        let tp = run(Cholesky, &arr, &panel, 24, cost, Direct);
        let tc = run(Cholesky, &arr, &cyc, 24, cost, Direct);
        assert!(
            tp.makespan < tc.makespan,
            "panel {} !< cyclic {}",
            tp.makespan,
            tc.makespan
        );
    }

    #[test]
    fn single_processor_grid_mm() {
        let arr = Arrangement::from_rows(&[vec![2.0]]);
        let dist = BlockCyclic::new(1, 1);
        let rep = run(Mm, &arr, &dist, 3, CostModel::default(), Direct);
        // 9 blocks * 3 steps * t=2, no messages at all.
        assert_eq!(rep.makespan, 54.0);
        assert_eq!(rep.comm_time, 0.0);
    }
}
