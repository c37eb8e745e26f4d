//! Threaded master-worker matrix multiplication: the
//! [`hetgrid_plan::star_mm_plan`] step stream interpreted over real
//! threads. Processor 0 is the master — it holds every `A`/`B` block,
//! feeds workers over its one-port link, and collects every finished
//! `C` block; processors `1..=workers` are bounded-memory workers
//! running the maximum-reuse streaming schedule.
//!
//! The platform constraints ride the ordinary action-scheduling
//! machinery as pseudo-resources (see [`crate::step`]):
//!
//! * **one-port** — every master [`Op::StarFeed`] and
//!   [`Op::StarRetire`] writes `(4, 0, 0)`, so master transfers
//!   serialize in plan order no matter the lookahead depth;
//! * **bounded memory** — every worker [`Op::StarLoad`] and
//!   [`Op::StarEvict`] writes `(5, 0, 0)`, so residency transitions
//!   stay in program order and the runtime high-water mark equals the
//!   plan fold (`hetgrid_sim::counts::star_residency_peaks`); the
//!   worker additionally asserts `resident <= worker_mem` after every
//!   load — the memory-bound oracle at its sharpest;
//! * **bit-exactness** — all updates of a `C` block run on one worker
//!   and conflict pairwise on its resident-copy resource, so they
//!   execute in ascending-`k` program order at any lookahead depth.

use crate::step::{
    check_weights, gather_result, run_grid, run_steps, Action, Courier, ExecConfig, Op, StepInterp,
    WorkClock,
};
use crate::store::{BlockStore, ExecReport};
use crate::transport::{Closed, ExecError, Transport};
use hetgrid_core::Topology;
use hetgrid_linalg::gemm::{gemm_with, Packs};
use hetgrid_linalg::Matrix;
use hetgrid_plan::{LoadSrc, Mat, Plan, Step};
use std::sync::Arc;
use std::time::Instant;

/// Message tags: a fed input block (master to worker) and a returned
/// result block (worker to master). Every star step has a unique plan
/// index, so `(step, tag, block)` routing keys never collide.
const TAG_FEED: u8 = 0;
const TAG_RET: u8 = 1;

/// The master's one-port link: written by every master transfer action.
const PORT: (u8, usize, usize) = (4, 0, 0);
/// A worker's memory budget: written by every residency transition.
const MEM: (u8, usize, usize) = (5, 0, 0);

fn mat_ns(mat: Mat) -> u8 {
    match mat {
        Mat::C => 0,
        Mat::A => 1,
        Mat::B => 2,
    }
}

/// Runs `C(mb x nb blocks) = A(mb x kb) * B(kb x nb)` in `r`-sized
/// blocks on a [`Topology::Star`]: the master scatters nothing — it
/// keeps both inputs whole and streams blocks to the workers per the
/// maximum-reuse plan. `weights` is the `1 x (workers + 1)` slowdown
/// table (entry 0, the master, performs no block work).
///
/// Returns the gathered result and per-processor measurements, or a
/// typed [`ExecError`] if a worker dropped out mid-run.
///
/// # Panics
/// Panics if `topo` is not a star, matrix sizes do not match
/// `dims * r`, or the weights table does not match `1 x (workers + 1)`.
pub fn run_star_mm_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    b: &Matrix,
    topo: &Topology,
    (mb, nb, kb): (usize, usize, usize),
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<(Matrix, ExecReport), ExecError> {
    let Topology::Star {
        workers,
        worker_mem,
        ..
    } = *topo
    else {
        panic!("run_star_mm: not a star topology: {topo}")
    };
    let shape = (1, workers + 1);
    check_weights(weights, shape, "run_star_mm");
    assert_eq!(a.shape(), (mb * r, kb * r), "run_star_mm: A shape mismatch");
    assert_eq!(b.shape(), (kb * r, nb * r), "run_star_mm: B shape mismatch");
    let plan = hetgrid_plan::star_mm_plan(topo, (mb, nb, kb));
    // The master keeps both inputs whole, keyed by block coordinates.
    let mut ma = BlockStore::new();
    for bi in 0..mb {
        for bk in 0..kb {
            ma.insert((bi, bk), a.block(bi * r, bk * r, r, r));
        }
    }
    let mut mbk = BlockStore::new();
    for bk in 0..kb {
        for bj in 0..nb {
            mbk.insert((bk, bj), b.block(bk * r, bj * r, r, r));
        }
    }

    let (stores, mut report) = run_grid(transport, shape, weights, |me, courier, clock| {
        let interp: Box<dyn StepInterp + '_> = if me == 0 {
            Box::new(StarMaster {
                plan: &plan,
                a: &ma,
                b: &mbk,
                c: BlockStore::new(),
            })
        } else {
            Box::new(StarWorker {
                plan: &plan,
                me,
                worker_mem,
                r,
                resident: [BlockStore::new(), BlockStore::new(), BlockStore::new()],
                scratch: Matrix::zeros(r, r),
                packs: Packs::default(),
            })
        };
        run_steps(interp, courier, clock, cfg.lookahead, 0, None)
    })?;
    report.lookahead = cfg.lookahead;
    let c = gather_result(stores, (mb, nb), r, "run_star_mm");
    Ok((c, report))
}

/// One processor's actions for a star step — at most one, since the
/// plan is fine-grained. The master acts on every master-sourced load
/// (a feed) and every send-back evict (a retire); worker `w` acts on
/// its own loads, computes and evicts; everyone else skips the step.
pub(crate) fn star_actions(step: &Step, me: usize) -> Vec<Action> {
    let mut out = Vec::new();
    match *step {
        Step::Load {
            k,
            worker,
            mat,
            block,
            src,
        } => {
            if me == 0 && src == LoadSrc::Master {
                out.push(Action {
                    step: k,
                    op: Op::StarFeed,
                    blk: block,
                    crit: true,
                    needs: vec![],
                    reads: vec![],
                    writes: vec![PORT],
                });
            } else if me == worker {
                out.push(Action {
                    step: k,
                    op: Op::StarLoad,
                    blk: block,
                    crit: false,
                    needs: if src == LoadSrc::Master {
                        vec![(k, TAG_FEED, block)]
                    } else {
                        vec![]
                    },
                    reads: vec![],
                    writes: vec![(mat_ns(mat), block.0, block.1), MEM],
                });
            }
        }
        Step::Compute { k, worker, c, a, b } => {
            if me == worker {
                out.push(Action {
                    step: k,
                    op: Op::StarCompute,
                    blk: c,
                    crit: false,
                    needs: vec![],
                    reads: vec![(mat_ns(Mat::A), a.0, a.1), (mat_ns(Mat::B), b.0, b.1)],
                    writes: vec![(mat_ns(Mat::C), c.0, c.1)],
                });
            }
        }
        Step::Evict {
            k,
            worker,
            mat,
            block,
            send_back,
        } => {
            if me == 0 && send_back {
                out.push(Action {
                    step: k,
                    op: Op::StarRetire,
                    blk: block,
                    crit: false,
                    needs: vec![(k, TAG_RET, block)],
                    reads: vec![],
                    writes: vec![PORT, (0, block.0, block.1)],
                });
            } else if me == worker {
                out.push(Action {
                    step: k,
                    op: Op::StarEvict,
                    blk: block,
                    crit: send_back,
                    needs: vec![],
                    reads: vec![],
                    writes: vec![(mat_ns(mat), block.0, block.1), MEM],
                });
            }
        }
        _ => panic!("run_star_mm: grid step in star plan"),
    }
    out
}

/// The master: owns the whole `A` and `B`, answers feeds in plan order
/// over the one-port link, and accretes returned `C` blocks.
struct StarMaster<'a> {
    plan: &'a Plan,
    a: &'a BlockStore,
    b: &'a BlockStore,
    c: BlockStore,
}

impl StepInterp for StarMaster<'_> {
    fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    fn emit(&self, k: usize, out: &mut Vec<Action>) {
        out.extend(star_actions(&self.plan.steps[k], 0));
    }

    fn execute(
        &mut self,
        action: &Action,
        courier: &mut Courier,
        _clock: &mut WorkClock,
    ) -> Result<(), Closed> {
        match action.op {
            Op::StarFeed => {
                let Step::Load {
                    worker, mat, block, ..
                } = self.plan.steps[action.step]
                else {
                    unreachable!("emit checked the step kind")
                };
                let store = match mat {
                    Mat::A => self.a,
                    Mat::B => self.b,
                    Mat::C => unreachable!("the master never feeds C"),
                };
                let payload = courier.pool_mut().dup(&store[&block]);
                courier.send((0, worker), action.step, TAG_FEED, block, payload)?;
            }
            Op::StarRetire => {
                let done = courier.take(action.step, TAG_RET, action.blk)?;
                let stale = self.c.insert(action.blk, done);
                debug_assert!(stale.is_none(), "C block returned twice");
            }
            ref op => unreachable!("non-master action {op:?} on the star master"),
        }
        Ok(())
    }

    fn into_store(self: Box<Self>) -> BlockStore {
        self.c
    }
}

/// A worker: at most `worker_mem` resident blocks (indexed by
/// namespace: C, A, B), streaming the maximum-reuse schedule.
struct StarWorker<'a> {
    plan: &'a Plan,
    me: usize,
    worker_mem: usize,
    r: usize,
    /// Resident copies by [`mat_ns`] namespace: `[C, A, B]`.
    resident: [BlockStore; 3],
    scratch: Matrix,
    packs: Packs,
}

impl StarWorker<'_> {
    fn resident_count(&self) -> usize {
        self.resident.iter().map(BlockStore::len).sum()
    }
}

impl StepInterp for StarWorker<'_> {
    fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    fn emit(&self, k: usize, out: &mut Vec<Action>) {
        out.extend(star_actions(&self.plan.steps[k], self.me));
    }

    fn execute(
        &mut self,
        action: &Action,
        courier: &mut Courier,
        clock: &mut WorkClock,
    ) -> Result<(), Closed> {
        match action.op {
            Op::StarLoad => {
                let Step::Load {
                    mat, block, src, ..
                } = self.plan.steps[action.step]
                else {
                    unreachable!("emit checked the step kind")
                };
                let data = match src {
                    LoadSrc::Master => courier.take(action.step, TAG_FEED, block)?,
                    LoadSrc::Zero => Matrix::zeros(self.r, self.r),
                };
                self.resident[mat_ns(mat) as usize].insert(block, data);
                // The memory-bound oracle's runtime half: residency
                // transitions are program-ordered (resource MEM), so
                // this can only trip if the plan itself is over budget.
                assert!(
                    self.resident_count() <= self.worker_mem,
                    "run_star_mm: worker {} exceeded worker_mem {} at step {}",
                    self.me,
                    self.worker_mem,
                    action.step
                );
            }
            Op::StarCompute => {
                let Step::Compute { c, a, b, .. } = self.plan.steps[action.step] else {
                    unreachable!("emit checked the step kind")
                };
                let t0 = Instant::now();
                let [rc, ra, rb] = &mut self.resident;
                let ablk = &ra[&a];
                let bblk = &rb[&b];
                let cblk = rc.get_mut(&c).expect("resident C block missing");
                gemm_with(&mut self.packs, 1.0, ablk, bblk, 1.0, cblk);
                for _ in 1..clock.weight() {
                    gemm_with(&mut self.packs, 1.0, ablk, bblk, 0.0, &mut self.scratch);
                }
                clock.charge(1);
                clock.add_busy(t0.elapsed().as_secs_f64());
                courier.step_done(t0.elapsed().as_secs_f64());
            }
            Op::StarEvict => {
                let Step::Evict {
                    mat,
                    block,
                    send_back,
                    ..
                } = self.plan.steps[action.step]
                else {
                    unreachable!("emit checked the step kind")
                };
                let data = self.resident[mat_ns(mat) as usize]
                    .remove(&block)
                    .expect("evicting a non-resident block");
                if send_back {
                    courier.send((0, 0), action.step, TAG_RET, block, Arc::new(data))?;
                } else {
                    courier.pool_mut().put(data);
                }
            }
            ref op => unreachable!("non-worker action {op:?} on a star worker"),
        }
        Ok(())
    }

    /// Every resident block was evicted; the result lives with the
    /// master.
    fn into_store(self: Box<Self>) -> BlockStore {
        assert!(
            self.resident.iter().all(BlockStore::is_empty),
            "run_star_mm: worker {} finished with resident blocks",
            self.me
        );
        BlockStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::dense;
    use crate::transport::ChannelTransport;
    use hetgrid_linalg::gemm::matmul;

    fn run_star_mm(
        a: &Matrix,
        b: &Matrix,
        topo: &Topology,
        dims: (usize, usize, usize),
        r: usize,
        weights: &[Vec<u64>],
    ) -> Result<(Matrix, ExecReport), ExecError> {
        let cfg = ExecConfig::default();
        run_star_mm_on_cfg(&ChannelTransport, a, b, topo, dims, r, weights, cfg)
    }

    fn star(workers: usize, worker_mem: usize) -> Topology {
        Topology::Star {
            workers,
            worker_mem,
            master_bw: 1.0,
        }
    }

    fn uniform(n: usize) -> Vec<Vec<u64>> {
        vec![vec![1; n]]
    }

    #[test]
    fn star_mm_matches_sequential() {
        let (mb, nb, kb) = (4, 3, 3);
        let r = 3;
        let a = dense(mb * r, kb * r, 1);
        let b = dense(kb * r, nb * r, 2);
        let (c, report) = run_star_mm(&a, &b, &star(2, 7), (mb, nb, kb), r, &uniform(3)).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
        assert_eq!(
            report.work_units.iter().flatten().sum::<u64>() as usize,
            mb * nb * kb
        );
        assert_eq!(report.work_units[0][0], 0, "the master computes nothing");
    }

    #[test]
    fn star_mm_message_counts_match_the_plan() {
        let topo = star(3, 7);
        let dims = (5, 4, 3);
        let r = 2;
        let a = dense(dims.0 * r, dims.2 * r, 3);
        let b = dense(dims.2 * r, dims.1 * r, 4);
        let (_, report) = run_star_mm(&a, &b, &topo, dims, r, &uniform(4)).unwrap();
        let plan = hetgrid_plan::star_mm_plan(&topo, dims);
        let mut feeds = 0u64;
        let mut returns = [0u64; 4];
        for step in &plan.steps {
            match *step {
                Step::Load {
                    src: LoadSrc::Master,
                    ..
                } => feeds += 1,
                Step::Evict {
                    worker,
                    send_back: true,
                    ..
                } => returns[worker] += 1,
                _ => {}
            }
        }
        assert_eq!(report.messages_sent[0][0], feeds);
        for w in 1..4 {
            assert_eq!(report.messages_sent[0][w], returns[w], "worker {w}");
        }
    }

    #[test]
    fn star_mm_minimal_memory_single_worker() {
        // worker_mem = 3 is the smallest legal budget: mu = 1, fully
        // serial streaming through one worker.
        let (mb, nb, kb) = (3, 2, 2);
        let r = 2;
        let a = dense(mb * r, kb * r, 5);
        let b = dense(kb * r, nb * r, 6);
        let (c, _) = run_star_mm(&a, &b, &star(1, 3), (mb, nb, kb), r, &uniform(2)).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
    }

    #[test]
    fn star_mm_heterogeneous_weights_scale_work() {
        let (mb, nb, kb) = (4, 4, 2);
        let r = 2;
        let a = dense(mb * r, kb * r, 7);
        let b = dense(kb * r, nb * r, 8);
        let weights = vec![vec![1, 1, 3]];
        let (c, report) = run_star_mm(&a, &b, &star(2, 7), (mb, nb, kb), r, &weights).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
        let plan = hetgrid_plan::star_mm_plan(&star(2, 7), (mb, nb, kb));
        let mut expect = vec![0u64; 3];
        for step in &plan.steps {
            if let Step::Compute { worker, .. } = *step {
                expect[worker] += weights[0][worker];
            }
        }
        assert_eq!(report.work_units[0], expect);
    }

    #[test]
    fn lookahead_is_bit_exact_with_in_order() {
        let (mb, nb, kb) = (5, 4, 3);
        let r = 2;
        let a = dense(mb * r, kb * r, 11);
        let b = dense(kb * r, nb * r, 12);
        let t = ChannelTransport;
        let run = |lookahead| {
            run_star_mm_on_cfg(
                &t,
                &a,
                &b,
                &star(2, 7),
                (mb, nb, kb),
                r,
                &uniform(3),
                ExecConfig { lookahead },
            )
            .unwrap()
            .0
        };
        let inorder = run(0);
        for depth in [1, 4] {
            assert!(
                run(depth).approx_eq(&inorder, 0.0),
                "depth {depth} diverged from in-order"
            );
        }
    }

    #[test]
    fn star_matches_grid_mm_numerics() {
        // Same inputs through both topologies: identical accumulation
        // order per C block (ascending k), so results agree bit-exactly.
        let nb = 4;
        let r = 2;
        let a = dense(nb * r, nb * r, 21);
        let b = dense(nb * r, nb * r, 22);
        let (c_star, _) = run_star_mm(&a, &b, &star(3, 13), (nb, nb, nb), r, &uniform(4)).unwrap();
        let dist = hetgrid_dist::BlockCyclic::new(2, 2);
        let (c_grid, _) = crate::run_mm_on_cfg(
            &ChannelTransport,
            &a,
            &b,
            &dist,
            nb,
            r,
            &vec![vec![1; 2]; 2],
            ExecConfig::default(),
        )
        .unwrap();
        assert!(c_star.approx_eq(&c_grid, 0.0));
    }
}
