//! Threaded master-worker matrix multiplication: the
//! [`hetgrid_plan::star_mm_plan`] step stream lowered for
//! `crate::grid`. Processor 0 is the master — it holds every `A`/`B`
//! block, feeds workers over its one-port link, and collects every
//! finished `C` block; processors `1..=workers` are bounded-memory
//! workers running the maximum-reuse streaming schedule.
//!
//! A star step lowers to at most one action per processor: a feed is a
//! `Send` from the master's `A`/`B` store (namespaces 1 and 2, as
//! MM's), a load a `Take` of that message or of a zero accumulator, a
//! compute MM's GEMM `Work`, an evict a drop (a finished `C` block
//! moves into its message home first) and the master's retire a take
//! into its `C` store. The platform constraints ride the derived
//! hazard sets:
//!
//! * **one-port** — every master action also writes `(5, 0, 0)`, so
//!   master transfers serialize in plan order at any lookahead depth;
//! * **bounded memory** — every worker take and drop also writes
//!   `(6, 0, 0)`, so residency transitions stay in program order and
//!   the high-water mark equals the plan fold
//!   (`hetgrid_sim::counts::star_residency_peaks`), which the
//!   interpreter asserts against `worker_mem` after every take;
//! * **bit-exactness** — all updates of a `C` block run on one worker
//!   and conflict on its resident copy, so they execute in
//!   ascending-`k` program order at any lookahead depth.

use crate::grid::{self, GridInterp, Kern, Send, Src, Take, Work};
use crate::step::{check_weights, gather_result, run_grid, run_steps, Action, ExecConfig};
use crate::store::{BlockStore, ExecReport};
use crate::transport::{ExecError, Transport};
use hetgrid_core::Topology;
use hetgrid_linalg::Matrix;
use hetgrid_plan::{LoadSrc, Mat, Step};
use std::borrow::Cow;

/// Message tags: a fed input block (master to worker) and a returned
/// result block (worker to master). Every star step has a unique plan
/// index, so `(step, tag, block)` routing keys never collide.
const TAG_FEED: u8 = 0;
const TAG_RET: u8 = 1;

/// The master's one-port link and a worker's memory.
const PORT: (u8, usize, usize) = (5, 0, 0);
const MEM: (u8, usize, usize) = (6, 0, 0);

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
    let blocks = |m: &Matrix, rows, cols| -> BlockStore {
        let ij = (0..rows).flat_map(|i| (0..cols).map(move |j| (i, j)));
        ij.map(|(i, j)| ((i, j), m.block(i * r, j * r, r, r)))
            .collect()
    };
    let (a, b) = (blocks(a, mb, kb), blocks(b, kb, nb));
    let (stores, mut report) = run_grid(transport, shape, weights, |me, courier, clock| {
        // Everyone collects `C` from nothing; a worker takes `A` and
        // `B` block by block too, under its memory cap.
        let empty = Cow::Owned(BlockStore::new());
        let (stores, cap) = match me {
            0 => (vec![empty, Cow::Borrowed(&a), Cow::Borrowed(&b)], None),
            _ => (vec![empty; 3], Some(worker_mem)),
        };
        let interp = GridInterp::new(&plan, (0, me), stores, cap, r, None);
        run_steps(interp, courier, clock, cfg.lookahead, 0, None)
    })?;
    report.lookahead = cfg.lookahead;
    let c = gather_result(stores, (mb, nb), r, "run_star_mm");
    Ok((c, report))
}

/// The star emitter: processor `(0, me)`'s actions for one star step —
/// at most one, since the plan is fine-grained. The master acts on
/// every master-sourced load (a feed) and every send-back evict (a
/// retire); worker `w` acts on its own loads, computes and evicts;
/// everyone else skips the step, and a grid step has no star actions.
pub(crate) fn star_actions(
    step: &Step,
    (_, me): (usize, usize),
    _: &[(usize, usize)],
) -> Vec<Action> {
    // `C` is the matrix written, `A` and `B` sit where MM keeps them.
    let res = |mat, (bi, bj): (usize, usize)| match mat {
        Mat::C => (0, bi, bj),
        Mat::A => (1, bi, bj),
        Mat::B => (2, bi, bj),
    };
    // The master's transfers share its one port, a worker's residency
    // transitions its memory.
    let moved = |k, blk, crit, takes, sends, drops| {
        let mut a = grid::action_moving(k, None, blk, crit, takes, vec![], sends, drops);
        a.writes.push(if me == 0 { PORT } else { MEM });
        vec![a]
    };
    match *step {
        Step::Load {
            k,
            worker,
            mat,
            block,
            src,
        } => {
            let (res, fed) = (res(mat, block), src == LoadSrc::Master);
            if me == 0 && fed {
                let feed = Send::of(TAG_FEED, res.0, block, vec![(0, worker)]);
                moved(k, block, true, vec![], vec![feed], vec![])
            } else if me == worker {
                let msg = fed.then_some((k, TAG_FEED, block));
                moved(k, block, false, vec![Take { msg, res }], vec![], vec![])
            } else {
                vec![]
            }
        }
        Step::Compute { k, worker, c, a, b } if me == worker => {
            let ins = vec![Src::Own(res(Mat::A, a)), Src::Own(res(Mat::B, b))];
            let work = vec![Work::on(Kern::Gemm(1.0), ins, c)];
            vec![grid::action(k, None, c, false, work, vec![])]
        }
        Step::Compute { .. } => vec![],
        Step::Evict {
            k,
            worker,
            mat,
            block,
            send_back,
        } => {
            let res = res(mat, block);
            if me == 0 && send_back {
                let msg = Some((k, TAG_RET, block));
                moved(k, block, false, vec![Take { msg, res }], vec![], vec![])
            } else if me == worker {
                // A finished `C` block moves into its message home.
                let dests = if send_back { vec![(0, 0)] } else { vec![] };
                let ret = Send::of(TAG_RET, res.0, block, dests);
                moved(k, block, send_back, vec![], vec![ret], vec![res])
            } else {
                vec![]
            }
        }
        Step::Mm { .. } | Step::Factor { .. } | Step::Cholesky { .. } | Step::Qr { .. } => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{Courier, WorkClock};
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

    /// The memory bound's runtime half: a worker capped below its
    /// plan's peak (7 blocks) trips the interpreter's assert. The plan
    /// opens with four local zero accumulators, so the worker alone
    /// reaches the fourth.
    #[test]
    #[should_panic(expected = "at step 3 holds 4 > 3 blocks")]
    fn a_cap_below_the_plan_peak_trips_the_memory_assert() {
        let plan = hetgrid_plan::star_mm_plan(&star(1, 7), (2, 2, 2));
        let (my, stores) = ((0, 1), vec![Cow::Owned(BlockStore::new()); 3]);
        let mut worker = GridInterp::new(&plan, my, stores, Some(3), 2, None);
        let ep = ChannelTransport.connect(2).pop().unwrap();
        let mut courier = Courier::new(ep, 1, (1, 2));
        let mut clock = WorkClock::new(1);
        for step in &plan.steps[..4] {
            for a in star_actions(step, my, &[]) {
                worker.execute(&a, &mut courier, &mut clock).unwrap();
            }
        }
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
