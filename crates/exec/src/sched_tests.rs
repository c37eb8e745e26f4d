//! Property tests for the lookahead scheduler: random plans, random
//! message-arrival orders, random window depths — the out-of-order
//! pick must never reorder two conflicting actions, and the
//! per-processor action sets must agree with the plan-level dependency
//! analysis in `hetgrid_plan::deps`.
//!
//! These drive [`pick_action`] and the window bookkeeping directly (a
//! single-processor discrete simulation of `run_steps`' loop), so
//! arrival orders that real channel timing would almost never produce
//! are exercised deterministically.

use crate::cholesky::cholesky_actions;
use crate::lu::lu_actions;
use crate::mm::mm_actions;
use crate::qr::qr_actions;
use crate::step::{conflicts, pick_action, Action, MsgKey, Res};
use crate::testutil::fnv1a;
use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
use hetgrid_plan::deps::{step_access, Operand};
use hetgrid_plan::Plan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet, VecDeque};

const KERNELS: [&str; 4] = ["mm", "lu", "cholesky", "qr"];

fn make_dist(choice: usize, nb: usize) -> Box<dyn BlockDist + Sync> {
    match choice {
        0 => Box::new(BlockCyclic::new(2, 2)),
        1 => Box::new(BlockCyclic::new(2, 3)),
        _ => {
            let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
            let sol = exact::solve_arrangement(&arr);
            Box::new(PanelDist::from_allocation(
                &arr,
                &sol.alloc,
                nb,
                nb,
                PanelOrdering::Interleaved,
            ))
        }
    }
}

fn make_plan(kernel: &str, dist: &(dyn BlockDist + Sync), nb: usize) -> Plan {
    match kernel {
        "mm" => hetgrid_plan::mm_plan(dist, nb),
        "lu" => hetgrid_plan::factor_plan(dist, nb),
        "cholesky" => hetgrid_plan::cholesky_plan(dist, nb),
        "qr" => hetgrid_plan::qr_plan(dist, nb),
        other => panic!("unknown kernel {other}"),
    }
}

fn owned_blocks(
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    my: (usize, usize),
) -> Vec<(usize, usize)> {
    let mut owned: Vec<(usize, usize)> = (0..nb)
        .flat_map(|bi| (0..nb).map(move |bj| (bi, bj)))
        .filter(|&(bi, bj)| dist.owner(bi, bj) == my)
        .collect();
    owned.sort_unstable();
    owned
}

fn proc_actions(
    kernel: &str,
    plan: &Plan,
    k: usize,
    my: (usize, usize),
    owned: &[(usize, usize)],
) -> Vec<Action> {
    let step = &plan.steps[k];
    match kernel {
        "mm" => mm_actions(step, my, owned),
        "lu" => lu_actions(step, my, owned),
        "cholesky" => cholesky_actions(step, my, owned),
        "qr" => qr_actions(step, my, owned),
        other => panic!("unknown kernel {other}"),
    }
}

/// Single-processor replay of the `run_steps` window loop: emit up to
/// the lookahead horizon, execute whatever [`pick_action`] chooses,
/// deliver one pending message (in a shuffled order) when nothing is
/// runnable, retire the front step once its actions finish. Returns the
/// program-order indices in execution order.
///
/// Stops as soon as `stop_front` steps are retired — pass
/// `per_step.len()` for a full run, or a crash frontier to model a
/// processor dying at that retirement beacon (with the lookahead window
/// possibly having executed work past it).
fn simulate(
    per_step: &[Vec<Action>],
    lookahead: usize,
    rng: &mut StdRng,
    stop_front: usize,
) -> Vec<usize> {
    let n = per_step.len();
    // Global program order and each action's index within it.
    let program: Vec<&Action> = per_step.iter().flatten().collect();
    let mut gid_base = vec![0usize; n];
    for k in 1..n {
        gid_base[k] = gid_base[k - 1] + per_step[k - 1].len();
    }
    // Every message any action waits on, in a random arrival order.
    let mut arrivals: Vec<MsgKey> = {
        let mut seen = HashSet::new();
        program
            .iter()
            .flat_map(|a| a.needs.iter().copied())
            .filter(|k| seen.insert(*k))
            .collect()
    };
    for i in (1..arrivals.len()).rev() {
        arrivals.swap(i, rng.gen_range(0..=i));
    }
    let mut arrivals = VecDeque::from(arrivals);

    let mut arrived: HashSet<MsgKey> = HashSet::new();
    let mut win: VecDeque<(Action, bool)> = VecDeque::new();
    let mut gids: VecDeque<usize> = VecDeque::new();
    let (mut emitted, mut front) = (0usize, 0usize);
    let mut order = Vec::new();
    loop {
        while emitted < n && emitted <= front + lookahead {
            for (i, a) in per_step[emitted].iter().enumerate() {
                win.push_back((a.clone(), false));
                gids.push_back(gid_base[emitted] + i);
            }
            emitted += 1;
        }
        if front < n
            && front < stop_front
            && win.iter().filter(|(a, _)| a.step == front).all(|(_, d)| *d)
        {
            let keep: Vec<bool> = win.iter().map(|(a, _)| a.step != front).collect();
            let mut it = keep.iter();
            win.retain(|_| *it.next().unwrap());
            let mut it = keep.iter();
            gids.retain(|_| *it.next().unwrap());
            front += 1;
            continue;
        }
        if front >= n || front >= stop_front {
            break;
        }
        if let Some(i) = pick_action(&win, |key| arrived.contains(key)) {
            win[i].1 = true;
            order.push(gids[i]);
        } else {
            let key = arrivals
                .pop_front()
                .expect("scheduler deadlocked: nothing runnable, no message pending");
            arrived.insert(key);
        }
    }
    if stop_front >= n {
        assert_eq!(order.len(), program.len(), "not every action executed");
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core safety property of the lookahead executor: however
    /// messages arrive and however deep the window, two actions that
    /// touch the same block (and at least one writes it) execute in
    /// program order on their processor. Combined with owner-local
    /// writes this is exactly the bit-exactness argument of
    /// `crate::step`'s module docs.
    #[test]
    fn out_of_order_pick_preserves_hazard_order(
        kernel_idx in 0usize..4,
        dist_choice in 0usize..3,
        nb in 3usize..7,
        lookahead in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let kernel = KERNELS[kernel_idx];
        let dist = make_dist(dist_choice, nb);
        let plan = make_plan(kernel, dist.as_ref(), nb);
        let (p, q) = dist.grid();
        let mut rng = StdRng::seed_from_u64(seed);
        for pi in 0..p {
            for pj in 0..q {
                let my = (pi, pj);
                let owned = owned_blocks(dist.as_ref(), nb, my);
                let per_step: Vec<Vec<Action>> = (0..plan.steps.len())
                    .map(|k| proc_actions(kernel, &plan, k, my, &owned))
                    .collect();
                let order = simulate(&per_step, lookahead, &mut rng, per_step.len());
                let program: Vec<&Action> = per_step.iter().flatten().collect();
                let mut pos = vec![0usize; program.len()];
                for (t, &g) in order.iter().enumerate() {
                    pos[g] = t;
                }
                for i in 0..program.len() {
                    for j in i + 1..program.len() {
                        if conflicts(program[i], program[j]) {
                            prop_assert!(
                                pos[i] < pos[j],
                                "{kernel} p{pi}{pj} depth {lookahead}: action {i} \
                                 ({:?} step {}) ran after conflicting action {j} \
                                 ({:?} step {})",
                                program[i].blk, program[i].step,
                                program[j].blk, program[j].step,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Crash-point consistency, the property elastic-grid recovery
    /// rests on: run every processor *out of order* until it has
    /// retired `f` steps (the crash beacon), journaling each
    /// matrix-namespace write with its step — the lookahead window will
    /// have executed and journaled work *past* the crash point. Then:
    ///
    /// 1. the journal truncated at the cut (`step < f`) must hold, for
    ///    every block, exactly the last plan-order writer below `f`
    ///    from [`step_access`] — retirement guarantees completeness
    ///    below the cut, the truncation discards the over-execution;
    /// 2. a resumed epoch on a *different* distribution replays steps
    ///    `f..n`: its per-step access sets must equal the original
    ///    plan's (the access pattern is distribution-independent, which
    ///    is what lets recovery swap grids), and no step may ever read
    ///    a block whose restored version is not its last plan-order
    ///    writer — i.e. never a dead, un-restored block and never a
    ///    leaked write from the aborted epoch's future.
    #[test]
    fn crash_cut_restores_exactly_the_plan_state(
        kernel_idx in 0usize..4,
        dist_choice in 0usize..3,
        dist2_choice in 0usize..3,
        nb in 3usize..7,
        lookahead in 0usize..4,
        crash in 0usize..7,
        seed in 0u64..u64::MAX,
    ) {
        let kernel = KERNELS[kernel_idx];
        let dist = make_dist(dist_choice, nb);
        let plan = make_plan(kernel, dist.as_ref(), nb);
        let n = plan.steps.len();
        let f = crash.min(n);
        let (p, q) = dist.grid();
        let mut rng = StdRng::seed_from_u64(seed);

        // Epoch 1: out-of-order execution to the crash beacon.
        let mut journal: std::collections::HashMap<(usize, usize), Vec<usize>> =
            std::collections::HashMap::new();
        for pi in 0..p {
            for pj in 0..q {
                let my = (pi, pj);
                let owned = owned_blocks(dist.as_ref(), nb, my);
                let per_step: Vec<Vec<Action>> = (0..n)
                    .map(|k| proc_actions(kernel, &plan, k, my, &owned))
                    .collect();
                let order = simulate(&per_step, lookahead, &mut rng, f);
                let program: Vec<&Action> = per_step.iter().flatten().collect();
                for &g in &order {
                    for &(ns, bi, bj) in &program[g].writes {
                        if ns == 0 {
                            journal.entry((bi, bj)).or_default().push(program[g].step);
                        }
                    }
                }
            }
        }

        // The last plan-order writer of each block below the cut.
        let mut last_writer: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for k in 0..f {
            for w in step_access(&plan.steps[k]).writes.iter() {
                if w.op == Operand::C {
                    last_writer.insert(w.block, k);
                }
            }
        }
        for bi in 0..nb {
            for bj in 0..nb {
                let cut = journal
                    .get(&(bi, bj))
                    .and_then(|v| v.iter().filter(|&&s| s < f).max())
                    .copied();
                prop_assert_eq!(
                    cut,
                    last_writer.get(&(bi, bj)).copied(),
                    "{} crash at {}: cut version of block ({},{}) diverges from the \
                     plan's last writer below the cut",
                    kernel, f, bi, bj
                );
            }
        }

        // Epoch 2: resume at `f` on a re-solved distribution.
        let dist2 = make_dist(dist2_choice, nb);
        let plan2 = make_plan(kernel, dist2.as_ref(), nb);
        prop_assert_eq!(plan2.steps.len(), n, "{} plans disagree on step count", kernel);
        let mut version = last_writer; // block -> step of its live version
        for k in f..n {
            let acc1 = step_access(&plan.steps[k]);
            let acc2 = step_access(&plan2.steps[k]);
            let w1: BTreeSet<_> = acc1.writes.iter().filter(|x| x.op == Operand::C).map(|x| x.block).collect();
            let w2: BTreeSet<_> = acc2.writes.iter().filter(|x| x.op == Operand::C).map(|x| x.block).collect();
            prop_assert_eq!(&w1, &w2, "{} step {}: write set depends on the distribution", kernel, k);
            let r1: BTreeSet<_> = acc1.reads.iter().filter(|x| x.op == Operand::C).map(|x| x.block).collect();
            let r2: BTreeSet<_> = acc2.reads.iter().filter(|x| x.op == Operand::C).map(|x| x.block).collect();
            prop_assert_eq!(&r1, &r2, "{} step {}: read set depends on the distribution", kernel, k);
            for b in &r2 {
                // A read in the resumed epoch observes either the
                // restored cut (< f), a version this epoch recomputed
                // ([f, k)), or the scattered base (never written) —
                // and always the *latest* plan-order writer below k.
                let live = version.get(b).copied();
                prop_assert!(
                    live.is_none() || live.unwrap() < k,
                    "{} step {}: read of ({},{}) observes a future version {:?}",
                    kernel, k, b.0, b.1, live
                );
            }
            for b in &w2 {
                version.insert(*b, k);
            }
        }
    }
}

/// Cross-checks the per-processor action emitters against the
/// plan-level dependency analysis: per step, the union of action writes
/// in the matrix namespace over all processors is exactly the step's
/// write set from [`step_access`], no block is written by two
/// processors, and every tracked read is a block the step also writes
/// (the IR's writes are read-modify-writes).
#[test]
fn actions_agree_with_plan_deps() {
    for kernel in KERNELS {
        for dist_choice in 0..3 {
            let nb = 5;
            let dist = make_dist(dist_choice, nb);
            let plan = make_plan(kernel, dist.as_ref(), nb);
            let (p, q) = dist.grid();
            for (k, step) in plan.steps.iter().enumerate() {
                let acc = step_access(step);
                let want: BTreeSet<(usize, usize)> = acc
                    .writes
                    .iter()
                    .filter(|w| w.op == Operand::C)
                    .map(|w| w.block)
                    .collect();
                let mut got = BTreeSet::new();
                for pi in 0..p {
                    for pj in 0..q {
                        let my = (pi, pj);
                        let owned = owned_blocks(dist.as_ref(), nb, my);
                        for a in proc_actions(kernel, &plan, k, my, &owned) {
                            for &(ns, bi, bj) in &a.writes {
                                if ns == 0 {
                                    assert!(
                                        got.insert((bi, bj)),
                                        "{kernel} step {k}: block ({bi},{bj}) \
                                         written by two actions/processors"
                                    );
                                }
                            }
                            for &(ns, bi, bj) in &a.reads {
                                if ns == 0 {
                                    assert!(
                                        want.contains(&(bi, bj)),
                                        "{kernel} step {k}: read ({bi},{bj}) \
                                         outside the step's access set"
                                    );
                                }
                            }
                        }
                    }
                }
                assert_eq!(
                    got, want,
                    "{kernel} step {k} (dist {dist_choice}): action writes \
                     disagree with hetgrid_plan::deps::step_access"
                );
            }
        }
    }
}

/// FNV-1a over every processor's action stream for `kernel` on `dist`,
/// in emission order: `(step, blk, crit, needs, writes, reads)` with
/// each set sorted and filtered to the matrix namespace (an emitter may
/// also declare MM's never-written `A`/`B` blocks, and QR its
/// reflectors and loaned blocks, which only its own actions touch).
fn emission_hash(kernel: &str, dist: &(dyn BlockDist + Sync), nb: usize) -> u64 {
    let plan = make_plan(kernel, dist, nb);
    let (p, q) = dist.grid();
    let mut words: Vec<usize> = Vec::new();
    for my in (0..p).flat_map(|pi| (0..q).map(move |pj| (pi, pj))) {
        let owned = owned_blocks(dist, nb, my);
        for k in 0..plan.steps.len() {
            for a in proc_actions(kernel, &plan, k, my, &owned) {
                let mut needs = a.needs.clone();
                needs.sort_unstable();
                words.extend([a.step, a.blk.0, a.blk.1, usize::from(a.crit), needs.len()]);
                words.extend(needs.iter().flat_map(|&(s, t, (i, j))| [s, t.into(), i, j]));
                let matrix = |set: &[Res]| -> Vec<Res> {
                    set.iter().copied().filter(|res| res.0 == 0).collect()
                };
                for mut set in [matrix(&a.writes), matrix(&a.reads)] {
                    set.sort_unstable();
                    words.push(set.len());
                    words.extend(set.iter().flat_map(|&(ns, i, j)| [ns.into(), i, j]));
                }
            }
        }
    }
    fnv1a(words.iter().flat_map(|w| (*w as u64).to_le_bytes()))
}

/// "Same schedule", pinned: each kernel's constants were computed
/// before it moved onto `crate::grid` (MM, LU and Cholesky together, QR
/// later, from its own interpreter) and must never move — emission
/// order, `crit` flags, the trailing-update tiering and the hazard sets
/// are the scheduler's whole input.
#[test]
fn emission_order_is_pinned() {
    let nb = 6;
    // Per kernel: the {1,2,3,5} panel distribution, then BlockCyclic(2,3).
    let got = ["mm", "lu", "cholesky", "qr"].map(|kernel| {
        [2, 1].map(|choice| emission_hash(kernel, make_dist(choice, nb).as_ref(), nb))
    });
    let want: [[u64; 2]; 4] = [
        [0x49f6_1f31_dfbd_3ec4, 0x3ca8_11fd_3bd8_2fa5],
        [0x3ea9_dd80_e9ad_4a42, 0xa8c1_54c4_9ad5_81c0],
        [0xb280_ff62_8436_1420, 0x9da2_faeb_d639_3347],
        [0x46c3_56a3_2448_55e6, 0x4740_bd1e_6dbf_6907],
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
