//! Bit-for-bit equivalence of the plan interpreter against verbatim
//! copies of the pre-refactor schedule generators: identical task
//! graphs (deps, tags, durations), identical schedules (per-task start
//! and finish times), identical reports — for random heterogeneous
//! grids, distributions, shapes, and broadcast topologies.
//!
//! The `legacy_*` functions below are the pre-`hetgrid-plan` bodies of
//! `simulate_mm_traced` / `simulate_factor_traced` /
//! `simulate_cholesky_traced`, kept verbatim (along with their private
//! helpers) as the reference the refactor must not drift from.

// The legacy bodies are copied verbatim, 2D-grid idiom included, so
// the usual crate-level allowances apply here too.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
use hetgrid_sim::engine::{Engine, TaskId};
use hetgrid_sim::machine::{CostModel, Machine, SimReport};
use hetgrid_sim::plan::Kernel;
use hetgrid_sim::{simulate, Broadcast, TracedRun};
use rand::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Verbatim private helpers of the pre-plan kernels module.
// ---------------------------------------------------------------------

struct ProcState {
    q: usize,
    last: Vec<Option<TaskId>>,
}

impl ProcState {
    fn new(p: usize, q: usize) -> Self {
        ProcState {
            q,
            last: vec![None; p * q],
        }
    }
    fn deps_with_last(&self, (i, j): (usize, usize), mut deps: Vec<TaskId>) -> Vec<TaskId> {
        if let Some(t) = self.last[i * self.q + j] {
            deps.push(t);
        }
        deps
    }
    fn set_last(&mut self, (i, j): (usize, usize), t: TaskId) {
        self.last[i * self.q + j] = Some(t);
    }
    fn get(&self, (i, j): (usize, usize)) -> Option<TaskId> {
        self.last[i * self.q + j]
    }
}

fn emit_ordered_broadcast(
    engine: &mut Engine,
    machine: &Machine<'_>,
    mode: Broadcast,
    src: (usize, usize),
    dests: &[(usize, usize)],
    blocks: usize,
    root_deps: Vec<TaskId>,
) -> Vec<((usize, usize), TaskId)> {
    let mut out = Vec::with_capacity(dests.len());
    match mode {
        Broadcast::Direct => {
            for &dst in dests {
                let m = machine.message(engine, root_deps.clone(), src, dst, blocks);
                out.push((dst, m));
            }
        }
        Broadcast::Ring => {
            let mut hop_src = src;
            let mut prev: Option<TaskId> = None;
            for &dst in dests {
                let deps = match prev {
                    Some(t) => vec![t],
                    None => root_deps.clone(),
                };
                let m = machine.message(engine, deps, hop_src, dst, blocks);
                out.push((dst, m));
                hop_src = dst;
                prev = Some(m);
            }
        }
        Broadcast::Tree => {
            let mut holders: Vec<((usize, usize), Option<TaskId>)> = vec![(src, None)];
            let mut di = 0usize;
            while di < dests.len() {
                let round = holders.clone();
                for (h, arrival) in round {
                    if di >= dests.len() {
                        break;
                    }
                    let dst = dests[di];
                    di += 1;
                    let deps = match arrival {
                        Some(t) => vec![t],
                        None => root_deps.clone(),
                    };
                    let m = machine.message(engine, deps, h, dst, blocks);
                    out.push((dst, m));
                    holders.push((dst, Some(m)));
                }
            }
        }
    }
    out
}

fn finish_run_traced(machine: &Machine<'_>, engine: Engine) -> TracedRun {
    let schedule = engine.run();
    let report = SimReport {
        makespan: schedule.makespan,
        core_busy: machine.core_busy(&schedule),
        comm_time: schedule.comm_time,
        compute_time: schedule.compute_time,
    };
    TracedRun {
        engine,
        schedule,
        report,
    }
}

/// Distinct owners of blocks `(bi, bj)` for `bj` in `cols`, excluding
/// `skip` (verbatim from the pre-plan kernels module).
fn row_dests(
    dist: &dyn BlockDist,
    bi: usize,
    cols: impl Iterator<Item = usize>,
    skip: (usize, usize),
) -> Vec<(usize, usize)> {
    let mut dests: Vec<(usize, usize)> = Vec::new();
    for bj in cols {
        let o = dist.owner(bi, bj);
        if o != skip && !dests.contains(&o) {
            dests.push(o);
        }
    }
    dests.sort_unstable();
    dests
}

fn col_dests(
    dist: &dyn BlockDist,
    bj: usize,
    rows: impl Iterator<Item = usize>,
    skip: (usize, usize),
) -> Vec<(usize, usize)> {
    let mut dests: Vec<(usize, usize)> = Vec::new();
    for bi in rows {
        let o = dist.owner(bi, bj);
        if o != skip && !dests.contains(&o) {
            dests.push(o);
        }
    }
    dests.sort_unstable();
    dests
}

// ---------------------------------------------------------------------
// Verbatim pre-plan schedule generators.
// ---------------------------------------------------------------------

/// Verbatim pre-plan `simulate_mm_traced` body.
fn legacy_mm_traced(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
    broadcast: Broadcast,
) -> TracedRun {
    let (p, q) = dist.grid();
    let mut engine = Engine::new();
    let machine = Machine::new(&mut engine, arr, cost);
    let mut procs = ProcState::new(p, q);
    let owned = dist.owned_counts(nb, nb);

    for k in 0..nb {
        let mut incoming: BTreeMap<(usize, usize), Vec<TaskId>> = BTreeMap::new();
        match broadcast {
            Broadcast::Direct => {
                let mut msgs: BTreeMap<((usize, usize), (usize, usize)), usize> = BTreeMap::new();
                for bi in 0..nb {
                    let src = dist.owner(bi, k);
                    for dst in row_dests(dist, bi, 0..nb, src) {
                        *msgs.entry((src, dst)).or_insert(0) += 1;
                    }
                }
                for bj in 0..nb {
                    let src = dist.owner(k, bj);
                    for dst in col_dests(dist, bj, 0..nb, src) {
                        *msgs.entry((src, dst)).or_insert(0) += 1;
                    }
                }
                for (&(src, dst), &blocks) in &msgs {
                    let deps = match procs.get(src) {
                        Some(t) => vec![t],
                        None => vec![],
                    };
                    let m = machine.message(&mut engine, deps, src, dst, blocks);
                    incoming.entry(dst).or_default().push(m);
                }
            }
            Broadcast::Ring | Broadcast::Tree => {
                let src_col = dist.owner(0, k).1;
                for gi in 0..p {
                    let blocks = (0..nb).filter(|&bi| dist.owner(bi, k).0 == gi).count();
                    let src = (gi, src_col);
                    let dests: Vec<(usize, usize)> =
                        (1..q).map(|step| (gi, (src_col + step) % q)).collect();
                    let root_deps = match procs.get(src) {
                        Some(t) => vec![t],
                        None => vec![],
                    };
                    for (dst, m) in emit_ordered_broadcast(
                        &mut engine,
                        &machine,
                        broadcast,
                        src,
                        &dests,
                        blocks,
                        root_deps,
                    ) {
                        incoming.entry(dst).or_default().push(m);
                    }
                }
                let src_row = dist.owner(k, 0).0;
                for gj in 0..q {
                    let blocks = (0..nb).filter(|&bj| dist.owner(k, bj).1 == gj).count();
                    let src = (src_row, gj);
                    let dests: Vec<(usize, usize)> =
                        (1..p).map(|step| ((src_row + step) % p, gj)).collect();
                    let root_deps = match procs.get(src) {
                        Some(t) => vec![t],
                        None => vec![],
                    };
                    for (dst, m) in emit_ordered_broadcast(
                        &mut engine,
                        &machine,
                        broadcast,
                        src,
                        &dests,
                        blocks,
                        root_deps,
                    ) {
                        incoming.entry(dst).or_default().push(m);
                    }
                }
            }
        }

        for i in 0..p {
            for j in 0..q {
                if owned[i][j] == 0 {
                    continue;
                }
                let deps = incoming.remove(&(i, j)).unwrap_or_default();
                let deps = procs.deps_with_last((i, j), deps);
                let t = machine.compute(&mut engine, deps, (i, j), owned[i][j], 1.0);
                procs.set_last((i, j), t);
            }
        }
    }

    finish_run_traced(&machine, engine)
}

/// Verbatim pre-plan `simulate_factor_traced` body.
fn legacy_factor_traced(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
    kind: Kernel,
    broadcast: Broadcast,
) -> TracedRun {
    let (p, q) = dist.grid();
    let flop_scale = match kind {
        Kernel::Lu => 1.0,
        Kernel::Qr => 2.0,
        Kernel::Mm | Kernel::Cholesky => unreachable!("not a factor kind"),
    };
    let panel_cost = cost.panel_cost * flop_scale;
    let trsm_cost = cost.trsm_cost * flop_scale;
    let update_cost = flop_scale;

    let mut engine = Engine::new();
    let machine = Machine::new(&mut engine, arr, cost);
    let mut procs = ProcState::new(p, q);

    for k in 0..nb {
        let mut panel_tasks: BTreeMap<(usize, usize), TaskId> = BTreeMap::new();
        {
            let mut counts: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            for bi in k..nb {
                *counts.entry(dist.owner(bi, k)).or_insert(0) += 1;
            }
            for (&owner, &blocks) in &counts {
                let deps = procs.deps_with_last(owner, vec![]);
                let t = machine.compute(&mut engine, deps, owner, blocks, panel_cost);
                panel_tasks.insert(owner, t);
                procs.set_last(owner, t);
            }
        }

        if k + 1 == nb {
            continue;
        }

        let mut l_incoming: BTreeMap<(usize, usize), Vec<TaskId>> = BTreeMap::new();
        if broadcast == Broadcast::Direct {
            let mut msgs: BTreeMap<((usize, usize), (usize, usize)), usize> = BTreeMap::new();
            for bi in k..nb {
                let src = dist.owner(bi, k);
                for dst in row_dests(dist, bi, k + 1..nb, src) {
                    *msgs.entry((src, dst)).or_insert(0) += 1;
                }
            }
            for (&(src, dst), &blocks) in &msgs {
                let deps = vec![panel_tasks[&src]];
                let m = machine.message(&mut engine, deps, src, dst, blocks);
                l_incoming.entry(dst).or_default().push(m);
            }
        } else {
            let src_col = dist.owner(k, k).1;
            let mut trailing_cols: Vec<usize> = (k + 1..nb).map(|bj| dist.owner(k, bj).1).collect();
            trailing_cols.sort_unstable();
            trailing_cols.dedup();
            for gi in 0..p {
                let blocks = (k..nb).filter(|&bi| dist.owner(bi, k).0 == gi).count();
                if blocks == 0 {
                    continue;
                }
                let src = (gi, src_col);
                let dests: Vec<(usize, usize)> = (1..q)
                    .map(|s| (src_col + s) % q)
                    .filter(|gj| trailing_cols.contains(gj))
                    .map(|gj| (gi, gj))
                    .collect();
                if dests.is_empty() {
                    continue;
                }
                let root = panel_tasks.get(&src).map(|&t| vec![t]).unwrap_or_default();
                for (dst, m) in emit_ordered_broadcast(
                    &mut engine,
                    &machine,
                    broadcast,
                    src,
                    &dests,
                    blocks,
                    root,
                ) {
                    l_incoming.entry(dst).or_default().push(m);
                }
            }
        }

        let mut trsm_tasks: BTreeMap<(usize, usize), TaskId> = BTreeMap::new();
        {
            let diag_owner = dist.owner(k, k);
            let mut counts: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            for bj in k + 1..nb {
                *counts.entry(dist.owner(k, bj)).or_insert(0) += 1;
            }
            for (&owner, &blocks) in &counts {
                let mut deps = Vec::new();
                if owner == diag_owner {
                    deps.push(panel_tasks[&diag_owner]);
                } else {
                    deps.extend(l_incoming.get(&owner).into_iter().flatten().copied());
                }
                let deps = procs.deps_with_last(owner, deps);
                let t = machine.compute(&mut engine, deps, owner, blocks, trsm_cost);
                trsm_tasks.insert(owner, t);
                procs.set_last(owner, t);
            }
        }

        let mut u_incoming: BTreeMap<(usize, usize), Vec<TaskId>> = BTreeMap::new();
        if broadcast == Broadcast::Direct {
            let mut msgs: BTreeMap<((usize, usize), (usize, usize)), usize> = BTreeMap::new();
            for bj in k + 1..nb {
                let src = dist.owner(k, bj);
                for dst in col_dests(dist, bj, k + 1..nb, src) {
                    *msgs.entry((src, dst)).or_insert(0) += 1;
                }
            }
            for (&(src, dst), &blocks) in &msgs {
                let deps = vec![trsm_tasks[&src]];
                let m = machine.message(&mut engine, deps, src, dst, blocks);
                u_incoming.entry(dst).or_default().push(m);
            }
        } else {
            let src_row = dist.owner(k, k).0;
            let mut trailing_rows: Vec<usize> = (k + 1..nb).map(|bi| dist.owner(bi, k).0).collect();
            trailing_rows.sort_unstable();
            trailing_rows.dedup();
            for gj in 0..q {
                let blocks = (k + 1..nb).filter(|&bj| dist.owner(k, bj).1 == gj).count();
                if blocks == 0 {
                    continue;
                }
                let src = (src_row, gj);
                let dests: Vec<(usize, usize)> = (1..p)
                    .map(|s| (src_row + s) % p)
                    .filter(|gi| trailing_rows.contains(gi))
                    .map(|gi| (gi, gj))
                    .collect();
                if dests.is_empty() {
                    continue;
                }
                let root = trsm_tasks.get(&src).map(|&t| vec![t]).unwrap_or_default();
                for (dst, m) in emit_ordered_broadcast(
                    &mut engine,
                    &machine,
                    broadcast,
                    src,
                    &dests,
                    blocks,
                    root,
                ) {
                    u_incoming.entry(dst).or_default().push(m);
                }
            }
        }

        let trailing = dist.trailing_counts(nb, k + 1);
        for i in 0..p {
            for j in 0..q {
                if trailing[i][j] == 0 {
                    continue;
                }
                let owner = (i, j);
                let mut deps = Vec::new();
                deps.extend(l_incoming.get(&owner).into_iter().flatten().copied());
                deps.extend(u_incoming.get(&owner).into_iter().flatten().copied());
                if let Some(&t) = panel_tasks.get(&owner) {
                    deps.push(t);
                }
                if let Some(&t) = trsm_tasks.get(&owner) {
                    deps.push(t);
                }
                let deps = procs.deps_with_last(owner, deps);
                let t = machine.compute(&mut engine, deps, owner, trailing[i][j], update_cost);
                procs.set_last(owner, t);
            }
        }
    }

    finish_run_traced(&machine, engine)
}

/// Verbatim pre-plan `simulate_cholesky_traced` body.
fn legacy_cholesky_traced(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
) -> TracedRun {
    let (p, q) = dist.grid();
    let mut engine = Engine::new();
    let machine = Machine::new(&mut engine, arr, cost);
    let mut procs = ProcState::new(p, q);

    for k in 0..nb {
        let diag_owner = dist.owner(k, k);
        let diag_task = {
            let deps = procs.deps_with_last(diag_owner, vec![]);
            let t = machine.compute(&mut engine, deps, diag_owner, 1, cost.panel_cost);
            procs.set_last(diag_owner, t);
            t
        };
        if k + 1 == nb {
            continue;
        }

        let mut panel_owners: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for bi in k + 1..nb {
            *panel_owners.entry(dist.owner(bi, k)).or_insert(0) += 1;
        }
        let mut diag_arrived: BTreeMap<(usize, usize), TaskId> = BTreeMap::new();
        for &owner in panel_owners.keys() {
            if owner != diag_owner {
                let m = machine.message(&mut engine, vec![diag_task], diag_owner, owner, 1);
                diag_arrived.insert(owner, m);
            }
        }

        let mut panel_tasks: BTreeMap<(usize, usize), TaskId> = BTreeMap::new();
        for (&owner, &blocks) in &panel_owners {
            let mut deps = Vec::new();
            if owner == diag_owner {
                deps.push(diag_task);
            } else {
                deps.push(diag_arrived[&owner]);
            }
            let deps = procs.deps_with_last(owner, deps);
            let t = machine.compute(&mut engine, deps, owner, blocks, cost.trsm_cost);
            panel_tasks.insert(owner, t);
            procs.set_last(owner, t);
        }

        let mut incoming: BTreeMap<(usize, usize), Vec<TaskId>> = BTreeMap::new();
        {
            let mut msgs: BTreeMap<((usize, usize), (usize, usize)), usize> = BTreeMap::new();
            for bi in k + 1..nb {
                let src = dist.owner(bi, k);
                let mut dests: Vec<(usize, usize)> = Vec::new();
                for bj in k + 1..=bi {
                    let o = dist.owner(bi, bj);
                    if o != src && !dests.contains(&o) {
                        dests.push(o);
                    }
                }
                for bi2 in bi..nb {
                    let o = dist.owner(bi2, bi);
                    if o != src && !dests.contains(&o) {
                        dests.push(o);
                    }
                }
                for dst in dests {
                    *msgs.entry((src, dst)).or_insert(0) += 1;
                }
            }
            for (&(src, dst), &blocks) in &msgs {
                let deps = vec![panel_tasks[&src]];
                let m = machine.message(&mut engine, deps, src, dst, blocks);
                incoming.entry(dst).or_default().push(m);
            }
        }

        let mut trailing: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for bi in k + 1..nb {
            for bj in k + 1..=bi {
                *trailing.entry(dist.owner(bi, bj)).or_insert(0) += 1;
            }
        }
        for (&owner, &blocks) in &trailing {
            let mut deps = incoming.remove(&owner).unwrap_or_default();
            if let Some(&t) = panel_tasks.get(&owner) {
                deps.push(t);
            }
            let deps = procs.deps_with_last(owner, deps);
            let t = machine.compute(&mut engine, deps, owner, blocks, 1.0);
            procs.set_last(owner, t);
        }
    }

    finish_run_traced(&machine, engine)
}

// ---------------------------------------------------------------------
// The equivalence property tests.
// ---------------------------------------------------------------------

/// Asserts two runs have identical task graphs and schedules — exact
/// float equality throughout, i.e. bit-for-bit.
fn assert_runs_identical(new: &TracedRun, old: &TracedRun, ctx: &str) {
    assert_eq!(new.engine.len(), old.engine.len(), "task count: {ctx}");
    for t in 0..new.engine.len() {
        assert_eq!(
            new.engine.task_info(t),
            old.engine.task_info(t),
            "task {t} info: {ctx}"
        );
        assert_eq!(
            new.engine.task_deps(t),
            old.engine.task_deps(t),
            "task {t} deps: {ctx}"
        );
        assert_eq!(
            (new.schedule.start[t], new.schedule.finish[t]),
            (old.schedule.start[t], old.schedule.finish[t]),
            "task {t} schedule: {ctx}"
        );
    }
    assert_eq!(new.report.makespan, old.report.makespan, "makespan: {ctx}");
    assert_eq!(
        new.report.comm_time, old.report.comm_time,
        "comm_time: {ctx}"
    );
    assert_eq!(
        new.report.compute_time, old.report.compute_time,
        "compute_time: {ctx}"
    );
    assert_eq!(
        new.report.core_busy, old.report.core_busy,
        "core_busy: {ctx}"
    );
}

/// A random heterogeneous grid, distribution and shape; Cartesian
/// distributions only when `cartesian` (ring/tree cases).
fn random_case(
    rng: &mut StdRng,
    cartesian: bool,
) -> (Arrangement, Box<dyn BlockDist>, usize, CostModel) {
    let grids = [(2, 2), (2, 3), (3, 2), (3, 3)];
    let (p, q) = grids[rng.gen_range(0..grids.len())];
    let rows: Vec<Vec<f64>> = (0..p)
        .map(|_| (0..q).map(|_| rng.gen_range(1.0..8.0)).collect())
        .collect();
    let arr = Arrangement::from_rows(&rows);
    let nb = rng.gen_range(3..=7);
    let pick = if cartesian {
        rng.gen_range(0..2)
    } else {
        rng.gen_range(0..3)
    };
    let dist: Box<dyn BlockDist> = match pick {
        0 => Box::new(BlockCyclic::new(p, q)),
        1 => {
            let sol = exact::solve_arrangement(&arr);
            let orderings = [
                PanelOrdering::Contiguous,
                PanelOrdering::Interleaved,
                PanelOrdering::SuffixInterleaved,
            ];
            let ordering = orderings[rng.gen_range(0..orderings.len())];
            Box::new(PanelDist::from_allocation(
                &arr,
                &sol.alloc,
                2 * p,
                2 * q,
                ordering,
            ))
        }
        _ => Box::new(KlDist::new(&arr, nb, p + q)),
    };
    let cost = if rng.gen_bool(0.3) {
        CostModel::zero_comm()
    } else {
        CostModel {
            latency: rng.gen_range(0.0..2.0),
            block_transfer: rng.gen_range(0.0..0.5),
            ..Default::default()
        }
    };
    (arr, dist, nb, cost)
}

#[test]
fn mm_plan_interpretation_matches_legacy_schedules() {
    let mut rng = StdRng::seed_from_u64(0xD15C0);
    for case in 0..40 {
        let bcast = match case % 4 {
            0 | 1 => Broadcast::Direct,
            2 => Broadcast::Ring,
            _ => Broadcast::Tree,
        };
        let (arr, dist, nb, cost) = random_case(&mut rng, bcast != Broadcast::Direct);
        let new = simulate(Kernel::Mm, &arr, dist.as_ref(), nb, cost, bcast).unwrap();
        let old = legacy_mm_traced(&arr, dist.as_ref(), nb, cost, bcast);
        assert_runs_identical(&new, &old, &format!("mm case {case} ({bcast:?}, nb {nb})"));
    }
}

#[test]
fn factor_plan_interpretation_matches_legacy_schedules() {
    let mut rng = StdRng::seed_from_u64(0xFAC7);
    for case in 0..40 {
        let bcast = match case % 4 {
            0 | 1 => Broadcast::Direct,
            2 => Broadcast::Ring,
            _ => Broadcast::Tree,
        };
        let kind = if case % 2 == 0 {
            Kernel::Lu
        } else {
            Kernel::Qr
        };
        let (arr, dist, nb, cost) = random_case(&mut rng, bcast != Broadcast::Direct);
        let new = simulate(kind, &arr, dist.as_ref(), nb, cost, bcast).unwrap();
        let old = legacy_factor_traced(&arr, dist.as_ref(), nb, cost, kind, bcast);
        assert_runs_identical(
            &new,
            &old,
            &format!("factor case {case} ({kind:?}, {bcast:?}, nb {nb})"),
        );
    }
}

#[test]
fn cholesky_plan_interpretation_matches_legacy_schedules() {
    let mut rng = StdRng::seed_from_u64(0xC401);
    for case in 0..40 {
        let (arr, dist, nb, cost) = random_case(&mut rng, false);
        let new = simulate(
            Kernel::Cholesky,
            &arr,
            dist.as_ref(),
            nb,
            cost,
            Broadcast::Direct,
        )
        .unwrap();
        let old = legacy_cholesky_traced(&arr, dist.as_ref(), nb, cost);
        assert_runs_identical(&new, &old, &format!("cholesky case {case} (nb {nb})"));
    }
}
