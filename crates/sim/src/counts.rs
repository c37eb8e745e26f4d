//! Per-processor message and work-unit counts for the executor kernels
//! — the "predicted" side of the harness's *predicted vs. observed*
//! differential oracle.
//!
//! `hetgrid-exec` reports, per processor, how many point-to-point
//! messages it sent and how many weighted block operations it performed
//! (`hetgrid_exec::ExecReport`-style tables). Those counts are fully
//! determined by the distribution and the block grid — no timing, no
//! interleaving, no transport involved — so they are computed here by
//! folding over the same [`hetgrid_plan`] step stream the executor
//! interprets: every broadcast contributes its destination count to the
//! source, every owner-work entry its weighted block count. The harness
//! then asserts exact equality: any lost, duplicated, or misrouted
//! message in a transport shows up as a count mismatch even when the
//! numerical result happens to survive.
//!
//! The historical closed-form counting loops (walking each algorithm's
//! communication pattern directly, independent of the plan) are kept in
//! this module's tests as a cross-check, not as the source of truth.

use hetgrid_core::Topology;
use hetgrid_dist::BlockDist;
use hetgrid_plan::{Bcast, LoadSrc, OwnerWork, Plan, Step};

/// Predicted per-processor totals for one kernel run, laid out `[i][j]`
/// over the `p x q` grid like the executor's report tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelCounts {
    /// Point-to-point messages each processor sends.
    pub messages: Vec<Vec<u64>>,
    /// Weighted work units (block operations x slowdown weight) each
    /// processor performs.
    pub work_units: Vec<Vec<u64>>,
}

impl KernelCounts {
    fn zeros(p: usize, q: usize) -> Self {
        KernelCounts {
            messages: vec![vec![0; q]; p],
            work_units: vec![vec![0; q]; p],
        }
    }

    /// Sum of all per-processor message counts.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().flatten().sum()
    }

    /// Sum of all per-processor work units.
    pub fn total_work(&self) -> u64 {
        self.work_units.iter().flatten().sum()
    }
}

/// Folds the suffix `plan.steps[from..]` into predicted per-processor
/// counts — the one count model behind every kernel. `from == 0` is the
/// whole plan; a recovery epoch resumed at step `from` performs exactly
/// the suffix, and prefix + suffix folds always sum to the full-plan
/// counts. Each step contributes by its own variant, so any plan the
/// generators emit (grid or star) folds here:
///
/// * [`Step::Mm`] — the owner of `A(bi, k)` broadcasts it to the other
///   owners of block row `bi` of `C`, the owner of `B(k, bj)` to the
///   other owners of block column `bj`; every processor then updates
///   each of its `C` blocks once (x its slowdown weight).
/// * [`Step::Factor`] — the diagonal owner factors `A(k, k)` and
///   broadcasts the packed factors to the owners of panel column `k`
///   and pivot row `k` (one deduplicated destination set); each solved
///   `L(bi, k)` is broadcast along trailing block row `bi`, each solved
///   `U(k, bj)` down trailing block column `bj`; every trailing block
///   is updated once. Each block operation is one weighted work unit.
/// * [`Step::Cholesky`] — the diagonal owner factors `A(k, k)` and
///   broadcasts the factor down panel column `k`; each solved panel
///   block `L(bi, k)` is broadcast to the trailing lower-triangle
///   owners that use it as left factor (row `bi`) or right factor
///   (column `bi`); every trailing lower-triangle block is updated once.
/// * [`Step::Qr`] — the panel blocks `(bi, k)`, `bi >= k`, fan in to the
///   diagonal owner (one message per foreign block), which factors the
///   stacked panel — `2 (nb - k)` weighted work units, twice LU's panel
///   arithmetic per block (Section 3.2) — and scatters the reflector
///   segments back (one message per foreign block). The packed panel
///   factors are then broadcast to the heads of the trailing block
///   columns; each head gathers its column (one message per foreign
///   block), applies `Q^T` to the stacked column — `2 (nb - k)`
///   weighted units — and returns the updated foreign blocks (one
///   message each). Total work is `sum_k 2 (nb - k)^2`: twice LU's.
/// * [`Step::Load`] / [`Step::Compute`] / [`Step::Evict`] — the star
///   schedule, tables laid out over the executor's `1 x (workers + 1)`
///   row (column 0 is the master): every master-sourced load is one
///   master send, every send-back evict one worker return, every
///   compute one weighted block update for its worker. The master
///   performs no block work, and zero-sourced loads / dropped evictions
///   move no messages — only the one-port link pays.
pub fn fold(plan: &Plan, from: usize, weights: &[Vec<u64>]) -> KernelCounts {
    let (p, q) = plan.grid;
    let mut c = KernelCounts::zeros(p, q);
    let sends = |c: &mut KernelCounts, bcasts: &[Bcast]| {
        for b in bcasts {
            c.messages[b.src.0][b.src.1] += b.dests.len() as u64;
        }
    };
    let works = |c: &mut KernelCounts, work: &[OwnerWork]| {
        for w in work {
            c.work_units[w.owner.0][w.owner.1] += w.blocks as u64 * weights[w.owner.0][w.owner.1];
        }
    };
    let table = |c: &mut KernelCounts, blocks: &[Vec<usize>]| {
        for i in 0..p {
            for j in 0..q {
                c.work_units[i][j] += blocks[i][j] as u64 * weights[i][j];
            }
        }
    };
    for step in &plan.steps[from.min(plan.steps.len())..] {
        match step {
            Step::Mm {
                a_bcasts, b_bcasts, ..
            } => {
                sends(&mut c, a_bcasts);
                sends(&mut c, b_bcasts);
                table(&mut c, &plan.owned);
            }
            Step::Factor {
                diag,
                panel,
                diag_col_dests,
                l_bcasts,
                trsm,
                u_bcasts,
                trailing,
                ..
            } => {
                // Diagonal-factor broadcast: panel column chained with
                // pivot row under one dedup — `diag_col_dests` plus the
                // pivot-row destinations (l_bcasts[0] is the diagonal
                // block) not already in it.
                let extra = l_bcasts[0]
                    .dests
                    .iter()
                    .filter(|d| !diag_col_dests.contains(d))
                    .count();
                c.messages[diag.0][diag.1] += (diag_col_dests.len() + extra) as u64;
                sends(&mut c, &l_bcasts[1..]);
                sends(&mut c, u_bcasts);
                // The diagonal factorization is part of the aggregated
                // panel entry for its owner.
                works(&mut c, panel);
                works(&mut c, trsm);
                table(&mut c, trailing);
            }
            Step::Cholesky {
                diag,
                diag_dests,
                panel,
                panel_bcasts,
                trailing,
                ..
            } => {
                c.work_units[diag.0][diag.1] += weights[diag.0][diag.1];
                c.messages[diag.0][diag.1] += diag_dests.len() as u64;
                sends(&mut c, panel_bcasts);
                works(&mut c, panel);
                works(&mut c, trailing);
            }
            Step::Qr {
                diag,
                panel,
                reflector_dests,
                columns,
                ..
            } => {
                // Panel fan-in to the diagonal owner and reflector
                // scatter back.
                for &owner in panel {
                    if owner != *diag {
                        c.messages[owner.0][owner.1] += 1;
                        c.messages[diag.0][diag.1] += 1;
                    }
                }
                c.work_units[diag.0][diag.1] += 2 * panel.len() as u64 * weights[diag.0][diag.1];
                c.messages[diag.0][diag.1] += reflector_dests.len() as u64;
                // Trailing columns: gather to the head, apply, return.
                for col in columns {
                    let head = col.head;
                    for &owner in &col.members {
                        if owner != head {
                            c.messages[owner.0][owner.1] += 1;
                            c.messages[head.0][head.1] += 1;
                        }
                    }
                    let col_blocks = col.members.len() as u64 + 1; // + the (k, bj) head block
                    c.work_units[head.0][head.1] += 2 * col_blocks * weights[head.0][head.1];
                }
            }
            Step::Load { src, .. } => {
                if *src == LoadSrc::Master {
                    c.messages[0][0] += 1;
                }
            }
            Step::Compute { worker, .. } => c.work_units[0][*worker] += weights[0][*worker],
            Step::Evict {
                worker, send_back, ..
            } => {
                if *send_back {
                    c.messages[0][*worker] += 1;
                }
            }
        }
    }
    c
}

/// [`fold`] of [`hetgrid_plan::mm_rect_plan`]: the rectangular
/// outer-product `C(mb x nb) = A(mb x kb) * B(kb x nb)`.
pub fn mm_counts(
    dist: &dyn BlockDist,
    dims: (usize, usize, usize),
    weights: &[Vec<u64>],
) -> KernelCounts {
    fold(&hetgrid_plan::mm_rect_plan(dist, dims), 0, weights)
}

/// [`fold`] of an already-built MM plan.
pub fn mm_counts_from_plan(plan: &Plan, weights: &[Vec<u64>]) -> KernelCounts {
    fold(plan, 0, weights)
}

/// [`fold`] of [`hetgrid_plan::factor_plan`]: right-looking LU.
pub fn lu_counts(dist: &dyn BlockDist, nb: usize, weights: &[Vec<u64>]) -> KernelCounts {
    fold(&hetgrid_plan::factor_plan(dist, nb), 0, weights)
}

/// [`fold`] of an already-built LU-shaped factorization plan, with
/// every work unit multiplied by `unit_scale` (1 for LU).
pub fn factor_counts_from_plan(plan: &Plan, unit_scale: u64, weights: &[Vec<u64>]) -> KernelCounts {
    let mut c = fold(plan, 0, weights);
    c.work_units
        .iter_mut()
        .flatten()
        .for_each(|w| *w *= unit_scale);
    c
}

/// [`fold`] of [`hetgrid_plan::cholesky_plan`]: right-looking Cholesky
/// (lower triangle).
pub fn cholesky_counts(dist: &dyn BlockDist, nb: usize, weights: &[Vec<u64>]) -> KernelCounts {
    fold(&hetgrid_plan::cholesky_plan(dist, nb), 0, weights)
}

/// [`fold`] of an already-built Cholesky plan.
pub fn cholesky_counts_from_plan(plan: &Plan, weights: &[Vec<u64>]) -> KernelCounts {
    fold(plan, 0, weights)
}

/// [`fold`] of [`hetgrid_plan::qr_plan`]: fan-in Householder QR.
pub fn qr_counts(dist: &dyn BlockDist, nb: usize, weights: &[Vec<u64>]) -> KernelCounts {
    fold(&hetgrid_plan::qr_plan(dist, nb), 0, weights)
}

/// [`fold`] of an already-built QR plan.
pub fn qr_counts_from_plan(plan: &Plan, weights: &[Vec<u64>]) -> KernelCounts {
    fold(plan, 0, weights)
}

/// [`fold`] of [`hetgrid_plan::star_mm_plan`]: the maximum-reuse star
/// MM schedule.
pub fn star_mm_counts(
    topo: &Topology,
    dims: (usize, usize, usize),
    weights: &[Vec<u64>],
) -> KernelCounts {
    fold(&hetgrid_plan::star_mm_plan(topo, dims), 0, weights)
}

/// [`fold`] of an already-built star plan.
pub fn star_mm_counts_from_plan(plan: &Plan, weights: &[Vec<u64>]) -> KernelCounts {
    fold(plan, 0, weights)
}

/// Per-processor resident-block high-water marks of a star plan: entry
/// `w` is the most blocks worker `w` ever holds at once when the steps
/// run in program order (entry 0, the master, is always 0 — its store
/// is not bounded by `worker_mem`). Because every legal schedule keeps
/// each worker's residency transitions in program order (they conflict
/// pairwise on the worker's memory resource), this fold is exact for
/// the executor too, not just for sequential replay — the memory-bound
/// oracle asserts `peak <= worker_mem` against precisely this number.
///
/// # Panics
/// Panics if the plan contains non-star steps or evicts a worker's
/// block below zero residency.
pub fn star_residency_peaks(plan: &Plan) -> Vec<u64> {
    let n = plan.grid.0 * plan.grid.1;
    let mut resident = vec![0u64; n];
    let mut peak = vec![0u64; n];
    for step in &plan.steps {
        match step {
            Step::Load { worker, .. } => {
                resident[*worker] += 1;
                peak[*worker] = peak[*worker].max(resident[*worker]);
            }
            Step::Evict { worker, .. } => {
                assert!(
                    resident[*worker] > 0,
                    "star_residency_peaks: eviction below zero on worker {worker}"
                );
                resident[*worker] -= 1;
            }
            Step::Compute { .. } => {}
            _ => panic!("star_residency_peaks: non-star step in plan"),
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgrid_dist::BlockCyclic;

    fn uniform(p: usize, q: usize) -> Vec<Vec<u64>> {
        vec![vec![1; q]; p]
    }

    #[test]
    fn single_processor_sends_nothing() {
        let dist = BlockCyclic::new(1, 1);
        let w = uniform(1, 1);
        assert_eq!(mm_counts(&dist, (3, 3, 3), &w).total_messages(), 0);
        assert_eq!(lu_counts(&dist, 4, &w).total_messages(), 0);
        assert_eq!(cholesky_counts(&dist, 4, &w).total_messages(), 0);
        assert_eq!(qr_counts(&dist, 4, &w).total_messages(), 0);
    }

    /// For every cut point `f`, the fold over `steps[..f]` plus the
    /// fold over `steps[f..]` equals the full fold, elementwise — the
    /// property that makes [`fold`] an exact count oracle for a recovery
    /// epoch resumed at `f`.
    #[test]
    fn suffix_counts_partition_the_full_fold() {
        let add = |a: &KernelCounts, b: &KernelCounts| KernelCounts {
            messages: a
                .messages
                .iter()
                .zip(&b.messages)
                .map(|(r1, r2)| r1.iter().zip(r2).map(|(x, y)| x + y).collect())
                .collect(),
            work_units: a
                .work_units
                .iter()
                .zip(&b.work_units)
                .map(|(r1, r2)| r1.iter().zip(r2).map(|(x, y)| x + y).collect())
                .collect(),
        };
        let dist = BlockCyclic::new(2, 3);
        let w = vec![vec![1, 2, 1], vec![3, 1, 2]];
        let sw = vec![vec![1, 2, 3]]; // master + 2 workers
        let star = Topology::Star {
            workers: 2,
            worker_mem: 7,
            master_bw: 1.0,
        };
        let nb = 5;
        let cases: Vec<(Plan, &[Vec<u64>])> = vec![
            (hetgrid_plan::mm_rect_plan(&dist, (nb, nb, nb)), &w),
            (hetgrid_plan::factor_plan(&dist, nb), &w),
            (hetgrid_plan::cholesky_plan(&dist, nb), &w),
            (hetgrid_plan::qr_plan(&dist, nb), &w),
            (hetgrid_plan::star_mm_plan(&star, (nb, nb - 1, nb)), &sw),
        ];
        for (plan, weights) in &cases {
            let full = fold(plan, 0, weights);
            for f in 0..=plan.steps.len() {
                let mut prefix = plan.clone();
                prefix.steps.truncate(f);
                let parts = add(&fold(&prefix, 0, weights), &fold(plan, f, weights));
                assert_eq!(parts, full, "prefix + suffix != full at cut {f}");
            }
        }
    }

    /// The memory/communication trade-off of the maximum-reuse star
    /// schedule: a larger worker memory means a larger `C` tile, so each
    /// block the master feeds is reused by more updates and the one-port
    /// traffic falls like `1/sqrt(M)`, while the `C` returns stay put.
    #[test]
    fn star_master_sends_fall_as_worker_memory_grows() {
        let weights = uniform(1, 5);
        let sends: Vec<u64> = [3, 7, 13, 31, 57]
            .iter()
            .map(|&worker_mem| {
                let topo = Topology::Star {
                    workers: 4,
                    worker_mem,
                    master_bw: 1.0,
                };
                let plan = hetgrid_plan::star_mm_plan(&topo, (12, 12, 12));
                let c = fold(&plan, 0, &weights);
                let returns: u64 = c.messages[0][1..].iter().sum();
                assert_eq!(returns, 144, "worker_mem {worker_mem}");
                c.messages[0][0]
            })
            .collect();
        assert_eq!(sends, [3456, 1728, 1152, 864, 576]);
    }

    #[test]
    fn mm_work_is_cube() {
        // Every C block is updated once per step: mb * nb * kb units.
        let dist = BlockCyclic::new(2, 2);
        let c = mm_counts(&dist, (4, 4, 4), &uniform(2, 2));
        assert_eq!(c.total_work(), 64);
    }

    #[test]
    fn lu_work_counts_all_block_ops() {
        // Step k touches the diagonal, the two panels, and the trailing
        // square: 1 + 2(nb-1-k) + (nb-1-k)^2 = (nb-k)^2 block ops.
        let nb = 5;
        let dist = BlockCyclic::new(2, 2);
        let c = lu_counts(&dist, nb, &uniform(2, 2));
        let expect: u64 = (1..=nb as u64).map(|m| m * m).sum();
        assert_eq!(c.total_work(), expect);
    }

    #[test]
    fn cholesky_work_counts_lower_triangle_ops() {
        // Step k: diagonal + panel (nb-1-k) + trailing lower triangle
        // T(nb-1-k) where T(m) = m(m+1)/2.
        let nb = 5;
        let dist = BlockCyclic::new(2, 2);
        let c = cholesky_counts(&dist, nb, &uniform(2, 2));
        let expect: u64 = (0..nb as u64)
            .map(|k| {
                let m = nb as u64 - 1 - k;
                1 + m + m * (m + 1) / 2
            })
            .sum();
        assert_eq!(c.total_work(), expect);
    }

    #[test]
    fn qr_work_is_twice_lu() {
        // Step k: panel 2(nb-k) + (nb-k-1) columns x 2(nb-k) =
        // 2(nb-k)^2 — exactly twice LU's per-step block ops.
        let nb = 5;
        let dist = BlockCyclic::new(2, 2);
        let qr = qr_counts(&dist, nb, &uniform(2, 2));
        let lu = lu_counts(&dist, nb, &uniform(2, 2));
        assert_eq!(qr.total_work(), 2 * lu.total_work());
    }

    #[test]
    fn qr_fan_in_messages_are_symmetric() {
        // Every foreign panel/column block costs one message in and one
        // message back, plus the reflector broadcasts: the total is
        // even + reflector count. Spot-check on a 2x2 cyclic grid.
        let nb = 4;
        let dist = BlockCyclic::new(2, 2);
        let c = qr_counts(&dist, nb, &uniform(2, 2));
        let mut reflector = 0u64;
        let plan = hetgrid_plan::qr_plan(&dist, nb);
        for step in &plan.steps {
            if let hetgrid_plan::Step::Qr {
                reflector_dests, ..
            } = step
            {
                reflector += reflector_dests.len() as u64;
            }
        }
        assert_eq!((c.total_messages() - reflector) % 2, 0);
        assert!(c.total_messages() > 0);
    }

    #[test]
    fn weights_scale_work_linearly() {
        let dist = BlockCyclic::new(2, 2);
        let base = lu_counts(&dist, 4, &uniform(2, 2));
        let heavy = lu_counts(&dist, 4, &vec![vec![3; 2]; 2]);
        assert_eq!(heavy.total_work(), 3 * base.total_work());
        assert_eq!(heavy.messages, base.messages);
    }
}

/// The plan folds must reproduce the historical closed-form counting
/// loops exactly, for random heterogeneous grids and distributions.
/// The closed-form bodies below are verbatim copies of the pre-plan
/// implementations — kept as cross-checks, not as the source of truth.
#[cfg(test)]
mod closed_form_equivalence {
    use super::*;
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, KlDist, PanelDist, PanelOrdering};
    use rand::prelude::*;

    fn owner_id(dist: &dyn BlockDist, bi: usize, bj: usize) -> usize {
        let (_, q) = dist.grid();
        let (oi, oj) = dist.owner(bi, bj);
        oi * q + oj
    }

    fn broadcast(msgs: &mut [Vec<u64>], q: usize, from: usize, dests: impl Iterator<Item = usize>) {
        let mut seen: Vec<usize> = Vec::new();
        for d in dests {
            if d != from && !seen.contains(&d) {
                seen.push(d);
            }
        }
        msgs[from / q][from % q] += seen.len() as u64;
    }

    fn closed_form_mm(
        dist: &dyn BlockDist,
        (mb, nb, kb): (usize, usize, usize),
        weights: &[Vec<u64>],
    ) -> KernelCounts {
        let (p, q) = dist.grid();
        let mut c = KernelCounts::zeros(p, q);
        for k in 0..kb {
            for bi in 0..mb {
                let from = owner_id(dist, bi, k);
                broadcast(
                    &mut c.messages,
                    q,
                    from,
                    (0..nb).map(|bj| owner_id(dist, bi, bj)),
                );
            }
            for bj in 0..nb {
                let from = owner_id(dist, k, bj);
                broadcast(
                    &mut c.messages,
                    q,
                    from,
                    (0..mb).map(|bi| owner_id(dist, bi, bj)),
                );
            }
        }
        for bi in 0..mb {
            for bj in 0..nb {
                let (oi, oj) = dist.owner(bi, bj);
                c.work_units[oi][oj] += kb as u64 * weights[oi][oj];
            }
        }
        c
    }

    fn closed_form_lu(dist: &dyn BlockDist, nb: usize, weights: &[Vec<u64>]) -> KernelCounts {
        let (p, q) = dist.grid();
        let mut c = KernelCounts::zeros(p, q);
        let unit = |c: &mut KernelCounts, bi: usize, bj: usize| {
            let (oi, oj) = dist.owner(bi, bj);
            c.work_units[oi][oj] += weights[oi][oj];
        };
        for k in 0..nb {
            let diag = owner_id(dist, k, k);
            unit(&mut c, k, k);
            broadcast(
                &mut c.messages,
                q,
                diag,
                (k + 1..nb)
                    .map(|bi| owner_id(dist, bi, k))
                    .chain((k + 1..nb).map(|bj| owner_id(dist, k, bj))),
            );
            for bi in k + 1..nb {
                unit(&mut c, bi, k);
                broadcast(
                    &mut c.messages,
                    q,
                    owner_id(dist, bi, k),
                    (k + 1..nb).map(|bj| owner_id(dist, bi, bj)),
                );
            }
            for bj in k + 1..nb {
                unit(&mut c, k, bj);
                broadcast(
                    &mut c.messages,
                    q,
                    owner_id(dist, k, bj),
                    (k + 1..nb).map(|bi| owner_id(dist, bi, bj)),
                );
            }
            for bi in k + 1..nb {
                for bj in k + 1..nb {
                    unit(&mut c, bi, bj);
                }
            }
        }
        c
    }

    fn closed_form_cholesky(dist: &dyn BlockDist, nb: usize, weights: &[Vec<u64>]) -> KernelCounts {
        let (p, q) = dist.grid();
        let mut c = KernelCounts::zeros(p, q);
        let unit = |c: &mut KernelCounts, bi: usize, bj: usize| {
            let (oi, oj) = dist.owner(bi, bj);
            c.work_units[oi][oj] += weights[oi][oj];
        };
        for k in 0..nb {
            let diag = owner_id(dist, k, k);
            unit(&mut c, k, k);
            broadcast(
                &mut c.messages,
                q,
                diag,
                (k + 1..nb).map(|bi| owner_id(dist, bi, k)),
            );
            if k + 1 == nb {
                continue;
            }
            for bi in k + 1..nb {
                unit(&mut c, bi, k);
                broadcast(
                    &mut c.messages,
                    q,
                    owner_id(dist, bi, k),
                    (k + 1..=bi)
                        .map(|bj| owner_id(dist, bi, bj))
                        .chain((bi..nb).map(|bi2| owner_id(dist, bi2, bi))),
                );
            }
            for bi in k + 1..nb {
                for bj in k + 1..=bi {
                    unit(&mut c, bi, bj);
                }
            }
        }
        c
    }

    fn random_dist(rng: &mut StdRng, p: usize, q: usize, nb: usize) -> Box<dyn BlockDist> {
        let rows: Vec<Vec<f64>> = (0..p)
            .map(|_| (0..q).map(|_| rng.gen_range(1.0..8.0)).collect())
            .collect();
        let arr = Arrangement::from_rows(&rows);
        match rng.gen_range(0..3) {
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
        }
    }

    fn random_weights(rng: &mut StdRng, p: usize, q: usize) -> Vec<Vec<u64>> {
        (0..p)
            .map(|_| (0..q).map(|_| rng.gen_range(1..5)).collect())
            .collect()
    }

    /// Closed forms for the maximum-reuse star schedule, straight from
    /// the tiling arithmetic (no plan involved): per `mu x mu` tile
    /// `I x J`, the master sends `kb (|I| + |J|)` blocks, the tile's
    /// worker returns `|I| |J|` and performs `kb |I| |J|` weighted
    /// updates; a worker's memory high-water mark is `|I| |J| + |J| + 1`
    /// maximized over its tiles (accumulators + one `B` row + one `A`).
    fn closed_form_star_mm(
        workers: usize,
        worker_mem: usize,
        (mb, nb, kb): (usize, usize, usize),
        weights: &[Vec<u64>],
    ) -> (KernelCounts, Vec<u64>) {
        let mu = hetgrid_plan::star_tile_side(worker_mem);
        let mut c = KernelCounts::zeros(1, workers + 1);
        let mut peaks = vec![0u64; workers + 1];
        let t_cols = nb.div_ceil(mu);
        for t in 0..mb.div_ceil(mu) * t_cols {
            let (ti, tj) = (t / t_cols, t % t_cols);
            let w = 1 + t % workers;
            let rows = (((ti + 1) * mu).min(mb) - ti * mu) as u64;
            let cols = (((tj + 1) * mu).min(nb) - tj * mu) as u64;
            c.messages[0][0] += kb as u64 * (rows + cols);
            c.messages[0][w] += rows * cols;
            c.work_units[0][w] += kb as u64 * rows * cols * weights[0][w];
            peaks[w] = peaks[w].max(rows * cols + cols + 1);
        }
        (c, peaks)
    }

    #[test]
    fn star_fold_matches_closed_form() {
        let mut rng = StdRng::seed_from_u64(0x57A2);
        for case in 0..60 {
            let workers = rng.gen_range(1..=4);
            let worker_mem = rng.gen_range(3..=15);
            let dims = (
                rng.gen_range(1..=6),
                rng.gen_range(1..=6),
                rng.gen_range(1..=6),
            );
            let weights = random_weights(&mut rng, 1, workers + 1);
            let topo = Topology::Star {
                workers,
                worker_mem,
                master_bw: 1.0,
            };
            let plan = hetgrid_plan::star_mm_plan(&topo, dims);
            let (want, want_peaks) = closed_form_star_mm(workers, worker_mem, dims, &weights);
            assert_eq!(
                star_mm_counts(&topo, dims, &weights),
                want,
                "star case {case}: {workers}w mem {worker_mem} dims {dims:?}"
            );
            let peaks = star_residency_peaks(&plan);
            assert_eq!(peaks, want_peaks, "star peaks case {case}");
            // The memory bound the schedule was derived under.
            assert!(
                peaks.iter().all(|&pk| pk <= worker_mem as u64),
                "case {case}: peak over worker_mem"
            );
            assert_eq!(peaks[0], 0, "master residency is unbounded/untracked");
        }
    }

    #[test]
    fn plan_fold_matches_closed_form_for_all_kernels() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let grids = [(2, 2), (2, 3), (3, 2), (3, 3)];
        for case in 0..60 {
            let (p, q) = grids[rng.gen_range(0..grids.len())];
            let nb = rng.gen_range(2..=7);
            let dist = random_dist(&mut rng, p, q, nb);
            let w = random_weights(&mut rng, p, q);

            let shapes = [(nb, nb, nb), (nb + 2, nb, nb - 1), (nb, 2 * nb, nb)];
            let shape = shapes[rng.gen_range(0..shapes.len())];
            assert_eq!(
                mm_counts(dist.as_ref(), shape, &w),
                closed_form_mm(dist.as_ref(), shape, &w),
                "mm case {case} shape {shape:?}"
            );
            assert_eq!(
                lu_counts(dist.as_ref(), nb, &w),
                closed_form_lu(dist.as_ref(), nb, &w),
                "lu case {case} nb {nb}"
            );
            assert_eq!(
                cholesky_counts(dist.as_ref(), nb, &w),
                closed_form_cholesky(dist.as_ref(), nb, &w),
                "cholesky case {case} nb {nb}"
            );
        }
    }
}
