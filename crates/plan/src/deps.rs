//! Block-level dependency analysis over the step-plan IR.
//!
//! [`step_access`] derives, for any [`Step`], the set of matrix blocks
//! the step reads and the set it writes (a "write" here is always a
//! read-modify-write: trailing updates accumulate into their target, so
//! a writer both depends on and supersedes the previous writer).
//! [`HazardGraph::build`] sweeps a plan in program order and records
//! every cross-step hazard — RAW (read after write), WAW (write after
//! write) and WAR (write after read) — labeled with the block that
//! induces it.
//!
//! Two properties of the IR matter to consumers:
//!
//! * **Same-block writes stay totally ordered.** Every pair of steps
//!   that write the same block is connected by a WAW edge, so any
//!   schedule that respects the graph performs each block's updates in
//!   program order — floating-point accumulation order, and therefore
//!   numerics, are bit-identical to in-order execution.
//! * **At step granularity every kernel plan is a chain**: step `k+1`
//!   reads (and rewrites) blocks step `k` wrote, for all four kernels.
//!   That is *why* the executor's lookahead scheduler
//!   (`hetgrid_exec`) works at sub-step action granularity — per
//!   processor, most of step `k`'s trailing updates touch different
//!   blocks than step `k+1`'s panel — while this module supplies the
//!   block-labeled ground truth those per-processor action sets are
//!   checked against.

use crate::{LoadSrc, Plan, Step};
use std::collections::HashMap;

/// Which logical matrix a block belongs to.
pub use crate::Mat as Operand;

/// One block of one operand at one site.
///
/// `site` distinguishes *copies* of a block: `0` is the authoritative
/// copy (the distributed matrix on a grid, or the master's store on a
/// star), `w >= 1` is worker `w`'s resident copy on a star. Grid steps
/// only ever touch site 0, so grid hazard graphs are unchanged by the
/// site dimension; star residency transitions (`Load`/`Evict`) write
/// the worker-site copy, which is how block residency participates in
/// the ordinary RAW/WAW/WAR machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockRef {
    /// Which matrix.
    pub op: Operand,
    /// Block index `(bi, bj)`.
    pub block: (usize, usize),
    /// Which copy: `0` = authoritative, `w` = worker `w`'s resident copy.
    pub site: usize,
}

impl BlockRef {
    fn c(block: (usize, usize)) -> Self {
        BlockRef {
            op: Operand::C,
            block,
            site: 0,
        }
    }

    fn at(op: Operand, block: (usize, usize), site: usize) -> Self {
        BlockRef { op, block, site }
    }
}

/// The blocks a step reads and the blocks it writes (writes are
/// read-modify-writes; see module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepAccess {
    /// Blocks read (pure inputs; same-step written blocks are listed
    /// under `writes` only).
    pub reads: Vec<BlockRef>,
    /// Blocks written (in-place updated).
    pub writes: Vec<BlockRef>,
}

/// Derives the read/write block sets of one step. Matrix dimensions are
/// recovered from the step's own broadcast/work tables (the IR always
/// emits one entry per panel block, even with empty destination lists).
pub fn step_access(step: &Step) -> StepAccess {
    let mut acc = StepAccess::default();
    match step {
        Step::Mm {
            k,
            a_bcasts,
            b_bcasts,
            ..
        } => {
            let mb = a_bcasts.len();
            let nb = b_bcasts.len();
            for bi in 0..mb {
                acc.reads.push(BlockRef::at(Operand::A, (bi, *k), 0));
            }
            for bj in 0..nb {
                acc.reads.push(BlockRef::at(Operand::B, (*k, bj), 0));
            }
            for bi in 0..mb {
                for bj in 0..nb {
                    acc.writes.push(BlockRef::c((bi, bj)));
                }
            }
        }
        Step::Factor { k, l_bcasts, .. } => {
            // l_bcasts has one entry per panel block (bi, k), bi >= k.
            let nb = k + l_bcasts.len();
            for bi in *k..nb {
                acc.writes.push(BlockRef::c((bi, *k)));
            }
            for bj in k + 1..nb {
                acc.writes.push(BlockRef::c((*k, bj)));
            }
            for bi in k + 1..nb {
                for bj in k + 1..nb {
                    acc.writes.push(BlockRef::c((bi, bj)));
                }
            }
        }
        Step::Cholesky {
            k, panel_bcasts, ..
        } => {
            // panel_bcasts has one entry per panel block (bi, k), bi > k.
            let nb = k + 1 + panel_bcasts.len();
            acc.writes.push(BlockRef::c((*k, *k)));
            for bi in k + 1..nb {
                acc.writes.push(BlockRef::c((bi, *k)));
            }
            for bi in k + 1..nb {
                for bj in k + 1..=bi {
                    acc.writes.push(BlockRef::c((bi, bj)));
                }
            }
        }
        Step::Qr {
            k, panel, columns, ..
        } => {
            for bi in panel.clone() {
                acc.writes.push(BlockRef::c((bi, *k)));
            }
            for col in columns {
                acc.writes.push(BlockRef::c((*k, col.bj)));
                for bi in col.members.clone() {
                    acc.writes.push(BlockRef::c((bi, col.bj)));
                }
            }
        }
        Step::Load {
            worker,
            mat,
            block,
            src,
            ..
        } => {
            // Materializing a resident copy writes the worker site; a
            // master-sourced load additionally reads the authoritative
            // copy (RAW after anything that produced it).
            if *src == LoadSrc::Master {
                acc.reads.push(BlockRef::at(*mat, *block, 0));
            }
            acc.writes.push(BlockRef::at(*mat, *block, *worker));
        }
        Step::Compute {
            worker, c, a, b, ..
        } => {
            acc.reads.push(BlockRef::at(Operand::A, *a, *worker));
            acc.reads.push(BlockRef::at(Operand::B, *b, *worker));
            acc.writes.push(BlockRef::at(Operand::C, *c, *worker));
        }
        Step::Evict {
            worker,
            mat,
            block,
            send_back,
            ..
        } => {
            // Dropping the resident copy WAW-orders against its Load
            // and WAR-orders against every Compute that read it; a
            // send-back also writes the authoritative copy, so the
            // master-side result depends on the whole update chain.
            acc.writes.push(BlockRef::at(*mat, *block, *worker));
            if *send_back {
                acc.writes.push(BlockRef::at(*mat, *block, 0));
            }
        }
    }
    acc
}

/// The kind of a cross-step hazard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HazardKind {
    /// Read after write: `to` reads a block `from` wrote.
    Raw,
    /// Write after write: `to` rewrites a block `from` wrote.
    Waw,
    /// Write after read: `to` overwrites a block `from` read.
    War,
}

/// One hazard edge: step `to` must not start before step `from`
/// completes, because of `block`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hazard {
    /// Earlier step (program order).
    pub from: usize,
    /// Later step.
    pub to: usize,
    /// The block inducing the hazard.
    pub block: BlockRef,
    /// What kind of hazard.
    pub kind: HazardKind,
}

/// The block-level hazard graph of a plan: nodes are step indices,
/// edges are [`Hazard`]s (always forward in program order, so the
/// graph is a DAG by construction).
#[derive(Clone, Debug)]
pub struct HazardGraph {
    /// Number of steps.
    pub n: usize,
    /// All hazard edges, deduplicated per `(from, to, block, kind)`.
    pub edges: Vec<Hazard>,
}

impl HazardGraph {
    /// Sweeps `plan` in program order, tracking each block's last
    /// writer and the readers since, and emits every RAW/WAW/WAR edge.
    pub fn build(plan: &Plan) -> Self {
        let mut last_writer: HashMap<BlockRef, usize> = HashMap::new();
        let mut readers_since: HashMap<BlockRef, Vec<usize>> = HashMap::new();
        let mut edges = Vec::new();
        for (s, step) in plan.steps.iter().enumerate() {
            let acc = step_access(step);
            for &r in &acc.reads {
                if let Some(&w) = last_writer.get(&r) {
                    edges.push(Hazard {
                        from: w,
                        to: s,
                        block: r,
                        kind: HazardKind::Raw,
                    });
                }
                readers_since.entry(r).or_default().push(s);
            }
            for &w in &acc.writes {
                if let Some(&prev) = last_writer.get(&w) {
                    edges.push(Hazard {
                        from: prev,
                        to: s,
                        block: w,
                        kind: HazardKind::Waw,
                    });
                }
                if let Some(readers) = readers_since.remove(&w) {
                    for r in readers {
                        if r != s {
                            edges.push(Hazard {
                                from: r,
                                to: s,
                                block: w,
                                kind: HazardKind::War,
                            });
                        }
                    }
                }
                last_writer.insert(w, s);
            }
        }
        HazardGraph {
            n: plan.steps.len(),
            edges,
        }
    }

    /// True if some hazard orders `from` before `to` directly.
    pub fn depends(&self, from: usize, to: usize) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cholesky_plan, factor_plan, mm_plan, qr_plan};
    use hetgrid_dist::BlockCyclic;

    fn plans() -> Vec<(&'static str, Plan)> {
        let dist = BlockCyclic::new(2, 2);
        vec![
            ("mm", mm_plan(&dist, 5)),
            ("lu", factor_plan(&dist, 5)),
            ("chol", cholesky_plan(&dist, 5)),
            ("qr", qr_plan(&dist, 5)),
        ]
    }

    #[test]
    fn factor_step_access_covers_the_trailing_square() {
        let dist = BlockCyclic::new(2, 2);
        let nb = 6;
        let plan = factor_plan(&dist, nb);
        for (k, step) in plan.steps.iter().enumerate() {
            let acc = step_access(step);
            // Panel + pivot row + trailing = the full (nb-k)^2 corner.
            assert_eq!(acc.writes.len(), (nb - k) * (nb - k), "step {k}");
            for w in &acc.writes {
                assert_eq!(w.op, Operand::C);
                assert!(w.block.0 >= k && w.block.1 >= k);
            }
        }
    }

    #[test]
    fn mm_hazards_are_waw_on_c_only() {
        let dist = BlockCyclic::new(2, 2);
        let g = HazardGraph::build(&mm_plan(&dist, 4));
        assert!(!g.edges.is_empty());
        for e in &g.edges {
            assert_eq!(e.kind, HazardKind::Waw, "{e:?}");
            assert_eq!(e.block.op, Operand::C, "{e:?}");
            // Accumulation order: every C block's updates form a chain.
            assert_eq!(e.to, e.from + 1, "{e:?}");
        }
    }

    #[test]
    fn every_kernel_plan_is_a_step_chain() {
        for (name, plan) in plans() {
            let g = HazardGraph::build(&plan);
            // Consecutive steps always conflict: step k+1 rewrites
            // blocks step k wrote.
            for s in 0..g.n - 1 {
                assert!(g.depends(s, s + 1), "{name}: no edge {s}->{}", s + 1);
            }
        }
    }

    #[test]
    fn same_block_writers_are_totally_ordered() {
        for (name, plan) in plans() {
            let g = HazardGraph::build(&plan);
            let accesses: Vec<StepAccess> = plan.steps.iter().map(step_access).collect();
            for a in 0..accesses.len() {
                for b in a + 1..accesses.len() {
                    for w in &accesses[a].writes {
                        if accesses[b].writes.contains(w) {
                            // Some chain of WAW edges must order a
                            // before b on this block; the direct edge
                            // exists whenever no intermediate writer
                            // intervenes. Verify reachability.
                            assert!(
                                waw_reaches(&g, a, b, *w),
                                "{name}: write order {a}->{b} on {w:?} unenforced"
                            );
                        }
                    }
                }
            }
        }
    }

    fn waw_reaches(g: &HazardGraph, from: usize, to: usize, block: BlockRef) -> bool {
        if from == to {
            return true;
        }
        g.edges
            .iter()
            .filter(|e| e.from == from && e.block == block && e.kind == HazardKind::Waw)
            .any(|e| e.to <= to && waw_reaches(g, e.to, to, block))
    }

    #[test]
    fn star_computes_raw_depend_on_their_loads() {
        let topo = hetgrid_core::Topology::Star {
            workers: 2,
            worker_mem: 7,
            master_bw: 1.0,
        };
        let plan = crate::star_mm_plan(&topo, (4, 3, 3));
        let g = HazardGraph::build(&plan);
        // For every Compute, find the latest prior Load of its a and b
        // blocks on the same worker and demand a direct RAW edge.
        for (s, step) in plan.steps.iter().enumerate() {
            let Step::Compute { worker, a, b, .. } = *step else {
                continue;
            };
            for (op, blk) in [(Operand::A, a), (Operand::B, b)] {
                let feeder = plan.steps[..s]
                    .iter()
                    .rposition(|prev| {
                        matches!(prev, Step::Load { worker: w, mat, block, .. }
                            if *w == worker && *mat == op && *block == blk)
                    })
                    .unwrap_or_else(|| panic!("compute {s} has no load for {op:?} {blk:?}"));
                assert!(
                    g.edges.iter().any(|e| e.from == feeder
                        && e.to == s
                        && e.kind == HazardKind::Raw
                        && e.block == BlockRef::at(op, blk, worker)),
                    "no RAW {feeder}->{s} on {op:?} {blk:?}"
                );
            }
        }
    }

    #[test]
    fn star_evicts_order_against_reuse() {
        let topo = hetgrid_core::Topology::Star {
            workers: 1,
            worker_mem: 3,
            master_bw: 1.0,
        };
        // mu = 1 and kb = 2: every A/B slot is reused, so each re-Load
        // must WAW-order after the Evict that freed the slot's block.
        let plan = crate::star_mm_plan(&topo, (2, 2, 2));
        let g = HazardGraph::build(&plan);
        for (s, step) in plan.steps.iter().enumerate() {
            let Step::Evict {
                worker, mat, block, ..
            } = *step
            else {
                continue;
            };
            let site = BlockRef::at(mat, block, worker);
            // The Load that materialized this resident copy is WAW- or
            // WAR-ordered before the Evict.
            assert!(
                g.edges
                    .iter()
                    .any(|e| e.to == s && e.block == site && e.kind != HazardKind::Raw),
                "evict {s} unordered against its load"
            );
        }
        // Grid hazard graphs are untouched by the site dimension.
        let mm = HazardGraph::build(&mm_plan(&BlockCyclic::new(2, 2), 4));
        for e in &mm.edges {
            assert_eq!(e.block.site, 0);
        }
    }

    #[test]
    fn star_plan_respects_its_own_program_order() {
        let topo = hetgrid_core::Topology::Star {
            workers: 3,
            worker_mem: 7,
            master_bw: 1.0,
        };
        let plan = crate::star_mm_plan(&topo, (5, 4, 2));
        let g = HazardGraph::build(&plan);
        for e in &g.edges {
            assert!(e.from < e.to, "{e:?}");
        }
    }
}
