//! # hetgrid-plan
//!
//! The kernel **step-plan IR**: one deterministic schedule source for the
//! paper's dense linear algebra kernels (Section 3), shared by the three
//! consumers that used to hand-maintain it separately —
//!
//! * `hetgrid_sim::kernels` interprets a plan under the DES cost model
//!   (messages aggregated per (src, dst) pair, ring/tree topologies
//!   re-shaped per grid row/column);
//! * `hetgrid_sim::counts` folds a plan into per-processor message and
//!   work-unit totals (the predicted side of the harness oracle);
//! * `hetgrid_exec` executes a plan over real threads and a `Transport`.
//!
//! A plan is a flat `Vec<Step>` — one step per outer iteration `k` of
//! the blocked algorithm — where each step records, in deterministic
//! order, every per-block broadcast (owner, ordered destination list)
//! and every per-owner compute aggregate. Adding a kernel means adding
//! one generator here; all three consumers pick it up.
//!
//! Conventions shared by every generator:
//!
//! * broadcast destination lists are **insertion-order deduplicated and
//!   never contain the source** — a consumer counting "one message per
//!   distinct destination" can take `dests.len()` directly;
//! * broadcasts are emitted for *every* block of a panel, even when the
//!   destination list is empty (topology-aware interpreters need the
//!   full block→owner map of the panel, e.g. to size ring transfers);
//! * per-owner compute aggregates are listed in sorted (row-major)
//!   owner order, matching the `BTreeMap` iteration order the simulator
//!   has always used.

#![warn(missing_docs)]
// Grid code indexes `[i][j]`-style tables with `for i in 0..p` loops;
// the clippy iterator rewrites would obscure the 2D-grid idiom the
// paper's algorithms are written in.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

use hetgrid_core::Topology;
use hetgrid_dist::BlockDist;

pub mod deps;
pub mod wire;

/// The four grid kernels — the workspace's one kernel vocabulary. The
/// serve wire, the plan cache fingerprints, the CLI, the executor entry
/// point and the harness all name a kernel with this enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Outer-product matrix multiplication (paper Section 3.1).
    Mm,
    /// Right-looking blocked LU (Section 3.2).
    Lu,
    /// Right-looking blocked Cholesky.
    Cholesky,
    /// Householder blocked QR.
    Qr,
}

impl Kernel {
    /// All kernels, for sweeps.
    pub const ALL: [Kernel; 4] = [Kernel::Mm, Kernel::Lu, Kernel::Cholesky, Kernel::Qr];

    /// Wire byte for this kernel.
    pub fn as_u8(self) -> u8 {
        match self {
            Kernel::Mm => 0,
            Kernel::Lu => 1,
            Kernel::Cholesky => 2,
            Kernel::Qr => 3,
        }
    }

    /// Kernel for a wire byte.
    pub fn from_u8(b: u8) -> Option<Kernel> {
        Some(match b {
            0 => Kernel::Mm,
            1 => Kernel::Lu,
            2 => Kernel::Cholesky,
            3 => Kernel::Qr,
            _ => return None,
        })
    }

    /// CLI-facing name (`mm`, `lu`, `cholesky`, `qr`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Mm => "mm",
            Kernel::Lu => "lu",
            Kernel::Cholesky => "cholesky",
            Kernel::Qr => "qr",
        }
    }

    /// Parses a CLI-facing name.
    pub fn parse(s: &str) -> Option<Kernel> {
        Some(match s {
            "mm" => Kernel::Mm,
            "lu" => Kernel::Lu,
            "cholesky" => Kernel::Cholesky,
            "qr" => Kernel::Qr,
            _ => return None,
        })
    }

    /// This kernel's step plan for an `nb x nb` block matrix over
    /// `dist`.
    pub fn plan(self, dist: &dyn BlockDist, nb: usize) -> Plan {
        match self {
            Kernel::Mm => mm_plan(dist, nb),
            Kernel::Lu => factor_plan(dist, nb),
            Kernel::Cholesky => cholesky_plan(dist, nb),
            Kernel::Qr => qr_plan(dist, nb),
        }
    }
}

/// Which logical matrix a memory-aware step touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mat {
    /// The `A` input.
    A,
    /// The `B` input.
    B,
    /// The `C` output.
    C,
}

/// Where a [`Step::Load`]'s block comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadSrc {
    /// The master sends the block over its one-port link (one message).
    Master,
    /// The worker materializes a zero block locally (no message) — how
    /// `C` accumulators are born on a star platform.
    Zero,
}

/// One block broadcast: the owner of `block` sends it to each processor
/// in `dests` (insertion-order distinct, source excluded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bcast {
    /// Block index `(bi, bj)` being broadcast.
    pub block: (usize, usize),
    /// Owner of the block (the sender).
    pub src: (usize, usize),
    /// Distinct destinations in first-need order; never contains `src`.
    pub dests: Vec<(usize, usize)>,
}

/// Per-owner compute aggregate: `owner` performs `blocks` block
/// operations of one phase (each costing the phase's unit cost times
/// the owner's speed/weight).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnerWork {
    /// Grid coordinates of the processor doing the work.
    pub owner: (usize, usize),
    /// Number of block operations.
    pub blocks: usize,
}

/// One fan-in/fan-out column update of the executor's QR schedule: the
/// column head gathers the trailing column slice, applies the panel
/// reflectors, and scatters the updated blocks back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QrColumn {
    /// Trailing block column index.
    pub bj: usize,
    /// The column head, `owner(k, bj)`, who applies the reflectors.
    pub head: (usize, usize),
    /// Owners of blocks `(bi, bj)`, `bi > k`, in `bi` order: entry `i`
    /// owns `(k + 1 + i, bj)` ([`down_column`] pairs them up). Each
    /// member not owned by the head costs one gather message in and one
    /// scatter message back.
    pub members: Vec<(usize, usize)>,
}

/// The blocks `(first + i, col)` of a block column paired with their
/// owners, `owners[i]`: the one reading of [`Step::Qr`]'s owner lists
/// (`down_column(k, k, panel)`, `down_column(k + 1, col.bj,
/// &col.members)`).
pub fn down_column(
    first: usize,
    col: usize,
    owners: &[(usize, usize)],
) -> impl Iterator<Item = ((usize, usize), (usize, usize))> + '_ {
    owners
        .iter()
        .enumerate()
        .map(move |(i, &owner)| ((first + i, col), owner))
}

/// One outer-iteration step of a kernel schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Outer-product MM step `k` (Section 3.1): broadcast block column
    /// `k` of `A` along rows and block row `k` of `B` down columns,
    /// then every processor rank-r-updates all its owned `C` blocks.
    Mm {
        /// Outer iteration index.
        k: usize,
        /// Per block `(bi, k)` of `A` (in `bi` order): broadcast to the
        /// distinct owners of `C` block row `bi`.
        a_bcasts: Vec<Bcast>,
        /// Per block `(k, bj)` of `B` (in `bj` order): broadcast to the
        /// distinct owners of `C` block column `bj`.
        b_bcasts: Vec<Bcast>,
    },
    /// Right-looking LU/QR factorization step `k` (Section 3.2): panel
    /// factor, L broadcast along rows, pivot-row triangular solves, U
    /// broadcast down columns, trailing rank-r update. The DES models
    /// QR on this same step (2x arithmetic); the executor's QR uses
    /// [`Step::Qr`] instead (true Householder panels couple block rows).
    Factor {
        /// Outer iteration index.
        k: usize,
        /// Owner of the diagonal block `(k, k)`.
        diag: (usize, usize),
        /// Panel factor work: owners of blocks `(bi, k)`, `bi >= k`,
        /// with their block counts, in sorted owner order.
        panel: Vec<OwnerWork>,
        /// Distinct owners of panel blocks `(bi, k)`, `bi > k`, other
        /// than the diagonal owner — the executor sends the packed
        /// diagonal factors down the panel column before the solves.
        diag_col_dests: Vec<(usize, usize)>,
        /// Per block `(bi, k)`, `bi >= k` (in `bi` order): broadcast to
        /// the distinct owners of trailing block row `bi` (`bj > k`).
        /// The first entry is the diagonal block itself — its
        /// destinations are the pivot-row owners needing the diagonal
        /// factors for their triangular solves.
        l_bcasts: Vec<Bcast>,
        /// Triangular-solve work on the pivot row: owners of `(k, bj)`,
        /// `bj > k`, with block counts, in sorted owner order.
        trsm: Vec<OwnerWork>,
        /// Per block `(k, bj)`, `bj > k` (in `bj` order): broadcast to
        /// the distinct owners of trailing block column `bj` (`bi > k`).
        u_bcasts: Vec<Bcast>,
        /// Trailing update block counts, `[i][j]` over the grid.
        trailing: Vec<Vec<usize>>,
    },
    /// Right-looking Cholesky step `k` (lower triangle).
    Cholesky {
        /// Outer iteration index.
        k: usize,
        /// Owner of the diagonal block `(k, k)`.
        diag: (usize, usize),
        /// Distinct owners of panel blocks `(bi, k)`, `bi > k`, other
        /// than the diagonal owner (they receive the diagonal factor).
        diag_dests: Vec<(usize, usize)>,
        /// Panel solve work per owner, sorted owner order.
        panel: Vec<OwnerWork>,
        /// Per panel block `(bi, k)`, `bi > k`: broadcast to the
        /// trailing lower-triangle owners of row `bi` (columns
        /// `k+1..=bi`) then column `bi` (rows `bi..nb`), one
        /// deduplicated destination list.
        panel_bcasts: Vec<Bcast>,
        /// Symmetric trailing update work per owner (lower triangle
        /// only), sorted owner order.
        trailing: Vec<OwnerWork>,
    },
    /// Executor QR step `k`: fan the panel in to the diagonal owner,
    /// factor it there (Householder, 2x LU's per-block weight),
    /// scatter the reflector segments back, broadcast the packed panel
    /// factors to the trailing column heads, then update each trailing
    /// column by a gather → apply-`Q^T` → scatter cycle at its head.
    Qr {
        /// Outer iteration index.
        k: usize,
        /// Owner of the diagonal block `(k, k)`, who factors the panel.
        diag: (usize, usize),
        /// Owners of panel blocks `(bi, k)`, `bi >= k`, in `bi` order:
        /// entry `i` owns `(k + i, k)`, so the first is `diag`. Every
        /// non-diagonal owner sends its block in and receives its
        /// reflector segment back (two messages per such block).
        panel: Vec<(usize, usize)>,
        /// Distinct trailing column heads (`owner(k, bj)`, `bj > k`)
        /// other than the diagonal owner, in first-need order; each
        /// receives the packed panel factors once.
        reflector_dests: Vec<(usize, usize)>,
        /// Trailing column updates, in `bj` order.
        columns: Vec<QrColumn>,
    },
    /// Memory-aware star step: block `block` of `mat` becomes resident
    /// on `worker`. A [`LoadSrc::Master`] load costs one message on the
    /// master's one-port link; a [`LoadSrc::Zero`] load allocates a
    /// zero block locally (fresh `C` accumulators). Residency counts
    /// against the worker's memory bound until the matching
    /// [`Step::Evict`].
    Load {
        /// Plan step index (steps are fine-grained on a star: one
        /// load/compute/evict each).
        k: usize,
        /// Linear worker id (`1..=workers`; the master is 0).
        worker: usize,
        /// Which matrix the block belongs to.
        mat: Mat,
        /// Block index `(bi, bj)`.
        block: (usize, usize),
        /// Master send or local zero allocation.
        src: LoadSrc,
    },
    /// Memory-aware star step: `worker` performs the one-block update
    /// `C(c) += A(a) * B(b)`; all three blocks must be resident
    /// (RAW-depends on their [`Step::Load`]s).
    Compute {
        /// Plan step index.
        k: usize,
        /// Linear worker id.
        worker: usize,
        /// The accumulator block of `C`.
        c: (usize, usize),
        /// The left-factor block of `A`.
        a: (usize, usize),
        /// The right-factor block of `B`.
        b: (usize, usize),
    },
    /// Memory-aware star step: block `block` of `mat` leaves `worker`'s
    /// memory. With `send_back` the block travels to the master first
    /// (one message on the one-port link — how finished `C` blocks get
    /// home); without, it is simply dropped (`A`/`B` blocks streamed
    /// past their last use). WAW-orders against any reload of the same
    /// block.
    Evict {
        /// Plan step index.
        k: usize,
        /// Linear worker id.
        worker: usize,
        /// Which matrix the block belongs to.
        mat: Mat,
        /// Block index `(bi, bj)`.
        block: (usize, usize),
        /// Return the block to the master (counts one message).
        send_back: bool,
    },
}

/// A full kernel schedule: the grid shape plus the ordered steps. For
/// the MM kernels the per-processor owned-`C`-block table (constant
/// across steps) rides along so interpreters need not recompute it.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Grid shape `(p, q)`.
    pub grid: (usize, usize),
    /// Owned `C` blocks `[i][j]` (MM plans only; empty otherwise).
    pub owned: Vec<Vec<usize>>,
    /// The schedule, one [`Step`] per outer iteration.
    pub steps: Vec<Step>,
}

/// No processor: the `skip` of a destination list that skips none.
const NOBODY: (usize, usize) = (usize::MAX, usize::MAX);

/// The owner of every block of a `rows x cols` block matrix, read from
/// the distribution once per plan: the generators index it instead of
/// calling `dist.owner` per broadcast.
struct Owners {
    grid: (usize, usize),
    cols: usize,
    table: Vec<(usize, usize)>,
}

impl Owners {
    fn new(dist: &dyn BlockDist, rows: usize, cols: usize) -> Self {
        Owners {
            grid: dist.grid(),
            cols,
            table: (0..rows)
                .flat_map(|bi| (0..cols).map(move |bj| dist.owner(bi, bj)))
                .collect(),
        }
    }

    /// Owner of block `(bi, bj)`.
    fn at(&self, bi: usize, bj: usize) -> (usize, usize) {
        self.table[bi * self.cols + bj]
    }

    /// Distinct owners of `blocks`, excluding `skip`, in first-need
    /// order.
    fn distinct(
        &self,
        blocks: impl Iterator<Item = (usize, usize)>,
        skip: (usize, usize),
    ) -> Vec<(usize, usize)> {
        let mut dests = Vec::new();
        for (bi, bj) in blocks {
            let o = self.at(bi, bj);
            if o != skip && !dests.contains(&o) {
                dests.push(o);
            }
        }
        dests
    }

    /// Blocks per processor over `blocks`, as a row-major `p x q` table.
    fn counts(&self, blocks: impl Iterator<Item = (usize, usize)>) -> Vec<usize> {
        let mut counts = vec![0; self.grid.0 * self.grid.1];
        self.tally(&mut counts, blocks);
        counts
    }

    /// Adds `blocks` to a [`Owners::counts`] table.
    fn tally(&self, counts: &mut [usize], blocks: impl Iterator<Item = (usize, usize)>) {
        for (bi, bj) in blocks {
            let (i, j) = self.at(bi, bj);
            counts[i * self.grid.1 + j] += 1;
        }
    }

    /// Step `k`'s `f` of the counts over the trailing shells
    /// `shell(k + 1)`, `shell(k + 2)`, ... (empty from `shell(nb)` on),
    /// for every `k` in `0..nb`. A trailing matrix is the next one plus
    /// one shell, so each step counts one shell, not a whole matrix.
    fn trailing<T, I: Iterator<Item = (usize, usize)>>(
        &self,
        nb: usize,
        shell: impl Fn(usize) -> I,
        f: impl Fn(&[usize]) -> T,
    ) -> Vec<T> {
        let mut counts = self.counts(std::iter::empty());
        let mut out: Vec<T> = (1..=nb)
            .rev()
            .map(|m| {
                self.tally(&mut counts, shell(m));
                f(&counts)
            })
            .collect();
        out.reverse();
        out
    }

    /// The nonzero entries of a count table, in sorted owner order.
    fn work(&self, counts: &[usize]) -> Vec<OwnerWork> {
        let q = self.grid.1;
        (0..counts.len())
            .filter(|&ij| counts[ij] > 0)
            .map(|ij| OwnerWork {
                owner: (ij / q, ij % q),
                blocks: counts[ij],
            })
            .collect()
    }

    /// A count table as `p` rows of `q`.
    fn rows(&self, counts: &[usize]) -> Vec<Vec<usize>> {
        counts.chunks(self.grid.1).map(<[usize]>::to_vec).collect()
    }
}

/// Plan for the square outer-product MM `C = A * B` on an `nb x nb`
/// block matrix ([`mm_rect_plan`] with `mb = nb = kb`).
pub fn mm_plan(dist: &dyn BlockDist, nb: usize) -> Plan {
    mm_rect_plan(dist, (nb, nb, nb))
}

/// Plan for the rectangular outer-product MM
/// `C(mb x nb) = A(mb x kb) * B(kb x nb)`, all three matrices laid out
/// by the same distribution.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn mm_rect_plan(dist: &dyn BlockDist, (mb, nb, kb): (usize, usize, usize)) -> Plan {
    assert!(mb > 0 && nb > 0 && kb > 0, "mm_rect_plan: empty shape");
    let owners = Owners::new(dist, mb.max(kb), nb.max(kb));
    // A block of `A` goes to the owners of its `C` row, one of `B` to
    // those of its `C` column, whatever `k`: each list is built once and
    // a broadcast takes it minus its source.
    let rows: Vec<_> = (0..mb)
        .map(|bi| owners.distinct((0..nb).map(|bj| (bi, bj)), NOBODY))
        .collect();
    let cols: Vec<_> = (0..nb)
        .map(|bj| owners.distinct((0..mb).map(|bi| (bi, bj)), NOBODY))
        .collect();
    let bcast = |block: (usize, usize), need: &[(usize, usize)]| {
        let src = owners.at(block.0, block.1);
        Bcast {
            block,
            src,
            dests: need.iter().copied().filter(|&o| o != src).collect(),
        }
    };
    let owned = owners.counts((0..mb).flat_map(|bi| (0..nb).map(move |bj| (bi, bj))));
    let steps = (0..kb)
        .map(|k| Step::Mm {
            k,
            a_bcasts: (0..mb).map(|bi| bcast((bi, k), &rows[bi])).collect(),
            b_bcasts: (0..nb).map(|bj| bcast((k, bj), &cols[bj])).collect(),
        })
        .collect();
    Plan {
        grid: owners.grid,
        owned: owners.rows(&owned),
        steps,
    }
}

/// Plan for the right-looking LU-shaped factorization of an `nb x nb`
/// block matrix. The same plan serves LU and (in the simulator's cost
/// model, at 2x arithmetic) QR.
pub fn factor_plan(dist: &dyn BlockDist, nb: usize) -> Plan {
    let owners = Owners::new(dist, nb, nb);
    // Shell `m`: row `m` from the diagonal on, then column `m` below it.
    let trailing = owners.trailing(
        nb,
        |m| {
            (m..nb)
                .map(move |bj| (m, bj))
                .chain((m + 1..nb).map(move |bi| (bi, m)))
        },
        |counts| owners.rows(counts),
    );
    let steps = (0..nb)
        .zip(trailing)
        .map(|(k, trailing)| {
            let diag = owners.at(k, k);
            let panel = owners.work(&owners.counts((k..nb).map(|bi| (bi, k))));
            let diag_col_dests = owners.distinct((k + 1..nb).map(|bi| (bi, k)), diag);
            // Trailing phases are empty on the last step; the emitted
            // lists below are all empty ranges then, matching the
            // simulator's historical `k + 1 == nb` early-continue.
            let l_bcasts = (k..nb)
                .map(|bi| {
                    let src = owners.at(bi, k);
                    Bcast {
                        block: (bi, k),
                        src,
                        dests: owners.distinct((k + 1..nb).map(|bj| (bi, bj)), src),
                    }
                })
                .collect();
            let trsm = owners.work(&owners.counts((k + 1..nb).map(|bj| (k, bj))));
            let u_bcasts = (k + 1..nb)
                .map(|bj| {
                    let src = owners.at(k, bj);
                    Bcast {
                        block: (k, bj),
                        src,
                        dests: owners.distinct((k + 1..nb).map(|bi| (bi, bj)), src),
                    }
                })
                .collect();
            Step::Factor {
                k,
                diag,
                panel,
                diag_col_dests,
                l_bcasts,
                trsm,
                u_bcasts,
                trailing,
            }
        })
        .collect();
    Plan {
        grid: owners.grid,
        owned: Vec::new(),
        steps,
    }
}

/// Plan for right-looking Cholesky (`A = L L^T`, lower triangle only)
/// of an `nb x nb` block matrix.
pub fn cholesky_plan(dist: &dyn BlockDist, nb: usize) -> Plan {
    let owners = Owners::new(dist, nb, nb);
    // Shell `m` of the lower triangle: column `m` from the diagonal down.
    let trailing = owners.trailing(
        nb,
        |m| (m..nb).map(move |bi| (bi, m)),
        |counts| owners.work(counts),
    );
    let steps = (0..nb)
        .zip(trailing)
        .map(|(k, trailing)| {
            let diag = owners.at(k, k);
            let diag_dests = owners.distinct((k + 1..nb).map(|bi| (bi, k)), diag);
            let panel = owners.work(&owners.counts((k + 1..nb).map(|bi| (bi, k))));
            let panel_bcasts = (k + 1..nb)
                .map(|bi| {
                    let src = owners.at(bi, k);
                    // Row `bi` of the trailing triangle, then column `bi`.
                    let row = (k + 1..=bi).map(|bj| (bi, bj));
                    let col = (bi..nb).map(|bi2| (bi2, bi));
                    Bcast {
                        block: (bi, k),
                        src,
                        dests: owners.distinct(row.chain(col), src),
                    }
                })
                .collect();
            Step::Cholesky {
                k,
                diag,
                diag_dests,
                panel,
                panel_bcasts,
                trailing,
            }
        })
        .collect();
    Plan {
        grid: owners.grid,
        owned: Vec::new(),
        steps,
    }
}

/// Plan for the executor's Householder QR of an `nb x nb` block matrix
/// (see [`Step::Qr`] for the per-step structure and message/work
/// conventions).
pub fn qr_plan(dist: &dyn BlockDist, nb: usize) -> Plan {
    let owners = Owners::new(dist, nb, nb);
    let steps = (0..nb)
        .map(|k| {
            let diag = owners.at(k, k);
            let panel = (k..nb).map(|bi| owners.at(bi, k)).collect();
            let reflector_dests = owners.distinct((k + 1..nb).map(|bj| (k, bj)), diag);
            let columns = (k + 1..nb)
                .map(|bj| QrColumn {
                    bj,
                    head: owners.at(k, bj),
                    members: (k + 1..nb).map(|bi| owners.at(bi, bj)).collect(),
                })
                .collect();
            Step::Qr {
                k,
                diag,
                panel,
                reflector_dests,
                columns,
            }
        })
        .collect();
    Plan {
        grid: owners.grid,
        owned: Vec::new(),
        steps,
    }
}

/// Largest tile side `μ` a worker with `worker_mem` blocks of memory
/// can run the maximum-reuse streaming schedule at: the schedule keeps
/// `μ²` `C` accumulators, one row of `μ` `B` blocks and a single `A`
/// block resident, so `μ² + μ + 1 <= worker_mem`.
///
/// # Panics
/// Panics if `worker_mem < 3` (one `C`, one `B` and one `A` block is
/// the minimum streaming footprint).
pub fn star_tile_side(worker_mem: usize) -> usize {
    assert!(
        worker_mem >= 3,
        "star_tile_side: worker_mem {worker_mem} < 3 cannot stream MM"
    );
    let mut mu = 1usize;
    while (mu + 1) * (mu + 1) + (mu + 2) <= worker_mem {
        mu += 1;
    }
    mu
}

/// The maximum-reuse streaming schedule for
/// `C(mb x nb) = A(mb x kb) * B(kb x nb)` on a master-worker star
/// (*Revisiting Matrix Product on Master-Worker Platforms*): `C` is
/// tiled into `μ x μ` tiles (`μ` from [`star_tile_side`], ragged at the
/// edges) dealt round-robin to the workers. For its tile `I x J` a
/// worker keeps all `|I| |J|` accumulators resident and streams the
/// common dimension: per `k` it loads the `B` row slice `B(k, J)`, then
/// for each `i in I` loads `A(i, k)`, updates the whole row of
/// accumulators and drops the `A` block, finally dropping the `B`
/// slice; finished `C` blocks travel back to the master. Per tile that
/// is `kb (|I| + |J|)` master sends and `|I| |J|` returns against
/// `kb |I| |J|` block updates — the communication-to-compute ratio
/// `~2/μ` that maximum reuse buys.
///
/// Steps are fine-grained (one [`Step::Load`] / [`Step::Compute`] /
/// [`Step::Evict`] each, `Step` field `k` == index in `steps`);
/// `Plan::grid` is the executor layout `(1, workers + 1)` with the
/// master at column 0, and `Plan::owned` records each worker's computed
/// `C`-block count.
///
/// # Panics
/// Panics if `topo` is not a [`Topology::Star`], if any dimension or
/// the worker count is zero, or if `worker_mem < 3`.
pub fn star_mm_plan(topo: &Topology, (mb, nb, kb): (usize, usize, usize)) -> Plan {
    let Topology::Star {
        workers,
        worker_mem,
        ..
    } = *topo
    else {
        panic!("star_mm_plan: not a star topology: {topo}")
    };
    assert!(workers > 0, "star_mm_plan: no workers");
    assert!(mb > 0 && nb > 0 && kb > 0, "star_mm_plan: empty shape");
    let mu = star_tile_side(worker_mem);
    let t_rows = mb.div_ceil(mu);
    let t_cols = nb.div_ceil(mu);
    let mut steps: Vec<Step> = Vec::new();
    let mut owned = vec![vec![0usize; workers + 1]];
    let push = |steps: &mut Vec<Step>, make: &dyn Fn(usize) -> Step| {
        let k = steps.len();
        steps.push(make(k));
    };
    for t in 0..t_rows * t_cols {
        let (ti, tj) = (t / t_cols, t % t_cols);
        let worker = 1 + t % workers;
        let rows: Vec<usize> = (ti * mu..((ti + 1) * mu).min(mb)).collect();
        let cols: Vec<usize> = (tj * mu..((tj + 1) * mu).min(nb)).collect();
        owned[0][worker] += rows.len() * cols.len();
        // Fresh accumulators: local zero blocks, no messages.
        for &bi in &rows {
            for &bj in &cols {
                push(&mut steps, &|k| Step::Load {
                    k,
                    worker,
                    mat: Mat::C,
                    block: (bi, bj),
                    src: LoadSrc::Zero,
                });
            }
        }
        // Stream the common dimension with maximum reuse.
        for kk in 0..kb {
            for &bj in &cols {
                push(&mut steps, &|k| Step::Load {
                    k,
                    worker,
                    mat: Mat::B,
                    block: (kk, bj),
                    src: LoadSrc::Master,
                });
            }
            for &bi in &rows {
                push(&mut steps, &|k| Step::Load {
                    k,
                    worker,
                    mat: Mat::A,
                    block: (bi, kk),
                    src: LoadSrc::Master,
                });
                for &bj in &cols {
                    push(&mut steps, &|k| Step::Compute {
                        k,
                        worker,
                        c: (bi, bj),
                        a: (bi, kk),
                        b: (kk, bj),
                    });
                }
                push(&mut steps, &|k| Step::Evict {
                    k,
                    worker,
                    mat: Mat::A,
                    block: (bi, kk),
                    send_back: false,
                });
            }
            for &bj in &cols {
                push(&mut steps, &|k| Step::Evict {
                    k,
                    worker,
                    mat: Mat::B,
                    block: (kk, bj),
                    send_back: false,
                });
            }
        }
        // Finished accumulators go home.
        for &bi in &rows {
            for &bj in &cols {
                push(&mut steps, &|k| Step::Evict {
                    k,
                    worker,
                    mat: Mat::C,
                    block: (bi, bj),
                    send_back: true,
                });
            }
        }
    }
    Plan {
        grid: (1, workers + 1),
        owned,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgrid_core::Arrangement;
    use hetgrid_dist::{BlockCyclic, KlDist, PanelDist, PanelOrdering};

    fn dists() -> Vec<Box<dyn BlockDist>> {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = hetgrid_core::exact::solve_arrangement(&arr);
        vec![
            Box::new(BlockCyclic::new(2, 2)),
            Box::new(PanelDist::from_allocation(
                &arr,
                &sol.alloc,
                4,
                3,
                PanelOrdering::Interleaved,
            )),
            Box::new(KlDist::new(&arr, 4, 6)),
        ]
    }

    fn all_bcasts(step: &Step) -> Vec<&Bcast> {
        match step {
            Step::Mm {
                a_bcasts, b_bcasts, ..
            } => a_bcasts.iter().chain(b_bcasts).collect(),
            Step::Factor {
                l_bcasts, u_bcasts, ..
            } => l_bcasts.iter().chain(u_bcasts).collect(),
            Step::Cholesky { panel_bcasts, .. } => panel_bcasts.iter().collect(),
            Step::Qr { .. } | Step::Load { .. } | Step::Compute { .. } | Step::Evict { .. } => {
                Vec::new()
            }
        }
    }

    #[test]
    fn bcast_dests_are_distinct_and_never_the_source() {
        for dist in dists() {
            for plan in [
                mm_plan(dist.as_ref(), 6),
                factor_plan(dist.as_ref(), 6),
                cholesky_plan(dist.as_ref(), 6),
            ] {
                for step in &plan.steps {
                    for b in all_bcasts(step) {
                        assert!(!b.dests.contains(&b.src), "{b:?}");
                        let mut seen = b.dests.clone();
                        seen.sort_unstable();
                        seen.dedup();
                        assert_eq!(seen.len(), b.dests.len(), "dup dest in {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn factor_plan_covers_every_panel_block() {
        for dist in dists() {
            let nb = 7;
            let plan = factor_plan(dist.as_ref(), nb);
            assert_eq!(plan.steps.len(), nb);
            for (k, step) in plan.steps.iter().enumerate() {
                let Step::Factor {
                    panel,
                    l_bcasts,
                    u_bcasts,
                    trailing,
                    ..
                } = step
                else {
                    panic!("wrong step kind")
                };
                let panel_blocks: usize = panel.iter().map(|w| w.blocks).sum();
                assert_eq!(panel_blocks, nb - k);
                assert_eq!(l_bcasts.len(), nb - k);
                assert_eq!(u_bcasts.len(), nb - k - 1);
                let t: usize = trailing.iter().flatten().sum();
                assert_eq!(t, (nb - k - 1) * (nb - k - 1));
            }
        }
    }

    #[test]
    fn qr_plan_last_step_has_no_trailing_phase() {
        for dist in dists() {
            let plan = qr_plan(dist.as_ref(), 5);
            let Step::Qr {
                panel,
                reflector_dests,
                columns,
                ..
            } = plan.steps.last().unwrap()
            else {
                panic!("wrong step kind")
            };
            assert_eq!(panel.len(), 1);
            assert!(reflector_dests.is_empty());
            assert!(columns.is_empty());
        }
    }

    /// Every owner list of a QR plan, read back through
    /// [`down_column`], names each implied block with its owner: on
    /// cyclic, panel and KL distributions of random shapes.
    #[test]
    fn qr_owner_lists_pair_every_block_with_its_owner() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x0e4e);
        for _ in 0..40 {
            let (p, q, nb) = (
                rng.gen_range(1..=4),
                rng.gen_range(1..=4),
                rng.gen_range(1..=12),
            );
            let rows: Vec<Vec<f64>> = (0..p)
                .map(|_| (0..q).map(|_| rng.gen_range(1.0..8.0)).collect())
                .collect();
            let arr = Arrangement::from_rows(&rows);
            let alloc = hetgrid_core::exact::solve_arrangement(&arr).alloc;
            let (bp, bq) = (rng.gen_range(p..=3 * p), rng.gen_range(q..=3 * q));
            let dists: [Box<dyn BlockDist>; 3] = [
                Box::new(BlockCyclic::new(p, q)),
                Box::new(PanelDist::from_allocation(
                    &arr,
                    &alloc,
                    bp,
                    bq,
                    PanelOrdering::Interleaved,
                )),
                Box::new(KlDist::new(&arr, bp, bq)),
            ];
            for dist in &dists {
                let want = |blocks: Vec<(usize, usize)>| -> Vec<_> {
                    blocks
                        .into_iter()
                        .map(|b| (b, dist.owner(b.0, b.1)))
                        .collect()
                };
                for step in qr_plan(dist.as_ref(), nb).steps {
                    let Step::Qr {
                        k, panel, columns, ..
                    } = step
                    else {
                        panic!("wrong step kind")
                    };
                    let got: Vec<_> = down_column(k, k, &panel).collect();
                    assert_eq!(got, want((k..nb).map(|bi| (bi, k)).collect()));
                    let bjs: Vec<usize> = columns.iter().map(|col| col.bj).collect();
                    assert_eq!(bjs, (k + 1..nb).collect::<Vec<_>>());
                    for col in &columns {
                        let got: Vec<_> = down_column(k + 1, col.bj, &col.members).collect();
                        assert_eq!(got, want((k + 1..nb).map(|bi| (bi, col.bj)).collect()));
                    }
                }
            }
        }
    }

    #[test]
    fn single_processor_plans_have_no_messages() {
        let dist = BlockCyclic::new(1, 1);
        for plan in [
            mm_plan(&dist, 4),
            factor_plan(&dist, 4),
            cholesky_plan(&dist, 4),
        ] {
            for step in &plan.steps {
                for b in all_bcasts(step) {
                    assert!(b.dests.is_empty());
                }
            }
        }
        for step in &qr_plan(&dist, 4).steps {
            let Step::Qr {
                reflector_dests, ..
            } = step
            else {
                panic!()
            };
            assert!(reflector_dests.is_empty());
        }
    }

    fn star(workers: usize, worker_mem: usize) -> Topology {
        Topology::Star {
            workers,
            worker_mem,
            master_bw: 1.0,
        }
    }

    #[test]
    // Keep the literal `mu^2 + mu + 1 <= m` from the paper's feasibility
    // condition rather than clippy's normalized form.
    #[allow(clippy::int_plus_one)]
    fn star_tile_side_is_maximal() {
        assert_eq!(star_tile_side(3), 1);
        assert_eq!(star_tile_side(6), 1);
        assert_eq!(star_tile_side(7), 2); // 4 + 2 + 1
        assert_eq!(star_tile_side(12), 2);
        assert_eq!(star_tile_side(13), 3); // 9 + 3 + 1
        for m in 3..200 {
            let mu = star_tile_side(m);
            assert!(mu * mu + mu + 1 <= m, "mem {m}: mu {mu} does not fit");
            assert!(
                (mu + 1) * (mu + 1) + (mu + 2) > m,
                "mem {m}: mu {mu} not maximal"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot stream")]
    fn star_tile_side_rejects_tiny_memory() {
        star_tile_side(2);
    }

    #[test]
    fn star_steps_are_indexed_in_order() {
        let plan = star_mm_plan(&star(3, 7), (5, 4, 3));
        assert_eq!(plan.grid, (1, 4));
        for (i, step) in plan.steps.iter().enumerate() {
            let k = match *step {
                Step::Load { k, .. } | Step::Compute { k, .. } | Step::Evict { k, .. } => k,
                ref other => panic!("grid step in star plan: {other:?}"),
            };
            assert_eq!(k, i);
        }
    }

    #[test]
    fn star_plan_matches_closed_form_counts() {
        // Per mu x mu tile I x J: kb (|I| + |J|) master sends, |I| |J|
        // returns, kb |I| |J| updates; summed over the ragged tiling.
        for (w, mem, (mb, nb, kb)) in [
            (1usize, 3usize, (2usize, 2usize, 2usize)),
            (2, 7, (4, 5, 3)),
            (3, 13, (7, 6, 4)),
            (4, 7, (3, 3, 5)),
        ] {
            let mu = star_tile_side(mem);
            let (mut sends, mut returns, mut updates) = (0usize, 0usize, 0usize);
            for ti in 0..mb.div_ceil(mu) {
                for tj in 0..nb.div_ceil(mu) {
                    let rows = ((ti + 1) * mu).min(mb) - ti * mu;
                    let cols = ((tj + 1) * mu).min(nb) - tj * mu;
                    sends += kb * (rows + cols);
                    returns += rows * cols;
                    updates += kb * rows * cols;
                }
            }
            let plan = star_mm_plan(&star(w, mem), (mb, nb, kb));
            let mut got = (0usize, 0usize, 0usize);
            for step in &plan.steps {
                match *step {
                    Step::Load {
                        src: LoadSrc::Master,
                        ..
                    } => got.0 += 1,
                    Step::Evict {
                        send_back: true, ..
                    } => got.1 += 1,
                    Step::Compute { .. } => got.2 += 1,
                    _ => {}
                }
            }
            assert_eq!(got, (sends, returns, updates), "w {w} mem {mem}");
            assert_eq!(plan.owned[0].iter().sum::<usize>(), mb * nb);
            assert_eq!(plan.owned[0][0], 0, "master computes nothing");
        }
    }

    #[test]
    fn star_residency_never_exceeds_worker_mem() {
        for (w, mem, dims) in [(1, 3, (3, 3, 3)), (2, 7, (5, 4, 3)), (3, 13, (6, 7, 2))] {
            let plan = star_mm_plan(&star(w, mem), dims);
            let mut resident = vec![0usize; w + 1];
            for step in &plan.steps {
                match *step {
                    Step::Load { worker, .. } => {
                        resident[worker] += 1;
                        assert!(
                            resident[worker] <= mem,
                            "worker {worker} over budget: {} > {mem}",
                            resident[worker]
                        );
                    }
                    Step::Evict { worker, .. } => resident[worker] -= 1,
                    _ => {}
                }
            }
            assert!(resident.iter().all(|&r| r == 0), "blocks left resident");
        }
    }

    #[test]
    fn star_computes_every_c_block_kb_times_in_k_order() {
        let (mb, nb, kb) = (5, 4, 3);
        let plan = star_mm_plan(&star(2, 7), (mb, nb, kb));
        let mut next_k = vec![vec![0usize; nb]; mb];
        for step in &plan.steps {
            if let Step::Compute { c, a, b, .. } = *step {
                assert_eq!(a.0, c.0);
                assert_eq!(b.1, c.1);
                assert_eq!(a.1, b.0);
                assert_eq!(a.1, next_k[c.0][c.1], "out-of-order update on {c:?}");
                next_k[c.0][c.1] += 1;
            }
        }
        assert!(next_k.iter().flatten().all(|&k| k == kb));
    }

    /// FNV-1a 64 over `bytes`.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The generators' output, independent of the byte codec: one digest
    /// of `{:?}` per plan, for every grid kernel at nb = 64 on a 4x4
    /// Cartesian panel distribution and on a non-Cartesian KL one, plus
    /// a rectangular MM on a block-cyclic grid.
    #[test]
    fn generated_plans_are_pinned() {
        let arr = Arrangement::from_rows(&[
            vec![1.0, 1.5, 2.0, 2.5],
            vec![3.0, 3.5, 4.0, 4.5],
            vec![5.0, 5.5, 6.0, 6.5],
            vec![7.0, 7.5, 8.0, 9.0],
        ]);
        let sol = hetgrid_core::exact::solve_arrangement(&arr);
        let panel =
            PanelDist::from_allocation(&arr, &sol.alloc, 16, 16, PanelOrdering::Interleaved);
        let kl = KlDist::new(&arr, 16, 16);
        let mut got: Vec<u64> = Vec::new();
        for dist in [&panel as &dyn BlockDist, &kl] {
            for kernel in Kernel::ALL {
                got.push(fnv(format!("{:?}", kernel.plan(dist, 64)).as_bytes()));
            }
        }
        let rect = mm_rect_plan(&BlockCyclic::new(3, 2), (7, 5, 4));
        got.push(fnv(format!("{rect:?}").as_bytes()));
        assert_eq!(
            got,
            [
                0xfe35_b73b_e9aa_b607,
                0x543a_9354_a6c8_8999,
                0x11c3_d06c_ad44_35c5,
                0x0f63_36d9_3eca_6974,
                0xa856_db87_bd4f_cae0,
                0x7801_1dc6_49ef_3c12,
                0x0799_741e_1ce0_ef86,
                0x3364_7012_fea6_0ad9,
                0xfb01_5c22_67ce_8f99,
            ]
        );
    }

    #[test]
    fn star_tiles_deal_round_robin() {
        let plan = star_mm_plan(&star(3, 3), (4, 4, 2));
        // mu = 1 -> 16 tiles over 3 workers: 6 / 5 / 5 blocks.
        assert_eq!(plan.owned[0], vec![0, 6, 5, 5]);
    }
}
