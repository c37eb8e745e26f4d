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
//! order, every per-block broadcast (owner and the [`Line`] of blocks
//! that need it) and every per-owner compute aggregate. It keeps its
//! [`Source`], the generator's inputs, which are all its byte form
//! ([`wire`]) carries. Adding a kernel means adding one generator here;
//! all three consumers pick it up.
//!
//! Conventions shared by every generator:
//!
//! * a grid step shares its plan's [`Owners`] table and stores no
//!   per-broadcast list: [`Owners::dests`] is the one derivation of a
//!   broadcast's destinations, the owners of its line **in first-need
//!   order, deduplicated, never the source** — a consumer counting "one
//!   message per distinct destination" can take its `len()` directly;
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
use std::ops::Range;
use std::sync::Arc;

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

    /// Wire byte for this kernel: its index in [`Kernel::ALL`].
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Kernel for a wire byte.
    pub fn from_u8(b: u8) -> Option<Kernel> {
        Kernel::ALL.get(usize::from(b)).copied()
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

    /// This kernel's step plan for an `nb x nb` block matrix over
    /// `dist`.
    pub fn plan(self, dist: &dyn BlockDist, nb: usize) -> Plan {
        Source::grid(self, dist, (nb, nb, nb)).plan()
    }
}

/// Which logical matrix a step touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mat {
    /// The `A` input of MM (read-only).
    A,
    /// The `B` input of MM (read-only).
    B,
    /// The output/in-place matrix: `C` for MM, the factored matrix for
    /// LU/Cholesky/QR.
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

/// One block broadcast: the owner of `block` sends it to the distinct
/// owners of `line` other than itself ([`Owners::dests`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bcast {
    /// Block index `(bi, bj)` being broadcast.
    pub block: (usize, usize),
    /// Owner of the block (the sender).
    pub src: (usize, usize),
    /// The blocks whose owners need `block`, in first-need order.
    pub line: Line,
}

/// The blocks whose owners receive a [`Bcast`], in first-need order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Line {
    /// `Row(i, from, to)`: blocks `(i, from..to)`, a `C` row for MM or a
    /// trailing row for LU.
    Row(usize, usize, usize),
    /// `Col(j, from, to)`: blocks `(from..to, j)`, a `C` column for MM or
    /// a trailing column for LU.
    Col(usize, usize, usize),
    /// `Hook(i, from, to)`: Cholesky's trailing lower-triangle blocks
    /// `(i, from..=i)` of row `i`, then `(i..to, i)` of column `i`.
    Hook(usize, usize, usize),
}

impl Line {
    /// The line's blocks, in order.
    pub fn blocks(self) -> impl Iterator<Item = (usize, usize)> {
        let ((i, cols), (j, rows)) = match self {
            Line::Row(i, from, to) => ((i, from..to), (0, 0..0)),
            Line::Col(j, from, to) => ((0, 0..0), (j, from..to)),
            Line::Hook(i, from, to) => ((i, from..i + 1), (i, i..to)),
        };
        cols.map(move |bj| (i, bj))
            .chain(rows.map(move |bi| (bi, j)))
    }
}

/// The destinations of a plan's broadcasts ([`Owners::dests`] for one),
/// each whole row, column or hook walked once however many broadcasts'
/// lines are suffixes of it: a broadcast costs its destinations, not its
/// line.
#[derive(Default)]
pub struct Dests(Vec<Option<Whole>>);

/// A whole row, column or hook: per block its owner and one past the
/// position of the previous block with that owner (0: none), and each
/// owner with its last position.
struct Whole {
    line: Line,
    blocks: Vec<((usize, usize), usize)>,
    last: Vec<((usize, usize), usize)>,
}

impl Dests {
    /// The destinations of `b`, a broadcast over `owners`: the owners
    /// of its line in first-need order, each once, never `b.src`.
    pub fn of<'a>(
        &'a mut self,
        owners: &Owners,
        b: &Bcast,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let (Line::Row(_, from, _) | Line::Col(_, from, _) | Line::Hook(_, from, _)) = b.line;
        let (whole, src) = (self.whole(owners, b.line), b.src);
        let distinct = whole.last.iter().filter(|&&(_, at)| at >= from).count();
        whole.blocks[from.min(whole.blocks.len())..]
            .iter()
            .filter(move |&&(_, after)| after <= from)
            .map(|&(o, _)| o)
            .take(distinct)
            .filter(move |&o| o != src)
    }

    /// How many destinations `b` has, without walking its line.
    pub fn count(&mut self, owners: &Owners, b: &Bcast) -> usize {
        let (Line::Row(_, from, _) | Line::Col(_, from, _) | Line::Hook(_, from, _)) = b.line;
        let last = &self.whole(owners, b.line).last;
        last.iter()
            .filter(|&&(o, at)| at >= from && o != b.src)
            .count()
    }

    /// The whole row, column or hook `line` is a suffix of, walked on
    /// first use.
    fn whole(&mut self, owners: &Owners, line: Line) -> &Whole {
        let (line, id) = match line {
            Line::Row(i, _, to) => (Line::Row(i, 0, to), 3 * i),
            Line::Col(j, _, to) => (Line::Col(j, 0, to), 3 * j + 1),
            Line::Hook(i, _, to) => (Line::Hook(i, 0, to), 3 * i + 2),
        };
        if self.0.len() <= id {
            self.0.resize_with(id + 1, || None);
        }
        let slot = &mut self.0[id];
        if slot.as_ref().is_none_or(|w| w.line != line) {
            let (mut blocks, mut last) = (Vec::new(), Vec::new());
            for (at, (bi, bj)) in line.blocks().enumerate() {
                let o = owners.at(bi, bj);
                match last.iter_mut().find(|(seen, _)| *seen == o) {
                    Some((_, prev)) => blocks.push((o, std::mem::replace(prev, at) + 1)),
                    None => {
                        blocks.push((o, 0));
                        last.push((o, at));
                    }
                }
            }
            *slot = Some(Whole { line, blocks, last });
        }
        slot.as_ref().expect("filled above")
    }
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
    /// The rows `k + 1..nb` of the blocks `(bi, bj)` below the head,
    /// owners read through the step's table ([`Owners::down`]). Each
    /// block not owned by the head costs one gather message in and one
    /// scatter message back.
    pub members: Range<usize>,
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
        /// The plan's owner table.
        owners: Owners,
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
        /// Distinct owners of panel blocks `(bi, k)`, `bi > k`, then of
        /// pivot-row blocks `(k, bj)`, `bj > k`, other than the diagonal
        /// owner: the recipients of the packed diagonal factors, which
        /// the L and U solves need.
        diag_dests: Vec<(usize, usize)>,
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
        /// The plan's owner table.
        owners: Owners,
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
        /// deduplicated destination list ([`Line::Hook`]).
        panel_bcasts: Vec<Bcast>,
        /// Symmetric trailing update work per owner (lower triangle
        /// only), sorted owner order.
        trailing: Vec<OwnerWork>,
        /// The plan's owner table.
        owners: Owners,
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
        /// The rows `k..nb` of the panel blocks `(bi, k)`, owners read
        /// through the table ([`Owners::down`]): the first is `diag`'s.
        /// Every non-diagonal owner sends its block in and receives its
        /// reflector segment back (two messages per such block).
        panel: Range<usize>,
        /// Distinct trailing column heads (`owner(k, bj)`, `bj > k`)
        /// other than the diagonal owner, in first-need order; each
        /// receives the packed panel factors once.
        reflector_dests: Vec<(usize, usize)>,
        /// Trailing column updates, in `bj` order.
        columns: Vec<QrColumn>,
        /// The plan's owner table.
        owners: Owners,
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
    /// What the plan was generated from: all its byte form carries.
    pub source: Source,
}

/// A generator's inputs. [`Source::plan`] runs the generator, and a
/// plan's byte form ([`wire`]) is its source alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// A grid kernel on an `(mb, nb, kb)` block shape (`(nb, nb, nb)`
    /// for every kernel but a rectangular MM).
    Grid {
        /// The kernel.
        kernel: Kernel,
        /// `C(mb x nb) = A(mb x kb) * B(kb x nb)` for MM.
        shape: (usize, usize, usize),
        /// The owner of every block of the `mb.max(kb) x nb.max(kb)`
        /// block matrix.
        owners: Owners,
    },
    /// [`star_mm_plan`]'s inputs.
    Star {
        /// Worker count.
        workers: usize,
        /// Blocks of memory per worker.
        worker_mem: usize,
        /// `(mb, nb, kb)`, as for [`Source::Grid`].
        shape: (usize, usize, usize),
    },
}

impl Source {
    /// `kernel` on `shape` over `dist`: the owner of every block, read
    /// from the distribution once.
    pub fn grid(kernel: Kernel, dist: &dyn BlockDist, shape: (usize, usize, usize)) -> Source {
        let (mb, nb, kb) = shape;
        let cols = nb.max(kb);
        let table = (0..mb.max(kb))
            .flat_map(|bi| (0..cols).map(move |bj| dist.owner(bi, bj)))
            .collect::<Vec<_>>()
            .into();
        let grid = dist.grid();
        let owners = Owners { grid, cols, table };
        Source::Grid {
            kernel,
            shape,
            owners,
        }
    }

    /// The plan the generator builds from this source.
    ///
    /// # Panics
    /// Panics on an MM or star shape with a zero dimension, on a star
    /// with no workers or `worker_mem < 3`, and on owners that do not
    /// cover the shape.
    pub fn plan(self) -> Plan {
        let (grid, (owned, steps)) = match &self {
            Source::Grid {
                kernel,
                shape,
                owners,
            } => {
                let nb = shape.1;
                let built = match kernel {
                    Kernel::Mm => mm_steps(owners, *shape),
                    Kernel::Lu => (Vec::new(), factor_steps(owners, nb)),
                    Kernel::Cholesky => (Vec::new(), cholesky_steps(owners, nb)),
                    Kernel::Qr => (Vec::new(), qr_steps(owners, nb)),
                };
                (owners.grid, built)
            }
            &Source::Star {
                workers,
                worker_mem,
                shape,
            } => ((1, workers + 1), star_steps(workers, worker_mem, shape)),
        };
        Plan {
            grid,
            owned,
            steps,
            source: self,
        }
    }
}

/// The owner of every block of a `rows x cols` block matrix on a `p x q`
/// grid, row-major: the generators index it instead of calling
/// `dist.owner` per broadcast, and a plan's grid steps share it (a clone
/// shares the table) to read their broadcasts' destinations.
#[derive(Clone, PartialEq, Eq)]
pub struct Owners {
    grid: (usize, usize),
    cols: usize,
    table: Arc<[(usize, usize)]>,
}

/// The grid and the block matrix's shape, not the table.
impl std::fmt::Debug for Owners {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows = self.table.len() / self.cols.max(1);
        write!(f, "Owners({:?}, {rows}x{})", self.grid, self.cols)
    }
}

impl Owners {
    /// Owner of block `(bi, bj)`.
    pub fn at(&self, bi: usize, bj: usize) -> (usize, usize) {
        self.table[bi * self.cols + bj]
    }

    /// The destinations of one broadcast `b`, [`Dests::of`] on a fresh
    /// cache: the owners of its [`Line`] in first-need order, each once,
    /// never `b.src`.
    pub fn dests(&self, b: &Bcast) -> Vec<(usize, usize)> {
        Dests::default().of(self, b).collect()
    }

    /// The blocks `(bi, col)` for `bi` in `rows`, each with its owner:
    /// a [`QrColumn`]'s `members` read through the table.
    pub fn down(
        &self,
        rows: Range<usize>,
        col: usize,
    ) -> impl Iterator<Item = ((usize, usize), (usize, usize))> + '_ {
        rows.map(move |bi| ((bi, col), self.at(bi, col)))
    }

    /// The broadcast of `block` by its owner along `line`.
    fn bcast(&self, block: (usize, usize), line: Line) -> Bcast {
        let src = self.at(block.0, block.1);
        Bcast { block, src, line }
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
    Kernel::Mm.plan(dist, nb)
}

/// Plan for the rectangular outer-product MM
/// `C(mb x nb) = A(mb x kb) * B(kb x nb)`, all three matrices laid out
/// by the same distribution.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn mm_rect_plan(dist: &dyn BlockDist, shape: (usize, usize, usize)) -> Plan {
    Source::grid(Kernel::Mm, dist, shape).plan()
}

/// The owned-`C` table and the steps of [`mm_rect_plan`].
fn mm_steps(owners: &Owners, (mb, nb, kb): (usize, usize, usize)) -> (Vec<Vec<usize>>, Vec<Step>) {
    assert!(mb > 0 && nb > 0 && kb > 0, "mm_rect_plan: empty shape");
    // A block of `A` goes to the owners of its `C` row, one of `B` to
    // those of its `C` column, whatever `k`.
    let owned = owners.counts((0..mb).flat_map(|bi| (0..nb).map(move |bj| (bi, bj))));
    let steps = (0..kb)
        .map(|k| Step::Mm {
            k,
            a_bcasts: (0..mb)
                .map(|i| owners.bcast((i, k), Line::Row(i, 0, nb)))
                .collect(),
            b_bcasts: (0..nb)
                .map(|j| owners.bcast((k, j), Line::Col(j, 0, mb)))
                .collect(),
            owners: owners.clone(),
        })
        .collect();
    (owners.rows(&owned), steps)
}

/// Plan for the right-looking LU-shaped factorization of an `nb x nb`
/// block matrix. The same plan serves LU and (in the simulator's cost
/// model, at 2x arithmetic) QR.
pub fn factor_plan(dist: &dyn BlockDist, nb: usize) -> Plan {
    Kernel::Lu.plan(dist, nb)
}

/// The steps of [`factor_plan`].
fn factor_steps(owners: &Owners, nb: usize) -> Vec<Step> {
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
    (0..nb)
        .zip(trailing)
        .map(|(k, trailing)| {
            let diag = owners.at(k, k);
            let panel = owners.work(&owners.counts((k..nb).map(|bi| (bi, k))));
            let column = (k + 1..nb).map(|bi| (bi, k));
            let diag_dests = owners.distinct(column.chain((k + 1..nb).map(|bj| (k, bj))), diag);
            // Trailing phases are empty on the last step; the emitted
            // lines below are all empty ranges then, matching the
            // simulator's historical `k + 1 == nb` early-continue.
            let l_bcasts = (k..nb)
                .map(|i| owners.bcast((i, k), Line::Row(i, k + 1, nb)))
                .collect();
            let trsm = owners.work(&owners.counts((k + 1..nb).map(|bj| (k, bj))));
            let u_bcasts = (k + 1..nb)
                .map(|j| owners.bcast((k, j), Line::Col(j, k + 1, nb)))
                .collect();
            Step::Factor {
                k,
                diag,
                panel,
                diag_dests,
                l_bcasts,
                trsm,
                u_bcasts,
                trailing,
                owners: owners.clone(),
            }
        })
        .collect()
}

/// Plan for right-looking Cholesky (`A = L L^T`, lower triangle only)
/// of an `nb x nb` block matrix.
pub fn cholesky_plan(dist: &dyn BlockDist, nb: usize) -> Plan {
    Kernel::Cholesky.plan(dist, nb)
}

/// The steps of [`cholesky_plan`].
fn cholesky_steps(owners: &Owners, nb: usize) -> Vec<Step> {
    // Shell `m` of the lower triangle: column `m` from the diagonal down.
    let trailing = owners.trailing(
        nb,
        |m| (m..nb).map(move |bi| (bi, m)),
        |counts| owners.work(counts),
    );
    (0..nb)
        .zip(trailing)
        .map(|(k, trailing)| {
            let diag = owners.at(k, k);
            let diag_dests = owners.distinct((k + 1..nb).map(|bi| (bi, k)), diag);
            let panel = owners.work(&owners.counts((k + 1..nb).map(|bi| (bi, k))));
            let panel_bcasts = (k + 1..nb)
                .map(|i| owners.bcast((i, k), Line::Hook(i, k + 1, nb)))
                .collect();
            Step::Cholesky {
                k,
                diag,
                diag_dests,
                panel,
                panel_bcasts,
                trailing,
                owners: owners.clone(),
            }
        })
        .collect()
}

/// Plan for the executor's Householder QR of an `nb x nb` block matrix
/// (see [`Step::Qr`] for the per-step structure and message/work
/// conventions).
pub fn qr_plan(dist: &dyn BlockDist, nb: usize) -> Plan {
    Kernel::Qr.plan(dist, nb)
}

/// The steps of [`qr_plan`].
fn qr_steps(owners: &Owners, nb: usize) -> Vec<Step> {
    (0..nb)
        .map(|k| {
            let diag = owners.at(k, k);

            let reflector_dests = owners.distinct((k + 1..nb).map(|bj| (k, bj)), diag);
            let columns = (k + 1..nb)
                .map(|bj| QrColumn {
                    bj,
                    head: owners.at(k, bj),
                    members: k + 1..nb,
                })
                .collect();
            Step::Qr {
                k,
                diag,
                panel: k..nb,
                reflector_dests,
                columns,
                owners: owners.clone(),
            }
        })
        .collect()
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
pub fn star_mm_plan(topo: &Topology, shape: (usize, usize, usize)) -> Plan {
    let Topology::Star {
        workers,
        worker_mem,
        ..
    } = *topo
    else {
        panic!("star_mm_plan: not a star topology: {topo}")
    };
    Source::Star {
        workers,
        worker_mem,
        shape,
    }
    .plan()
}

/// The owned-`C` table and the steps of [`star_mm_plan`].
fn star_steps(
    workers: usize,
    worker_mem: usize,
    (mb, nb, kb): (usize, usize, usize),
) -> (Vec<Vec<usize>>, Vec<Step>) {
    assert!(workers > 0, "star_mm_plan: no workers");
    assert!(mb > 0 && nb > 0 && kb > 0, "star_mm_plan: empty shape");
    let mu = star_tile_side(worker_mem);
    let t_rows = mb.div_ceil(mu);
    let t_cols = nb.div_ceil(mu);
    let mut steps: Vec<Step> = Vec::new();
    let mut owned = vec![vec![0usize; workers + 1]];
    for t in 0..t_rows * t_cols {
        let (ti, tj) = (t / t_cols, t % t_cols);
        let worker = 1 + t % workers;
        let rows: Vec<usize> = (ti * mu..((ti + 1) * mu).min(mb)).collect();
        let cols: Vec<usize> = (tj * mu..((tj + 1) * mu).min(nb)).collect();
        owned[0][worker] += rows.len() * cols.len();
        let load = |steps: &mut Vec<Step>, mat, block, src| {
            let k = steps.len();
            steps.push(Step::Load {
                k,
                worker,
                mat,
                block,
                src,
            });
        };
        let evict = |steps: &mut Vec<Step>, mat, block, send_back| {
            let k = steps.len();
            steps.push(Step::Evict {
                k,
                worker,
                mat,
                block,
                send_back,
            });
        };
        let tile = || {
            rows.iter()
                .flat_map(|&bi| cols.iter().map(move |&bj| (bi, bj)))
        };
        // Fresh accumulators: local zero blocks, no messages.
        for c in tile() {
            load(&mut steps, Mat::C, c, LoadSrc::Zero);
        }
        // Stream the common dimension with maximum reuse.
        for kk in 0..kb {
            for &bj in &cols {
                load(&mut steps, Mat::B, (kk, bj), LoadSrc::Master);
            }
            for &bi in &rows {
                load(&mut steps, Mat::A, (bi, kk), LoadSrc::Master);
                for &bj in &cols {
                    let (k, c, a, b) = (steps.len(), (bi, bj), (bi, kk), (kk, bj));
                    steps.push(Step::Compute { k, worker, c, a, b });
                }
                evict(&mut steps, Mat::A, (bi, kk), false);
            }
            for &bj in &cols {
                evict(&mut steps, Mat::B, (kk, bj), false);
            }
        }
        // Finished accumulators go home.
        for c in tile() {
            evict(&mut steps, Mat::C, c, true);
        }
    }
    (owned, steps)
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

    /// Every broadcast of a step with the step's owner table.
    pub(crate) fn all_bcasts(step: &Step) -> Vec<(&Owners, &Bcast)> {
        let (owners, bcasts): (_, Vec<&Bcast>) = match step {
            Step::Mm {
                a_bcasts,
                b_bcasts,
                owners,
                ..
            } => (owners, a_bcasts.iter().chain(b_bcasts).collect()),
            Step::Factor {
                l_bcasts,
                u_bcasts,
                owners,
                ..
            } => (owners, l_bcasts.iter().chain(u_bcasts).collect()),
            Step::Cholesky {
                panel_bcasts,
                owners,
                ..
            } => (owners, panel_bcasts.iter().collect()),
            Step::Qr { .. } | Step::Load { .. } | Step::Compute { .. } | Step::Evict { .. } => {
                return Vec::new()
            }
        };
        bcasts.into_iter().map(|b| (owners, b)).collect()
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
                    for (owners, b) in all_bcasts(step) {
                        let dests = owners.dests(b);
                        assert!(!dests.contains(&b.src), "{b:?}");
                        let mut seen = dests.clone();
                        seen.sort_unstable();
                        seen.dedup();
                        assert_eq!(seen.len(), dests.len(), "dup dest in {b:?}");
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
    /// [`Owners::down`], names each implied block with its owner: on
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
                        k,
                        panel,
                        columns,
                        owners,
                        ..
                    } = step
                    else {
                        panic!("wrong step kind")
                    };
                    let got: Vec<_> = owners.down(panel, k).collect();
                    assert_eq!(got, want((k..nb).map(|bi| (bi, k)).collect()));
                    let bjs: Vec<usize> = columns.iter().map(|col| col.bj).collect();
                    assert_eq!(bjs, (k + 1..nb).collect::<Vec<_>>());
                    for col in &columns {
                        let got: Vec<_> = owners.down(col.members.clone(), col.bj).collect();
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
                for (owners, b) in all_bcasts(step) {
                    assert!(owners.dests(b).is_empty());
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

    /// A grid plan's steps as the generators built them when every
    /// list was stored: the types print as they did then.
    pub(crate) mod stored {
        // Some fields are read only through `Debug`, by the pins.
        #![allow(dead_code)]

        use crate::OwnerWork;

        type Proc = (usize, usize);

        #[derive(Debug)]
        pub struct Bcast {
            pub block: Proc,
            pub src: Proc,
            pub dests: Vec<Proc>,
        }

        #[derive(Debug)]
        pub struct QrColumn {
            pub bj: usize,
            pub head: Proc,
            pub members: Vec<Proc>,
        }

        #[derive(Debug)]
        pub enum Step {
            Mm {
                k: usize,
                a_bcasts: Vec<Bcast>,
                b_bcasts: Vec<Bcast>,
            },
            Factor {
                k: usize,
                diag: Proc,
                panel: Vec<OwnerWork>,
                diag_col_dests: Vec<Proc>,
                l_bcasts: Vec<Bcast>,
                trsm: Vec<OwnerWork>,
                u_bcasts: Vec<Bcast>,
                trailing: Vec<Vec<usize>>,
            },
            Cholesky {
                k: usize,
                diag: Proc,
                diag_dests: Vec<Proc>,
                panel: Vec<OwnerWork>,
                panel_bcasts: Vec<Bcast>,
                trailing: Vec<OwnerWork>,
            },
            Qr {
                k: usize,
                diag: Proc,
                panel: Vec<Proc>,
                reflector_dests: Vec<Proc>,
                columns: Vec<QrColumn>,
            },
        }
    }

    /// `plan`'s steps with every destination list and QR column owner
    /// list stored, derived through the step's owner table.
    ///
    /// # Panics
    /// Panics on a star plan.
    pub(crate) fn materialise(plan: &Plan) -> Vec<stored::Step> {
        let bcasts = |owners: &Owners, list: Vec<Bcast>| -> Vec<stored::Bcast> {
            list.iter()
                .map(|b| stored::Bcast {
                    block: b.block,
                    src: b.src,
                    dests: owners.dests(b),
                })
                .collect()
        };
        let steps = plan.steps.iter().cloned().map(|step| match step {
            Step::Mm {
                k,
                a_bcasts,
                b_bcasts,
                owners,
            } => stored::Step::Mm {
                k,
                a_bcasts: bcasts(&owners, a_bcasts),
                b_bcasts: bcasts(&owners, b_bcasts),
            },
            Step::Factor {
                k,
                diag,
                panel,
                l_bcasts,
                trsm,
                u_bcasts,
                trailing,
                owners,
                ..
            } => {
                let nb = k + l_bcasts.len();
                stored::Step::Factor {
                    k,
                    diag,
                    panel,
                    diag_col_dests: owners.distinct((k + 1..nb).map(|bi| (bi, k)), diag),
                    l_bcasts: bcasts(&owners, l_bcasts),
                    trsm,
                    u_bcasts: bcasts(&owners, u_bcasts),
                    trailing,
                }
            }
            Step::Cholesky {
                k,
                diag,
                diag_dests,
                panel,
                panel_bcasts,
                trailing,
                owners,
            } => stored::Step::Cholesky {
                k,
                diag,
                diag_dests,
                panel,
                panel_bcasts: bcasts(&owners, panel_bcasts),
                trailing,
            },
            Step::Qr {
                k,
                diag,
                panel,
                reflector_dests,
                columns,
                owners,
            } => stored::Step::Qr {
                k,
                diag,
                panel: owners.down(panel, k).map(|(_, o)| o).collect(),
                reflector_dests,
                columns: columns
                    .into_iter()
                    .map(|col| stored::QrColumn {
                        bj: col.bj,
                        head: col.head,
                        members: owners.down(col.members, col.bj).map(|(_, o)| o).collect(),
                    })
                    .collect(),
            },
            Step::Load { .. } | Step::Compute { .. } | Step::Evict { .. } => {
                panic!("materialise: a star plan")
            }
        });
        steps.collect()
    }

    /// A plan's `{:?}` text without its source, every list stored: the
    /// generator's output.
    fn built_text(plan: &Plan) -> String {
        let Plan { grid, owned, .. } = plan;
        let steps = materialise(plan);
        format!("Plan {{ grid: {grid:?}, owned: {owned:?}, steps: {steps:?} }}")
    }

    /// The generators' output, independent of the byte codec: one digest
    /// of [`built_text`] per plan, for every grid kernel at nb = 64 on a
    /// 4x4 Cartesian panel distribution and on a non-Cartesian KL one,
    /// plus a rectangular MM on a block-cyclic grid.
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
                got.push(fnv(built_text(&kernel.plan(dist, 64)).as_bytes()));
            }
        }
        let rect = mm_rect_plan(&BlockCyclic::new(3, 2), (7, 5, 4));
        got.push(fnv(built_text(&rect).as_bytes()));
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
