//! The common interface of block-to-processor distributions.

/// Maps matrix blocks (in units of `r x r` blocks, as in ScaLAPACK's
/// `CYCLIC(r)`) to processors of a `p x q` grid.
///
/// `(bi, bj)` are global block coordinates; the owner is a grid position
/// `(i, j)` with `0 <= i < p`, `0 <= j < q`.
pub trait BlockDist {
    /// Grid dimensions `(p, q)`.
    fn grid(&self) -> (usize, usize);

    /// Owner of global block `(bi, bj)`.
    fn owner(&self, bi: usize, bj: usize) -> (usize, usize);

    /// `true` if the distribution is a *Cartesian product*: the owner row
    /// depends only on `bi` and the owner column only on `bj`. Cartesian
    /// distributions keep the strict grid communication pattern (each
    /// processor talks to its four direct neighbours only) — the property
    /// the paper insists on (Section 3.1.2). The Kalinov–Lastovetsky
    /// distribution is *not* Cartesian.
    fn is_cartesian(&self) -> bool;

    /// The period `(bp, bq)` of the owner map: block `(bi, bj)` has the
    /// owner of block `(bi % bp, bj % bq)`, so one `bp x bq` tile of
    /// owners is the whole map. The default claims no period: every
    /// matrix is one tile.
    fn period(&self) -> (usize, usize) {
        (usize::MAX, usize::MAX)
    }

    /// Number of blocks owned by each processor in an `nb_rows x nb_cols`
    /// block matrix, as a `p x q` row-major count table.
    fn owned_counts(&self, nb_rows: usize, nb_cols: usize) -> Vec<Vec<usize>> {
        let (p, q) = self.grid();
        let mut counts = vec![vec![0usize; q]; p];
        for bi in 0..nb_rows {
            for bj in 0..nb_cols {
                let (i, j) = self.owner(bi, bj);
                counts[i][j] += 1;
            }
        }
        counts
    }

    /// Number of *trailing* blocks `(bi, bj)` with `bi >= k`, `bj >= k`
    /// owned by each processor — the work of the rank-`r` update at step
    /// `k` of right-looking LU (Section 3.2.1).
    fn trailing_counts(&self, nb: usize, k: usize) -> Vec<Vec<usize>> {
        let (p, q) = self.grid();
        let mut counts = vec![vec![0usize; q]; p];
        for bi in k..nb {
            for bj in k..nb {
                let (i, j) = self.owner(bi, bj);
                counts[i][j] += 1;
            }
        }
        counts
    }

    /// Local (row, column) index of a block within its owner's storage:
    /// the number of blocks of the same global row/column strip owned
    /// earlier. For Cartesian distributions this is the usual ScaLAPACK
    /// local indexing.
    fn local_index(&self, bi: usize, bj: usize) -> (usize, usize) {
        let (oi, oj) = self.owner(bi, bj);
        let mut li = 0;
        for b in 0..bi {
            if self.owner(b, bj).0 == oi {
                li += 1;
            }
        }
        let mut lj = 0;
        for b in 0..bj {
            if self.owner(bi, b).1 == oj {
                lj += 1;
            }
        }
        (li, lj)
    }
}

/// Statistics about how well a distribution balances a heterogeneous
/// grid.
#[derive(Clone, Debug, PartialEq)]
pub struct BalanceReport {
    /// Per-processor compute time for one sweep over all owned blocks
    /// (`count * t_ij`), row-major.
    pub times: Vec<Vec<f64>>,
    /// The parallel time `max_ij count_ij * t_ij`.
    pub makespan: f64,
    /// Mean utilization `mean(time_ij) / makespan`.
    pub average_utilization: f64,
}

/// Computes the one-sweep balance of `dist` against an arrangement of
/// cycle-times (grid shapes must agree).
///
/// # Panics
/// Panics if the grid shapes differ.
pub fn balance_report(
    dist: &dyn BlockDist,
    arr: &hetgrid_core::Arrangement,
    nb_rows: usize,
    nb_cols: usize,
) -> BalanceReport {
    let (p, q) = dist.grid();
    assert_eq!((p, q), (arr.p(), arr.q()), "balance_report: grid mismatch");
    let counts = dist.owned_counts(nb_rows, nb_cols);
    let mut times = vec![vec![0.0f64; q]; p];
    let mut makespan: f64 = 0.0;
    let mut total = 0.0;
    for i in 0..p {
        for j in 0..q {
            let t = counts[i][j] as f64 * arr.time(i, j);
            times[i][j] = t;
            makespan = makespan.max(t);
            total += t;
        }
    }
    let average_utilization = if makespan > 0.0 {
        total / (p as f64 * q as f64 * makespan)
    } else {
        1.0
    };
    BalanceReport {
        times,
        makespan,
        average_utilization,
    }
}
