//! The paper's heterogeneous block-panel-cyclic distribution
//! (Sections 3.1.2 and 3.2.2).
//!
//! A *block panel* is a rectangle of `B_p x B_q` blocks tiled cyclically
//! over the matrix. Within a panel, grid row `i` owns `rows[i]` of the
//! `B_p` panel rows and grid column `j` owns `cols[j]` of the `B_q` panel
//! columns, so processor `(i, j)` gets `rows[i] * cols[j]` blocks per
//! panel while the communication pattern stays a strict grid (each
//! processor has exactly one west and one north neighbour).
//!
//! For matrix multiplication the order of panel rows/columns within the
//! panel is irrelevant; for LU/QR the *column* order matters because the
//! elimination consumes columns left to right — the 1D dealing order
//! (`ABAABA`, Figure 4) keeps every suffix of the panel balanced.

use crate::traits::BlockDist;
use hetgrid_core::objective::Allocation;
use hetgrid_core::rounding::integer_allocation;
use hetgrid_core::Arrangement;

/// How panel rows / columns are ordered within a panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanelOrdering {
    /// Grid row `i`'s panel rows are contiguous (as drawn in Figures 2
    /// and 4 for the rows).
    Contiguous,
    /// Panel rows/columns are dealt by the optimal 1D greedy order
    /// (Section 3.2.2's `ABAABA` for the columns) so every prefix and
    /// suffix stays balanced — what LU/QR needs.
    Interleaved,
    /// Rows contiguous, columns interleaved — exactly the layout drawn
    /// in Figure 4 of the paper.
    ColumnsInterleaved,
    /// Like [`PanelOrdering::Interleaved`] but with the dealing orders
    /// *reversed* so every suffix of a period is balanced — the correct
    /// variant for right-looking LU/QR, which consume rows and columns
    /// from the front and work on the trailing set. Coincides with
    /// `Interleaved` when the greedy pattern is a palindrome (as in the
    /// paper's `ABAABA` example).
    SuffixInterleaved,
}

/// The heterogeneous block-panel-cyclic distribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanelDist {
    p: usize,
    q: usize,
    /// Owner grid row of each of the `B_p` panel rows.
    row_pattern: Vec<usize>,
    /// Owner grid column of each of the `B_q` panel columns.
    col_pattern: Vec<usize>,
}

impl PanelDist {
    /// Builds a panel distribution from per-row / per-column block counts
    /// and an ordering policy.
    ///
    /// `rows[i]` panel rows go to grid row `i` (so `B_p = sum rows`), and
    /// `cols[j]` panel columns go to grid column `j` (`B_q = sum cols`).
    /// With [`PanelOrdering::Interleaved`], the within-panel order is the
    /// 1D greedy dealing order for processors whose cycle-time is the
    /// *equivalent* aggregated time of each grid row (resp. column) —
    /// which requires the arrangement.
    ///
    /// # Panics
    /// Panics if counts are empty, contain zeros, or (for `Interleaved`)
    /// the arrangement shape disagrees with the counts.
    pub fn from_counts(
        arr: &Arrangement,
        rows: &[usize],
        cols: &[usize],
        ordering: PanelOrdering,
    ) -> Self {
        assert_eq!(rows.len(), arr.p(), "PanelDist: rows length mismatch");
        assert_eq!(cols.len(), arr.q(), "PanelDist: cols length mismatch");
        assert!(
            rows.iter().all(|&x| x > 0) && cols.iter().all(|&x| x > 0),
            "PanelDist: every grid row/column needs at least one panel row/column"
        );
        let contiguous = |counts: &[usize]| {
            let mut v = Vec::with_capacity(counts.iter().sum());
            for (i, &n) in counts.iter().enumerate() {
                v.extend(std::iter::repeat_n(i, n));
            }
            v
        };
        // Aggregate each grid row into an equivalent processor: within
        // one panel row, grid row i performs B_q blocks spread over its
        // q processors at their own speeds, so its equivalent time per
        // panel row is 1 / sum_j(cols_j / t_ij); symmetrically for the
        // grid columns (Section 3.2.2's aggregation).
        let row_equiv = |arr: &Arrangement| -> Vec<f64> {
            (0..arr.p())
                .map(|i| {
                    let rate: f64 = (0..arr.q()).map(|j| cols[j] as f64 / arr.time(i, j)).sum();
                    1.0 / rate
                })
                .collect()
        };
        let col_equiv = |arr: &Arrangement| -> Vec<f64> {
            (0..arr.q())
                .map(|j| {
                    let rate: f64 = (0..arr.p()).map(|i| rows[i] as f64 / arr.time(i, j)).sum();
                    1.0 / rate
                })
                .collect()
        };
        let (row_pattern, col_pattern) = match ordering {
            PanelOrdering::Contiguous => (contiguous(rows), contiguous(cols)),
            PanelOrdering::Interleaved => (
                dealt_pattern(&row_equiv(arr), rows),
                dealt_pattern(&col_equiv(arr), cols),
            ),
            PanelOrdering::ColumnsInterleaved => {
                (contiguous(rows), dealt_pattern(&col_equiv(arr), cols))
            }
            PanelOrdering::SuffixInterleaved => {
                let mut rp = dealt_pattern(&row_equiv(arr), rows);
                let mut cp = dealt_pattern(&col_equiv(arr), cols);
                rp.reverse();
                cp.reverse();
                (rp, cp)
            }
        };
        PanelDist {
            p: arr.p(),
            q: arr.q(),
            row_pattern,
            col_pattern,
        }
    }

    /// Builds the distribution straight from an arrangement and rational
    /// shares: rounds the shares to integer counts for a `bp x bq` panel
    /// (preserving the sums), then applies the ordering.
    pub fn from_allocation(
        arr: &Arrangement,
        alloc: &Allocation,
        bp: usize,
        bq: usize,
        ordering: PanelOrdering,
    ) -> Self {
        let (rows, cols) = integer_allocation(arr, alloc, bp, bq);
        Self::from_counts(arr, &rows, &cols, ordering)
    }

    /// Panel height `B_p` in blocks.
    pub fn bp(&self) -> usize {
        self.row_pattern.len()
    }

    /// Panel width `B_q` in blocks.
    pub fn bq(&self) -> usize {
        self.col_pattern.len()
    }

    /// The owner grid row of each panel row.
    pub fn row_pattern(&self) -> &[usize] {
        &self.row_pattern
    }

    /// The owner grid column of each panel column.
    pub fn col_pattern(&self) -> &[usize] {
        &self.col_pattern
    }

    /// Per-panel block counts `rows[i] * cols[j]` as a `p x q` table.
    pub fn per_panel_counts(&self) -> Vec<Vec<usize>> {
        let mut rows = vec![0usize; self.p];
        for &i in &self.row_pattern {
            rows[i] += 1;
        }
        let mut cols = vec![0usize; self.q];
        for &j in &self.col_pattern {
            cols[j] += 1;
        }
        rows.iter()
            .map(|&r| cols.iter().map(|&c| r * c).collect())
            .collect()
    }
}

/// Deals `counts[i]` slots to each owner `i`, in the optimal 1D greedy
/// order for the given equivalent cycle-times, preserving the exact
/// target counts (the greedy is capacity-constrained).
fn dealt_pattern(equiv_times: &[f64], counts: &[usize]) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    let mut left = counts.to_vec();
    let mut done = vec![0usize; counts.len()];
    let mut pattern = Vec::with_capacity(total);
    for _ in 0..total {
        // Next slot goes to the owner (with remaining capacity) whose
        // completion time after taking it is smallest.
        let mut best = usize::MAX;
        let mut best_finish = f64::INFINITY;
        for i in 0..counts.len() {
            if left[i] == 0 {
                continue;
            }
            let finish = (done[i] + 1) as f64 * equiv_times[i];
            if finish < best_finish
                || (finish == best_finish
                    && best != usize::MAX
                    && equiv_times[i] < equiv_times[best])
            {
                best = i;
                best_finish = finish;
            }
        }
        debug_assert!(best != usize::MAX);
        left[best] -= 1;
        done[best] += 1;
        pattern.push(best);
    }
    pattern
}

impl BlockDist for PanelDist {
    fn grid(&self) -> (usize, usize) {
        (self.p, self.q)
    }

    fn owner(&self, bi: usize, bj: usize) -> (usize, usize) {
        (
            self.row_pattern[bi % self.row_pattern.len()],
            self.col_pattern[bj % self.col_pattern.len()],
        )
    }

    fn is_cartesian(&self) -> bool {
        true
    }

    fn period(&self) -> (usize, usize) {
        (self.bp(), self.bq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::balance_report;
    use hetgrid_core::exact;

    fn fig1_arr() -> Arrangement {
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]])
    }

    /// E1 — Figures 1 and 2: the 4x3 panel on the rank-1 grid.
    #[test]
    fn fig1_fig2_panel() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let d = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        assert_eq!(d.bp(), 4);
        assert_eq!(d.bq(), 3);
        // Rows: 3 panel rows to grid row 0, 1 to grid row 1.
        assert_eq!(d.row_pattern(), &[0, 0, 0, 1]);
        // Columns: 2 to grid column 0, 1 to grid column 1.
        assert_eq!(d.col_pattern(), &[0, 0, 1]);
        // Per-panel counts: P11 six, P12 three, P21 two, P22 one —
        // inversely proportional to cycle-times 1, 2, 3, 6.
        assert_eq!(d.per_panel_counts(), vec![vec![6, 3], vec![2, 1]]);
        // Perfect balance: everyone takes exactly 6 time units per panel.
        let report = balance_report(&d, &arr, 4, 3);
        for row in &report.times {
            for &t in row {
                assert!((t - 6.0).abs() < 1e-12);
            }
        }
        assert!((report.average_utilization - 1.0).abs() < 1e-12);
    }

    /// Figure 2's 10x10 block matrix: periodic tiling of the 4x3 panel.
    #[test]
    fn fig2_periodic_tiling() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let d = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        // Figure 2 shows rows 0-2 owned by grid row 0, row 3 by grid row
        // 1, repeating; columns 0-1 by grid col 0, column 2 by col 1.
        let expected_row = [0, 0, 0, 1, 0, 0, 0, 1, 0, 0];
        let expected_col = [0, 0, 1, 0, 0, 1, 0, 0, 1, 0];
        for bi in 0..10 {
            for bj in 0..10 {
                assert_eq!(
                    d.owner(bi, bj),
                    (expected_row[bi], expected_col[bj]),
                    "block ({}, {})",
                    bi,
                    bj
                );
            }
        }
    }

    /// E4 — Figure 4: LU panel, Bp = 8, Bq = 6, grid `[[1,2],[3,5]]`.
    #[test]
    fn fig4_lu_panel_with_interleaving() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let d =
            PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::ColumnsInterleaved);
        // Counts: rows (6, 2), columns (4, 2).
        assert_eq!(d.per_panel_counts(), vec![vec![24, 12], vec![8, 4]]);
        // Column pattern must be the ABAABA dealing of Section 3.2.2.
        assert_eq!(d.col_pattern(), &[0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn contiguous_vs_interleaved_same_counts() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let a = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Contiguous);
        let b = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        assert_eq!(a.per_panel_counts(), b.per_panel_counts());
        assert_eq!(a.owned_counts(24, 18), b.owned_counts(24, 18));
    }

    #[test]
    fn homogeneous_panel_reduces_to_cyclic() {
        // With equal speeds and B_p = p, B_q = q, the panel distribution
        // is exactly the uniform block-cyclic one.
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let d = PanelDist::from_counts(&arr, &[1, 1], &[1, 1], PanelOrdering::Interleaved);
        let cyc = crate::cyclic::BlockCyclic::new(2, 2);
        for bi in 0..6 {
            for bj in 0..6 {
                assert_eq!(d.owner(bi, bj), cyc.owner(bi, bj));
            }
        }
    }

    #[test]
    fn cartesian_property_holds() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let d = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        assert!(d.is_cartesian());
        // Owner row must not depend on bj; owner col not on bi.
        for bi in 0..12 {
            let r = d.owner(bi, 0).0;
            for bj in 0..12 {
                assert_eq!(d.owner(bi, bj).0, r);
            }
        }
    }

    #[test]
    fn local_indices_are_dense() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let d = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        // Collect the local indices of every block owned by (0,0) within
        // an 8x6 block matrix; they must tile a dense rectangle.
        let mut seen = std::collections::HashSet::new();
        let mut max_li = 0;
        let mut max_lj = 0;
        for bi in 0..8 {
            for bj in 0..6 {
                if d.owner(bi, bj) == (0, 0) {
                    let (li, lj) = d.local_index(bi, bj);
                    assert!(seen.insert((li, lj)), "duplicate local index");
                    max_li = max_li.max(li);
                    max_lj = max_lj.max(lj);
                }
            }
        }
        assert_eq!(seen.len(), (max_li + 1) * (max_lj + 1));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_count_rejected() {
        let arr = fig1_arr();
        PanelDist::from_counts(&arr, &[4, 0], &[2, 1], PanelOrdering::Contiguous);
    }
}
