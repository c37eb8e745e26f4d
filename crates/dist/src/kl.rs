//! The heterogeneous block-cyclic distribution of Kalinov and Lastovetsky
//! (HPCN'99), the relaxed-communication baseline of Section 3.1.2.
//!
//! Each *grid column* distributes the matrix rows among its own `p`
//! processors independently (optimal 1D split by cycle-time), and the
//! matrix columns are distributed among grid columns proportionally to
//! each column's aggregate (harmonic-mean) speed. Load balance is
//! perfect in the limit, but the row splits differ between neighbouring
//! grid columns, so a processor can face *several* west neighbours
//! (Figure 3) — each extra neighbour is an extra horizontal broadcast per
//! step of the kernels.

use crate::traits::BlockDist;
use hetgrid_core::oned::{allocate_1d, equivalent_cycle_time};
use hetgrid_core::Arrangement;

/// Kalinov–Lastovetsky heterogeneous block-cyclic distribution, periodic
/// with a `bp x bq` block period.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KlDist {
    p: usize,
    q: usize,
    /// `row_pattern[gj][k]`: owner grid row of the `k`-th period row in
    /// grid column `gj` (length `bp`, one pattern per grid column).
    row_patterns: Vec<Vec<usize>>,
    /// Owner grid column of each period column (length `bq`).
    col_pattern: Vec<usize>,
}

impl KlDist {
    /// Builds the distribution for an arrangement, with a period of
    /// `bp x bq` blocks.
    ///
    /// Rows: within each grid column `j`, the `bp` period rows are dealt
    /// to its processors by the optimal 1D greedy on cycle-times
    /// `t_{1j}..t_{pj}` (interleaved order, as drawn in Figure 3).
    /// Columns: the `bq` period columns are dealt to grid columns by the
    /// 1D greedy on the equivalent cycle-times `p / sum_i (1/t_ij)`.
    ///
    /// # Panics
    /// Panics if `bp < p` or `bq < q` (someone would own nothing).
    pub fn new(arr: &Arrangement, bp: usize, bq: usize) -> Self {
        let (p, q) = (arr.p(), arr.q());
        assert!(bp >= p, "KlDist: bp must be >= p");
        assert!(bq >= q, "KlDist: bq must be >= q");

        let row_patterns: Vec<Vec<usize>> = (0..q)
            .map(|j| {
                let col_times: Vec<f64> = (0..p).map(|i| arr.time(i, j)).collect();
                let alloc = allocate_1d(&col_times, bp);
                ensure_full_coverage(alloc.order, alloc.counts, p)
            })
            .collect();

        // Equivalent cycle-time of grid column j for a whole matrix
        // column: the column's p processors share the bp rows, so the
        // time per (column of bp blocks) is bp / sum_i(1/t_ij) ~
        // proportional to the harmonic aggregate of the column.
        let col_equiv: Vec<f64> = (0..q)
            .map(|j| {
                let groups: Vec<(f64, usize)> = (0..p).map(|i| (arr.time(i, j), 1)).collect();
                equivalent_cycle_time(&groups)
            })
            .collect();
        let col_alloc = allocate_1d(&col_equiv, bq);
        let col_pattern = ensure_full_coverage(col_alloc.order, col_alloc.counts, q);

        KlDist {
            p,
            q,
            row_patterns,
            col_pattern,
        }
    }

    /// Period height in blocks.
    pub fn bp(&self) -> usize {
        self.row_patterns[0].len()
    }

    /// Period width in blocks.
    pub fn bq(&self) -> usize {
        self.col_pattern.len()
    }

    /// The row pattern used by grid column `gj`.
    pub fn row_pattern(&self, gj: usize) -> &[usize] {
        &self.row_patterns[gj]
    }

    /// The column pattern.
    pub fn col_pattern(&self) -> &[usize] {
        &self.col_pattern
    }

    /// For every processor, the number of *distinct west neighbours*: the
    /// owners of the blocks immediately to the left of its own blocks
    /// (in the periodic pattern). On a strict grid this is 1 everywhere;
    /// Kalinov–Lastovetsky can exceed it (Figure 3: a processor with two
    /// west neighbours takes part in two horizontal broadcasts).
    pub fn west_neighbour_counts(&self) -> Vec<Vec<usize>> {
        let mut sets: Vec<Vec<std::collections::HashSet<(usize, usize)>>> =
            vec![vec![std::collections::HashSet::new(); self.q]; self.p];
        let bq = self.bq();
        let bp = self.bp();
        // One full period, plus wrap-around on the left edge.
        for bi in 0..bp {
            for bj in 0..bq {
                let (i, j) = self.owner(bi, bj);
                let west = self.owner(bi, (bj + bq - 1) % bq);
                if west != (i, j) {
                    sets[i][j].insert(west);
                }
            }
        }
        sets.iter()
            .map(|row| row.iter().map(|s| s.len()).collect())
            .collect()
    }
}

/// Guarantees every owner appears in the pattern (shifting single slots
/// from the most-loaded owner if the greedy starved someone).
fn ensure_full_coverage(
    mut order: Vec<usize>,
    mut counts: Vec<usize>,
    owners: usize,
) -> Vec<usize> {
    loop {
        let Some(starved) = (0..owners).find(|&i| counts[i] == 0) else {
            return order;
        };
        let donor = (0..owners).max_by_key(|&i| counts[i]).expect("non-empty");
        assert!(counts[donor] > 1, "period too small to cover every owner");
        // Replace the last occurrence of the donor with the starved owner.
        let pos = order
            .iter()
            .rposition(|&o| o == donor)
            .expect("donor present");
        order[pos] = starved;
        counts[donor] -= 1;
        counts[starved] += 1;
    }
}

impl BlockDist for KlDist {
    fn grid(&self) -> (usize, usize) {
        (self.p, self.q)
    }

    fn owner(&self, bi: usize, bj: usize) -> (usize, usize) {
        let gj = self.col_pattern[bj % self.col_pattern.len()];
        let pattern = &self.row_patterns[gj];
        (pattern[bi % pattern.len()], gj)
    }

    fn is_cartesian(&self) -> bool {
        // Owner row depends on bj through the per-column row patterns.
        false
    }

    /// Every grid column deals the same `bp` period rows, so the row
    /// patterns share one length.
    fn period(&self) -> (usize, usize) {
        (self.bp(), self.bq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::balance_report;

    fn paper_arr() -> Arrangement {
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]])
    }

    /// E3 — Figure 3 / Section 3.1.2 walk-through.
    #[test]
    fn fig3_kl_distribution() {
        let arr = paper_arr();
        // Period: 4 rows (column 1 splits 3:1), and for the rows of
        // column 2 the paper uses 7 (5:2). Use lcm-ish 28 x 61 to hit
        // both exact splits and the 40:21 column split.
        let d = KlDist::new(&arr, 28, 61);
        // Column 1: cycle-times (1, 3) -> 21:7 of 28 rows.
        let c0: usize = d.row_pattern(0).iter().filter(|&&r| r == 0).count();
        assert_eq!(c0, 21);
        // Column 2: cycle-times (2, 5) -> 20:8 of 28 rows.
        let c1: usize = d.row_pattern(1).iter().filter(|&&r| r == 0).count();
        assert_eq!(c1, 20);
        // Columns: equivalent times 3/2 and 20/7 -> 40:21 of 61.
        let cols0 = d.col_pattern().iter().filter(|&&c| c == 0).count();
        assert_eq!(cols0, 40);
    }

    #[test]
    fn kl_not_cartesian_and_extra_neighbours() {
        let arr = paper_arr();
        let d = KlDist::new(&arr, 28, 61);
        assert!(!d.is_cartesian());
        // Some processor has at least two west neighbours (Figure 3's
        // penalty); on a strict grid everyone has exactly one.
        let w = d.west_neighbour_counts();
        let max_w = w.iter().flatten().cloned().max().unwrap();
        assert!(max_w >= 2, "expected an extra west neighbour, got {:?}", w);
    }

    #[test]
    fn kl_balances_better_than_cyclic() {
        let arr = paper_arr();
        let d = KlDist::new(&arr, 28, 61);
        let cyc = crate::cyclic::BlockCyclic::new(2, 2);
        let kl_rep = balance_report(&d, &arr, 56, 61);
        let cyc_rep = balance_report(&cyc, &arr, 56, 61);
        assert!(
            kl_rep.makespan < cyc_rep.makespan,
            "KL {} !< cyclic {}",
            kl_rep.makespan,
            cyc_rep.makespan
        );
        assert!(kl_rep.average_utilization > 0.9);
    }

    #[test]
    fn kl_homogeneous_equals_grid_pattern() {
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let d = KlDist::new(&arr, 2, 2);
        // With equal speeds the row patterns agree across columns, so the
        // distribution is effectively Cartesian (though not flagged so).
        for bi in 0..8 {
            for bj in 0..8 {
                let (i, j) = d.owner(bi, bj);
                assert_eq!((i, j), (bi % 2, bj % 2));
            }
        }
        let w = d.west_neighbour_counts();
        assert!(w.iter().flatten().all(|&x| x <= 1));
    }

    #[test]
    fn every_processor_owns_something() {
        let arr = Arrangement::from_rows(&[vec![0.1, 0.9, 0.5], vec![0.7, 0.2, 0.8]]);
        let d = KlDist::new(&arr, 6, 6);
        let counts = d.owned_counts(12, 12);
        for row in &counts {
            for &c in row {
                assert!(c > 0, "a processor owns nothing: {:?}", counts);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bp must be")]
    fn too_small_period_rejected() {
        let arr = paper_arr();
        KlDist::new(&arr, 1, 4);
    }
}
