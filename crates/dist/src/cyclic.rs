//! The uniform 2D block-cyclic distribution `CYCLIC(r)` used by
//! ScaLAPACK on homogeneous grids (Section 3.1.1) — the baseline whose
//! performance on a heterogeneous grid degrades to the speed of the
//! slowest processor.

use crate::traits::BlockDist;

/// Uniform 2D block-cyclic distribution on a `p x q` grid:
/// block `(bi, bj)` belongs to processor `(bi mod p, bj mod q)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCyclic {
    p: usize,
    q: usize,
}

impl BlockCyclic {
    /// Creates the distribution for a `p x q` grid.
    ///
    /// # Panics
    /// Panics if `p == 0` or `q == 0`.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0, "BlockCyclic: empty grid");
        BlockCyclic { p, q }
    }
}

impl BlockDist for BlockCyclic {
    fn grid(&self) -> (usize, usize) {
        (self.p, self.q)
    }

    fn owner(&self, bi: usize, bj: usize) -> (usize, usize) {
        (bi % self.p, bj % self.q)
    }

    fn is_cartesian(&self) -> bool {
        true
    }

    fn period(&self) -> (usize, usize) {
        (self.p, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::balance_report;
    use hetgrid_core::Arrangement;

    #[test]
    fn cyclic_ownership() {
        let d = BlockCyclic::new(2, 3);
        assert_eq!(d.owner(0, 0), (0, 0));
        assert_eq!(d.owner(1, 2), (1, 2));
        assert_eq!(d.owner(2, 3), (0, 0));
        assert_eq!(d.owner(5, 7), (1, 1));
    }

    #[test]
    fn even_split_when_divisible() {
        let d = BlockCyclic::new(2, 2);
        let counts = d.owned_counts(4, 4);
        for row in &counts {
            for &c in row {
                assert_eq!(c, 4);
            }
        }
    }

    #[test]
    fn remainder_blocks_go_to_low_indices() {
        let d = BlockCyclic::new(2, 2);
        let counts = d.owned_counts(5, 5);
        assert_eq!(counts[0][0], 9);
        assert_eq!(counts[0][1], 6);
        assert_eq!(counts[1][0], 6);
        assert_eq!(counts[1][1], 4);
    }

    #[test]
    fn local_index_is_cyclic() {
        let d = BlockCyclic::new(2, 2);
        assert_eq!(d.local_index(4, 6), (2, 3));
        assert_eq!(d.local_index(5, 7), (2, 3));
    }

    #[test]
    fn heterogeneous_makespan_dominated_by_slowest() {
        // On [[1,2],[3,6]], uniform cyclic gives everyone the same count;
        // the makespan is the slowest processor's time.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let d = BlockCyclic::new(2, 2);
        let report = balance_report(&d, &arr, 4, 4);
        assert_eq!(report.makespan, 4.0 * 6.0);
        // Mean utilization = mean(t)/max(t) = (1+2+3+6)/4 / 6 = 0.5.
        assert!((report.average_utilization - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trailing_counts_shrink() {
        let d = BlockCyclic::new(2, 2);
        let t0 = d.trailing_counts(4, 0);
        let t2 = d.trailing_counts(4, 2);
        let sum0: usize = t0.iter().flatten().sum();
        let sum2: usize = t2.iter().flatten().sum();
        assert_eq!(sum0, 16);
        assert_eq!(sum2, 4);
    }
}
