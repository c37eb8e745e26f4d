//! What moving a matrix from one plan to another costs — the other side
//! of the paper's static-allocation trade-off (Section 2.1). A plan is an
//! [`Arrangement`] (which processor sits at grid position `(i, j)`) plus
//! a [`BlockDist`] (which position owns block `(bi, bj)`); a block moves
//! when its *processor* changes, so every move count goes through
//! [`Placement`], which composes the two.

use crate::traits::BlockDist;
use hetgrid_core::arrangement::ProcId;
use hetgrid_core::Arrangement;

/// One plan's block ownership by processor id: the distribution's grid
/// position looked up in the arrangement.
#[derive(Clone, Copy)]
pub struct Placement<'a> {
    /// Which processor sits at each grid position.
    pub arr: &'a Arrangement,
    /// Which grid position owns each block.
    pub dist: &'a dyn BlockDist,
}

impl Placement<'_> {
    /// Grid shape `(p, q)`.
    ///
    /// # Panics
    /// Panics if the distribution is not on the arrangement's grid.
    pub fn grid(&self) -> (usize, usize) {
        let grid = (self.arr.p(), self.arr.q());
        assert_eq!(self.dist.grid(), grid, "Placement: dist/arr grid mismatch");
        grid
    }

    /// The processor that owns block `(bi, bj)`.
    pub fn owner(&self, bi: usize, bj: usize) -> ProcId {
        let (i, j) = self.dist.owner(bi, bj);
        self.arr.proc(i, j)
    }

    /// Number of blocks of an `nb x nb` block matrix whose processor
    /// changes between this placement and `to`.
    ///
    /// # Panics
    /// Panics if the two placements are on different grids. On one grid
    /// they cover the same processor ids: an arrangement's ids are a
    /// permutation of `0..p * q`.
    pub fn blocks_moved(&self, to: &Placement, nb: usize) -> usize {
        assert_eq!(self.grid(), to.grid(), "blocks_moved: grid mismatch");
        let mut moved = 0;
        for bi in 0..nb {
            for bj in 0..nb {
                if self.owner(bi, bj) != to.owner(bi, bj) {
                    moved += 1;
                }
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclic::BlockCyclic;
    use crate::panel::{PanelDist, PanelOrdering};

    #[test]
    fn identical_placements_move_nothing() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let d = BlockCyclic::new(2, 2);
        let place = Placement {
            arr: &arr,
            dist: &d,
        };
        assert_eq!(place.blocks_moved(&place, 16), 0);
    }

    #[test]
    fn similar_panels_move_less_than_dissimilar() {
        // Rebalancing between two close allocations moves fewer blocks
        // than switching from uniform cyclic.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let p1 = PanelDist::from_counts(&arr, &[3, 1], &[2, 1], PanelOrdering::Contiguous);
        let p2 = PanelDist::from_counts(&arr, &[2, 1], &[2, 1], PanelOrdering::Contiguous);
        let cyc = BlockCyclic::new(2, 2);
        let at = |dist| Placement { arr: &arr, dist };
        let nb = 24;
        let close = at(&p1).blocks_moved(&at(&p2), nb);
        let far = at(&cyc).blocks_moved(&at(&p1), nb);
        assert!(
            close < far,
            "close rebalance {close} !< cyclic switch {far}"
        );
    }

    #[test]
    fn swapped_processors_move_every_block_they_own() {
        // The same distribution with processors 0 and 3 swapped: every
        // block of those two positions changes processor, nothing else.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let swapped = Arrangement::with_procs(2, 2, vec![5.0, 2.0, 3.0, 1.0], vec![3, 1, 2, 0]);
        let d = BlockCyclic::new(2, 2);
        let (from, to) = (
            Placement {
                arr: &arr,
                dist: &d,
            },
            Placement {
                arr: &swapped,
                dist: &d,
            },
        );
        assert_eq!(from.blocks_moved(&to, 8), 32);
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn mismatched_grids_rejected() {
        let a = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let b = Arrangement::from_rows(&[vec![1.0, 2.0, 4.0], vec![3.0, 5.0, 6.0]]);
        let (da, db) = (BlockCyclic::new(2, 2), BlockCyclic::new(2, 3));
        let (from, to) = (
            Placement { arr: &a, dist: &da },
            Placement { arr: &b, dist: &db },
        );
        from.blocks_moved(&to, 4);
    }
}
