//! Executing a redistribution against live distributed data.
//!
//! [`redistribute`] is the executable form of
//! [`hetgrid_dist::redistribution::transfer_plan`]: it moves every block
//! whose owner differs between two distributions of a
//! [`DistributedMatrix`], all at once.

use hetgrid_dist::BlockDist;
use hetgrid_exec::DistributedMatrix;

/// Migrates `dm` from distribution `from` to distribution `to`, moving
/// every block that changes owner in row-major block order; returns the
/// number of blocks moved.
///
/// # Panics
/// Panics if either distribution lives on another grid shape than `dm`,
/// or a block is missing from its expected source store (the matrix is
/// not in the `from` distribution).
pub fn redistribute(dm: &mut DistributedMatrix, from: &dyn BlockDist, to: &dyn BlockDist) -> usize {
    assert!(
        from.grid() == dm.grid && to.grid() == dm.grid,
        "redistribute: grid mismatch"
    );
    let q = dm.grid.1;
    let mut moved = 0;
    for bi in 0..dm.nb_rows {
        for bj in 0..dm.nb_cols {
            let (src, dst) = (from.owner(bi, bj), to.owner(bi, bj));
            if src == dst {
                continue;
            }
            let block = dm.stores[src.0 * q + src.1]
                .remove(&(bi, bj))
                .unwrap_or_else(|| {
                    panic!("redistribute: block {:?} missing from {:?}", (bi, bj), src)
                });
            dm.stores[dst.0 * q + dst.1].insert((bi, bj), block);
            moved += 1;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgrid_dist::{redistribution, BlockCyclic, PanelDist, PanelOrdering};
    use hetgrid_linalg::Matrix;

    const NB: usize = 8;
    const R: usize = 2;

    fn dists() -> (BlockCyclic, PanelDist) {
        let arr = hetgrid_core::Arrangement::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let cyclic = BlockCyclic::new(2, 2);
        let panel = PanelDist::from_counts(&arr, &[3, 1], &[3, 1], PanelOrdering::Interleaved);
        (cyclic, panel)
    }

    #[test]
    fn redistribution_preserves_content_and_moves_ownership() {
        let (from, to) = dists();
        let m = Matrix::from_fn(NB * R, NB * R, |i, j| (i * 31 + j) as f64);
        let mut dm = DistributedMatrix::scatter(&m, &from, NB, R);
        let moved = redistribute(&mut dm, &from, &to);
        assert_eq!(moved, redistribution::blocks_moved(&from, &to, NB));
        assert!(moved > 0);
        // Content survives the migration byte for byte.
        assert!(dm.gather().approx_eq(&m, 0.0));
        // Ownership now matches the target distribution.
        for bi in 0..NB {
            for bj in 0..NB {
                let (i, j) = to.owner(bi, bj);
                assert!(dm.store(i, j).contains_key(&(bi, bj)));
            }
        }
    }

    #[test]
    fn identical_distributions_need_no_moves() {
        let (from, _) = dists();
        let m = Matrix::from_fn(NB * R, NB * R, |i, j| (i + 2 * j) as f64);
        let mut dm = DistributedMatrix::scatter(&m, &from, NB, R);
        assert_eq!(redistribute(&mut dm, &from, &from), 0);
    }
}
