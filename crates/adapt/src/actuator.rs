//! Executing a redistribution against live distributed data.
//!
//! A [`RedistributionPlan`] is the executable form of
//! [`hetgrid_dist::redistribution::transfer_plan`]: the explicit list of
//! block moves taking a [`DistributedMatrix`] from its current
//! distribution to a new one. Moves can be applied incrementally in
//! bounded batches, so a long redistribution can be interleaved with
//! kernel iterations instead of stopping the world.

use hetgrid_dist::BlockDist;
use hetgrid_exec::DistributedMatrix;

/// One block move: which global block leaves which processor for which.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// Global block coordinates.
    pub block: (usize, usize),
    /// Current owner (grid position).
    pub from: (usize, usize),
    /// New owner (grid position).
    pub to: (usize, usize),
}

/// An ordered list of block moves with an application cursor.
#[derive(Clone, Debug)]
pub struct RedistributionPlan {
    moves: Vec<Move>,
    cursor: usize,
}

impl RedistributionPlan {
    /// Enumerates the moves taking an `nb_rows x nb_cols` block matrix
    /// from distribution `from` to distribution `to`, in row-major block
    /// order.
    ///
    /// # Panics
    /// Panics if the two distributions live on different grid shapes.
    pub fn build(from: &dyn BlockDist, to: &dyn BlockDist, nb_rows: usize, nb_cols: usize) -> Self {
        assert_eq!(from.grid(), to.grid(), "RedistributionPlan: grid mismatch");
        let mut moves = Vec::new();
        for bi in 0..nb_rows {
            for bj in 0..nb_cols {
                let src = from.owner(bi, bj);
                let dst = to.owner(bi, bj);
                if src != dst {
                    moves.push(Move {
                        block: (bi, bj),
                        from: src,
                        to: dst,
                    });
                }
            }
        }
        RedistributionPlan { moves, cursor: 0 }
    }

    /// Total number of moves in the plan.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// `true` if the plan contains no moves at all.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Number of moves not yet applied.
    pub fn remaining(&self) -> usize {
        self.moves.len() - self.cursor
    }

    /// `true` once every move has been applied.
    pub fn is_done(&self) -> bool {
        self.cursor == self.moves.len()
    }

    /// The not-yet-applied moves.
    pub fn pending(&self) -> &[Move] {
        &self.moves[self.cursor..]
    }

    /// Applies up to `max_moves` pending moves to `dm`, advancing the
    /// cursor; returns how many were applied. Batches bound the
    /// per-iteration redistribution work of an incremental migration.
    ///
    /// # Panics
    /// Panics if `dm`'s grid does not match the plan's owners or a block
    /// is missing from its expected source store (the matrix is not in
    /// the plan's `from` distribution).
    pub fn apply_next(&mut self, dm: &mut DistributedMatrix, max_moves: usize) -> usize {
        let (p, q) = dm.grid;
        let batch = max_moves.min(self.remaining());
        for _ in 0..batch {
            let m = self.moves[self.cursor];
            assert!(
                m.from.0 < p && m.from.1 < q && m.to.0 < p && m.to.1 < q,
                "RedistributionPlan: move outside the matrix grid"
            );
            let block = dm.stores[m.from.0 * q + m.from.1]
                .remove(&m.block)
                .unwrap_or_else(|| {
                    panic!(
                        "RedistributionPlan: block {:?} missing from {:?}",
                        m.block, m.from
                    )
                });
            dm.stores[m.to.0 * q + m.to.1].insert(m.block, block);
            self.cursor += 1;
        }
        batch
    }

    /// Applies every pending move; returns how many were applied.
    pub fn apply_all(&mut self, dm: &mut DistributedMatrix) -> usize {
        self.apply_next(dm, usize::MAX)
    }
}

/// One-shot convenience: migrates `dm` from distribution `from` to
/// distribution `to`, returning the number of blocks moved.
pub fn redistribute(dm: &mut DistributedMatrix, from: &dyn BlockDist, to: &dyn BlockDist) -> usize {
    let mut plan = RedistributionPlan::build(from, to, dm.nb_rows, dm.nb_cols);
    plan.apply_all(dm)
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
    fn incremental_batches_cover_the_whole_plan() {
        let (from, to) = dists();
        let m = Matrix::from_fn(NB * R, NB * R, |i, j| (i + 2 * j) as f64);
        let mut dm = DistributedMatrix::scatter(&m, &from, NB, R);
        let mut plan = RedistributionPlan::build(&from, &to, NB, NB);
        let total = plan.len();
        let mut applied = 0;
        while !plan.is_done() {
            applied += plan.apply_next(&mut dm, 5);
            assert_eq!(plan.remaining(), total - applied);
        }
        assert_eq!(applied, total);
        assert!(dm.gather().approx_eq(&m, 0.0));
        // A drained plan applies nothing further.
        assert_eq!(plan.apply_all(&mut dm), 0);
    }

    #[test]
    fn identical_distributions_need_no_moves() {
        let (from, _) = dists();
        let plan = RedistributionPlan::build(&from, &from, NB, NB);
        assert!(plan.is_empty());
        assert!(plan.is_done());
    }
}
