//! Executing a redistribution against live distributed data.
//!
//! [`redistribute`] is the executable form of
//! [`Placement::blocks_moved`]: it moves every block whose processor
//! differs between two placements of a [`DistributedMatrix`], all at
//! once.

use hetgrid_dist::Placement;
use hetgrid_exec::DistributedMatrix;

/// Migrates `dm` from placement `from` to placement `to` and returns the
/// number of blocks moved, `from.blocks_moved(to, nb)`. Each processor's
/// store first follows it to its grid position under `to`, moving
/// nothing; then every block whose processor changes moves.
///
/// # Panics
/// Panics if either placement is on another grid than `dm`, or a block
/// is missing from its source store (`dm` is not in placement `from`).
pub fn redistribute(dm: &mut DistributedMatrix, from: &Placement, to: &Placement) -> usize {
    assert!(
        from.grid() == dm.grid && to.grid() == dm.grid,
        "redistribute: grid mismatch"
    );
    let (p, q) = dm.grid;
    // `slot[proc]`: the row-major position of processor `proc` under `to`.
    let mut slot = vec![0; p * q];
    for s in 0..p * q {
        slot[to.arr.proc(s / q, s % q)] = s;
    }
    let mut stores = vec![Default::default(); p * q];
    for (s, store) in dm.stores.iter_mut().enumerate() {
        stores[slot[from.arr.proc(s / q, s % q)]] = std::mem::take(store);
    }
    dm.stores = stores;

    let mut moved = 0;
    for bi in 0..dm.nb_rows {
        for bj in 0..dm.nb_cols {
            let (src, dst) = (from.owner(bi, bj), to.owner(bi, bj));
            if src == dst {
                continue;
            }
            let block = dm.stores[slot[src]].remove(&(bi, bj)).unwrap_or_else(|| {
                panic!(
                    "redistribute: block {:?} missing from processor {src}",
                    (bi, bj)
                )
            });
            dm.stores[slot[dst]].insert((bi, bj), block);
            moved += 1;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgrid_core::Arrangement;
    use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
    use hetgrid_linalg::Matrix;

    const NB: usize = 8;
    const R: usize = 2;

    fn arr() -> Arrangement {
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]])
    }

    fn dists() -> (BlockCyclic, PanelDist) {
        let cyclic = BlockCyclic::new(2, 2);
        let panel = PanelDist::from_counts(&arr(), &[3, 1], &[3, 1], PanelOrdering::Interleaved);
        (cyclic, panel)
    }

    /// Every block sits in the store of the position its processor holds
    /// under `place`, and `dm` gathers back to `m` bit for bit.
    fn assert_placed(dm: &DistributedMatrix, place: &Placement, m: &Matrix) {
        for bi in 0..NB {
            for bj in 0..NB {
                let (i, j) = place.dist.owner(bi, bj);
                assert!(dm.store(i, j).contains_key(&(bi, bj)), "block {bi},{bj}");
            }
        }
        assert!(dm.gather().approx_eq(m, 0.0));
    }

    #[test]
    fn redistribution_preserves_content_and_moves_ownership() {
        let arr = arr();
        let (cyclic, panel) = dists();
        let (from, to) = (
            Placement {
                arr: &arr,
                dist: &cyclic,
            },
            Placement {
                arr: &arr,
                dist: &panel,
            },
        );
        let m = Matrix::from_fn(NB * R, NB * R, |i, j| (i * 31 + j) as f64);
        let mut dm = DistributedMatrix::scatter(&m, &cyclic, NB, R);
        let moved = redistribute(&mut dm, &from, &to);
        assert_eq!(moved, from.blocks_moved(&to, NB));
        assert!(moved > 0);
        assert_placed(&dm, &to, &m);
    }

    #[test]
    fn identical_placements_need_no_moves() {
        let arr = arr();
        let (cyclic, _) = dists();
        let place = Placement {
            arr: &arr,
            dist: &cyclic,
        };
        let m = Matrix::from_fn(NB * R, NB * R, |i, j| (i + 2 * j) as f64);
        let mut dm = DistributedMatrix::scatter(&m, &cyclic, NB, R);
        assert_eq!(redistribute(&mut dm, &place, &place), 0);
    }

    #[test]
    fn processors_that_change_position_carry_their_stores() {
        // Same distribution, processors 0 and 3 swap positions: each
        // carries its store along, then exactly the blocks at those two
        // positions change processor and move.
        let arr = arr();
        let swapped = Arrangement::with_procs(2, 2, vec![4.0, 2.0, 2.0, 1.0], vec![3, 1, 2, 0]);
        let (_, panel) = dists();
        let (from, to) = (
            Placement {
                arr: &arr,
                dist: &panel,
            },
            Placement {
                arr: &swapped,
                dist: &panel,
            },
        );
        let m = Matrix::from_fn(NB * R, NB * R, |i, j| (i * 5 + j * 3) as f64);
        let mut dm = DistributedMatrix::scatter(&m, &panel, NB, R);
        let moved = redistribute(&mut dm, &from, &to);
        let counts = panel.owned_counts(NB, NB);
        assert_eq!(moved, counts[0][0] + counts[1][1]);
        assert_eq!(moved, from.blocks_moved(&to, NB));
        assert_placed(&dm, &to, &m);
    }
}
