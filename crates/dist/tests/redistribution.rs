//! Property-based tests for the redistribution accounting: block moves
//! counted by processor id over random pairs of placements (arrangement
//! plus panel distribution) on the same grid.

use hetgrid_core::{sorted_row_major, Arrangement};
use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering, Placement};
use proptest::prelude::*;

fn times_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..1.0, n)
}

/// A random 2x3 arrangement: random cycle-times sorted row-major, so
/// the processor ids land in a random permutation of the positions.
fn arr_strategy() -> impl Strategy<Value = Arrangement> {
    times_strategy(6).prop_map(|times| sorted_row_major(&times, 2, 3))
}

/// A random 2x3 placement: per-row and per-column panel counts drawn
/// freely over a random arrangement.
fn placement_strategy() -> impl Strategy<Value = (Arrangement, PanelDist)> {
    const ORDERINGS: [PanelOrdering; 3] = [
        PanelOrdering::Interleaved,
        PanelOrdering::Contiguous,
        PanelOrdering::ColumnsInterleaved,
    ];
    (
        arr_strategy(),
        prop::collection::vec(1usize..5, 2),
        prop::collection::vec(1usize..5, 3),
        0usize..3,
    )
        .prop_map(|(arr, rows, cols, ord)| {
            let dist = PanelDist::from_counts(&arr, &rows, &cols, ORDERINGS[ord]);
            (arr, dist)
        })
}

fn at<'a>((arr, dist): &'a (Arrangement, PanelDist)) -> Placement<'a> {
    Placement { arr, dist }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocks_moved_is_symmetric(
        a in placement_strategy(),
        b in placement_strategy(),
        nb in 1usize..40,
    ) {
        // Moving data from a to b relocates exactly the blocks whose
        // processor differs — the same set in either direction.
        prop_assert_eq!(at(&a).blocks_moved(&at(&b), nb), at(&b).blocks_moved(&at(&a), nb));
    }

    #[test]
    fn self_redistribution_is_free(a in placement_strategy(), nb in 1usize..40) {
        prop_assert_eq!(at(&a).blocks_moved(&at(&a), nb), 0);
    }

    #[test]
    fn relabelled_processors_move_the_blocks_they_own(
        a in placement_strategy(),
        relabelled in arr_strategy(),
        nb in 1usize..40,
    ) {
        // One distribution under two arrangements: a block moves iff the
        // processor at its position changes, so the count is the blocks
        // owned by the positions whose processor id differs.
        let (arr, dist) = &a;
        let mut want = 0;
        for (i, row) in dist.owned_counts(nb, nb).iter().enumerate() {
            for (j, &count) in row.iter().enumerate() {
                if arr.proc(i, j) != relabelled.proc(i, j) {
                    want += count;
                }
            }
        }
        let to = Placement { arr: &relabelled, dist };
        prop_assert_eq!(at(&a).blocks_moved(&to, nb), want);
    }

    #[test]
    fn one_arrangement_moves_the_blocks_whose_position_changes(
        a in placement_strategy(),
        b in placement_strategy(),
        nb in 1usize..40,
    ) {
        // Under a single arrangement, processor and position coincide: a
        // block moves iff the two distributions put it at two positions.
        let (arr, da) = &a;
        let db = &b.1;
        let mut want = 0;
        for bi in 0..nb {
            for bj in 0..nb {
                if da.owner(bi, bj) != db.owner(bi, bj) {
                    want += 1;
                }
            }
        }
        let to = Placement { arr, dist: db };
        prop_assert_eq!(at(&a).blocks_moved(&to, nb), want);
    }

    #[test]
    fn panel_vs_cyclic_moves_are_consistent(
        a in placement_strategy(),
        nb in 1usize..40,
    ) {
        // Mixed descriptor types share the accounting: a panel dist vs
        // the uniform block-cyclic baseline on the same 2x3 grid.
        let cyclic = Placement { arr: &a.0, dist: &BlockCyclic::new(2, 3) };
        let moved = at(&a).blocks_moved(&cyclic, nb);
        prop_assert_eq!(moved, cyclic.blocks_moved(&at(&a), nb));
        prop_assert!(moved <= nb * nb);
    }
}
