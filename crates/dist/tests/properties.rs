//! Property-based tests for the distribution descriptors.

use hetgrid_core::{alternating, sorted_row_major};
use hetgrid_dist::{balance_report, BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
use proptest::prelude::*;

fn times_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..1.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn panel_is_periodic(times in times_strategy(6), bp in 2usize..10, bq in 3usize..10) {
        let arr = sorted_row_major(&times, 2, 3);
        let alt = alternating::optimize(&arr, 10_000);
        let d = PanelDist::from_allocation(&arr, &alt.alloc, bp, bq, PanelOrdering::Interleaved);
        for bi in 0..d.bp() * 2 {
            for bj in 0..d.bq() * 2 {
                prop_assert_eq!(d.owner(bi, bj), d.owner(bi + d.bp(), bj));
                prop_assert_eq!(d.owner(bi, bj), d.owner(bi, bj + d.bq()));
            }
        }
    }

    #[test]
    fn panel_counts_match_patterns(times in times_strategy(6), bp in 2usize..10, bq in 3usize..10) {
        let arr = sorted_row_major(&times, 2, 3);
        let alt = alternating::optimize(&arr, 10_000);
        let d = PanelDist::from_allocation(&arr, &alt.alloc, bp, bq, PanelOrdering::Contiguous);
        // per_panel_counts equals owned_counts over exactly one panel.
        prop_assert_eq!(d.per_panel_counts(), d.owned_counts(d.bp(), d.bq()));
        // Every processor owns at least one block per panel.
        prop_assert!(d.per_panel_counts().iter().flatten().all(|&c| c > 0));
    }

    #[test]
    fn panel_orderings_agree_on_counts(times in times_strategy(4), bp in 2usize..8, bq in 2usize..8) {
        let arr = sorted_row_major(&times, 2, 2);
        let alt = alternating::optimize(&arr, 10_000);
        let a = PanelDist::from_allocation(&arr, &alt.alloc, bp, bq, PanelOrdering::Contiguous);
        let b = PanelDist::from_allocation(&arr, &alt.alloc, bp, bq, PanelOrdering::Interleaved);
        let c = PanelDist::from_allocation(&arr, &alt.alloc, bp, bq, PanelOrdering::ColumnsInterleaved);
        prop_assert_eq!(a.per_panel_counts(), b.per_panel_counts());
        prop_assert_eq!(a.per_panel_counts(), c.per_panel_counts());
    }

    #[test]
    fn kl_column_structure(times in times_strategy(6), bp in 2usize..12, bq in 3usize..12) {
        let arr = sorted_row_major(&times, 2, 3);
        let d = KlDist::new(&arr, bp.max(2), bq.max(3));
        // The owner's grid column is fully determined by bj.
        for bj in 0..d.bq() * 2 {
            let col = d.owner(0, bj).1;
            for bi in 0..d.bp() * 2 {
                prop_assert_eq!(d.owner(bi, bj).1, col);
            }
        }
        // Every processor owns something in a full period.
        let counts = d.owned_counts(d.bp(), d.bq() * 3);
        prop_assert!(counts.iter().flatten().all(|&c| c > 0));
    }

    #[test]
    fn kl_balances_at_least_as_well_as_cyclic(times in times_strategy(4)) {
        let arr = sorted_row_major(&times, 2, 2);
        let d = KlDist::new(&arr, 16, 16);
        let cyc = BlockCyclic::new(2, 2);
        let nb = 32;
        let kl_rep = balance_report(&d, &arr, nb, nb);
        let cyc_rep = balance_report(&cyc, &arr, nb, nb);
        prop_assert!(kl_rep.makespan <= cyc_rep.makespan * 1.05,
            "KL {} worse than cyclic {}", kl_rep.makespan, cyc_rep.makespan);
    }

    #[test]
    fn balance_report_utilization_in_unit_interval(times in times_strategy(4), nb in 4usize..40) {
        let arr = sorted_row_major(&times, 2, 2);
        let cyc = BlockCyclic::new(2, 2);
        let rep = balance_report(&cyc, &arr, nb, nb);
        prop_assert!(rep.average_utilization > 0.0);
        prop_assert!(rep.average_utilization <= 1.0 + 1e-12);
        // Makespan is the max of the per-processor times.
        let max = rep.times.iter().flatten().cloned().fold(0.0f64, f64::max);
        prop_assert!((rep.makespan - max).abs() < 1e-12);
    }

    #[test]
    fn owned_counts_partition_the_matrix(times in times_strategy(6), nb in 2usize..30) {
        let arr = sorted_row_major(&times, 2, 3);
        let alt = alternating::optimize(&arr, 10_000);
        let dists: Vec<Box<dyn BlockDist>> = vec![
            Box::new(BlockCyclic::new(2, 3)),
            Box::new(PanelDist::from_allocation(&arr, &alt.alloc, 4, 6, PanelOrdering::Interleaved)),
            Box::new(KlDist::new(&arr, 4, 6)),
        ];
        for d in &dists {
            let total: usize = d.owned_counts(nb, nb).iter().flatten().sum();
            prop_assert_eq!(total, nb * nb);
        }
    }

    #[test]
    fn local_index_is_injective_per_owner(times in times_strategy(4), bp in 2usize..6, bq in 2usize..6) {
        let arr = sorted_row_major(&times, 2, 2);
        let alt = alternating::optimize(&arr, 10_000);
        let d = PanelDist::from_allocation(&arr, &alt.alloc, bp, bq, PanelOrdering::Interleaved);
        let nb = d.bp().max(d.bq()) * 2;
        let mut seen = std::collections::HashSet::new();
        for bi in 0..nb {
            for bj in 0..nb {
                let owner = d.owner(bi, bj);
                let local = d.local_index(bi, bj);
                prop_assert!(seen.insert((owner, local)), "duplicate local index");
            }
        }
    }

    /// Every scheme repeats with the period it reports, on grids up to
    /// 4x4 and over `nb x nb` blocks for `nb` up to 40, a matrix smaller
    /// than the period included.
    #[test]
    fn every_scheme_repeats_with_its_period(
        (p, q) in (1usize..=4, 1usize..=4),
        times in times_strategy(16),
        (extra_p, extra_q) in (0usize..12, 0usize..12),
        nb in 1usize..=40,
    ) {
        let arr = sorted_row_major(&times[..p * q], p, q);
        let alloc = alternating::optimize(&arr, 10_000).alloc;
        let (bp, bq) = (p + extra_p, q + extra_q);
        let mut dists: Vec<Box<dyn BlockDist>> =
            vec![Box::new(BlockCyclic::new(p, q)), Box::new(KlDist::new(&arr, bp, bq))];
        for ordering in [
            PanelOrdering::Contiguous,
            PanelOrdering::Interleaved,
            PanelOrdering::ColumnsInterleaved,
            PanelOrdering::SuffixInterleaved,
        ] {
            dists.push(Box::new(PanelDist::from_allocation(&arr, &alloc, bp, bq, ordering)));
        }
        for d in &dists {
            let (tp, tq) = d.period();
            for bi in 0..nb {
                for bj in 0..nb {
                    prop_assert_eq!(d.owner(bi, bj), d.owner(bi % tp, bj % tq));
                }
            }
        }
    }

    #[test]
    fn trailing_counts_monotone(times in times_strategy(4), nb in 3usize..20) {
        let arr = sorted_row_major(&times, 2, 2);
        let alt = alternating::optimize(&arr, 10_000);
        let d = PanelDist::from_allocation(&arr, &alt.alloc, 4, 4, PanelOrdering::Interleaved);
        let mut prev_total = usize::MAX;
        for k in 0..nb {
            let total: usize = d.trailing_counts(nb, k).iter().flatten().sum();
            prop_assert_eq!(total, (nb - k) * (nb - k));
            prop_assert!(total <= prev_total);
            prev_total = total;
        }
    }
}
