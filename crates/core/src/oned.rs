//! Optimal 1D heterogeneous allocation (the building block from the
//! authors' earlier uni-dimensional papers, refs [5, 6]).
//!
//! Given `p` processors with cycle-times `t_i` and `B` equal blocks, find
//! integer counts `n_i` (summing to `B`) minimizing the makespan
//! `max_i n_i * t_i`, together with the *order* in which the blocks are
//! dealt to processors. The order is what produces the interleaved
//! periodic patterns (`ABAABA` in Figure 4) that keep every prefix of
//! columns balanced — the property the right-looking LU/QR elimination
//! needs (Section 3.2.2).
//!
//! The greedy "deal the next block to the processor that would finish it
//! earliest" rule is optimal for this min-max problem: it is exactly the
//! exchange-argument-optimal list-scheduling of identical unit tasks on
//! uniform machines.

/// Result of a 1D allocation of `B` blocks over `p` processors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OneDAllocation {
    /// Number of blocks assigned to each processor; sums to `B`.
    pub counts: Vec<usize>,
    /// `order[k]` is the processor owning the `k`-th block; this is the
    /// periodic pattern written left-to-right (e.g. `ABAABA`).
    pub order: Vec<usize>,
}

impl OneDAllocation {
    /// Makespan `max_i counts_i * t_i` of the allocation under `times`.
    ///
    /// # Panics
    /// Panics if `times.len() != counts.len()`.
    pub fn makespan(&self, times: &[f64]) -> f64 {
        assert_eq!(times.len(), self.counts.len(), "makespan: length mismatch");
        self.counts
            .iter()
            .zip(times)
            .map(|(&n, &t)| n as f64 * t)
            .fold(0.0, f64::max)
    }
}

/// Optimal 1D allocation of `B` blocks to processors with the given
/// cycle-times, with the greedy dealing order.
///
/// Ties are broken toward the faster processor (then the lower index), so
/// the output is deterministic.
///
/// # Panics
/// Panics if `times` is empty or contains non-positive values.
pub fn allocate_1d(times: &[f64], blocks: usize) -> OneDAllocation {
    assert!(!times.is_empty(), "allocate_1d: no processors");
    assert!(
        times.iter().all(|&t| t > 0.0 && t.is_finite()),
        "allocate_1d: cycle-times must be positive"
    );
    let p = times.len();
    let mut counts = vec![0usize; p];
    let mut order = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        // Next block goes to the processor whose completion time after
        // taking it is smallest.
        let mut best = 0usize;
        let mut best_finish = f64::INFINITY;
        for i in 0..p {
            let finish = (counts[i] + 1) as f64 * times[i];
            if finish < best_finish || (finish == best_finish && times[i] < times[best]) {
                best = i;
                best_finish = finish;
            }
        }
        counts[best] += 1;
        order.push(best);
    }
    OneDAllocation { counts, order }
}

/// Equivalent cycle-time of a *group* of processors acting as one: the
/// inverse of the sum of their rates, `1 / sum(1/t_i)` (the harmonic
/// aggregation used in Sections 3.1.2 and 3.2.2).
///
/// A group containing `n_i` copies of cycle-time `t_i` is expressed by
/// passing `(t_i, n_i)` pairs.
pub fn equivalent_cycle_time(groups: &[(f64, usize)]) -> f64 {
    let rate: f64 = groups.iter().map(|&(t, n)| n as f64 / t).sum();
    assert!(rate > 0.0, "equivalent_cycle_time: empty group");
    1.0 / rate
}

/// A 1D heterogeneous block-cyclic distribution: the periodic pattern of
/// the authors' uni-dimensional papers (refs [5, 6]), dealing `period`
/// block columns to `p` processors by the optimal greedy order and
/// tiling that pattern cyclically.
///
/// This is the 1D ancestor of the 2D block-panel distribution: the 2D
/// panel's column pattern *is* a [`OneDDist`] over the aggregated
/// grid-column speeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OneDDist {
    pattern: Vec<usize>,
    p: usize,
}

impl OneDDist {
    /// Builds the distribution for processors with the given cycle-times
    /// and a dealing period of `period` blocks.
    ///
    /// # Panics
    /// Panics if `period < times.len()` (somebody would own nothing) or
    /// a cycle-time is not positive.
    pub fn new(times: &[f64], period: usize) -> Self {
        assert!(
            period >= times.len(),
            "OneDDist: period must cover every processor"
        );
        let alloc = allocate_1d(times, period);
        let mut pattern = alloc.order;
        // The greedy can starve a very slow processor at small periods;
        // hand it the last slot of the largest owner.
        let mut counts = alloc.counts;
        while let Some(starved) = counts.iter().position(|&c| c == 0) {
            let donor = (0..counts.len())
                .max_by_key(|&i| counts[i])
                .expect("non-empty");
            assert!(counts[donor] > 1, "OneDDist: period too small");
            let pos = pattern
                .iter()
                .rposition(|&o| o == donor)
                .expect("donor in pattern");
            pattern[pos] = starved;
            counts[donor] -= 1;
            counts[starved] += 1;
        }
        OneDDist {
            pattern,
            p: times.len(),
        }
    }

    /// Builds the *suffix-balanced* variant: the greedy dealing order
    /// reversed, so that every suffix of a period is a greedy-optimal
    /// allocation of that many blocks. This is the right ordering for
    /// right-looking LU/QR, whose step-`k` work lives on the *trailing*
    /// columns: as the elimination retires columns left to right, the
    /// remaining set stays balanced.
    ///
    /// For the paper's Figure 4 example the greedy pattern `ABAABA` is a
    /// palindrome, so the two variants coincide; they differ whenever
    /// the counts are more skewed.
    ///
    /// # Panics
    /// Panics like [`OneDDist::new`].
    pub fn new_suffix_balanced(times: &[f64], period: usize) -> Self {
        let mut d = Self::new(times, period);
        d.pattern.reverse();
        d
    }

    /// Owner of global block `b`.
    #[inline]
    pub fn owner(&self, b: usize) -> usize {
        self.pattern[b % self.pattern.len()]
    }

    /// The dealing period.
    pub fn period(&self) -> usize {
        self.pattern.len()
    }

    /// The periodic owner pattern.
    pub fn pattern(&self) -> &[usize] {
        &self.pattern
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.p
    }

    /// Blocks owned by each processor among the first `nb` blocks.
    pub fn counts(&self, nb: usize) -> Vec<usize> {
        let mut c = vec![0usize; self.p];
        for b in 0..nb {
            c[self.owner(b)] += 1;
        }
        c
    }
}

/// Cost of a 1D right-looking elimination (the column-LU model of the
/// authors' uni-dimensional papers): at step `k` the remaining blocks
/// `k+1..nb` are updated, and the step lasts as long as the busiest
/// processor, `sum_k max_i (count of remaining blocks owned by i) * t_i`.
///
/// This is the quantity the interleaved dealing order minimizes — a
/// contiguous assignment leaves the fast processors idle in the late
/// steps when only slow owners remain.
pub fn lu_column_makespan(dist: &OneDDist, times: &[f64], nb: usize) -> f64 {
    assert_eq!(
        times.len(),
        dist.processors(),
        "lu_column_makespan: mismatch"
    );
    let mut total = 0.0;
    for k in 0..nb {
        let mut counts = vec![0usize; times.len()];
        for b in k + 1..nb {
            counts[dist.owner(b)] += 1;
        }
        let step = counts
            .iter()
            .zip(times)
            .map(|(&c, &t)| c as f64 * t)
            .fold(0.0, f64::max);
        total += step;
    }
    total
}

/// Brute-force optimal makespan (exponential; for tests only).
#[cfg(test)]
fn brute_force_makespan(times: &[f64], blocks: usize) -> f64 {
    fn rec(times: &[f64], i: usize, left: usize, current: f64) -> f64 {
        if i == times.len() - 1 {
            return current.max(left as f64 * times[i]);
        }
        let mut best = f64::INFINITY;
        for n in 0..=left {
            let m = rec(times, i + 1, left - n, current.max(n as f64 * times[i]));
            if m < best {
                best = m;
            }
        }
        best
    }
    rec(times, 0, blocks, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_is_optimal_small_instances() {
        let cases: &[(&[f64], usize)] = &[
            (&[1.0, 2.0], 7),
            (&[1.0, 3.0], 8),
            (&[1.0, 2.0, 3.0], 11),
            (&[0.3, 0.4, 0.9], 9),
            (&[1.0, 1.0, 1.0], 10),
            (&[2.5, 0.5, 1.5, 1.0], 8),
        ];
        for &(times, blocks) in cases {
            let alloc = allocate_1d(times, blocks);
            assert_eq!(alloc.counts.iter().sum::<usize>(), blocks);
            let greedy = alloc.makespan(times);
            let opt = brute_force_makespan(times, blocks);
            assert!(
                (greedy - opt).abs() < 1e-12,
                "greedy {} != opt {} for {:?} x {}",
                greedy,
                opt,
                times,
                blocks
            );
        }
    }

    #[test]
    fn fig4_column_pattern_abaaba() {
        // Section 3.2.2: the two grid columns of [[1,2],[3,5]] aggregate
        // (per panel column: 6 blocks at t=1 or 2, 2 blocks at t=3 or 5)
        // to cycle-times 3/20 and 5/17; the six panel columns are dealt
        // as A B A A B A.
        let ta = equivalent_cycle_time(&[(1.0, 6), (3.0, 2)]);
        let tb = equivalent_cycle_time(&[(2.0, 6), (5.0, 2)]);
        assert!((ta - 3.0 / 20.0).abs() < 1e-12);
        assert!((tb - 5.0 / 17.0).abs() < 1e-12);
        let alloc = allocate_1d(&[ta, tb], 6);
        assert_eq!(alloc.order, vec![0, 1, 0, 0, 1, 0], "expected ABAABA");
        assert_eq!(alloc.counts, vec![4, 2]);
    }

    #[test]
    fn kl_example_row_splits() {
        // Section 3.1.2 (Kalinov-Lastovetsky walk-through): column one has
        // cycle-times (1, 3) -> 3 rows out of 4 to the fast processor;
        // column two has (2, 5) -> 5 out of 7 to the faster one.
        let a = allocate_1d(&[1.0, 3.0], 4);
        assert_eq!(a.counts, vec![3, 1]);
        let b = allocate_1d(&[2.0, 5.0], 7);
        assert_eq!(b.counts, vec![5, 2]);
    }

    #[test]
    fn kl_example_column_split() {
        // The two grid columns act as processors of cycle-time
        // 2/(1/1 + 1/3) = 3/2 and 2/(1/2 + 1/5) = 20/7 (two processors
        // each, so the per-column equivalent for *matrix columns* keeps
        // the factor 2 of rows); out of 61 matrix columns, 40 go to the
        // first and 21 to the second.
        let t1 = 2.0 * equivalent_cycle_time(&[(1.0, 1), (3.0, 1)]);
        let t2 = 2.0 * equivalent_cycle_time(&[(2.0, 1), (5.0, 1)]);
        assert!((t1 - 1.5).abs() < 1e-12);
        assert!((t2 - 20.0 / 7.0).abs() < 1e-12);
        let a = allocate_1d(&[t1, t2], 61);
        assert_eq!(a.counts, vec![40, 21]);
    }

    #[test]
    fn homogeneous_alloc_is_cyclic() {
        let a = allocate_1d(&[1.0, 1.0, 1.0], 9);
        assert_eq!(a.counts, vec![3, 3, 3]);
        // Dealing order must cycle through the processors.
        assert_eq!(a.order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn zero_blocks_ok() {
        let a = allocate_1d(&[1.0, 2.0], 0);
        assert_eq!(a.counts, vec![0, 0]);
        assert!(a.order.is_empty());
        assert_eq!(a.makespan(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn oned_dist_periodic_ownership() {
        let d = OneDDist::new(&[1.0, 2.0], 3);
        // Greedy over 3 blocks with t = (1, 2): A A B? finishes 1, 2 vs
        // 2 -> A, then 2 vs 2 tie -> A (faster), then 3 vs 2 -> B.
        assert_eq!(d.pattern(), &[0, 0, 1]);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(3), 0);
        assert_eq!(d.owner(5), 1);
        assert_eq!(d.counts(6), vec![4, 2]);
    }

    #[test]
    fn oned_dist_covers_everyone() {
        // A very slow processor still gets a slot.
        let d = OneDDist::new(&[1.0, 1.0, 100.0], 3);
        let mut seen = [false; 3];
        for &o in d.pattern() {
            seen[o] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn interleaving_beats_contiguous_for_lu() {
        // Same counts, different order: the greedy (interleaved) pattern
        // must not lose to the contiguous one on the LU column model.
        let times = [1.0, 3.0];
        let nb = 24;
        let interleaved = OneDDist::new(&times, 4); // pattern AABA-like
        let contiguous = OneDDist {
            pattern: vec![0, 0, 0, 1],
            p: 2,
        };
        // Force genuinely contiguous vs interleaved patterns with the
        // same per-period counts.
        assert_eq!(interleaved.counts(4), contiguous.counts(4));
        let mi = lu_column_makespan(&interleaved, &times, nb);
        let mc = lu_column_makespan(&contiguous, &times, nb);
        assert!(mi <= mc + 1e-9, "interleaved {} > contiguous {}", mi, mc);
    }

    #[test]
    fn suffix_balanced_is_best_for_lu_columns() {
        // With skewed counts the suffix-balanced (reversed-greedy)
        // pattern must not lose to the prefix-greedy one on the LU
        // column model — and it wins strictly here.
        let times = [1.0, 3.0];
        let prefix = OneDDist::new(&times, 8);
        let suffix = OneDDist::new_suffix_balanced(&times, 8);
        assert_eq!(
            suffix.pattern().iter().rev().cloned().collect::<Vec<_>>(),
            prefix.pattern()
        );
        for nb in [8usize, 16, 40] {
            let mp = lu_column_makespan(&prefix, &times, nb);
            let ms = lu_column_makespan(&suffix, &times, nb);
            assert!(
                ms <= mp + 1e-9,
                "suffix {} > prefix {} at nb={}",
                ms,
                mp,
                nb
            );
        }
    }

    #[test]
    fn paper_abaaba_is_a_palindrome() {
        // Figure 4's pattern: prefix- and suffix-balanced coincide.
        let times = [3.0 / 20.0, 5.0 / 17.0];
        let prefix = OneDDist::new(&times, 6);
        let suffix = OneDDist::new_suffix_balanced(&times, 6);
        assert_eq!(prefix.pattern(), suffix.pattern());
        assert_eq!(prefix.pattern(), &[0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn lu_column_makespan_homogeneous_closed_form() {
        // p = 1: every step costs (nb - k - 1) * t.
        let d = OneDDist::new(&[2.0], 1);
        let nb = 6;
        let expect: f64 = (0..nb).map(|k| (nb - k - 1) as f64 * 2.0).sum();
        assert!((lu_column_makespan(&d, &[2.0], nb) - expect).abs() < 1e-12);
    }

    #[test]
    fn every_prefix_is_balanced() {
        // The dealing order makes every prefix a greedy-optimal allocation:
        // the defining property needed for LU's shrinking column space.
        let times = [0.2, 0.5, 0.9];
        let full = allocate_1d(&times, 20);
        for k in 0..=20 {
            let mut prefix_counts = vec![0usize; 3];
            for &o in &full.order[..k] {
                prefix_counts[o] += 1;
            }
            let prefix = allocate_1d(&times, k);
            assert_eq!(prefix_counts, prefix.counts, "prefix {} differs", k);
        }
    }
}
