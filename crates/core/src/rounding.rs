//! Scaling the rational shares `r_i`, `c_j` to integer block counts
//! (Section 4.1: "we scale them by the factor N ... we may have to round
//! up some values, but we do so while preserving the relation
//! `sum r_i = sum c_j = N`").

use crate::arrangement::Arrangement;
use crate::objective::Allocation;

/// Largest-remainder (Hamilton) apportionment: integer counts
/// proportional to `weights`, summing exactly to `total`.
///
/// Deterministic: ties on remainders break toward the larger weight, then
/// the lower index.
///
/// # Panics
/// Panics if `weights` is empty or contains a non-positive value.
pub fn round_proportional(weights: &[f64], total: usize) -> Vec<usize> {
    assert!(!weights.is_empty(), "round_proportional: empty weights");
    assert!(
        weights.iter().all(|&w| w > 0.0 && w.is_finite()),
        "round_proportional: weights must be positive"
    );
    let sum: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w * total as f64 / sum).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|&x| x.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut leftovers: Vec<usize> = (0..weights.len()).collect();
    leftovers.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.partial_cmp(&ra)
            .expect("NaN quota")
            .then(weights[b].partial_cmp(&weights[a]).expect("NaN weight"))
            .then(a.cmp(&b))
    });
    for k in 0..total - assigned {
        counts[leftovers[k]] += 1;
    }
    counts
}

/// Integer row/column block counts for a panel of `bp x bq` blocks,
/// proportional to the allocation's shares, followed by a local-search
/// polish that minimizes the integer makespan
/// `max_ij rows_i * t_ij * cols_j` by moving single blocks between rows
/// (resp. columns) while it helps.
///
/// # Panics
/// Panics if the allocation does not match the arrangement, or `bp < p`
/// / `bq < q` would leave a row or column empty (a processor with zero
/// blocks would break the grid communication pattern).
pub fn integer_allocation(
    arr: &Arrangement,
    alloc: &Allocation,
    bp: usize,
    bq: usize,
) -> (Vec<usize>, Vec<usize>) {
    assert_eq!(alloc.r.len(), arr.p(), "integer_allocation: r mismatch");
    assert_eq!(alloc.c.len(), arr.q(), "integer_allocation: c mismatch");
    assert!(bp >= arr.p(), "integer_allocation: bp must be >= p");
    assert!(bq >= arr.q(), "integer_allocation: bq must be >= q");

    let mut rows = round_proportional(&alloc.r, bp);
    let mut cols = round_proportional(&alloc.c, bq);
    ensure_nonzero(&mut rows);
    ensure_nonzero(&mut cols);

    // Local search: try moving one block between any pair of rows, then
    // any pair of columns; accept strictly improving moves. A move
    // changes two lines, so it is priced from the lines' maxima, not by
    // a full `t_exe`: the same products, so the same value bit for bit.
    let (p, q) = (arr.p(), arr.q());
    loop {
        // Row i's maximum `max_j fl(fl(r t_ij) c_j)` at count `r`.
        let row = |i: usize, r: usize| {
            (0..q).fold(0.0, |m: f64, j| {
                m.max(r as f64 * arr.time(i, j) * cols[j] as f64)
            })
        };
        let at = |delta: isize| -> Vec<f64> {
            (0..p)
                .map(|i| row(i, rows[i].saturating_add_signed(delta)))
                .collect()
        };
        let (now, down, up) = (at(0), at(-1), at(1));
        let moved_row = first_move(&mut rows, &now, &down, &up);
        // Column j's products are `fl(x_ij c_j)` with `x_ij = fl(r_i
        // t_ij)`; rounding is monotone and `c_j > 0`, so their maximum
        // is `fl(max_i x_ij c_j)`.
        let x: Vec<f64> = (0..q)
            .map(|j| (0..p).fold(0.0, |m: f64, i| m.max(rows[i] as f64 * arr.time(i, j))))
            .collect();
        let at = |delta: isize| -> Vec<f64> {
            (0..q)
                .map(|j| x[j] * cols[j].saturating_add_signed(delta) as f64)
                .collect()
        };
        let (now, down, up) = (at(0), at(-1), at(1));
        let moved_col = first_move(&mut cols, &now, &down, &up);
        if !moved_row && !moved_col {
            return (rows, cols);
        }
    }
}

/// The local search's pass over the rows or the columns: makes the
/// first move of one block from line `a` to line `b`, in `(a, b)`
/// order, whose makespan is below the current one, and says whether it
/// moved. `now[i]` is line `i`'s maximum product, `down[i]` / `up[i]`
/// its maximum with one block less / more; the makespan after a move
/// is the largest of `down[a]`, `up[b]` and the other lines' `now`.
fn first_move(counts: &mut [usize], now: &[f64], down: &[f64], up: &[f64]) -> bool {
    let current = now.iter().fold(0.0, |m: f64, &v| m.max(v));
    // The three largest lines: one of them is neither `a` nor `b`.
    let mut top: Vec<(f64, usize)> = now.iter().copied().zip(0..).collect();
    top.sort_by(|x, y| y.0.total_cmp(&x.0));
    top.truncate(3);
    for a in 0..counts.len() {
        for b in 0..counts.len() {
            if a == b || counts[a] <= 1 {
                continue;
            }
            let rest = top.iter().find(|&&(_, i)| i != a && i != b);
            let makespan = rest.map_or(0.0, |&(v, _)| v).max(down[a]).max(up[b]);
            if makespan < current - 1e-15 {
                counts[a] -= 1;
                counts[b] += 1;
                return true;
            }
        }
    }
    false
}

/// Bumps zero counts to one, taking blocks from the largest counts (every
/// grid row/column must own at least one block row/column).
fn ensure_nonzero(counts: &mut [usize]) {
    loop {
        let Some(zero) = counts.iter().position(|&c| c == 0) else {
            return;
        };
        let donor = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .expect("non-empty");
        assert!(
            counts[donor] > 1,
            "not enough blocks to cover every row/column"
        );
        counts[donor] -= 1;
        counts[zero] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::t_exe;

    #[test]
    fn exact_proportions_are_preserved() {
        // Figure 1 shares: r = (1, 1/3) over 4 -> (3, 1); c = (1, 1/2)
        // over 3 -> (2, 1).
        assert_eq!(round_proportional(&[1.0, 1.0 / 3.0], 4), vec![3, 1]);
        assert_eq!(round_proportional(&[1.0, 0.5], 3), vec![2, 1]);
    }

    #[test]
    fn fig4_panel_counts() {
        // Section 3.2.2: same shares, Bp = 8 -> (6, 2); Bq = 6 -> (4, 2).
        assert_eq!(round_proportional(&[1.0, 1.0 / 3.0], 8), vec![6, 2]);
        assert_eq!(round_proportional(&[1.0, 0.5], 6), vec![4, 2]);
    }

    #[test]
    fn sums_always_exact() {
        let weights = [0.123, 0.456, 0.789, 0.321, 0.654];
        for total in [1usize, 5, 17, 100, 1001] {
            let counts = round_proportional(&weights, total);
            assert_eq!(counts.iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let counts = round_proportional(&[1.0; 4], 8);
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn integer_allocation_matches_paper_examples() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let exact = crate::exact::solve_arrangement(&arr);
        let (rows, cols) = integer_allocation(&arr, &exact.alloc, 8, 6);
        assert_eq!(rows, vec![6, 2]);
        assert_eq!(cols, vec![4, 2]);
    }

    #[test]
    fn integer_allocation_keeps_everyone_nonzero() {
        // Extremely skewed shares still leave one block per row.
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1000.0, 1000.0]]);
        let alt = crate::alternating::optimize(&arr, 1000);
        let (rows, cols) = integer_allocation(&arr, &alt.alloc, 4, 4);
        assert!(rows.iter().all(|&x| x >= 1));
        assert!(cols.iter().all(|&x| x >= 1));
        assert_eq!(rows.iter().sum::<usize>(), 4);
        assert_eq!(cols.iter().sum::<usize>(), 4);
    }

    #[test]
    fn local_search_does_not_worsen() {
        let arr = Arrangement::from_rows(&[vec![0.2, 0.9], vec![0.5, 1.0]]);
        let alt = crate::alternating::optimize(&arr, 1000);
        let naive_rows = round_proportional(&alt.alloc.r, 10);
        let naive_cols = round_proportional(&alt.alloc.c, 10);
        let (rows, cols) = integer_allocation(&arr, &alt.alloc, 10, 10);
        assert!(
            crate::objective::t_exe(&arr, &rows, &cols)
                <= crate::objective::t_exe(&arr, &naive_rows, &naive_cols) + 1e-12
        );
    }

    /// The local search as it priced every try with a full `t_exe`.
    fn integer_allocation_oracle(
        arr: &Arrangement,
        alloc: &Allocation,
        bp: usize,
        bq: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut rows = round_proportional(&alloc.r, bp);
        let mut cols = round_proportional(&alloc.c, bq);
        ensure_nonzero(&mut rows);
        ensure_nonzero(&mut cols);
        let mut improved = true;
        while improved {
            improved = false;
            let current = t_exe(arr, &rows, &cols);
            'rows: for a in 0..rows.len() {
                for b in 0..rows.len() {
                    if a == b || rows[a] <= 1 {
                        continue;
                    }
                    rows[a] -= 1;
                    rows[b] += 1;
                    if t_exe(arr, &rows, &cols) < current - 1e-15 {
                        improved = true;
                        break 'rows;
                    }
                    rows[a] += 1;
                    rows[b] -= 1;
                }
            }
            let current = t_exe(arr, &rows, &cols);
            'cols: for a in 0..cols.len() {
                for b in 0..cols.len() {
                    if a == b || cols[a] <= 1 {
                        continue;
                    }
                    cols[a] -= 1;
                    cols[b] += 1;
                    if t_exe(arr, &rows, &cols) < current - 1e-15 {
                        improved = true;
                        break 'cols;
                    }
                    cols[a] += 1;
                    cols[b] -= 1;
                }
            }
        }
        (rows, cols)
    }

    /// Random arrangements, shares and panel sizes, the shares both the
    /// solver's and arbitrary ones: the same counts as the oracle.
    #[test]
    fn integer_allocation_matches_the_full_pricing_oracle() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x7e_ba1a);
        for case in 0..400 {
            let (p, q) = (rng.gen_range(1..=5), rng.gen_range(1..=5));
            let rows: Vec<Vec<f64>> = (0..p)
                .map(|_| (0..q).map(|_| rng.gen_range(0.1..10.0)).collect())
                .collect();
            let arr = Arrangement::from_rows(&rows);
            let alloc = if case % 2 == 0 {
                crate::alternating::optimize(&arr, 200).alloc
            } else {
                Allocation {
                    r: (0..p).map(|_| rng.gen_range(0.05..1.0)).collect(),
                    c: (0..q).map(|_| rng.gen_range(0.05..1.0)).collect(),
                }
            };
            let (bp, bq) = (rng.gen_range(p..=6 * p), rng.gen_range(q..=6 * q));
            assert_eq!(
                integer_allocation(&arr, &alloc, bp, bq),
                integer_allocation_oracle(&arr, &alloc, bp, bq),
                "case {case}: {p}x{q}, {bp}x{bq}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        round_proportional(&[1.0, 0.0], 3);
    }
}
