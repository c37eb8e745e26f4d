//! Rank-1 cycle-time matrices (Section 4.3.2): the case where perfect
//! load balance is achievable, plus a practical factorization algorithm
//! deciding whether a *set* of cycle-times can be arranged as a rank-1
//! `p x q` matrix at all (the paper notes this is "very difficult" in
//! general; the multiset-factorization search below is exact and fast for
//! the grid sizes that occur in practice).

use crate::arrangement::Arrangement;
use crate::objective::Allocation;

/// Closed-form optimal shares for a rank-1 arrangement:
/// `r_i = 1/t_{i,1}`, `c_j = t_{1,1}/t_{1,j}` make every product
/// `r_i t_ij c_j` equal to 1, so every processor is busy 100% of the
/// time. Returns `None` if the arrangement is not rank-1 within `tol`.
pub fn rank1_allocation(arr: &Arrangement, tol: f64) -> Option<Allocation> {
    if !arr.is_rank1(tol) {
        return None;
    }
    let r: Vec<f64> = (0..arr.p()).map(|i| 1.0 / arr.time(i, 0)).collect();
    let c: Vec<f64> = (0..arr.q())
        .map(|j| arr.time(0, 0) / arr.time(0, j))
        .collect();
    Some(Allocation::new(r, c))
}

/// Tries to arrange the multiset `times` as a rank-1 `p x q` matrix
/// `t_ij = u_i * v_j`.
///
/// The search maintains the invariant that all products of the factors
/// found so far have been matched against the multiset. The smallest
/// unmatched value must then be (new smallest row factor) x (smallest
/// column factor) or vice versa — a two-way branch, at most
/// `2^(p+q-2)` paths, with heavy pruning from the product matching.
///
/// Returns a non-decreasing rank-1 [`Arrangement`] if one exists; its
/// processor ids are the indices into `times`.
pub fn try_rank1_arrangement(
    times: &[f64],
    p: usize,
    q: usize,
    rel_tol: f64,
) -> Option<Arrangement> {
    assert_eq!(times.len(), p * q, "try_rank1_arrangement: size mismatch");
    assert!(
        times.iter().all(|&t| t > 0.0 && t.is_finite()),
        "try_rank1_arrangement: cycle-times must be positive"
    );
    // Processor ids in non-decreasing cycle-time order.
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by(|&a, &b| times[a].partial_cmp(&times[b]).expect("NaN cycle-time"));
    let sorted: Vec<f64> = order.iter().map(|&k| times[k]).collect();

    // Multiset as a sorted vector + used flags.
    let mut used = vec![false; sorted.len()];

    // Gauge: u_0 = 1, v_0 = smallest value.
    let v0 = sorted[0];
    used[0] = true;
    let mut u = vec![1.0f64];
    let mut v = vec![v0];

    fn take(sorted: &[f64], used: &mut [bool], value: f64, rel_tol: f64) -> Option<usize> {
        // Find an unused element approximately equal to `value`.
        let mut best: Option<(usize, f64)> = None;
        for (k, &s) in sorted.iter().enumerate() {
            if used[k] {
                continue;
            }
            let err = (s - value).abs();
            if err <= rel_tol * value.max(s) && best.is_none_or(|(_, e)| err < e) {
                best = Some((k, err));
            }
        }
        best.map(|(k, _)| {
            used[k] = true;
            k
        })
    }

    fn untake(used: &mut [bool], k: usize) {
        used[k] = false;
    }

    fn first_unused(sorted: &[f64], used: &[bool]) -> Option<usize> {
        used.iter().position(|&b| !b).inspect(|_k| {
            let _ = sorted;
        })
    }

    fn rec(
        sorted: &[f64],
        used: &mut [bool],
        u: &mut Vec<f64>,
        v: &mut Vec<f64>,
        p: usize,
        q: usize,
        rel_tol: f64,
    ) -> bool {
        if u.len() == p && v.len() == q {
            return used.iter().all(|&b| b);
        }
        let Some(k0) = first_unused(sorted, used) else {
            return false;
        };
        let x = sorted[k0];

        // Branch A: x = u_new * v[0]  (a new row factor).
        if u.len() < p {
            let u_new = x / v[0];
            // All products u_new * v_j must be present.
            let mut taken = Vec::with_capacity(v.len());
            let mut ok = true;
            for &vj in v.iter() {
                match take(sorted, used, u_new * vj, rel_tol) {
                    Some(k) => taken.push(k),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                u.push(u_new);
                if rec(sorted, used, u, v, p, q, rel_tol) {
                    return true;
                }
                u.pop();
            }
            for k in taken {
                untake(used, k);
            }
        }

        // Branch B: x = u[0] * v_new = v_new  (a new column factor).
        if v.len() < q {
            let v_new = x;
            let mut taken = Vec::with_capacity(u.len());
            let mut ok = true;
            for &ui in u.iter() {
                match take(sorted, used, ui * v_new, rel_tol) {
                    Some(k) => taken.push(k),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                v.push(v_new);
                if rec(sorted, used, u, v, p, q, rel_tol) {
                    return true;
                }
                v.pop();
            }
            for k in taken {
                untake(used, k);
            }
        }
        false
    }

    if rec(&sorted, &mut used, &mut u, &mut v, p, q, rel_tol) {
        // Factors come out ascending by construction; build the matrix
        // from the *actual* multiset values so no precision is lost:
        // greedily match each u_i * v_j against the closest input value,
        // and seat the processor that value belongs to.
        u.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        let mut remaining = order;
        let mut grid = vec![0.0f64; p * q];
        let mut procs = vec![0; p * q];
        for i in 0..p {
            for j in 0..q {
                let target = u[i] * v[j];
                let (k, _) = remaining
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| (k, (times[id] - target).abs()))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN"))
                    .expect("remaining non-empty");
                procs[i * q + j] = remaining.remove(k);
                grid[i * q + j] = times[procs[i * q + j]];
            }
        }
        let arr = Arrangement::with_procs(p, q, grid, procs);
        debug_assert!(arr.is_nondecreasing());
        Some(arr)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::workload_matrix;

    #[test]
    fn fig1_rank1_closed_form() {
        // Figure 1: [[1,2],[3,6]]; r = (1, 1/3), c = (1, 1/2).
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let alloc = rank1_allocation(&arr, 1e-12).expect("rank-1");
        assert!((alloc.r[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((alloc.c[1] - 0.5).abs() < 1e-12);
        let b = workload_matrix(&arr, &alloc);
        for x in b.as_slice() {
            assert!((x - 1.0).abs() < 1e-12, "not perfectly balanced");
        }
    }

    #[test]
    fn non_rank1_returns_none() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        assert!(rank1_allocation(&arr, 1e-9).is_none());
    }

    #[test]
    fn factorization_finds_hidden_arrangement() {
        // u = (1, 2), v = (1, 3, 5): the sorted-row-major arrangement of
        // {1,2,3,5,6,10} is NOT rank-1, but a rank-1 arrangement exists.
        let times = [1.0, 2.0, 3.0, 5.0, 6.0, 10.0];
        let sorted = crate::arrangement::sorted_row_major(&times, 2, 3);
        assert!(!sorted.is_rank1(1e-9));
        let arr = try_rank1_arrangement(&times, 2, 3, 1e-9).expect("rank-1 arrangement exists");
        assert!(arr.is_rank1(1e-9));
        // It must use exactly the input multiset.
        let mut got: Vec<f64> = arr.times().to_vec();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, vec![1.0, 2.0, 3.0, 5.0, 6.0, 10.0]);
    }

    #[test]
    fn factorization_rejects_impossible_sets() {
        // {1,2,3,5}: 1*5 != 2*3 is fine, but no rank-1 2x2 arrangement:
        // any arrangement needs t11*t22 == t12*t21 for some pairing;
        // 1*5 != 2*3 (5 != 6), 1*3 != 2*5, 1*2 != 3*5 -> none.
        assert!(try_rank1_arrangement(&[1.0, 2.0, 3.0, 5.0], 2, 2, 1e-9).is_none());
    }

    #[test]
    fn factorization_accepts_fig1_set() {
        // Either [[1,2],[3,6]] or its transpose-flavor [[1,3],[2,6]] is a
        // valid rank-1 non-decreasing arrangement of this multiset.
        let times = [6.0, 1.0, 3.0, 2.0];
        let arr = try_rank1_arrangement(&times, 2, 2, 1e-9).expect("rank-1");
        assert!(arr.is_rank1(1e-12));
        assert!(arr.is_nondecreasing());
        let mut got: Vec<f64> = arr.times().to_vec();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, vec![1.0, 2.0, 3.0, 6.0]);
        // Each position seats the processor whose time it holds.
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(times[arr.proc(i, j)], arr.time(i, j), "({i}, {j})");
            }
        }
    }

    #[test]
    fn factorization_with_duplicates() {
        // u = (1, 1), v = (2, 2): all entries 2.
        let arr = try_rank1_arrangement(&[2.0, 2.0, 2.0, 2.0], 2, 2, 1e-9).expect("rank-1");
        assert!(arr.is_rank1(1e-12));
    }

    #[test]
    fn factorization_3x3_powers() {
        // u = (1, 2, 4), v = (1, 2, 4): products are powers of two with
        // multiplicity — a stress test for the multiset matching.
        let mut times = Vec::new();
        for a in [1.0, 2.0, 4.0] {
            for b in [1.0, 2.0, 4.0] {
                times.push(a * b);
            }
        }
        let arr = try_rank1_arrangement(&times, 3, 3, 1e-9).expect("rank-1");
        assert!(arr.is_rank1(1e-9));
    }

    #[test]
    fn rank1_arrangement_gives_ideal_objective() {
        // For a rank-1 arrangement the exact optimum equals the ideal
        // aggregate-rate bound: obj2 = sum(1/t) achieved... specifically
        // obj2 = (sum_i 1/u_i)(sum_j v0/v_j) with gauge; simply check the
        // exact solver agrees with the closed form.
        let arr = try_rank1_arrangement(&[1.0, 2.0, 3.0, 6.0], 2, 2, 1e-9).unwrap();
        let closed = rank1_allocation(&arr, 1e-9).unwrap();
        let exact = crate::exact::solve_arrangement(&arr);
        assert!((closed.obj2() - exact.obj2).abs() < 1e-9);
    }
}
