//! The polynomial heuristic of Section 4.4: rank-1 approximation via SVD
//! plus iterative re-arrangement.
//!
//! One *step* of the heuristic, for a fixed arrangement `T`:
//!
//! 1. form `T^inv = (1/t_ij)` and take its largest singular triple
//!    `(s, a, b)` — `s a b^T` is the best rank-1 approximation of
//!    `T^inv`;
//! 2. seed `r_i = s * a_i`, `c_j = b_j` and *normalize* so that every
//!    product `r_i t_ij c_j <= 1` with an equality in every row and every
//!    column. (Normalization is the alternating max-scaling of
//!    [`crate::alternating`] run to its fixpoint; a single
//!    column-then-row pass — the literal reading of the paper — is
//!    available as [`NormalizeMode::SinglePass`] for ablation.)
//!
//! The *iterative refinement* of Section 4.4.3 then computes
//! `T_opt = (1/(r_i c_j))` — the rank-1 cycle-time matrix the shares are
//! perfect for — and re-sorts the actual cycle-times into the grid in the
//! rank order of `T_opt`, repeating the step until the arrangement stops
//! changing.

use crate::arrangement::{sorted_row_major, Arrangement};
use crate::objective::{average_workload, Allocation};
use hetgrid_linalg::top_singular_triple;

/// How to normalize the SVD seed into a feasible, tight allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NormalizeMode {
    /// Alternate column/row max-scaling to the fixpoint (every row *and*
    /// column tight). This is what the paper's worked example reports.
    Fixpoint,
    /// One column pass then one row pass, exactly as the text describes.
    /// May leave some column constraints slack; kept for ablation.
    SinglePass,
}

/// Options for [`solve`].
#[derive(Clone, Copy, Debug)]
pub struct HeuristicOptions {
    /// Maximum number of refinement steps (arrangement re-sorts).
    pub max_steps: usize,
    /// Normalization variant.
    pub normalize: NormalizeMode,
}

impl Default for HeuristicOptions {
    fn default() -> Self {
        HeuristicOptions {
            max_steps: 200,
            normalize: NormalizeMode::Fixpoint,
        }
    }
}

/// One evaluation round of the heuristic.
#[derive(Clone, Debug)]
pub struct HeuristicStep {
    /// Arrangement used in this round.
    pub arrangement: Arrangement,
    /// Normalized shares produced by the SVD step.
    pub alloc: Allocation,
    /// Objective value `(sum r)(sum c)`.
    pub obj2: f64,
    /// Mean of the workload matrix `B` (Figure 6's quantity).
    pub average_workload: f64,
}

/// Full trace of the heuristic run.
#[derive(Clone, Debug)]
pub struct HeuristicResult {
    /// Every evaluation round, in order. Non-empty.
    pub steps: Vec<HeuristicStep>,
    /// `true` if the arrangement reached a fixed point (no change).
    pub converged: bool,
    /// `true` if the run stopped because an arrangement repeated
    /// non-consecutively (a cycle), rather than converging.
    pub cycled: bool,
}

impl HeuristicResult {
    /// Number of steps performed (Figure 8's quantity).
    pub fn iterations(&self) -> usize {
        self.steps.len()
    }

    /// The first step (before any refinement).
    pub fn first(&self) -> &HeuristicStep {
        &self.steps[0]
    }

    /// The best step by objective value (the returned solution).
    pub fn best(&self) -> &HeuristicStep {
        self.steps
            .iter()
            .max_by(|a, b| a.obj2.partial_cmp(&b.obj2).expect("NaN obj2"))
            .expect("non-empty steps")
    }

    /// The last step (the converged state when `converged`).
    pub fn last(&self) -> &HeuristicStep {
        self.steps.last().expect("non-empty steps")
    }

    /// Figure 7's refinement gain
    /// `tau = obj2(converged) / obj2(first step) - 1`.
    pub fn tau(&self) -> f64 {
        self.last().obj2 / self.first().obj2 - 1.0
    }
}

/// Runs one SVD step for a *fixed* arrangement: best rank-1 approximation
/// of `T^inv`, seeded shares, then normalization.
pub fn solve_arrangement(arr: &Arrangement, mode: NormalizeMode) -> Allocation {
    let tinv = arr.inverse_times();
    let (s, a, b) = top_singular_triple(&tinv);
    // Guard: singular vectors of a positive matrix are positive, but
    // numerical noise could produce tiny non-positive entries.
    let r0: Vec<f64> = a.iter().map(|&x| (s * x).max(1e-300)).collect();
    match mode {
        NormalizeMode::Fixpoint => crate::alternating::optimize_from(arr, &r0, 10_000).alloc,
        NormalizeMode::SinglePass => {
            let (p, q) = (arr.p(), arr.q());
            let mut c: Vec<f64> = b.iter().map(|&x| x.max(1e-300)).collect();
            // Column pass: divide c_j by the max of column j of the
            // product matrix.
            for (j, cj) in c.iter_mut().enumerate() {
                let m = (0..p)
                    .map(|i| r0[i] * arr.time(i, j) * *cj)
                    .fold(0.0f64, f64::max);
                *cj /= m;
            }
            // Row pass: divide r_i by the max of row i.
            let mut r = r0;
            for (i, ri) in r.iter_mut().enumerate() {
                let m = (0..q)
                    .map(|j| *ri * arr.time(i, j) * c[j])
                    .fold(0.0f64, f64::max);
                *ri /= m;
            }
            Allocation::new(r, c)
        }
    }
}

/// The rank-1 "optimal" cycle-time matrix implied by shares:
/// `T_opt = (1 / (r_i c_j))` (Section 4.4.3).
pub fn t_opt(alloc: &Allocation) -> Vec<Vec<f64>> {
    alloc
        .r
        .iter()
        .map(|&ri| alloc.c.iter().map(|&cj| 1.0 / (ri * cj)).collect())
        .collect()
}

/// Re-sorts the cycle-times of `arr` into the grid so their rank order
/// matches the rank order of `T_opt` entries. Ties in `T_opt` are broken
/// by row-major position, making the refinement deterministic.
fn rearrange(arr: &Arrangement, alloc: &Allocation) -> Arrangement {
    let (p, q) = (arr.p(), arr.q());
    // Sort grid positions by T_opt value.
    let mut positions: Vec<usize> = (0..p * q).collect();
    let topt: Vec<f64> = (0..p * q)
        .map(|k| 1.0 / (alloc.r[k / q] * alloc.c[k % q]))
        .collect();
    positions.sort_by(|&a, &b| {
        topt[a]
            .partial_cmp(&topt[b])
            .expect("NaN in T_opt")
            .then(a.cmp(&b))
    });
    // Sort the (time, proc) pairs ascending by time (stable).
    let mut pairs: Vec<(f64, usize)> = (0..p * q)
        .map(|k| (arr.time(k / q, k % q), arr.proc(k / q, k % q)))
        .collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN cycle-time"));

    let mut times = vec![0.0f64; p * q];
    let mut procs = vec![0usize; p * q];
    for (rank, &pos) in positions.iter().enumerate() {
        times[pos] = pairs[rank].0;
        procs[pos] = pairs[rank].1;
    }
    Arrangement::with_procs(p, q, times, procs)
}

/// Runs the full heuristic: sorted-row-major start, SVD step, iterative
/// refinement until the arrangement is stable (or cycles / hits the step
/// limit).
///
/// # Panics
/// Panics if `times.len() != p * q` or a cycle-time is not positive.
pub fn solve(times: &[f64], p: usize, q: usize, opts: HeuristicOptions) -> HeuristicResult {
    let mut arr = sorted_row_major(times, p, q);
    let mut steps = Vec::new();
    let mut seen: Vec<Vec<u64>> = Vec::new(); // bit patterns of past arrangements
    let key = |a: &Arrangement| -> Vec<u64> { a.times().iter().map(|t| t.to_bits()).collect() };
    seen.push(key(&arr));

    let mut converged = false;
    let mut cycled = false;
    for _ in 0..opts.max_steps {
        let alloc = solve_arrangement(&arr, opts.normalize);
        let obj2 = alloc.obj2();
        let avg = average_workload(&arr, &alloc);
        steps.push(HeuristicStep {
            arrangement: arr.clone(),
            alloc: alloc.clone(),
            obj2,
            average_workload: avg,
        });

        let next = rearrange(&arr, &alloc);
        if next.times() == arr.times() {
            converged = true;
            break;
        }
        let k = key(&next);
        if seen.contains(&k) {
            cycled = true;
            break;
        }
        seen.push(k);
        arr = next;
    }
    HeuristicResult {
        steps,
        converged,
        cycled,
    }
}

/// Convenience: run with default options.
pub fn solve_default(times: &[f64], p: usize, q: usize) -> HeuristicResult {
    solve(times, p, q, HeuristicOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{is_feasible, workload_matrix};

    const PAPER_T: [f64; 9] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];

    /// E5 — Section 4.4.2 worked example: first step on T = `[[1..9]]`.
    #[test]
    fn paper_3x3_first_step() {
        let res = solve_default(&PAPER_T, 3, 3);
        let first = res.first();
        // r = (1.1661, 0.3675, 0.2100), c = (0.6803, 0.4288, 0.2859).
        let r_expect = [1.1661, 0.3675, 0.2100];
        let c_expect = [0.6803, 0.4288, 0.2859];
        for i in 0..3 {
            assert!(
                (first.alloc.r[i] - r_expect[i]).abs() < 2e-3,
                "r[{}] = {} != {}",
                i,
                first.alloc.r[i],
                r_expect[i]
            );
            assert!(
                (first.alloc.c[i] - c_expect[i]).abs() < 2e-3,
                "c[{}] = {} != {}",
                i,
                first.alloc.c[i],
                c_expect[i]
            );
        }
        // B matrix of the paper.
        let b = workload_matrix(&first.arrangement, &first.alloc);
        let b_expect = [
            [0.7933, 1.0, 1.0],
            [1.0, 0.7879, 0.6303],
            [1.0, 0.7203, 0.5402],
        ];
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (b[(i, j)] - b_expect[i][j]).abs() < 2e-3,
                    "B[{}][{}] = {} != {}",
                    i,
                    j,
                    b[(i, j)],
                    b_expect[i][j]
                );
            }
        }
        // Mean workload 0.8302 and objective 2.4322.
        assert!((first.average_workload - 0.8302).abs() < 2e-3);
        assert!((first.obj2 - 2.4322).abs() < 2e-3);
    }

    /// E6 — Section 4.4.3: the refinement trace on T = `[[1..9]]`.
    #[test]
    fn paper_3x3_refinement() {
        let res = solve_default(&PAPER_T, 3, 3);
        assert!(res.converged, "refinement did not converge");
        // The paper reports convergence in 3 steps; a near-tie in the
        // T_opt ranking (10.154 vs 10.155) makes our trajectory insert
        // one extra intermediate arrangement. Allow a small slack but
        // require the same start, second step, and fixed point.
        assert!(
            (3..=5).contains(&res.iterations()),
            "unexpected iteration count {}",
            res.iterations()
        );
        // Step 2 arrangement [[1,2,3],[4,5,7],[6,8,9]], obj 2.5065.
        assert_eq!(
            res.steps[1].arrangement.times(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 6.0, 8.0, 9.0]
        );
        assert!((res.steps[1].obj2 - 2.5065).abs() < 2e-3);
        // Converged arrangement [[1,2,3],[4,6,8],[5,7,9]], obj 2.5889.
        assert_eq!(
            res.last().arrangement.times(),
            &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 5.0, 7.0, 9.0]
        );
        assert!((res.last().obj2 - 2.5889).abs() < 2e-3);
        // tau for this instance: 2.5889 / 2.4322 - 1.
        assert!((res.tau() - (2.5889 / 2.4322 - 1.0)).abs() < 2e-3);
    }

    /// The T_opt matrix printed in the paper after the first step.
    #[test]
    fn paper_3x3_t_opt() {
        let res = solve_default(&PAPER_T, 3, 3);
        let first = res.first();
        let topt = t_opt(&first.alloc);
        let expect = [
            [1.2606, 2.0, 3.0],
            [4.0, 6.3464, 9.5195],
            [7.0, 11.1061, 16.6592],
        ];
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (topt[i][j] - expect[i][j]).abs() < 2e-2,
                    "T_opt[{}][{}] = {} != {}",
                    i,
                    j,
                    topt[i][j],
                    expect[i][j]
                );
            }
        }
    }

    #[test]
    fn allocations_always_feasible_and_tight() {
        let times = [0.31, 0.77, 0.53, 0.99, 0.12, 0.44];
        let res = solve_default(&times, 2, 3);
        for step in &res.steps {
            assert!(is_feasible(&step.arrangement, &step.alloc, 1e-9));
            let b = workload_matrix(&step.arrangement, &step.alloc);
            for i in 0..2 {
                let m = (0..3).map(|j| b[(i, j)]).fold(0.0f64, f64::max);
                assert!((m - 1.0).abs() < 1e-8, "row {} not tight", i);
            }
            for j in 0..3 {
                let m = (0..2).map(|i| b[(i, j)]).fold(0.0f64, f64::max);
                assert!((m - 1.0).abs() < 1e-8, "col {} not tight", j);
            }
        }
    }

    #[test]
    fn rank1_times_solved_perfectly_in_one_step() {
        // Outer-product times: heuristic must reach workload 1 everywhere.
        let u = [1.0, 2.0];
        let v = [1.0, 3.0, 5.0];
        let mut times = Vec::new();
        for &a in &u {
            for &b in &v {
                times.push(a * b);
            }
        }
        let res = solve_default(&times, 2, 3);
        let best = res.best();
        // The heuristic is not guaranteed to discover the hidden rank-1
        // arrangement (its start is sorted-row-major, which is not
        // rank-1 here), but it must come close to full utilization.
        assert!(
            best.average_workload > 0.85,
            "workload {}",
            best.average_workload
        );
        // With the rank-1 arrangement given directly, one step suffices.
        let arr = crate::rank1::try_rank1_arrangement(&times, 2, 3, 1e-9).unwrap();
        let alloc = solve_arrangement(&arr, NormalizeMode::Fixpoint);
        let avg = crate::objective::average_workload(&arr, &alloc);
        assert!((avg - 1.0).abs() < 1e-6, "rank-1 workload {}", avg);
    }

    #[test]
    fn heuristic_never_beats_exact_but_gets_close() {
        let times = [1.0, 2.0, 3.0, 5.0];
        let res = solve_default(&times, 2, 2);
        let exact = crate::exact::solve_global(&times, 2, 2);
        let h = res.best().obj2;
        assert!(
            h <= exact.obj2 + 1e-9,
            "heuristic {} > exact {}",
            h,
            exact.obj2
        );
        assert!(
            h >= 0.85 * exact.obj2,
            "heuristic too far off: {} vs {}",
            h,
            exact.obj2
        );
    }

    /// One processor `1/s` times faster than three others: the squared
    /// entries of `T^inv`'s power iteration pass `f64::MAX` from about
    /// `s = 1e-77` on, and the heuristic must still find the optimum.
    #[test]
    fn one_very_fast_processor_matches_exact() {
        for s in [1e-80, 1e-150] {
            let times = [s, 1.0, 1.0, 1.0];
            let h = solve_default(&times, 2, 2).best().obj2;
            let exact = crate::exact::solve_global(&times, 2, 2).obj2;
            assert!(
                ((h - exact) / exact).abs() <= 1e-9,
                "s {s:e}: heuristic {h:e}, exact {exact:e}"
            );
        }
    }

    #[test]
    fn homogeneous_converges_immediately() {
        let times = [2.0; 6];
        let res = solve_default(&times, 2, 3);
        assert!(res.converged);
        assert_eq!(res.iterations(), 1);
        assert!((res.best().average_workload - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_pass_mode_is_feasible() {
        let times = [0.31, 0.77, 0.53, 0.99, 0.12, 0.44];
        let opts = HeuristicOptions {
            normalize: NormalizeMode::SinglePass,
            ..Default::default()
        };
        let res = solve(&times, 2, 3, opts);
        for step in &res.steps {
            assert!(is_feasible(&step.arrangement, &step.alloc, 1e-9));
        }
        // Fixpoint mode is a coordinate ascent from the single-pass state,
        // so it can only improve the first-step objective.
        let res_fix = solve_default(&times, 2, 3);
        assert!(res_fix.first().obj2 >= res.first().obj2 - 1e-9);
    }

    #[test]
    fn step_limit_respected() {
        let times = [0.9, 0.4, 0.7, 0.2, 0.5, 0.8, 0.3, 0.6, 0.1];
        let opts = HeuristicOptions {
            max_steps: 1,
            ..Default::default()
        };
        let res = solve(&times, 3, 3, opts);
        assert_eq!(res.iterations(), 1);
    }
}
