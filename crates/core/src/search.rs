//! Metaheuristic arrangement search: swap-based local search and
//! simulated annealing over processor placements.
//!
//! The paper conjectures the 2D load-balancing decision problem is
//! NP-complete (Section 4.1) and offers an exponential exact search plus
//! the polynomial SVD heuristic. This module adds the natural third
//! option: neighbourhood search over arrangements, with the fast
//! alternating fixpoint of [`crate::alternating`] as the evaluator.
//! It is used in the benches as an ablation against the SVD heuristic
//! (see DESIGN.md).

use crate::alternating;
use crate::arrangement::{sorted_row_major, Arrangement};
use crate::objective::Allocation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How each candidate arrangement is scored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evaluator {
    /// Alternating fixpoint from a uniform start — cheapest, may settle
    /// in a suboptimal fixpoint.
    Alternating,
    /// One SVD step + fixpoint normalization (the heuristic's inner
    /// solver) — better seeds, still polynomial. The default.
    SvdSeeded,
    /// The exact spanning-tree solver — exponential; only for grids
    /// within [`crate::exact::solve_arrangement`]'s limits.
    Exact,
}

/// Options for [`local_search`] and [`anneal`].
#[derive(Clone, Copy, Debug)]
pub struct SearchOptions {
    /// Maximum sweeps of the alternating evaluator per arrangement.
    pub eval_sweeps: usize,
    /// Random restarts (local search) / chain length factor (annealing).
    pub restarts: usize,
    /// RNG seed for restarts and annealing proposals.
    pub seed: u64,
    /// Scoring method per candidate arrangement.
    pub evaluator: Evaluator,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            eval_sweeps: 500,
            restarts: 3,
            seed: 0x5EA_12C4,
            evaluator: Evaluator::SvdSeeded,
        }
    }
}

/// Result of a metaheuristic search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Best arrangement found.
    pub arrangement: Arrangement,
    /// Its alternating-fixpoint allocation.
    pub alloc: Allocation,
    /// Its objective `(sum r)(sum c)`.
    pub obj2: f64,
    /// Number of arrangements evaluated.
    pub evaluations: u64,
}

fn evaluate(arr: &Arrangement, opts: &SearchOptions) -> (Allocation, f64) {
    let alloc = match opts.evaluator {
        Evaluator::Alternating => alternating::optimize(arr, opts.eval_sweeps).alloc,
        Evaluator::SvdSeeded => {
            crate::heuristic::solve_arrangement(arr, crate::heuristic::NormalizeMode::Fixpoint)
        }
        Evaluator::Exact => crate::exact::solve_arrangement(arr).alloc,
    };
    let obj = alloc.obj2();
    (alloc, obj)
}

fn swap_positions(arr: &Arrangement, a: usize, b: usize) -> Arrangement {
    let (p, q) = (arr.p(), arr.q());
    let mut times: Vec<f64> = arr.times().to_vec();
    let mut procs: Vec<usize> = (0..p * q).map(|k| arr.proc(k / q, k % q)).collect();
    times.swap(a, b);
    procs.swap(a, b);
    Arrangement::with_procs(p, q, times, procs)
}

/// Derives an independent per-restart seed so restarts can run in any
/// order (or concurrently) and still be reproducible.
fn restart_seed(seed: u64, restart: usize) -> u64 {
    seed ^ (restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One hill-climbing descent from a fixed start; returns the local
/// optimum and how many arrangements it evaluated.
fn climb(mut current: Arrangement, opts: &SearchOptions) -> (SearchResult, u64) {
    let n = current.p() * current.q();
    let (mut cur_alloc, mut cur_obj) = evaluate(&current, opts);
    let mut evaluations = 1u64;
    loop {
        let mut improved: Option<(Arrangement, Allocation, f64)> = None;
        for a in 0..n {
            for b in a + 1..n {
                if current.times()[a] == current.times()[b] {
                    continue; // identical processors: no-op swap
                }
                let cand = swap_positions(&current, a, b);
                let (alloc, obj) = evaluate(&cand, opts);
                evaluations += 1;
                if obj > cur_obj + 1e-12 && improved.as_ref().is_none_or(|(_, _, o)| obj > *o) {
                    improved = Some((cand, alloc, obj));
                }
            }
        }
        match improved {
            Some((cand, alloc, obj)) => {
                current = cand;
                cur_alloc = alloc;
                cur_obj = obj;
            }
            None => break,
        }
    }
    (
        SearchResult {
            arrangement: current,
            alloc: cur_alloc,
            obj2: cur_obj,
            evaluations: 0,
        },
        evaluations,
    )
}

/// Hill-climbing over pairwise swaps of grid positions, with random
/// restarts. Each restart shuffles the placement, then applies
/// best-improvement swaps until no swap helps. Restarts are independent
/// (each has its own derived RNG seed) and run concurrently through
/// [`hetgrid_par::parallel_map`]; results are reduced deterministically
/// in restart order, so the answer does not depend on the thread count.
///
/// # Panics
/// Panics if `times.len() != p * q`.
pub fn local_search(times: &[f64], p: usize, q: usize, opts: SearchOptions) -> SearchResult {
    assert_eq!(times.len(), p * q, "local_search: size mismatch");
    let n = p * q;

    // Build every restart's starting arrangement up front: restart 0 is
    // the canonical sorted arrangement, later ones random shuffles.
    let starts: Vec<Arrangement> = (0..=opts.restarts)
        .map(|restart| {
            if restart == 0 {
                sorted_row_major(times, p, q)
            } else {
                let mut rng = StdRng::seed_from_u64(restart_seed(opts.seed, restart));
                let mut idx: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    let j = rng.gen_range(0..=i);
                    idx.swap(i, j);
                }
                let t: Vec<f64> = idx.iter().map(|&k| times[k]).collect();
                Arrangement::with_procs(p, q, t, idx)
            }
        })
        .collect();

    let outcomes = hetgrid_par::parallel_map(starts, |start| climb(start, &opts));

    let mut evaluations = 0u64;
    let mut best: Option<SearchResult> = None;
    for (result, evals) in outcomes {
        evaluations += evals;
        if best.as_ref().is_none_or(|b| result.obj2 > b.obj2) {
            best = Some(result);
        }
    }
    let mut out = best.expect("at least one restart ran");
    out.evaluations = evaluations;
    out
}

/// One annealing chain of `n^2 * 4` steps from the sorted arrangement
/// with the given seed.
fn anneal_chain(
    times: &[f64],
    p: usize,
    q: usize,
    opts: &SearchOptions,
    seed: u64,
) -> (SearchResult, u64) {
    let n = p * q;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = sorted_row_major(times, p, q);
    let (mut cur_alloc, mut cur_obj) = evaluate(&current, opts);
    let mut evaluations = 1u64;

    let mut best = SearchResult {
        arrangement: current.clone(),
        alloc: cur_alloc.clone(),
        obj2: cur_obj,
        evaluations: 0,
    };

    let steps = n * n * 4;
    let t0 = (cur_obj * 0.05).max(1e-6);
    for step in 0..steps {
        let temp = t0 * (1.0 - step as f64 / steps as f64).max(1e-9);
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        if a == b {
            b = (b + 1) % n;
        }
        if current.times()[a] == current.times()[b] {
            continue;
        }
        let cand = swap_positions(&current, a, b);
        let (alloc, obj) = evaluate(&cand, opts);
        evaluations += 1;
        let delta = obj - cur_obj;
        if delta >= 0.0 || rng.gen::<f64>() < (delta / temp).exp() {
            current = cand;
            cur_alloc = alloc;
            cur_obj = obj;
            if cur_obj > best.obj2 {
                best = SearchResult {
                    arrangement: current.clone(),
                    alloc: cur_alloc.clone(),
                    obj2: cur_obj,
                    evaluations: 0,
                };
            }
        }
    }
    let _ = cur_alloc;
    (best, evaluations)
}

/// Simulated annealing over random swaps with geometric cooling. Accepts
/// worse moves with probability `exp(delta / T)`; each chain cools from
/// the observed objective scale to near zero over `n^2 * 4` steps.
/// `opts.restarts.max(1)` independent chains (distinct derived seeds)
/// run concurrently through [`hetgrid_par::parallel_map`] and the best
/// chain wins; the reduction is in chain order, so the result does not
/// depend on the thread count.
///
/// # Panics
/// Panics if `times.len() != p * q`.
pub fn anneal(times: &[f64], p: usize, q: usize, opts: SearchOptions) -> SearchResult {
    assert_eq!(times.len(), p * q, "anneal: size mismatch");
    let chains = opts.restarts.max(1);
    let seeds: Vec<u64> = (0..chains)
        .map(|c| restart_seed(opts.seed ^ 0xA44EA1, c))
        .collect();
    let outcomes = hetgrid_par::parallel_map(seeds, |seed| anneal_chain(times, p, q, &opts, seed));

    let mut evaluations = 0u64;
    let mut best: Option<SearchResult> = None;
    for (result, evals) in outcomes {
        evaluations += evals;
        if best.as_ref().is_none_or(|b| result.obj2 > b.obj2) {
            best = Some(result);
        }
    }
    let mut out = best.expect("at least one chain ran");
    out.evaluations = evaluations;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::is_feasible;

    #[test]
    fn local_search_matches_exact_on_2x2() {
        for times in [
            [1.0, 2.0, 3.0, 5.0],
            [0.3, 0.9, 0.4, 0.7],
            [1.0, 1.0, 1.0, 10.0],
        ] {
            let global = crate::exact::solve_global(&times, 2, 2);
            let ls = local_search(
                &times,
                2,
                2,
                SearchOptions {
                    evaluator: Evaluator::Exact,
                    ..Default::default()
                },
            );
            // With the exact evaluator the search must find the global
            // optimum (2x2 has only two non-decreasing arrangements and
            // the search also visits decreasing ones).
            assert!(
                ls.obj2 >= global.obj2 - 1e-9,
                "local search {} far from exact {} on {:?}",
                ls.obj2,
                global.obj2,
                times
            );
            assert!(ls.obj2 <= global.obj2 + 1e-9, "evaluator overshoots");
        }
    }

    #[test]
    fn local_search_beats_or_ties_its_start() {
        let times = [0.11, 0.47, 0.23, 0.95, 0.61, 0.38];
        let start = sorted_row_major(&times, 2, 3);
        let (_, start_obj) = evaluate(&start, &SearchOptions::default());
        let ls = local_search(&times, 2, 3, SearchOptions::default());
        assert!(ls.obj2 >= start_obj - 1e-12);
        assert!(is_feasible(&ls.arrangement, &ls.alloc, 1e-9));
    }

    #[test]
    fn anneal_feasible_and_not_worse_than_start() {
        let times = [0.8, 0.2, 0.5, 0.9, 0.4, 0.6, 0.1, 0.3, 0.7];
        let start = sorted_row_major(&times, 3, 3);
        let (_, start_obj) = evaluate(&start, &SearchOptions::default());
        let an = anneal(
            &times,
            3,
            3,
            SearchOptions {
                restarts: 2,
                ..Default::default()
            },
        );
        assert!(an.obj2 >= start_obj - 1e-12);
        assert!(is_feasible(&an.arrangement, &an.alloc, 1e-9));
        assert!(an.evaluations > 1);
    }

    #[test]
    fn search_preserves_multiset() {
        let times = [0.9, 0.1, 0.4, 0.6, 0.3, 0.8];
        let ls = local_search(&times, 2, 3, SearchOptions::default());
        let mut got: Vec<f64> = ls.arrangement.times().to_vec();
        let mut want = times.to_vec();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn homogeneous_terminates_immediately() {
        // All swaps are no-ops; the search must not loop.
        let times = [2.0; 6];
        let ls = local_search(&times, 2, 3, SearchOptions::default());
        assert!((ls.obj2 - 3.0).abs() < 1e-9); // 6 procs at t=2: obj2 = 6/2
    }
}
