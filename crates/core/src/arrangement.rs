//! Processor arrangements on a 2D grid (Section 4.1–4.2 of the paper).
//!
//! An [`Arrangement`] fixes which processor sits at which grid position.
//! The paper's Theorem 1 shows the search for an optimal arrangement can
//! be restricted to *non-decreasing* arrangements (cycle-times sorted
//! along every grid row and every grid column); [`enumerate_nondecreasing`]
//! generates exactly those, and [`sorted_row_major`] builds the heuristic's
//! canonical starting arrangement of Section 4.4.1.

use std::fmt;

/// Index of a processor in the original (unarranged) processor list.
pub type ProcId = usize;

/// Why a cycle-time specification cannot form an [`Arrangement`].
///
/// The panicking constructors ([`Arrangement::from_times`] and friends)
/// are right for in-process callers whose inputs are program invariants;
/// code fed by *untrusted* input — the CLI argument parser, the
/// `hetgrid serve` wire protocol — validates first with
/// [`validate_times`] / [`Arrangement::try_from_times`] so a malformed
/// request degrades to a typed error instead of a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum TimesError {
    /// `p == 0` or `q == 0`.
    EmptyGrid,
    /// `times.len()` is not `p * q`.
    SizeMismatch {
        /// `p * q`.
        expected: usize,
        /// `times.len()`.
        got: usize,
    },
    /// A cycle-time is not strictly positive and finite.
    BadCycleTime {
        /// Row-major index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for TimesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimesError::EmptyGrid => write!(f, "grid must have p >= 1 and q >= 1"),
            TimesError::SizeMismatch { expected, got } => {
                write!(f, "expected {expected} cycle-times, got {got}")
            }
            TimesError::BadCycleTime { index, value } => write!(
                f,
                "cycle-time [{index}] = {value} must be strictly positive and finite"
            ),
        }
    }
}

impl std::error::Error for TimesError {}

/// Checks that `times` is a well-formed row-major `p x q` cycle-time
/// matrix: non-empty grid, exact length, every entry strictly positive
/// and finite. The non-panicking counterpart of the
/// [`Arrangement::from_times`] assertions.
pub fn validate_times(times: &[f64], p: usize, q: usize) -> Result<(), TimesError> {
    if p == 0 || q == 0 {
        return Err(TimesError::EmptyGrid);
    }
    if times.len() != p * q {
        return Err(TimesError::SizeMismatch {
            expected: p * q,
            got: times.len(),
        });
    }
    for (index, &value) in times.iter().enumerate() {
        if !(value > 0.0 && value.is_finite()) {
            return Err(TimesError::BadCycleTime { index, value });
        }
    }
    Ok(())
}

/// A concrete placement of `p * q` heterogeneous processors on a `p x q`
/// grid.
///
/// `times[i * q + j]` is the *cycle-time* `t_ij` of the processor at grid
/// position `(i, j)` — the normalized time it needs to update one
/// `r x r` matrix block. `procs[i * q + j]` remembers which original
/// processor that is.
#[derive(Clone, PartialEq)]
pub struct Arrangement {
    p: usize,
    q: usize,
    times: Vec<f64>,
    procs: Vec<ProcId>,
}

impl Arrangement {
    /// Builds an arrangement from a row-major cycle-time matrix; processor
    /// ids are assigned row-major.
    ///
    /// # Panics
    /// Panics if `times.len() != p * q` or any cycle-time is not strictly
    /// positive and finite.
    pub fn from_times(p: usize, q: usize, times: Vec<f64>) -> Self {
        assert_eq!(times.len(), p * q, "Arrangement: size mismatch");
        assert!(p > 0 && q > 0, "Arrangement: empty grid");
        assert!(
            times.iter().all(|&t| t > 0.0 && t.is_finite()),
            "Arrangement: cycle-times must be positive and finite"
        );
        let procs = (0..p * q).collect();
        Arrangement { p, q, times, procs }
    }

    /// Non-panicking [`Arrangement::from_times`]: validates first and
    /// reports a typed [`TimesError`] on malformed input. Use this on
    /// untrusted input paths (CLI arguments, the serve wire protocol).
    pub fn try_from_times(p: usize, q: usize, times: Vec<f64>) -> Result<Self, TimesError> {
        validate_times(&times, p, q)?;
        let procs = (0..p * q).collect();
        Ok(Arrangement { p, q, times, procs })
    }

    /// Builds an arrangement from rows of cycle-times.
    ///
    /// # Panics
    /// Panics on ragged input or non-positive cycle-times.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let p = rows.len();
        assert!(p > 0, "Arrangement: no rows");
        let q = rows[0].len();
        let mut times = Vec::with_capacity(p * q);
        for r in rows {
            assert_eq!(r.len(), q, "Arrangement: ragged rows");
            times.extend_from_slice(r);
        }
        Self::from_times(p, q, times)
    }

    /// Builds an arrangement with an explicit processor-id mapping.
    ///
    /// # Panics
    /// Panics if lengths mismatch or `procs` is not a permutation-like
    /// assignment of distinct ids.
    pub fn with_procs(p: usize, q: usize, times: Vec<f64>, procs: Vec<ProcId>) -> Self {
        assert_eq!(procs.len(), p * q, "Arrangement: procs size mismatch");
        let mut seen = vec![false; procs.len()];
        for &id in &procs {
            assert!(
                id < procs.len() && !seen[id],
                "Arrangement: procs not a permutation"
            );
            seen[id] = true;
        }
        let mut a = Self::from_times(p, q, times);
        a.procs = procs;
        a
    }

    /// Number of grid rows `p`.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of grid columns `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Total number of processors `p * q`.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Always false: arrangements are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cycle-time `t_ij` of the processor at grid position `(i, j)`.
    #[inline]
    pub fn time(&self, i: usize, j: usize) -> f64 {
        self.times[i * self.q + j]
    }

    /// Original processor id at grid position `(i, j)`.
    #[inline]
    pub fn proc(&self, i: usize, j: usize) -> ProcId {
        self.procs[i * self.q + j]
    }

    /// Row-major cycle-times.
    #[inline]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Cycle-times of grid row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.times[i * self.q..(i + 1) * self.q]
    }

    /// `true` iff cycle-times are non-decreasing along every row and every
    /// column (the canonical form of Theorem 1).
    pub fn is_nondecreasing(&self) -> bool {
        for i in 0..self.p {
            for j in 0..self.q {
                if j + 1 < self.q && self.time(i, j) > self.time(i, j + 1) {
                    return false;
                }
                if i + 1 < self.p && self.time(i, j) > self.time(i + 1, j) {
                    return false;
                }
            }
        }
        true
    }

    /// The inverse cycle-time matrix `T^inv = (1 / t_ij)` used by the
    /// heuristic (Section 4.4.2), as a dense matrix.
    pub fn inverse_times(&self) -> hetgrid_linalg::Matrix {
        hetgrid_linalg::Matrix::from_fn(self.p, self.q, |i, j| 1.0 / self.time(i, j))
    }

    /// Integer slowdown weights `w_ij = max(1, round(t_ij / min t))`:
    /// how many times a processor repeats each block kernel for the
    /// executor to emulate these cycle-times on homogeneous threads, and
    /// the per-processor weight of one work unit in predicted counts.
    pub fn slowdown_weights(&self) -> Vec<Vec<u64>> {
        let tmin = self.times.iter().cloned().fold(f64::INFINITY, f64::min);
        (0..self.p)
            .map(|i| {
                self.row(i)
                    .iter()
                    .map(|&t| ((t / tmin).round() as u64).max(1))
                    .collect()
            })
            .collect()
    }

    /// Rank of the cycle-time matrix is 1 within tolerance `tol`
    /// (every 2x2 minor vanishes relative to its entries).
    pub fn is_rank1(&self, tol: f64) -> bool {
        for i in 1..self.p {
            for j in 1..self.q {
                let det = self.time(0, 0) * self.time(i, j) - self.time(0, j) * self.time(i, 0);
                let scale = self.time(0, 0) * self.time(i, j) + self.time(0, j) * self.time(i, 0);
                if det.abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for Arrangement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Arrangement {}x{} [", self.p, self.q)?;
        for i in 0..self.p {
            write!(f, "  [")?;
            for j in 0..self.q {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.time(i, j))?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Arrangement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Sorts the cycle-times ascending and fills the grid row-major — the
/// initial arrangement of the polynomial heuristic (Section 4.4.1):
/// `t_{i,j} <= t_{i,j+1}` and `t_{i,q} <= t_{i+1,1}`.
///
/// Processor ids follow their cycle-times.
///
/// # Panics
/// Panics if `times.len() != p * q` or a cycle-time is not positive.
pub fn sorted_row_major(times: &[f64], p: usize, q: usize) -> Arrangement {
    assert_eq!(times.len(), p * q, "sorted_row_major: size mismatch");
    let mut idx: Vec<usize> = (0..times.len()).collect();
    idx.sort_by(|&a, &b| times[a].partial_cmp(&times[b]).expect("NaN cycle-time"));
    let sorted: Vec<f64> = idx.iter().map(|&k| times[k]).collect();
    Arrangement::with_procs(p, q, sorted, idx)
}

/// Enumerates every *non-decreasing* arrangement of `times` on a `p x q`
/// grid, invoking `visit` for each. Duplicate cycle-times are handled so
/// that each distinct cycle-time *matrix* is produced exactly once
/// (processor ids are assigned in sorted order for equal times).
///
/// The count for distinct values is the number of standard Young tableaux
/// of rectangular shape `p x q` (e.g. 42 for 3x3) — small enough to
/// enumerate exhaustively for the grid sizes where the exact solver is
/// practical.
///
/// # Panics
/// Panics if `times.len() != p * q`.
pub fn enumerate_nondecreasing(
    times: &[f64],
    p: usize,
    q: usize,
    mut visit: impl FnMut(&Arrangement),
) {
    enumerate_nondecreasing_grids(times, p, q, |grid_times, grid_procs| {
        let a = Arrangement::with_procs(p, q, grid_times.to_vec(), grid_procs.to_vec());
        visit(&a);
    });
}

/// Raw variant of [`enumerate_nondecreasing`]: invokes `visit` with the
/// row-major cycle-time grid and the matching processor-id grid instead
/// of a constructed [`Arrangement`]. The slices are reused between
/// callbacks — clone them if a candidate must outlive its visit. Used by
/// the exact solver's global search, where building (and validating) an
/// `Arrangement` per candidate would rival the per-arrangement solve
/// cost.
///
/// # Panics
/// Panics if `times.len() != p * q`.
pub fn enumerate_nondecreasing_grids(
    times: &[f64],
    p: usize,
    q: usize,
    visit: impl FnMut(&[f64], &[ProcId]),
) {
    assert_eq!(times.len(), p * q, "enumerate_nondecreasing: size mismatch");
    let mut idx: Vec<usize> = (0..times.len()).collect();
    idx.sort_by(|&a, &b| times[a].partial_cmp(&times[b]).expect("NaN cycle-time"));
    let sorted_t: Vec<f64> = idx.iter().map(|&k| times[k]).collect();

    struct Ctx<'a, F> {
        p: usize,
        q: usize,
        /// Candidate cycle-times, ascending.
        sorted_t: &'a [f64],
        /// Processor id of each candidate.
        sorted_id: &'a [ProcId],
        used: Vec<bool>,
        grid_times: Vec<f64>,
        grid_procs: Vec<ProcId>,
        visit: F,
    }

    // Fill positions row-major; at each cell the value must be >= the cell
    // above and to the left. Skip equal candidate values (only take the
    // first unused index of a run of equals) to avoid duplicates.
    fn rec<F: FnMut(&[f64], &[ProcId])>(ctx: &mut Ctx<'_, F>, pos: usize) {
        if pos == ctx.p * ctx.q {
            (ctx.visit)(&ctx.grid_times, &ctx.grid_procs);
            return;
        }
        let (i, j) = (pos / ctx.q, pos % ctx.q);
        let min_left = if j > 0 { ctx.grid_times[pos - 1] } else { 0.0 };
        let min_up = if i > 0 {
            ctx.grid_times[pos - ctx.q]
        } else {
            0.0
        };
        let lower = min_left.max(min_up);

        // Candidates are sorted, so everything below `lower` is one
        // contiguous prefix — skip it wholesale.
        let start = ctx.sorted_t.partition_point(|&t| t < lower);
        let mut last_val = f64::NEG_INFINITY;
        for k in start..ctx.sorted_t.len() {
            if ctx.used[k] {
                continue;
            }
            let t = ctx.sorted_t[k];
            if t == last_val {
                // An equal value was already tried at this cell; taking a
                // different copy yields the same cycle-time matrix.
                continue;
            }
            last_val = t;
            ctx.used[k] = true;
            ctx.grid_times[pos] = t;
            ctx.grid_procs[pos] = ctx.sorted_id[k];
            rec(ctx, pos + 1);
            ctx.used[k] = false;
        }
    }

    let n = times.len();
    let mut ctx = Ctx {
        p,
        q,
        sorted_t: &sorted_t,
        sorted_id: &idx,
        used: vec![false; n],
        grid_times: vec![0.0f64; n],
        grid_procs: vec![0usize; n],
        visit,
    };
    rec(&mut ctx, 0);
}

/// Enumerates *all* arrangements (every permutation of `times` on the
/// grid). Exponential; only for cross-checking Theorem 1 on tiny inputs.
pub fn enumerate_all(times: &[f64], p: usize, q: usize, mut visit: impl FnMut(&Arrangement)) {
    assert_eq!(times.len(), p * q, "enumerate_all: size mismatch");
    let n = times.len();
    let mut perm: Vec<usize> = (0..n).collect();
    // Heap's algorithm, iterative.
    let mut c = vec![0usize; n];
    let emit = |perm: &[usize], visit: &mut dyn FnMut(&Arrangement)| {
        let t: Vec<f64> = perm.iter().map(|&k| times[k]).collect();
        let a = Arrangement::with_procs(p, q, t, perm.to_vec());
        visit(&a);
    };
    emit(&perm, &mut visit);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            emit(&perm, &mut visit);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_row_major_matches_paper_example() {
        // Section 4.4.1: nine processors with cycle-times 1..9.
        let times: Vec<f64> = vec![5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 6.0, 4.0];
        let a = sorted_row_major(&times, 3, 3);
        assert_eq!(a.times(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert!(a.is_nondecreasing());
        // Processor ids must point back at the original positions.
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(times[a.proc(i, j)], a.time(i, j));
            }
        }
    }

    #[test]
    fn nondecreasing_detection() {
        let good = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        assert!(good.is_nondecreasing());
        let bad_row = Arrangement::from_rows(&[vec![2.0, 1.0], vec![3.0, 6.0]]);
        assert!(!bad_row.is_nondecreasing());
        let bad_col = Arrangement::from_rows(&[vec![3.0, 4.0], vec![1.0, 6.0]]);
        assert!(!bad_col.is_nondecreasing());
    }

    #[test]
    fn rank1_detection() {
        // Figure 1: [[1,2],[3,6]] is rank-1; the modified [[1,2],[3,5]] is not.
        let r1 = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        assert!(r1.is_rank1(1e-12));
        let r2 = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        assert!(!r2.is_rank1(1e-6));
    }

    #[test]
    fn enumerate_3x3_distinct_counts_young_tableaux() {
        // 42 standard Young tableaux of shape 3x3.
        let times: Vec<f64> = (1..=9).map(|x| x as f64).collect();
        let mut count = 0;
        enumerate_nondecreasing(&times, 3, 3, |a| {
            assert!(a.is_nondecreasing());
            count += 1;
        });
        assert_eq!(count, 42);
    }

    #[test]
    fn enumerate_2x2_distinct() {
        // Shape 2x2 has 2 standard Young tableaux.
        let times = vec![1.0, 2.0, 3.0, 6.0];
        let mut seen = Vec::new();
        enumerate_nondecreasing(&times, 2, 2, |a| seen.push(a.times().to_vec()));
        assert_eq!(seen.len(), 2);
        assert!(seen.contains(&vec![1.0, 2.0, 3.0, 6.0]));
        assert!(seen.contains(&vec![1.0, 3.0, 2.0, 6.0]));
    }

    #[test]
    fn enumerate_handles_duplicates_without_repeats() {
        // All-equal times: exactly one non-decreasing matrix.
        let times = vec![2.0; 6];
        let mut count = 0;
        enumerate_nondecreasing(&times, 2, 3, |_| count += 1);
        assert_eq!(count, 1);

        // 1,1,2,2 on a 2x2 grid: matrices [[1,1],[2,2]], [[1,2],[1,2]] and
        // [[1,2],[2, ...]] wait — [[1,2],[2,1]] is not valid. Valid distinct
        // matrices: [[1,1],[2,2]] and [[1,2],[1,2]].
        let times = vec![1.0, 1.0, 2.0, 2.0];
        let mut seen = Vec::new();
        enumerate_nondecreasing(&times, 2, 2, |a| seen.push(a.times().to_vec()));
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn enumerate_all_counts_factorial() {
        let times = vec![1.0, 2.0, 3.0, 4.0];
        let mut count = 0;
        enumerate_all(&times, 2, 2, |_| count += 1);
        assert_eq!(count, 24);
    }

    #[test]
    fn inverse_times() {
        let a = Arrangement::from_rows(&[vec![1.0, 2.0], vec![4.0, 8.0]]);
        let inv = a.inverse_times();
        assert_eq!(inv[(1, 1)], 0.125);
        assert_eq!(inv[(0, 0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cycle_time_rejected() {
        Arrangement::from_times(1, 2, vec![0.0, 1.0]);
    }
}
