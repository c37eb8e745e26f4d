//! Exact solution of the optimization problem (Section 4.3), as a
//! branch-and-bound search over spanning trees.
//!
//! For a *fixed* arrangement the optimum of `Obj2` is attained with at
//! least `p + q - 1` tight constraints, and the tight constraints must
//! connect all rows and columns: they form a spanning tree of the
//! complete bipartite graph `K_{p,q}` whose vertices are the `r_i` and
//! `c_j` and whose edge `(r_i, c_j)` carries weight `t_ij`. Walking an
//! *acceptable* tree (all non-tree products `<= 1`) from `r_1 = 1`
//! determines every share; the optimum is the acceptable tree of maximal
//! value `(sum r)(sum c)`.
//!
//! The number of spanning trees of `K_{p,q}` is `p^(q-1) * q^(p-1)` —
//! `81` for 3x3, `~6x10^7` for 6x6, `~1.8x10^15` for 9x9 — so plain
//! enumeration stops being viable around 6x6. The solver therefore runs
//! a branch-and-bound (bound derivation in DESIGN.md):
//!
//! * **Incremental share propagation.** Edges are added one by one to a
//!   rollback union-find. Inside a connected component all shares are
//!   determined up to the component's scale `s` (`r_i = s * rho_i`,
//!   `c_j = gamma_j / s`), so every *product* `r_i c_j = rho_i gamma_j`
//!   of a row and a column in the same component is already absolute.
//!   Each merge checks the newly-determined pairs: a forced
//!   `r_i t_ij c_j > 1` kills the whole subtree, because every
//!   completion of the partial tree forces the same violation.
//! * **Admissible bound.** `Obj2 = (sum r)(sum c) = sum_ij r_i c_j`.
//!   Pairs inside one component contribute their exact, already-forced
//!   products. For two components `A`, `B` the only remaining freedom
//!   is the single scale ratio `x = s_A / s_B`: their cross pairs
//!   contribute `x * S_AB + S_BA / x` with `S_AB = sum(rho_i gamma_j)`
//!   over A-rows x B-cols (`S_BA` symmetric), and every cross constraint
//!   `r_i t_ij c_j <= 1` narrows `x` to the window
//!   `[1 / m_BA, m_AB]`, `m_AB = min 1/(t_ij rho_i gamma_j)`. The
//!   contribution is convex in `x`, so its maximum over the window sits
//!   at an endpoint — and an *empty* window (`m_AB * m_BA < 1`) proves
//!   the two components can never coexist in an acceptable tree,
//!   pruning the subtree outright. Summing intra-component exact terms
//!   and per-component-pair endpoint maxima (capped by the trivial
//!   `sum 1/t_ij`) yields an admissible bound that tightens as edges
//!   are added; a subtree whose bound cannot beat the incumbent is cut.
//!   The incumbent is seeded with the alternating fixpoint of
//!   [`crate::alternating`] (feasible, hence a true lower bound), so
//!   pruning has teeth from the very first branch.
//! * **No allocation in the hot loop.** The rollback journal, component
//!   member lists and share values live in preallocated buffers;
//!   including an edge pushes undo records, backtracking pops them (the
//!   old enumerator cloned the whole union-find per included edge and
//!   rebuilt a `Vec<Vec<_>>` adjacency per examined tree).
//!
//! The *global* problem additionally searches over arrangements; by the
//! paper's Theorem 1 only non-decreasing arrangements need to be
//! considered. [`solve_global`] deals the arrangements across
//! `hetgrid_par::parallel_map` workers, each streaming them through one
//! reused solver, and shares the incumbent through an atomic, so a good
//! arrangement solved early prunes the rest.

use crate::arrangement::{enumerate_nondecreasing_grids, Arrangement};
use crate::objective::{workload_matrix, Allocation};
use std::sync::atomic::{AtomicU64, Ordering};

/// Feasibility slack on `r_i t_ij c_j <= 1`, matching the tolerance the
/// rest of the crate uses for acceptability checks.
const ACCEPT_TOL: f64 = 1e-9;

/// Hard grid limit for the exact solver. Beyond this even the pruned
/// search is astronomical; use the heuristic instead.
pub const MAX_DIM: usize = 10;

/// Options for [`solve_arrangement_with`] and [`solve_global_with`].
#[derive(Clone, Copy, Debug)]
pub struct ExactOptions {
    /// Cut subtrees on forced constraint violations and on the
    /// admissible `(sum r)(sum c)` bound, and seed the incumbent.
    /// Disabling reproduces the plain spanning-tree enumerator (every
    /// tree is examined) — used by tests that check the Cayley counts
    /// and that pruning never changes the optimum.
    pub prune: bool,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions { prune: true }
    }
}

impl ExactOptions {
    /// The plain exhaustive enumerator (no pruning, no seeding) — every
    /// spanning tree is examined, like the pre-branch-and-bound solver.
    pub fn exhaustive() -> Self {
        ExactOptions { prune: false }
    }
}

/// Search-effort counters for one or more branch-and-bound runs.
///
/// The per-run numbers stay deterministic fields of [`ExactSolution`] /
/// [`GlobalSolution`] (tests pin the Cayley counts to them); this struct
/// exists to aggregate them across arrangements and publish the totals
/// to the `hetgrid-obs` metrics registry exactly once per top-level
/// solve — never from the per-arrangement hot path.
#[derive(Clone, Copy, Debug, Default)]
struct Effort {
    examined: u64,
    acceptable: u64,
    pruned: u64,
    /// Times the incumbent was created or improved at a leaf.
    improvements: u64,
}

impl Effort {
    fn of(bnb: &Bnb) -> Effort {
        Effort {
            examined: bnb.examined,
            acceptable: bnb.acceptable,
            pruned: bnb.pruned,
            improvements: bnb.improvements,
        }
    }

    fn absorb(&mut self, other: Effort) {
        self.examined += other.examined;
        self.acceptable += other.acceptable;
        self.pruned += other.pruned;
        self.improvements += other.improvements;
    }

    /// Adds the effort to the cumulative `solver.*` series. Five
    /// registry lookups once per solve — negligible next to the search,
    /// so not gated on tracing being enabled.
    fn publish(&self, arrangements: u64) {
        let m = hetgrid_obs::metrics();
        m.counter("solver.arrangements.examined").add(arrangements);
        m.counter("solver.trees.examined").add(self.examined);
        m.counter("solver.trees.acceptable").add(self.acceptable);
        m.counter("solver.trees.pruned").add(self.pruned);
        m.counter("solver.incumbent.improvements")
            .add(self.improvements);
    }
}

/// Exact optimum for a fixed arrangement.
#[derive(Clone, Debug)]
pub struct ExactSolution {
    /// Optimal shares (gauge: `r[0] = 1`).
    pub alloc: Allocation,
    /// The optimal `Obj2` value `(sum r)(sum c)`.
    pub obj2: f64,
    /// Edges `(i, j)` of the optimal acceptable spanning tree (the tight
    /// constraints `r_i t_ij c_j = 1`).
    pub tree: Vec<(usize, usize)>,
    /// Number of complete spanning trees examined (leaves reached). With
    /// pruning disabled this equals the Cayley count `p^(q-1) q^(p-1)`.
    pub trees_examined: u64,
    /// Number of acceptable trees found among those examined.
    pub trees_acceptable: u64,
    /// Number of branch-and-bound cuts (subtrees abandoned because of a
    /// forced violation or a hopeless bound). Zero when pruning is off.
    pub trees_pruned: u64,
}

/// Solves `Obj2` exactly for the given arrangement with the default
/// branch-and-bound options.
///
/// # Panics
/// Panics if the grid is larger than 10x10 (the search would be
/// astronomically large; use the heuristic instead).
pub fn solve_arrangement(arr: &Arrangement) -> ExactSolution {
    solve_arrangement_with(arr, &ExactOptions::default())
}

/// Solves `Obj2` exactly with explicit [`ExactOptions`].
///
/// # Panics
/// Panics if the grid is larger than 10x10.
pub fn solve_arrangement_with(arr: &Arrangement, opts: &ExactOptions) -> ExactSolution {
    let mut bnb = Bnb::new(arr.p(), arr.q(), opts.prune);
    let sol = bnb.solve(arr.times(), f64::NEG_INFINITY);
    Effort::of(&bnb).publish(1);
    sol.expect("K_{p,q} always has an acceptable spanning tree")
}

/// Undo journal frame for one edge inclusion.
struct Undo {
    /// Component that got absorbed.
    victim: usize,
    /// Component it was absorbed into.
    winner: usize,
    /// Lengths of the winner's member lists before the merge.
    rows_len: usize,
    cols_len: usize,
    /// Value-journal watermark: entries above it are `(vertex, old_val)`.
    vals_mark: usize,
    /// Bound-state journal watermark.
    mat_mark: usize,
    /// Bound and violation counter before the merge.
    total: f64,
    viol: u32,
}

/// Branch-and-bound state. Rows are vertices `0..p`, columns `p..p+q`.
struct Bnb {
    p: usize,
    q: usize,
    n: usize,
    need: usize,
    n_edges: usize,
    /// Edges sorted by cycle-time ascending: `(i, j)`. Cheap edges are
    /// likely tight in the optimum, so trying them first finds strong
    /// incumbents early.
    edges: Vec<(u32, u32)>,
    /// `(t_ij, 1/t_ij)` in grid order, indexed `i * q + j`.
    time_table: Vec<(f64, f64)>,
    prune: bool,

    /// Component id per vertex (component ids are vertex ids).
    comp_of: Vec<u32>,
    /// Relative share per vertex: `rho_i` for rows, `gamma_j` for cols.
    val: Vec<f64>,
    /// Member rows / columns per component id.
    comp_rows: Vec<Vec<u32>>,
    comp_cols: Vec<Vec<u32>>,
    /// Value journal for rollback: `(vertex, previous value)`.
    val_journal: Vec<(u32, f64)>,

    /// Incrementally-maintained bound state, one flat array (see the
    /// `M0`/`S0`/`C0`/`P0`/`SR0`/`SC0` offsets): per ordered component
    /// pair `(a, b)` the scale-window limit `m = min 1/(t rho gamma)`,
    /// product sum `S = sum rho gamma` and trivial cap `sum 1/t` over
    /// rows of `a` x cols of `b`; per unordered pair its bound term; per
    /// component its row-share and col-share sums.
    mat: Vec<f64>,
    /// Bound-state journal for rollback: `(flat index, previous value)`.
    mat_journal: Vec<(u32, f64)>,
    /// Current admissible bound: `sum_a sr_a * sc_a + sum_{a<b} pt_ab`.
    total: f64,

    /// Number of determined pairs violating `r_i t_ij c_j <= 1`.
    viol: u32,
    /// Edge indices (into `edges`) of the current partial tree.
    chosen: Vec<u32>,

    /// Incumbent lower bound (seeded and/or best tree found so far).
    best_lb: f64,
    /// Best acceptable tree: objective and its `chosen` snapshot.
    best: Option<(f64, Vec<u32>)>,

    examined: u64,
    acceptable: u64,
    pruned: u64,
    /// Incumbent creations/improvements at leaves (see [`Effort`]).
    improvements: u64,
}

impl Bnb {
    /// A solver for `p x q` grids; [`Bnb::solve`] fills it per grid.
    ///
    /// # Panics
    /// Panics if the grid exceeds [`MAX_DIM`] in either dimension.
    fn new(p: usize, q: usize, prune: bool) -> Self {
        assert!(
            p <= MAX_DIM && q <= MAX_DIM,
            "exact solver limited to grids up to {MAX_DIM}x{MAX_DIM}, got {p}x{q}"
        );
        let n = p + q;
        Bnb {
            p,
            q,
            n,
            need: n - 1,
            n_edges: p * q,
            edges: Vec::with_capacity(p * q),
            time_table: vec![(0.0, 0.0); p * q],
            prune,
            comp_of: vec![0; n],
            val: vec![1.0; n],
            comp_rows: vec![Vec::new(); n],
            comp_cols: vec![Vec::new(); n],
            val_journal: Vec::with_capacity(n * n),
            mat: vec![0.0f64; 4 * n * n + 2 * n],
            mat_journal: Vec::with_capacity(8 * n * n),
            total: 0.0,
            viol: 0,
            chosen: Vec::with_capacity(n - 1),
            best_lb: f64::NEG_INFINITY,
            best: None,
            examined: 0,
            acceptable: 0,
            pruned: 0,
            improvements: 0,
        }
    }

    /// Solves the row-major `p x q` cycle-time grid `times`, reusing
    /// this solver's buffers; the effort counters then hold this
    /// solve's effort. `lower_bound` is an objective another arrangement
    /// already reaches: the search returns `None` when this one cannot
    /// beat it. Without one (`NEG_INFINITY`) a pruning search seeds its
    /// incumbent with the alternating fixpoint and always returns the
    /// optimum.
    fn solve(&mut self, times: &[f64], lower_bound: f64) -> Option<ExactSolution> {
        self.reset(times);
        let seeded = self.prune && lower_bound == f64::NEG_INFINITY;
        self.best_lb = if seeded {
            // The alternating fixpoint is feasible, so its objective is a
            // true lower bound. Shave a relative epsilon so a tree *equal*
            // to the seed (the common case: the fixpoint often is optimal)
            // is still found rather than pruned.
            let arr = Arrangement::from_times(self.p, self.q, times.to_vec());
            crate::alternating::optimize(&arr, 1_000).alloc.obj2() * (1.0 - 1e-9)
        } else {
            lower_bound
        };
        self.search();
        if seeded && self.best.is_none() {
            // The seed cut every tree (defensive; should not happen):
            // search again unseeded so the always-existing acceptable
            // tree is found. A finished search has rolled every merge
            // back, so only the bound needs clearing.
            self.best_lb = f64::NEG_INFINITY;
            self.search();
        }
        self.finish(times)
    }

    /// Reinitializes the solver for a new cycle-time grid of the *same*
    /// `p x q` shape without reallocating any buffer, so one solver
    /// serves every arrangement a [`solve_global_with`] worker visits.
    fn reset(&mut self, times: &[f64]) {
        debug_assert_eq!(times.len(), self.n_edges);
        let (p, q, n) = (self.p, self.q, self.n);
        for (slot, &t) in self.time_table.iter_mut().zip(times) {
            *slot = (t, 1.0 / t);
        }
        self.edges.clear();
        self.edges
            .extend((0..p * q).map(|e| ((e / q) as u32, (e % q) as u32)));
        let tt = &self.time_table;
        self.edges.sort_by(|a, b| {
            let ta = tt[a.0 as usize * q + a.1 as usize].0;
            let tb = tt[b.0 as usize * q + b.1 as usize].0;
            tb.partial_cmp(&ta).expect("NaN cycle-time")
        });
        for (v, c) in self.comp_of.iter_mut().enumerate() {
            *c = v as u32;
        }
        self.val.fill(1.0);
        for (v, rows) in self.comp_rows.iter_mut().enumerate() {
            rows.clear();
            if v < p {
                rows.push(v as u32);
            }
        }
        for (v, cols) in self.comp_cols.iter_mut().enumerate() {
            cols.clear();
            if v >= p {
                cols.push(v as u32);
            }
        }
        self.val_journal.clear();
        self.mat_journal.clear();
        self.chosen.clear();

        // Bound state for all-singleton components: the only non-empty
        // directional pairs are (row a, col b) with m = cap = 1/t and
        // S = 1; every pair term is then 1/t and the starting bound is
        // sum 1/t_ij — exactly the total-rate bound of `crate::bounds`.
        self.mat.fill(0.0);
        for cell in &mut self.mat[..n * n] {
            *cell = f64::INFINITY; // m segment
        }
        let mut total = 0.0;
        for a in 0..p {
            self.mat[4 * n * n + a] = 1.0; // sr: singleton row share
            for b in p..n {
                let inv_t = self.time_table[a * q + (b - p)].1;
                self.mat[a * n + b] = inv_t; // m
                self.mat[n * n + a * n + b] = 1.0; // S
                self.mat[2 * n * n + a * n + b] = inv_t; // cap
                self.mat[3 * n * n + a * n + b] = inv_t; // pair term (a < b)
                total += inv_t;
            }
        }
        for b in p..n {
            self.mat[4 * n * n + n + b] = 1.0; // sc: singleton col share
        }
        self.total = total;
        self.viol = 0;
        self.best_lb = f64::NEG_INFINITY;
        self.best = None;
        self.examined = 0;
        self.acceptable = 0;
        self.pruned = 0;
        self.improvements = 0;
    }

    // Flat offsets into `mat`.
    #[inline]
    fn m_idx(&self, a: usize, b: usize) -> usize {
        a * self.n + b
    }
    #[inline]
    fn s_idx(&self, a: usize, b: usize) -> usize {
        self.n * self.n + a * self.n + b
    }
    #[inline]
    fn cap_idx(&self, a: usize, b: usize) -> usize {
        2 * self.n * self.n + a * self.n + b
    }
    /// Pair-term slot for the unordered pair `{a, b}`.
    #[inline]
    fn pt_idx(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        3 * self.n * self.n + lo * self.n + hi
    }
    #[inline]
    fn sr_idx(&self, a: usize) -> usize {
        4 * self.n * self.n + a
    }
    #[inline]
    fn sc_idx(&self, a: usize) -> usize {
        4 * self.n * self.n + self.n + a
    }

    /// Journaled write into the bound state.
    #[inline]
    fn jset(&mut self, idx: usize, new: f64) {
        self.mat_journal.push((idx as u32, self.mat[idx]));
        self.mat[idx] = new;
    }

    /// Admissible bound term for a component pair from its directional
    /// aggregates: the cross contribution `x S_ab + S_ba / x` is convex
    /// in the scale ratio `x`, so its maximum over the feasibility
    /// window `[1/m_ba, m_ab]` sits at an endpoint; the per-pair cap
    /// `sum 1/t` bounds it too. `S > 0` implies the matching `m` is
    /// finite, and `S = 0` means that direction has no pairs.
    #[inline]
    fn pair_term(m_ab: f64, s_ab: f64, m_ba: f64, s_ba: f64, cap: f64) -> f64 {
        let v = if s_ab == 0.0 && s_ba == 0.0 {
            0.0
        } else if s_ab == 0.0 {
            s_ba * m_ba // f(x) decreasing: max at x = 1/m_ba
        } else if s_ba == 0.0 {
            s_ab * m_ab // f(x) increasing: max at x = m_ab
        } else {
            let hi = m_ab * s_ab + s_ba / m_ab;
            let lo = s_ab / m_ba + s_ba * m_ba;
            hi.max(lo)
        };
        v.min(cap)
    }

    fn search(&mut self) {
        self.rec(0);
    }

    /// `true` when a subtree with admissible bound `bound` cannot beat
    /// the incumbent by more than a hair. Ties prune: a completion
    /// merely equal to the incumbent adds nothing, and in
    /// perfect-balance instances the bound equals the optimum in most of
    /// the tree — keeping ties alive there would degenerate to
    /// exhaustive search. The relative `TIE_TOL` absorbs the few-ulp
    /// jitter between equal objectives computed through different merge
    /// orders (instances with repeated cycle-times produce vast plateaus
    /// of floating-point-almost-equal optima); it concedes at most
    /// 1e-12 relative optimality, three orders below `ACCEPT_TOL`, and
    /// is dominated by the 1e-9 incumbent-seed slack so the true optimum
    /// itself is never cut.
    #[inline]
    fn cut(&self, bound: f64) -> bool {
        const TIE_TOL: f64 = 1e-12;
        bound <= self.best_lb * (1.0 + TIE_TOL)
    }

    fn rec(&mut self, e: usize) {
        if self.chosen.len() == self.need {
            self.leaf();
            return;
        }
        if e == self.n_edges || self.n_edges - e < self.need - self.chosen.len() {
            return;
        }
        // The incumbent may have improved since this subtree's bound was
        // computed (a sibling found a better tree), so re-check. Skipping
        // an edge leaves `total` untouched, so skip chains re-use it.
        if self.prune && self.cut(self.total) {
            self.pruned += 1;
            return;
        }
        let (i, j) = self.edges[e];
        let u = self.comp_of[i as usize];
        let v = self.comp_of[self.p + j as usize];
        if u != v {
            // Include edge e: merge the two components.
            let (undo, window_dead) = self.merge(e, u as usize, v as usize);
            let dead = self.prune && (window_dead || self.viol > 0 || self.cut(self.total));
            if dead {
                self.pruned += 1;
            } else {
                self.chosen.push(e as u32);
                self.rec(e + 1);
                self.chosen.pop();
            }
            self.rollback(undo);
        }
        // Skip edge e.
        self.rec(e + 1);
    }

    /// Merges the components of edge `e`'s endpoints, rescaling the
    /// smaller one so the edge constraint `r_i t_ij c_j = 1` holds,
    /// checks every newly-determined pair for a forced violation, and
    /// folds the merge into the incremental bound state. Returns the
    /// undo frame and whether some surviving component pair now has an
    /// empty scale window (no completion can be acceptable).
    fn merge(&mut self, e: usize, cu: usize, cv: usize) -> (Undo, bool) {
        let (ei, ej) = self.edges[e];
        let (ri, cj) = (ei as usize, self.p + ej as usize);
        let t = self.time_table[ri * self.q + ej as usize].0;

        // Absorb the smaller component (fewer members) into the larger.
        let size = |c: usize| self.comp_rows[c].len() + self.comp_cols[c].len();
        let (winner, victim) = if size(cu) >= size(cv) {
            (cu, cv)
        } else {
            (cv, cu)
        };
        let undo = Undo {
            victim,
            winner,
            rows_len: self.comp_rows[winner].len(),
            cols_len: self.comp_cols[winner].len(),
            vals_mark: self.val_journal.len(),
            mat_mark: self.mat_journal.len(),
            total: self.total,
            viol: self.viol,
        };

        // Rescale factor for the victim: its rows multiply by f, its
        // columns divide by f, chosen so rho_i * gamma_j = 1 / t_ij
        // holds for the merge edge afterwards.
        let f = if self.comp_of[ri] as usize == winner {
            // Row endpoint keeps its value; solve for the column side:
            // rho_i * (gamma_j / f) = 1/t  =>  f = rho_i * t * gamma_j.
            self.val[ri] * t * self.val[cj]
        } else {
            // Column endpoint keeps its value; solve for the row side:
            // (rho_i * f) * gamma_j = 1/t  =>  f = 1 / (rho_i * t * gamma_j).
            1.0 / (self.val[ri] * t * self.val[cj])
        };

        // Move the victim's members over, journaling previous values.
        let mut vrows = std::mem::take(&mut self.comp_rows[victim]);
        for &r in &vrows {
            self.val_journal.push((r, self.val[r as usize]));
            self.val[r as usize] *= f;
            self.comp_of[r as usize] = winner as u32;
        }
        let mut vcols = std::mem::take(&mut self.comp_cols[victim]);
        for &c in &vcols {
            self.val_journal.push((c, self.val[c as usize]));
            self.val[c as usize] /= f;
            self.comp_of[c as usize] = winner as u32;
        }

        // Newly-determined pairs: winner-rows x victim-cols, victim-rows
        // x winner-cols and victim-rows x victim-cols (the victim's own
        // cross pairs were already determined *relative to its own
        // scale* — but they were accounted when the victim was built, so
        // only cross pairs between the two components are new).
        for wi in 0..undo.rows_len {
            let r = self.comp_rows[winner][wi] as usize;
            let rho = self.val[r];
            for &c in &vcols {
                self.account_pair(r, c as usize - self.p, rho * self.val[c as usize]);
            }
        }
        for &r in &vrows {
            let rho = self.val[r as usize];
            for wi in 0..undo.cols_len {
                let c = self.comp_cols[winner][wi] as usize;
                self.account_pair(r as usize, c - self.p, rho * self.val[c]);
            }
        }

        self.comp_rows[winner].append(&mut vrows);
        self.comp_cols[winner].append(&mut vcols);
        // Park the victim's (now empty) buffers back for reuse.
        self.comp_rows[victim] = vrows;
        self.comp_cols[victim] = vcols;

        // The bound state is only consulted when pruning; the exhaustive
        // enumerator skips its upkeep to stay a lean baseline.
        let window_dead = if self.prune {
            self.fold_bound_state(winner, victim, f)
        } else {
            false
        };
        (undo, window_dead)
    }

    /// Folds a completed `victim -> winner` merge (victim rows scaled by
    /// `f`, victim cols by `1/f`) into the incremental bound state.
    ///
    /// The winner absorbs the victim's directional aggregates against
    /// every other live component `x`: scaling the victim's rows by `f`
    /// scales its row-direction product sums by `f` and window limits by
    /// `1/f` (and symmetrically for columns), so aggregates combine in
    /// O(1) per component. The victim's cross pairs against the winner
    /// become intra-component (their exact contribution is covered by
    /// the updated `sr * sc` term), and the victim drops out of the live
    /// set. Returns `true` if some updated window is empty.
    fn fold_bound_state(&mut self, winner: usize, victim: usize, f: f64) -> bool {
        // Intra term: replace winner's and victim's own terms and the
        // winner-victim pair term by the merged component's exact term.
        // The victim's `sr * sc` is invariant under its rescale.
        let sr_w = self.mat[self.sr_idx(winner)];
        let sc_w = self.mat[self.sc_idx(winner)];
        let sr_v = self.mat[self.sr_idx(victim)];
        let sc_v = self.mat[self.sc_idx(victim)];
        let (sr_new, sc_new) = (sr_w + f * sr_v, sc_w + sc_v / f);
        let pt_wv = self.mat[self.pt_idx(winner, victim)];
        let mut total = self.total + sr_new * sc_new - sr_w * sc_w - sr_v * sc_v - pt_wv;
        self.jset(self.sr_idx(winner), sr_new);
        self.jset(self.sc_idx(winner), sc_new);

        let mut window_dead = false;
        for x in 0..self.n {
            if x == winner
                || x == victim
                || (self.comp_rows[x].is_empty() && self.comp_cols[x].is_empty())
            {
                continue;
            }
            // If the victim never interacted with x (no row-col pair in
            // either direction: S = 0 and m = infinity), folding it in
            // changes nothing for the winner-x pair — and the victim's
            // own pair term is 0 — so the whole update is a no-op. This
            // skips roughly the same-side components (row comps vs row
            // comps, col vs col) at shallow depths.
            if self.mat[self.s_idx(victim, x)] == 0.0
                && self.mat[self.s_idx(x, victim)] == 0.0
                && self.mat[self.m_idx(victim, x)].is_infinite()
                && self.mat[self.m_idx(x, victim)].is_infinite()
            {
                continue;
            }
            // Winner rows x component-x cols.
            let m_wx = self.mat[self.m_idx(winner, x)].min(self.mat[self.m_idx(victim, x)] / f);
            let s_wx = self.mat[self.s_idx(winner, x)] + f * self.mat[self.s_idx(victim, x)];
            let c_wx = self.mat[self.cap_idx(winner, x)] + self.mat[self.cap_idx(victim, x)];
            // Component-x rows x winner cols.
            let m_xw = self.mat[self.m_idx(x, winner)].min(self.mat[self.m_idx(x, victim)] * f);
            let s_xw = self.mat[self.s_idx(x, winner)] + self.mat[self.s_idx(x, victim)] / f;
            let c_xw = self.mat[self.cap_idx(x, winner)] + self.mat[self.cap_idx(x, victim)];
            self.jset(self.m_idx(winner, x), m_wx);
            self.jset(self.s_idx(winner, x), s_wx);
            self.jset(self.cap_idx(winner, x), c_wx);
            self.jset(self.m_idx(x, winner), m_xw);
            self.jset(self.s_idx(x, winner), s_xw);
            self.jset(self.cap_idx(x, winner), c_xw);
            // Empty window: winner and x can never coexist acceptably.
            // (m is infinite when a direction has no pairs; infinity
            // times a finite positive value stays above 1.)
            if m_wx * m_xw < 1.0 - 2.0 * ACCEPT_TOL {
                window_dead = true;
            }
            let pt = Self::pair_term(m_wx, s_wx, m_xw, s_xw, c_wx + c_xw);
            let pt_slot = self.pt_idx(winner, x);
            total += pt - self.mat[pt_slot] - self.mat[self.pt_idx(victim, x)];
            self.jset(pt_slot, pt);
        }
        self.total = total;
        window_dead
    }

    /// Checks the newly-determined product `r_i * c_j` for grid pair
    /// `(i, j)` against its constraint.
    #[inline]
    fn account_pair(&mut self, i: usize, j: usize, prod: f64) {
        let t = self.time_table[i * self.q + j].0;
        if prod * t > 1.0 + ACCEPT_TOL {
            self.viol += 1;
        }
    }

    fn rollback(&mut self, undo: Undo) {
        let Undo {
            victim,
            winner,
            rows_len,
            cols_len,
            vals_mark,
            mat_mark,
            total,
            viol,
        } = undo;
        // Give the moved members back to the victim.
        let mut vrows = std::mem::take(&mut self.comp_rows[victim]);
        vrows.extend_from_slice(&self.comp_rows[winner][rows_len..]);
        self.comp_rows[winner].truncate(rows_len);
        let mut vcols = std::mem::take(&mut self.comp_cols[victim]);
        vcols.extend_from_slice(&self.comp_cols[winner][cols_len..]);
        self.comp_cols[winner].truncate(cols_len);
        for &r in &vrows {
            self.comp_of[r as usize] = victim as u32;
        }
        for &c in &vcols {
            self.comp_of[c as usize] = victim as u32;
        }
        self.comp_rows[victim] = vrows;
        self.comp_cols[victim] = vcols;
        // Restore exact values from the journal (no floating drift).
        while self.val_journal.len() > vals_mark {
            let (v, old) = self.val_journal.pop().expect("journal underflow");
            self.val[v as usize] = old;
        }
        while self.mat_journal.len() > mat_mark {
            let (idx, old) = self.mat_journal.pop().expect("journal underflow");
            self.mat[idx as usize] = old;
        }
        self.total = total;
        self.viol = viol;
    }

    fn leaf(&mut self) {
        self.examined += 1;
        if self.viol != 0 {
            return;
        }
        self.acceptable += 1;
        // All p + q vertices are one component: every pair is determined
        // and Obj2 = (sum rho)(sum gamma), gauge-invariant.
        let sr: f64 = self.val[..self.p].iter().sum();
        let sc: f64 = self.val[self.p..].iter().sum();
        let obj2 = sr * sc;
        if self.best.as_ref().is_none_or(|b| obj2 > b.0) {
            self.best = Some((obj2, self.chosen.clone()));
            self.improvements += 1;
            if self.prune && obj2 > self.best_lb {
                self.best_lb = obj2;
            }
        }
    }

    /// Builds the [`ExactSolution`] from the best tree found, or `None`
    /// when every branch was pruned by an external bound.
    fn finish(&mut self, times: &[f64]) -> Option<ExactSolution> {
        let (obj2, chosen) = self.best.take()?;
        let tree: Vec<(usize, usize)> = chosen
            .iter()
            .map(|&e| {
                let (i, j) = self.edges[e as usize];
                (i as usize, j as usize)
            })
            .collect();
        let alloc = alloc_from_tree(self.p, self.q, times, &tree);
        debug_assert!((alloc.obj2() - obj2).abs() <= 1e-9 * obj2.abs().max(1.0));
        Some(ExactSolution {
            alloc,
            obj2,
            tree,
            trees_examined: self.examined,
            trees_acceptable: self.acceptable,
            trees_pruned: self.pruned,
        })
    }
}

/// Shares forced by a spanning tree, gauge `r[0] = 1`. The tree is
/// already known acceptable, so no feasibility re-check happens here.
/// `times` is the row-major `p x q` cycle-time grid.
fn alloc_from_tree(p: usize, q: usize, times: &[f64], tree: &[(usize, usize)]) -> Allocation {
    let mut r = vec![0.0f64; p];
    let mut c = vec![0.0f64; q];
    let mut r_set = vec![false; p];
    let mut c_set = vec![false; q];
    r[0] = 1.0;
    r_set[0] = true;
    // Fixed-point propagation over the p+q-1 tree edges; terminates in
    // at most p+q sweeps (tree diameter). Called once per solve, so the
    // quadratic worst case is irrelevant.
    loop {
        let mut progressed = false;
        for &(i, j) in tree {
            match (r_set[i], c_set[j]) {
                (true, false) => {
                    c[j] = 1.0 / (r[i] * times[i * q + j]);
                    c_set[j] = true;
                    progressed = true;
                }
                (false, true) => {
                    r[i] = 1.0 / (c[j] * times[i * q + j]);
                    r_set[i] = true;
                    progressed = true;
                }
                _ => {}
            }
        }
        if !progressed {
            break;
        }
    }
    debug_assert!(
        r_set.iter().all(|&x| x) && c_set.iter().all(|&x| x),
        "spanning tree did not reach every vertex"
    );
    Allocation::new(r, c)
}

/// Closed-form exact solution for a 2x2 arrangement (the analytical
/// solution the paper defers to its extended version).
///
/// With the gauge `r_1 = 1`, the four spanning trees of `K_{2,2}`
/// evaluate in closed form; which pair is acceptable is decided by the
/// sign of the determinant `t11 t22 - t12 t21`:
///
/// * `t11 t22 <= t12 t21`: trees {11,12,21} and {12,21,22};
/// * `t11 t22 >= t12 t21`: trees {11,12,22} and {11,21,22};
/// * equality (rank-1): all four coincide with perfect balance.
///
/// # Panics
/// Panics if the arrangement is not 2x2.
pub fn solve_2x2(arr: &Arrangement) -> ExactSolution {
    assert_eq!(
        (arr.p(), arr.q()),
        (2, 2),
        "solve_2x2: arrangement must be 2x2"
    );
    let (t11, t12, t21, t22) = (
        arr.time(0, 0),
        arr.time(0, 1),
        arr.time(1, 0),
        arr.time(1, 1),
    );
    let det = t11 * t22 - t12 * t21;

    // Candidate allocations (r1 = 1).
    let mut candidates: Vec<(Vec<(usize, usize)>, Allocation)> = Vec::new();
    if det <= 0.0 {
        // Tree {(0,0),(0,1),(1,0)}.
        candidates.push((
            vec![(0, 0), (0, 1), (1, 0)],
            Allocation::new(vec![1.0, t11 / t21], vec![1.0 / t11, 1.0 / t12]),
        ));
        // Tree {(0,1),(1,0),(1,1)}.
        candidates.push((
            vec![(0, 1), (1, 0), (1, 1)],
            Allocation::new(vec![1.0, t12 / t22], vec![t22 / (t12 * t21), 1.0 / t12]),
        ));
    }
    if det >= 0.0 {
        // Tree {(0,0),(0,1),(1,1)}.
        candidates.push((
            vec![(0, 0), (0, 1), (1, 1)],
            Allocation::new(vec![1.0, t12 / t22], vec![1.0 / t11, 1.0 / t12]),
        ));
        // Tree {(0,0),(1,0),(1,1)}.
        candidates.push((
            vec![(0, 0), (1, 0), (1, 1)],
            Allocation::new(vec![1.0, t11 / t21], vec![1.0 / t11, t21 / (t11 * t22)]),
        ));
    }
    let trees_examined = candidates.len() as u64;
    let (tree, alloc) = candidates
        .into_iter()
        .max_by(|a, b| a.1.obj2().partial_cmp(&b.1.obj2()).expect("NaN obj2"))
        .expect("at least two candidates");
    debug_assert!(crate::objective::is_feasible(arr, &alloc, 1e-9));
    let obj2 = alloc.obj2();
    Effort {
        examined: trees_examined,
        acceptable: trees_examined,
        pruned: 0,
        // The closed form adopts its best candidate exactly once.
        improvements: 1,
    }
    .publish(1);
    ExactSolution {
        alloc,
        obj2,
        tree,
        trees_examined,
        trees_acceptable: trees_examined,
        trees_pruned: 0,
    }
}

/// Exact global optimum: best non-decreasing arrangement together with
/// its exact shares (Sections 4.2 + 4.3 combined). Exponential in both
/// the arrangement count and the tree count; for small grids only.
#[derive(Clone, Debug)]
pub struct GlobalSolution {
    /// The optimal arrangement.
    pub arrangement: Arrangement,
    /// The optimal shares for that arrangement.
    pub alloc: Allocation,
    /// The optimal `Obj2` value.
    pub obj2: f64,
    /// Number of non-decreasing arrangements examined.
    pub arrangements_examined: u64,
    /// Total spanning-tree leaves reached across all arrangements.
    pub trees_examined: u64,
    /// Total branch-and-bound cuts across all arrangements (zero with
    /// pruning disabled).
    pub trees_pruned: u64,
}

/// Searches all non-decreasing arrangements of `times` on a `p x q`
/// grid, solving each exactly with branch-and-bound. Each of the
/// `hetgrid_par::threads()` workers walks the enumeration and solves
/// every `threads()`-th arrangement with one reused solver; the best
/// objective found so far is shared across workers, seeding each
/// arrangement's incumbent so later arrangements mostly prune
/// immediately. With one worker (e.g. inside another map's worker) the
/// search and its effort counts are deterministic.
///
/// # Panics
/// Panics if `times.len() != p * q` or the grid exceeds [`MAX_DIM`].
pub fn solve_global(times: &[f64], p: usize, q: usize) -> GlobalSolution {
    solve_global_with(times, p, q, &ExactOptions::default())
}

/// [`solve_global`] with explicit per-arrangement [`ExactOptions`].
/// With `ExactOptions::exhaustive()` every arrangement is solved by
/// plain enumeration — the pre-branch-and-bound reference the
/// `pruning_never_changes_global_optimum` property test compares against.
///
/// # Panics
/// Panics if `times.len() != p * q` or the grid exceeds [`MAX_DIM`].
pub fn solve_global_with(times: &[f64], p: usize, q: usize, opts: &ExactOptions) -> GlobalSolution {
    // Shared incumbent as f64 bits. Obj2 is positive, so the IEEE bit
    // pattern order matches numeric order and fetch_max works; 0 means
    // "no objective found yet".
    let shared_lb = AtomicU64::new(0);
    let workers = hetgrid_par::threads() as u64;
    let worker = |w: u64| {
        let mut bnb = Bnb::new(p, q, opts.prune);
        let (mut count, mut effort) = (0u64, Effort::default());
        // The worker's best: enumeration index, arrangement, solution.
        let mut best: Option<(u64, Arrangement, ExactSolution)> = None;
        enumerate_nondecreasing_grids(times, p, q, |grid_times, grid_procs| {
            let index = count;
            count += 1;
            if index % workers != w {
                return;
            }
            // Once some arrangement has produced an incumbent, reuse it
            // (slacked like the alternating seed so ties survive) in
            // place of the per-arrangement fixpoint: it is almost always
            // at least as strong, and for small grids the fixpoint
            // iteration would dominate the solve time.
            let lb = f64::from_bits(shared_lb.load(Ordering::Relaxed));
            let lb = if opts.prune && lb > 0.0 {
                lb * (1.0 - 1e-9)
            } else {
                f64::NEG_INFINITY
            };
            let sol = bnb.solve(grid_times, lb);
            effort.absorb(Effort::of(&bnb));
            let Some(sol) = sol else { return };
            shared_lb.fetch_max(sol.obj2.to_bits(), Ordering::Relaxed);
            if best.as_ref().is_none_or(|b| sol.obj2 > b.2.obj2) {
                let arr = Arrangement::with_procs(p, q, grid_times.to_vec(), grid_procs.to_vec());
                best = Some((index, arr, sol));
            }
        });
        (best, effort, count)
    };
    let runs = hetgrid_par::parallel_map((0..workers).collect(), worker);

    let count = runs[0].2;
    let mut effort = Effort::default();
    runs.iter().for_each(|run| effort.absorb(run.1));
    effort.publish(count);
    // The best objective wins; on equal objectives, the earlier arrangement.
    let (_, arrangement, sol) = runs
        .into_iter()
        .filter_map(|run| run.0)
        .max_by(|a, b| a.2.obj2.total_cmp(&b.2.obj2).then(b.0.cmp(&a.0)))
        .expect("at least one arrangement exists");
    GlobalSolution {
        arrangement,
        alloc: sol.alloc,
        obj2: sol.obj2,
        arrangements_examined: count,
        trees_examined: effort.examined,
        trees_pruned: effort.pruned,
    }
}

/// Perfect-balance check: `true` iff the exact optimum uses every
/// processor at 100% (possible exactly when the arrangement behaves like
/// a rank-1 matrix, Section 4.3.2).
pub fn achieves_perfect_balance(arr: &Arrangement, sol: &ExactSolution) -> bool {
    let b = workload_matrix(arr, &sol.alloc);
    b.as_slice().iter().all(|&x| (x - 1.0).abs() < 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::is_feasible;

    #[test]
    fn rank1_2x2_perfect_balance() {
        // Figure 1 grid: perfect balance achievable.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let sol = solve_arrangement(&arr);
        assert!(achieves_perfect_balance(&arr, &sol));
        // r = (1, 1/3), c = (1, 1/2): obj2 = (4/3)(3/2) = 2.
        assert!((sol.obj2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_counterexample_1235_no_perfect_balance() {
        // Section 3.1.2: with t22 = 5 instead of 6, no allocation balances
        // perfectly; the exact optimum is obj2 = 2 with P22 partly idle.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = solve_arrangement(&arr);
        assert!(!achieves_perfect_balance(&arr, &sol));
        assert!((sol.obj2 - 2.0).abs() < 1e-9);
        // The optimal shares: r = (1, 1/3), c = (1, 1/2); P22 load 5/6.
        let b = workload_matrix(&arr, &sol.alloc);
        assert!((b[(1, 1)] - 5.0 / 6.0).abs() < 1e-9);
        assert!(is_feasible(&arr, &sol.alloc, 1e-9));
    }

    #[test]
    fn tree_count_matches_cayley_formula_without_pruning() {
        // With pruning disabled the solver walks every spanning tree:
        // K_{2,2} has 2^1 * 2^1 = 4; K_{2,3} has 2^2 * 3 = 12; K_{3,3}
        // has 3^2 * 3^2 = 81 — the counts of the pre-branch-and-bound
        // enumerator.
        let opts = ExactOptions::exhaustive();
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = solve_arrangement_with(&arr, &opts);
        assert_eq!(sol.trees_examined, 4);
        assert_eq!(sol.trees_pruned, 0);

        let arr23 = Arrangement::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let sol23 = solve_arrangement_with(&arr23, &opts);
        assert_eq!(sol23.trees_examined, 12);

        let arr33 = Arrangement::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let sol33 = solve_arrangement_with(&arr33, &opts);
        assert_eq!(sol33.trees_examined, 81);
    }

    #[test]
    fn pruning_cuts_trees_but_not_the_optimum() {
        let arr = Arrangement::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let pruned = solve_arrangement(&arr);
        let full = solve_arrangement_with(&arr, &ExactOptions::exhaustive());
        assert!(
            (pruned.obj2 - full.obj2).abs() < 1e-9,
            "pruning changed the optimum: {} vs {}",
            pruned.obj2,
            full.obj2
        );
        assert!(pruned.trees_pruned > 0, "3x3 search should prune branches");
        assert!(
            pruned.trees_examined < full.trees_examined,
            "pruning should examine fewer full trees"
        );
        assert!(is_feasible(&arr, &pruned.alloc, 1e-9));
    }

    #[test]
    fn exact_dominates_alternating_fixpoint() {
        let arrs = [
            Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]),
            Arrangement::from_rows(&[vec![0.7, 1.1, 2.0], vec![1.3, 1.9, 3.1]]),
            Arrangement::from_rows(&[
                vec![1.0, 2.0, 3.0],
                vec![4.0, 5.0, 6.0],
                vec![7.0, 8.0, 9.0],
            ]),
        ];
        for arr in &arrs {
            let exact = solve_arrangement(arr);
            let alt = crate::alternating::optimize(arr, 10_000);
            assert!(
                exact.obj2 >= alt.alloc.obj2() - 1e-9,
                "exact {} < alternating {}",
                exact.obj2,
                alt.alloc.obj2()
            );
        }
    }

    #[test]
    fn homogeneous_grid_exact() {
        // All-equal processors: obj2 = p * q / t... with t = 1:
        // r_i = c_j = 1 and every product is 1, so obj2 = p * q.
        let arr = Arrangement::from_rows(&[vec![1.0; 3], vec![1.0; 3]]);
        let sol = solve_arrangement(&arr);
        assert!((sol.obj2 - 6.0).abs() < 1e-9);
        assert!(achieves_perfect_balance(&arr, &sol));
    }

    #[test]
    fn global_solution_beats_or_ties_fixed_sorted_arrangement() {
        let times = [1.0, 2.0, 3.0, 5.0];
        let sorted = crate::arrangement::sorted_row_major(&times, 2, 2);
        let fixed = solve_arrangement(&sorted);
        let global = solve_global(&times, 2, 2);
        assert!(global.obj2 >= fixed.obj2 - 1e-12);
        assert_eq!(global.arrangements_examined, 2);
    }

    #[test]
    fn one_and_many_workers_agree() {
        // Inside a `parallel_map` worker `threads()` is 1, so one worker
        // walks every arrangement; at top level the arrangements are
        // dealt across workers (unless the host or `HETGRID_THREADS`
        // gives one thread).
        let cases: [(usize, usize, Vec<f64>); 3] = [
            (3, 3, (1..=9).map(f64::from).collect()),
            (2, 4, vec![0.7, 1.1, 1.3, 1.9, 2.0, 3.1, 4.2, 5.5]),
            (2, 3, vec![1.0, 2.0, 2.0, 3.0, 3.0, 5.0]),
        ];
        for (p, q, times) in &cases {
            let top = solve_global(times, *p, *q);
            let nested = hetgrid_par::parallel_map(vec![(); 2], |()| {
                assert_eq!(hetgrid_par::threads(), 1);
                solve_global(times, *p, *q)
            });
            for inner in nested {
                assert_eq!(inner.arrangement, top.arrangement, "{p}x{q} {times:?}");
                assert_eq!(
                    inner.obj2.to_bits(),
                    top.obj2.to_bits(),
                    "{p}x{q} {times:?}"
                );
            }
        }
    }

    /// One worker visits the arrangements in enumeration order, so its
    /// global effort is deterministic: pinned, so a change to the
    /// branching, the bound, the seeding or the incumbent sharing shows.
    #[test]
    fn one_worker_global_effort_is_pinned() {
        let cases: [(&[f64], usize, usize, (u64, u64, u64)); 4] = [
            (&[1.0, 2.0, 3.0, 5.0], 2, 2, (2, 3, 4)),
            (&[1.0, 2.0, 3.0, 6.0], 2, 2, (2, 2, 6)),
            (
                &[1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 9.0],
                3,
                3,
                (42, 8, 973),
            ),
            (
                &[0.7, 1.1, 1.3, 1.9, 2.0, 3.1, 4.2, 5.5],
                2,
                4,
                (14, 5, 214),
            ),
        ];
        for (times, p, q, want) in cases {
            let got = hetgrid_par::parallel_map(vec![(); 2], |()| {
                let g = solve_global(times, p, q);
                (g.arrangements_examined, g.trees_examined, g.trees_pruned)
            });
            assert_eq!(got, [want; 2], "{p}x{q} {times:?}");
        }
    }

    #[test]
    fn theorem1_nondecreasing_suffices_exhaustive_check() {
        // Cross-check Theorem 1 on random-ish 2x2 instances: the best over
        // ALL 24 arrangements equals the best over non-decreasing ones.
        let instances: &[[f64; 4]] = &[
            [1.0, 2.0, 3.0, 5.0],
            [0.5, 0.9, 1.7, 3.3],
            [2.0, 2.0, 4.0, 5.0],
            [1.0, 1.5, 2.25, 4.0],
        ];
        for times in instances {
            let global = solve_global(times, 2, 2);
            let mut best_any = 0.0f64;
            crate::arrangement::enumerate_all(times, 2, 2, |arr| {
                let s = solve_arrangement(arr);
                if s.obj2 > best_any {
                    best_any = s.obj2;
                }
            });
            assert!(
                (global.obj2 - best_any).abs() < 1e-9,
                "non-decreasing search missed optimum: {} vs {} for {:?}",
                global.obj2,
                best_any,
                times
            );
        }
    }

    #[test]
    fn analytic_2x2_matches_tree_enumeration() {
        let cases: &[[f64; 4]] = &[
            [1.0, 2.0, 3.0, 6.0], // rank-1
            [1.0, 2.0, 3.0, 5.0], // det < 0
            [1.0, 2.0, 3.0, 7.0], // det > 0
            [0.4, 0.9, 0.6, 1.3],
            [2.0, 2.0, 2.0, 2.0], // homogeneous
        ];
        for c in cases {
            let arr = Arrangement::from_rows(&[vec![c[0], c[1]], vec![c[2], c[3]]]);
            let enumerated = solve_arrangement(&arr);
            let analytic = solve_2x2(&arr);
            assert!(
                (enumerated.obj2 - analytic.obj2).abs() < 1e-12,
                "analytic {} != enumerated {} for {:?}",
                analytic.obj2,
                enumerated.obj2,
                c
            );
            assert!(crate::objective::is_feasible(&arr, &analytic.alloc, 1e-9));
        }
    }

    #[test]
    fn single_row_grid_reduces_to_1d() {
        // On a 1 x q grid the optimum is c_j = 1/t_j (each column tight).
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0, 4.0]]);
        let sol = solve_arrangement(&arr);
        assert!((sol.obj2 - (1.0 + 0.5 + 0.25)).abs() < 1e-9);
        assert!(achieves_perfect_balance(&arr, &sol));
    }

    #[test]
    fn external_bound_prunes_exactly_the_suboptimal_arrangements() {
        // Replaces a manual timing probe that measured the same sweep
        // but asserted nothing. The contract it exercised: seeding every
        // arrangement with an external bound just below the global
        // optimum must (a) return `None` for arrangements that cannot
        // beat the bound, (b) return the true optimum for the winners,
        // and (c) leave at least one winner — exactly the behaviour
        // `solve_global` relies on when sharing its incumbent.
        let times: Vec<f64> = (1..=9).map(|x| x as f64).collect();
        let g = solve_global(&times, 3, 3);
        let mut bnb = Bnb::new(3, 3, true);
        let ext = g.obj2 * (1.0 - 1e-9);
        let mut examined = 0usize;
        let mut winners = 0usize;
        crate::arrangement::enumerate_nondecreasing(&times, 3, 3, |a| {
            examined += 1;
            if let Some(s) = bnb.solve(a.times(), ext) {
                winners += 1;
                assert!(
                    s.obj2 >= ext,
                    "survivor below the external bound: {} < {}",
                    s.obj2,
                    ext
                );
                assert!(
                    (s.obj2 - g.obj2).abs() <= g.obj2 * 1e-9,
                    "survivor is not the global optimum: {} vs {}",
                    s.obj2,
                    g.obj2
                );
            }
        });
        assert_eq!(examined, g.arrangements_examined as usize);
        assert!(winners >= 1, "external bound pruned the optimum itself");
        assert!(
            winners < examined,
            "bound pruned nothing — pruning has regressed"
        );
    }

    /// The search effort on the mildly heterogeneous distinct-times
    /// family, pinned: plain enumeration would visit `n^(2n-2)` trees
    /// (4096, ~3.9e5, ~6.0e7), so a change that weakens the bound or
    /// reorders the branching shows here before it shows in a timing.
    #[test]
    fn tree_counts_on_the_spread_family_are_pinned() {
        for (n, examined, pruned) in [(4, 6, 693), (5, 8, 6958), (6, 9, 106_077)] {
            let times: Vec<f64> = (0..n * n)
                .map(|k| {
                    let x = ((k * 37 + 11) % 97) as f64 / 97.0;
                    1.0 + 3.0 * x * x
                })
                .collect();
            let arr = crate::arrangement::sorted_row_major(&times, n, n);
            let sol = solve_arrangement(&arr);
            assert_eq!(
                (sol.trees_examined, sol.trees_pruned),
                (examined, pruned),
                "{n}x{n}"
            );
        }
    }

    #[test]
    fn larger_grid_is_tractable_with_pruning() {
        // 6x6 takes ~44 s by plain enumeration (6^5 * 6^5 trees); the
        // branch-and-bound must solve it instantly and agree with the
        // alternating lower bound it was seeded with.
        let times: Vec<f64> = (0..36).map(|k| 1.0 + 0.11 * (k + 1) as f64).collect();
        let arr = crate::arrangement::sorted_row_major(&times, 6, 6);
        let sol = solve_arrangement(&arr);
        assert!(sol.trees_pruned > 0);
        assert!(is_feasible(&arr, &sol.alloc, 1e-9));
        let alt = crate::alternating::optimize(&arr, 10_000);
        assert!(sol.obj2 >= alt.alloc.obj2() - 1e-9);
    }
}
