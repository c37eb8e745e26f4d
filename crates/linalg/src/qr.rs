//! Householder QR decomposition (the kernel behind the paper's QR
//! discussion in Section 3.2; its parallelization is "analogous" to LU).
//!
//! Level 3, in the shape of the triangular solves (`tri`): a panel of at
//! most `LEAF` columns is factored by the row sweep, one reflector at
//! a time. A wider one is one recursion, left to right: factor the left
//! half, apply its reflectors to the right half as one block reflector
//! `H_1 ... H_b = I - V T V^T` (compact WY, Schreiber–Van Loan) — `W =
//! V^T C`, `W = T^T W`, `C -= V W`, three products through the packed
//! GEMM micro-kernel — then factor the right half. The `T` of the two
//! halves joined is the `T` of the whole, so [`QrFactors`] comes out
//! holding the block reflector of *all* its reflectors, and applying
//! `Q^T` or `Q` is the same three products.

use crate::gemm::{gemm_ranged, matmul, Left, Packs};
use crate::{sub_scaled, Matrix};
use std::ops::Range;

/// At or below this many columns a factorisation is the row sweep, and
/// at or below this many reflectors so is an apply: a block reflector
/// that thin does not pay for its `T` and its packing. It is also the
/// width of the sweep's rows, held in registers (DESIGN §6.4 has the
/// table).
const LEAF: usize = 16;

/// QR factorization `A = Q * R` of an `m x n` matrix with `m >= n`,
/// computed with Householder reflections.
#[derive(Clone, Debug)]
pub struct QrFactors {
    /// Householder vectors stored below the diagonal, `R` on and above.
    packed: Matrix,
    /// Householder scalars `tau_k` (reflection `H = I - tau * v v^T`).
    taus: Vec<f64>,
    /// `Q` as a block reflector — `None` at `n <= LEAF`, where every
    /// apply is the sweep.
    wy: Option<BlockReflector>,
}

/// `Q = H_0 H_1 ... H_{n-1} = I - V T V^T` (compact WY). The reflectors
/// `J` of any leaf-aligned range of columns are on their own the block
/// reflector `I - V_J T_JJ V_J^T`, with `T_JJ` a diagonal block of `T`.
#[derive(Clone, Debug)]
struct BlockReflector {
    /// `V`, made explicit: unit lower trapezoidal, `m x n`.
    v: Matrix,
    /// `T^T`, lower triangular `n x n`: a leaf's recurrence builds `T` a
    /// column at a time, and a column of `T` is a row of `T^T`.
    tt: Matrix,
}

/// Where a range of more than [`LEAF`] columns splits: half of them,
/// rounded up to whole leaves (fewer than all of them).
fn split(cols: &Range<usize>) -> usize {
    cols.start + (cols.len() / 2).next_multiple_of(LEAF)
}

impl BlockReflector {
    /// `V` of `m x n` factors and a zero `T`, with `packs` grown up front
    /// (as `tri` does) to the largest product that builds them — the
    /// first half's reflectors on all `m` rows against as many columns —
    /// so fresh `Packs` grow once, not level by level.
    fn zeros(packs: &mut Packs, v: Matrix) -> Self {
        let (m, n) = v.shape();
        let half = split(&(0..n));
        packs.reserve(half, m, half);
        let tt = Matrix::zeros(n, n);
        BlockReflector { v, tt }
    }

    /// The block reflector of the packed factors `packed` (Householder
    /// vectors below the diagonal) with the scalars `taus`: `T` by the
    /// same calls, in the same order, as [`qr_factor`] makes them —
    /// so every copy of the same factors applies the same bits.
    fn new(packs: &mut Packs, mut packed: Matrix, taus: &[f64]) -> Self {
        let n = packed.cols();
        for i in 0..n {
            let row = packed.row_mut(i);
            row[i] = 1.0;
            row[i + 1..].fill(0.0);
        }
        let mut wy = BlockReflector::zeros(packs, packed);
        wy.build(packs, taus, 0..n);
        wy
    }

    /// `T^T` on the columns `cols`: the recursion of [`factor_cols`]
    /// without the factoring.
    fn build(&mut self, packs: &mut Packs, taus: &[f64], cols: Range<usize>) {
        if cols.len() <= LEAF {
            return self.leaf(packs, taus, cols);
        }
        let mid = split(&cols);
        self.build(packs, taus, cols.start..mid);
        self.build(packs, taus, mid..cols.end);
        self.join(packs, cols, mid);
    }

    /// Fills the diagonal block `cols` of `T^T`, of one leaf panel, once
    /// its columns of `V` are in place: the recurrence `T = [T, -tau_j T
    /// V^T v_j; 0, tau_j]`, one column per reflector. `V^T v_j` is row
    /// `j` of `S = V_J^T V_J` (one product; `S` is symmetric, and `V_J`
    /// is zero above row `cols.start`), and `T * s` is a sum of columns
    /// of `T`, i.e. of rows of `T^T` — row sweeps. A skipped reflector
    /// (`tau == 0`) leaves a zero column of `T`, and with it a zero row.
    fn leaf(&mut self, packs: &mut Packs, taus: &[f64], cols: Range<usize>) {
        let BlockReflector { v, tt } = self;
        let ((m, n), c0, b) = (v.shape(), cols.start, cols.len());
        let (mut s, vj_t) = (Matrix::zeros(b, b), Left(v, cols.clone(), c0..m, true));
        let vj = &v.as_slice()[c0 * n + c0..];
        gemm_ranged(None, packs, 1.0, vj_t, (vj, n), (s.as_mut_slice(), b), b);
        for (j, &tau) in taus[cols].iter().enumerate() {
            if tau == 0.0 {
                continue;
            }
            let (done, row) = tt.as_mut_slice().split_at_mut((c0 + j) * n);
            let row = &mut row[c0..=c0 + j];
            // -T[0..j, 0..j] * s, as `y -= s_l * (column l of T)`.
            for (l, &sjl) in s.row(j)[..j].iter().enumerate() {
                sub_scaled(&mut row[..=l], sjl, &done[(c0 + l) * n + c0..][..=l]);
            }
            row[..j].iter_mut().for_each(|y| *y *= tau);
            row[j] = tau;
        }
    }

    /// Fills the block of `T^T` below the diagonal blocks of `cols`'s
    /// two halves, split at `mid`, once both are in place: `T` of the
    /// two halves is `[T1, -T1 (V1^T V2) T2; 0, T2]`, by three products,
    /// and `V2` is zero above row `mid`, so `V1^T V2` takes only the rows
    /// from there on.
    fn join(&mut self, packs: &mut Packs, cols: Range<usize>, mid: usize) {
        let BlockReflector { v, tt } = self;
        let ((m, n), (c0, c1)) = (v.shape(), (cols.start, cols.end));
        let (b1, b2) = (mid - c0, c1 - mid);
        // T12^T = -T2^T (V2^T V1) T1^T.
        let (mut x, mut y) = (Matrix::zeros(b2, b1), Matrix::zeros(b2, b1));
        let (v2_t, v1) = (
            Left(v, mid..c1, mid..m, true),
            &v.as_slice()[mid * n + c0..],
        );
        gemm_ranged(None, packs, 1.0, v2_t, (v1, n), (x.as_mut_slice(), b1), b1);
        let t2_t = Left(&*tt, mid..c1, mid..c1, false);
        gemm_ranged(
            None,
            packs,
            1.0,
            t2_t,
            (x.as_slice(), b1),
            (y.as_mut_slice(), b1),
            b1,
        );
        let (top, bottom) = tt.as_mut_slice().split_at_mut(mid * n);
        let (t1_t, t12_t) = (&top[c0 * n + c0..], &mut bottom[c0..]);
        gemm_ranged(
            None,
            packs,
            -1.0,
            Left(&y, 0..b2, 0..b1, false),
            (t1_t, n),
            (t12_t, n),
            b1,
        );
    }

    /// `C := Q_J^T C` (`qt`) or `C := Q_J C`, where `Q_J` is the product
    /// of the reflectors `cols`, on the view `(c, ldc)` of rows
    /// `cols.start..m` and `n` columns: `W = V_J^T C`, `W = op(T_JJ) W`,
    /// `C -= V_J W`.
    fn apply(
        &self,
        packs: &mut Packs,
        qt: bool,
        cols: Range<usize>,
        (c, ldc): (&mut [f64], usize),
        n: usize,
    ) {
        let (rows, b) = (cols.start..self.v.rows(), cols.len());
        let (mut w, mut tw) = (Matrix::zeros(b, n), Matrix::zeros(b, n));
        let vj_t = Left(&self.v, cols.clone(), rows.clone(), true);
        gemm_ranged(None, packs, 1.0, vj_t, (&*c, ldc), (w.as_mut_slice(), n), n);
        // `tt` is `T^T`: read as it is for `Q^T`, transposed for `Q`.
        let tjj = Left(&self.tt, cols.clone(), cols.clone(), !qt);
        gemm_ranged(
            None,
            packs,
            1.0,
            tjj,
            (w.as_slice(), n),
            (tw.as_mut_slice(), n),
            n,
        );
        let vj = Left(&self.v, rows, cols, false);
        gemm_ranged(None, packs, -1.0, vj, (tw.as_slice(), n), (c, ldc), n);
    }
}

impl QrFactors {
    /// The packed storage: Householder vectors below the diagonal, `R`
    /// on and above (the wire format of the distributed executor).
    pub fn packed(&self) -> &Matrix {
        &self.packed
    }

    /// The Householder scalars, one per reflector.
    pub fn taus(&self) -> &[f64] {
        &self.taus
    }

    /// Rebuilds factors from their packed representation (the receiving
    /// side of the distributed executor's reflector broadcast). They
    /// apply exactly the bits of the factors `packed` and `taus` came
    /// from.
    ///
    /// # Panics
    /// Panics if `packed` has fewer rows than columns or `taus` has a
    /// length other than the column count.
    pub fn from_parts(packed: Matrix, taus: Vec<f64>) -> Self {
        assert!(
            packed.rows() >= packed.cols(),
            "QrFactors::from_parts: need rows >= cols"
        );
        assert_eq!(
            taus.len(),
            packed.cols(),
            "QrFactors::from_parts: one tau per column"
        );
        let wy = (packed.cols() > LEAF)
            .then(|| BlockReflector::new(&mut Packs::default(), packed.clone(), &taus));
        QrFactors { packed, taus, wy }
    }

    /// The `m x n` "thin" orthogonal factor `Q1` (so `A = Q1 * R`):
    /// `Q` applied to the leading columns of the identity.
    pub fn thin_q(&self) -> Matrix {
        let (m, n) = self.packed.shape();
        let mut q = Matrix::from_fn(m, n, |i, j| if i == j { 1.0 } else { 0.0 });
        self.apply_to(&mut Packs::default(), false, &mut q);
        q
    }

    /// The `n x n` upper-triangular factor `R`.
    pub fn r(&self) -> Matrix {
        let n = self.packed.cols();
        Matrix::from_fn(n, n, |i, j| if i <= j { self.packed[(i, j)] } else { 0.0 })
    }

    /// Applies `Q^T` to `b` (useful for least squares: solve `R x = (Q^T b)_[0..n]`).
    ///
    /// # Panics
    /// Panics if `b` does not have `m` rows.
    pub fn qt_mul(&self, b: &Matrix) -> Matrix {
        let mut x = b.clone();
        self.qt_mul_with(&mut Packs::default(), &mut x);
        x
    }

    /// [`qt_mul`](Self::qt_mul) with `Q^T B` overwriting `B` in `x`,
    /// through the caller's pack buffers: same result to the bit.
    ///
    /// # Panics
    /// As [`qt_mul`](Self::qt_mul).
    pub fn qt_mul_with(&self, packs: &mut Packs, x: &mut Matrix) {
        self.apply_to(packs, true, x);
    }

    /// Applies `Q` to `b`.
    ///
    /// # Panics
    /// Panics if `b` does not have `m` rows.
    pub fn q_mul(&self, b: &Matrix) -> Matrix {
        let mut x = b.clone();
        self.apply_to(&mut Packs::default(), false, &mut x);
        x
    }

    /// [`apply`](Self::apply) on a whole matrix.
    fn apply_to(&self, packs: &mut Packs, qt: bool, x: &mut Matrix) {
        let (rows, n) = x.shape();
        assert_eq!(rows, self.packed.rows(), "QrFactors: B row mismatch");
        self.apply(packs, qt, (x.as_mut_slice(), n), n);
    }

    /// `X := Q^T X` (`qt`) or `X := Q X` on the view `(x, ld)` of `m`
    /// rows and `n` columns: with more than [`LEAF`] reflectors the
    /// block reflector, else the sweep — `H_0` first for `Q^T`, last for
    /// `Q`.
    fn apply(&self, packs: &mut Packs, qt: bool, (x, ld): (&mut [f64], usize), n: usize) {
        let (m, refls) = self.packed.shape();
        if let Some(wy) = &self.wy {
            return wy.apply(packs, qt, 0..refls, (x, ld), n);
        }
        let (mut v, mut w) = (vec![0.0; m], vec![0.0; n]);
        for i in 0..refls {
            let k = if qt { i } else { refls - 1 - i };
            self.house_vector(k, &mut v);
            apply_reflector_left(&v, self.taus[k], k, (&mut *x, ld), &mut w);
        }
    }

    /// Gathers the Householder vector of reflector `k` into `v[k..]`:
    /// unit leading 1 followed by the packed subdiagonal entries.
    fn house_vector(&self, k: usize, v: &mut [f64]) {
        v[k] = 1.0;
        for i in k + 1..self.packed.rows() {
            v[i] = self.packed[(i, k)];
        }
    }
}

/// Applies `H = I - tau v v^T` on the left to rows `k..m` (`m` is
/// `v.len()`) of the view `(x, ld)` of `w.len()` columns — row `i`
/// starts at `x[i * ld]` — as two sweeps along its rows: `w = v^T x`
/// accumulated row by row (each `w[j]` still sums `v_i * x_ij` from 0.0
/// for increasing `i`), then `x_i -= v_i * (tau w)`.
fn apply_reflector_left(
    v: &[f64],
    tau: f64,
    k: usize,
    (x, ld): (&mut [f64], usize),
    w: &mut [f64],
) {
    if tau == 0.0 {
        return;
    }
    let n = w.len();
    w.fill(0.0);
    for i in k..v.len() {
        for (wj, xij) in w.iter_mut().zip(&x[i * ld..][..n]) {
            *wj += v[i] * xij;
        }
    }
    for wj in w.iter_mut() {
        *wj *= tau;
    }
    for i in k..v.len() {
        sub_scaled(&mut x[i * ld..][..n], v[i], w);
    }
}

/// Householder QR of an `m x n` matrix with `m >= n`.
///
/// # Panics
/// Panics if `m < n`.
pub fn qr_factor(a: &Matrix) -> QrFactors {
    qr_factor_with(&mut Packs::default(), a)
}

/// [`qr_factor`] through the caller's pack buffers: same result to the
/// bit, without the allocations.
///
/// # Panics
/// As [`qr_factor`].
pub fn qr_factor_with(packs: &mut Packs, a: &Matrix) -> QrFactors {
    let (m, n) = a.shape();
    assert!(m >= n, "qr_factor: need rows >= cols");
    let mut packed = a.clone();
    let mut taus = vec![0.0; n];
    if n <= LEAF {
        sweep_leaf(&mut packed, &mut taus, 0..n);
        return QrFactors {
            packed,
            taus,
            wy: None,
        };
    }
    let mut wy = BlockReflector::zeros(packs, Matrix::zeros(m, n));
    factor_cols(packs, &mut packed, &mut taus, &mut wy, 0..n);
    QrFactors {
        packed,
        taus,
        wy: Some(wy),
    }
}

/// Factors the columns `cols` of `packed`, on rows `cols.start..`, once
/// every column left of them is factored and applied to them; fills
/// their columns of `V` and their diagonal block of `T^T` in `wy`. Above
/// a leaf: the left half, its `Q^T` on the right half, the right half,
/// the join of their `T`s — the calls [`BlockReflector::build`] makes,
/// in the same order.
fn factor_cols(
    packs: &mut Packs,
    packed: &mut Matrix,
    taus: &mut [f64],
    wy: &mut BlockReflector,
    cols: Range<usize>,
) {
    let (c0, n) = (cols.start, packed.cols());
    if cols.len() <= LEAF {
        let v = sweep_leaf(packed, taus, cols.clone());
        for (p, i) in (c0..packed.rows()).enumerate() {
            wy.v.row_mut(i)[cols.clone()].copy_from_slice(&v.row(p)[..cols.len()]);
        }
        return wy.leaf(packs, taus, cols);
    }
    let mid = split(&cols);
    factor_cols(packs, packed, taus, wy, c0..mid);
    let right = &mut packed.as_mut_slice()[c0 * n + mid..];
    wy.apply(packs, true, c0..mid, (right, n), cols.end - mid);
    factor_cols(packs, packed, taus, wy, mid..cols.end);
    wy.join(packs, cols, mid);
}

/// Factors the leaf panel `cols` of `packed` (on rows `cols.start..`) by
/// the row sweep, where its rows are contiguous and a leaf wide, and
/// returns its explicit `V`, one leaf wide.
fn sweep_leaf(packed: &mut Matrix, taus: &mut [f64], cols: Range<usize>) -> Matrix {
    let (rows, b) = (cols.start..packed.rows(), cols.len());
    let mut panel = Matrix::zeros(rows.len(), LEAF);
    for (p, i) in rows.clone().enumerate() {
        panel.row_mut(p)[..b].copy_from_slice(&packed.row(i)[cols.clone()]);
    }
    let mut v = Matrix::zeros(rows.len(), LEAF);
    let (panel_rows, v_rows) = (panel.as_mut_slice(), v.as_mut_slice());
    sweep_factor(
        panel_rows.as_chunks_mut().0,
        v_rows.as_chunks_mut().0,
        b,
        &mut taus[cols.clone()],
    );
    // `R` on and above the diagonal, `V` below it.
    for (p, i) in rows.enumerate() {
        let (r, vp, diag) = (panel.row(p), v.row(p), p.min(b));
        let out = &mut packed.row_mut(i)[cols.clone()];
        out[..diag].copy_from_slice(&vp[..diag]);
        out[diag..].copy_from_slice(&r[diag..b]);
    }
    v
}

/// Householder QR by the row sweep, one reflector at a time, each
/// applied to the columns right of it, of the first `b` columns of
/// `panel`: rows of [`LEAF`] columns, the rest of them padding. `R`
/// lands on and above the diagonal of `panel`, the explicit `V` (unit
/// lower; zero on entry) in `v`, the scalars in `taus`.
///
/// Every operation of the reference sweep is here, on the same values in
/// the same order; the passes over the rows are fused and run on whole
/// quarters of a row ([`reflect`]). The update of row `i` also gathers
/// the next column's entry, adding it to that column's norm in the row
/// order a separate gather would. Columns left of the current one may
/// be updated too, and are never read again: their Householder vectors
/// are already in `v`, so the row update needs no mask. (Applying `H` to
/// them is an orthogonal map, so nothing there overflows.)
fn sweep_factor(panel: &mut [[f64; LEAF]], v: &mut [[f64; LEAF]], b: usize, taus: &mut [f64]) {
    let m = panel.len();
    // Column `k` from row `k` down into `x[k..]`, and its squared norm.
    let gather = |panel: &[[f64; LEAF]], k: usize, x: &mut [f64]| {
        let mut normx = 0.0;
        for (xi, row) in x[k..].iter_mut().zip(&panel[k..]) {
            *xi = row[k];
            normx += *xi * *xi;
        }
        normx
    };
    let mut x = vec![0.0; m];
    let mut normx = if b > 0 { gather(panel, 0, &mut x) } else { 0.0 };
    for k in 0..b {
        // The Householder reflector annihilating panel[k+1.., k].
        v[k][k] = 1.0;
        let norm = normx.sqrt();
        if norm == 0.0 {
            // Skipped (tau = 0): the column stays as it is.
            for (vi, &xi) in v[k + 1..].iter_mut().zip(&x[k + 1..]) {
                vi[k] = xi;
            }
            if k + 1 < b {
                normx = gather(panel, k + 1, &mut x);
            }
            continue;
        }
        let alpha = x[k];
        let beta = -alpha.signum() * norm;
        let tau = (beta - alpha) / beta;
        let scale = alpha - beta; // v = x - beta e1, normalized so v[k] = 1
        x[k] = 1.0;
        for (xi, vi) in x[k + 1..].iter_mut().zip(&mut v[k + 1..]) {
            *xi /= scale;
            vi[k] = *xi;
        }
        // Only the columns right of `k` are live: the last quarters of
        // the row that hold them.
        normx = match (LEAF - k).div_ceil(LEAF / 4) {
            4 => reflect::<LEAF>(panel, &mut x, k, tau),
            3 => reflect::<{ 3 * LEAF / 4 }>(panel, &mut x, k, tau),
            2 => reflect::<{ LEAF / 2 }>(panel, &mut x, k, tau),
            _ => reflect::<{ LEAF / 4 }>(panel, &mut x, k, tau),
        };
        panel[k][k] = beta;
        taus[k] = tau;
    }
}

/// Applies the reflector `(x[k..], tau)` to the last `W` columns of the
/// panel's rows `k..` — every column right of `k` among them — and
/// returns the squared norm of column `k + 1` below its diagonal,
/// gathered into `x[k + 1..]` as its rows are updated. `w = tau v^T X`
/// is held in registers: each `w[j]` sums `v_i * x_ij` from 0.0 for
/// increasing `i`, then `x_i -= v_i * w`.
fn reflect<const W: usize>(panel: &mut [[f64; LEAF]], x: &mut [f64], k: usize, tau: f64) -> f64 {
    const FITS: &str = "a quarter of a leaf or more, and no more than one";
    let mut w = [0.0; W];
    for (xi, row) in x[k..].iter().zip(&panel[k..]) {
        for (wj, pij) in w.iter_mut().zip(row.last_chunk::<W>().expect(FITS)) {
            *wj += xi * pij;
        }
    }
    for wj in &mut w {
        *wj *= tau;
    }
    let next = (k + 1).min(LEAF - 1) - (LEAF - W);
    let mut normx = 0.0;
    for (i, row) in panel.iter_mut().enumerate().skip(k) {
        let (xi, row) = (x[i], row.last_chunk_mut::<W>().expect(FITS));
        for (pij, wj) in row.iter_mut().zip(&w) {
            *pij -= xi * wj;
        }
        if i > k {
            x[i] = row[next];
            normx += x[i] * x[i];
        }
    }
    normx
}

/// Convenience: returns `(Q_thin, R)` with `A = Q_thin * R`.
pub fn qr(a: &Matrix) -> (Matrix, Matrix) {
    let f = qr_factor(a);
    (f.thin_q(), f.r())
}

/// Right-looking *blocked* QR with panel width `b`: factor a panel of
/// `b` columns with Householder reflections, then apply the aggregated
/// reflectors to the trailing columns — the same phase structure the
/// parallel algorithm distributes (Section 3.2.2 notes QR parallelizes
/// like LU).
///
/// Returns `(Q_thin, R)` with `A = Q_thin * R`. Numerically equivalent
/// to [`qr`] up to reflector sign conventions; the factorization
/// product and `R`'s diagonal magnitudes agree.
///
/// # Panics
/// Panics if `m < n` or `b == 0`.
pub fn qr_blocked(a: &Matrix, b: usize) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    assert!(m >= n, "qr_blocked: need rows >= cols");
    assert!(b > 0, "qr_blocked: block size must be positive");
    let mut w = a.clone();
    let mut packs = Packs::default();
    let mut panels = Vec::new();

    let mut k = 0;
    while k < n {
        let kb = b.min(n - k);
        // Factor the panel (rows k..m, columns k..k+kb).
        let pf = qr_factor_with(&mut packs, &w.block(k, k, m - k, kb));
        // Apply Q_panel^T to the trailing columns, where they lie.
        if k + kb < n {
            let trailing = &mut w.as_mut_slice()[k * n + k + kb..];
            pf.apply(&mut packs, true, (trailing, n), n - k - kb);
        }
        // Write the panel's R (zeros below its diagonal).
        let r_panel = pf.r();
        for i in 0..m - k {
            for j in 0..kb {
                w[(k + i, k + j)] = if i < kb && i <= j {
                    r_panel[(i, j)]
                } else {
                    0.0
                };
            }
        }
        panels.push((k, pf));
        k += kb;
    }

    // Q_thin = Q_0 (Q_1 (... (Q_last [I; 0]))): when panel `k`'s turn
    // comes, columns left of `k` are still zero on rows `k..`, so its
    // reflectors need only the block from `(k, k)` on.
    let mut q = Matrix::from_fn(m, n, |i, j| if i == j { 1.0 } else { 0.0 });
    for (k, pf) in panels.iter().rev() {
        let block = &mut q.as_mut_slice()[k * n + k..];
        pf.apply(&mut packs, false, (block, n), n - k);
    }
    let r = Matrix::from_fn(n, n, |i, j| if i <= j { w[(i, j)] } else { 0.0 });
    (q, r)
}

/// Frobenius-norm reconstruction error `|A - Q R|_F`.
pub fn qr_residual(a: &Matrix) -> f64 {
    let (q, r) = qr(a);
    a.sub(&matmul(&q, &r)).frobenius_norm()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0xA24BAED4963EE407).wrapping_add(7);
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn reconstruction() {
        for &(m, n) in &[(1, 1), (4, 4), (8, 5), (20, 20), (35, 12)] {
            let a = test_matrix(m, n, (m * 100 + n) as u64);
            assert!(qr_residual(&a) < 1e-9, "m={} n={}", m, n);
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = test_matrix(10, 6, 42);
        let (q, _) = qr(&a);
        let qtq = matmul(&q.transpose(), &q);
        assert!(qtq.approx_eq(&Matrix::identity(6), 1e-10));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = test_matrix(7, 7, 9);
        let (_, r) = qr(&a);
        for i in 0..7 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn blocked_qr_reconstructs_and_is_orthonormal() {
        for &(m, n) in &[(6, 6), (10, 7), (16, 16), (13, 5)] {
            for b in [1, 2, 3, 8] {
                let a = test_matrix(m, n, (m * 100 + n + b) as u64);
                let (q, r) = qr_blocked(&a, b);
                assert!(
                    matmul(&q, &r).approx_eq(&a, 1e-9),
                    "m={} n={} b={}",
                    m,
                    n,
                    b
                );
                assert!(
                    matmul(&q.transpose(), &q).approx_eq(&Matrix::identity(n), 1e-9),
                    "Q not orthonormal at m={} n={} b={}",
                    m,
                    n,
                    b
                );
                // R upper triangular.
                for i in 0..n {
                    for j in 0..i {
                        assert_eq!(r[(i, j)], 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_qr_r_matches_unblocked_up_to_sign() {
        let a = test_matrix(9, 6, 5);
        let (_, r0) = qr(&a);
        let (_, r1) = qr_blocked(&a, 2);
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    (r0[(i, j)].abs() - r1[(i, j)].abs()).abs() < 1e-9,
                    "R magnitude mismatch at ({}, {})",
                    i,
                    j
                );
            }
        }
    }

    #[test]
    fn rank_deficient_column_handled() {
        // Second column is zero: reflector is skipped (tau = 0), R has a
        // zero diagonal there, but reconstruction still holds.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0],
            vec![3.0, 0.0, 4.0],
            vec![5.0, 0.0, 6.0],
        ]);
        assert!(qr_residual(&a) < 1e-10);
    }
}
