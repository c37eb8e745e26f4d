//! Differential oracles: every harness run is judged against an
//! independent source of truth.
//!
//! * **Numerical** — the distributed result must match the single-node
//!   `hetgrid-linalg` reference (product, reconstructed factorization,
//!   or solve residual) element-wise within a tolerance;
//! * **Counting** — the executor's per-processor message and work-unit
//!   tables must *exactly* equal the closed-form predictions of
//!   [`hetgrid_sim::counts`]. A transport that loses, duplicates, or
//!   misroutes a message cannot pass this even when the numbers happen
//!   to come out right;
//! * **Conservation** — redistribution moves exactly the blocks whose
//!   processor changes, once each, and preserves the matrix content.
//!
//! Oracles return `Err(String)` with a self-contained explanation; the
//! runner attaches the seed and fault profile so any failure is
//! replayable.

use hetgrid_dist::Placement;
use hetgrid_exec::{DistributedMatrix, ExecReport, RecoveryStats, RunOutput};
use hetgrid_linalg::gemm::matmul;
use hetgrid_linalg::tri::{unit_lower_from_packed, upper_from_packed};
use hetgrid_linalg::Matrix;
use hetgrid_plan::Kernel;
use hetgrid_sim::counts::KernelCounts;

/// Checks `c` against the reference product `a * b`.
pub fn check_mm(a: &Matrix, b: &Matrix, c: &Matrix, tol: f64) -> Result<(), String> {
    let reference = matmul(a, b);
    if c.approx_eq(&reference, tol) {
        Ok(())
    } else {
        Err(format!(
            "MM mismatch vs linalg reference: max err {:.3e} (tol {:.1e})",
            c.sub(&reference).max_abs(),
            tol
        ))
    }
}

/// Checks the packed LU factors: `L * U` must reproduce `a`.
pub fn check_lu(a: &Matrix, packed: &Matrix, tol: f64) -> Result<(), String> {
    let lu = matmul(&unit_lower_from_packed(packed), &upper_from_packed(packed));
    if lu.approx_eq(a, tol) {
        Ok(())
    } else {
        Err(format!(
            "LU mismatch: |L*U - A| max err {:.3e} (tol {:.1e})",
            lu.sub(a).max_abs(),
            tol
        ))
    }
}

/// Checks the Cholesky factor: `L * L^T` must reproduce `a`.
pub fn check_cholesky(a: &Matrix, l: &Matrix, tol: f64) -> Result<(), String> {
    let llt = matmul(l, &l.transpose());
    if llt.approx_eq(a, tol) {
        Ok(())
    } else {
        Err(format!(
            "Cholesky mismatch: |L*L^T - A| max err {:.3e} (tol {:.1e})",
            llt.sub(a).max_abs(),
            tol
        ))
    }
}

/// Checks the packed QR factors of a [`Kernel::Qr`] run:
/// unpacking must give an orthonormal `Q` with `Q * R` reproducing `a`.
pub fn check_qr(
    a: &Matrix,
    packed: &Matrix,
    taus: &[f64],
    nb: usize,
    r: usize,
    tol: f64,
) -> Result<(), String> {
    let (qm, rmat) = hetgrid_exec::qr_unpack(packed, taus, nb, r);
    let qr = matmul(&qm, &rmat);
    if !qr.approx_eq(a, tol) {
        return Err(format!(
            "QR mismatch: |Q*R - A| max err {:.3e} (tol {:.1e})",
            qr.sub(a).max_abs(),
            tol
        ));
    }
    let n = nb * r;
    let qtq = matmul(&qm.transpose(), &qm);
    let eye = Matrix::identity(n);
    if !qtq.approx_eq(&eye, tol) {
        return Err(format!(
            "QR orthogonality loss: |Q^T Q - I| max err {:.3e} (tol {:.1e})",
            qtq.sub(&eye).max_abs(),
            tol
        ));
    }
    Ok(())
}

/// Checks a [`hetgrid_exec::run`] output against the `hetgrid-linalg`
/// reference for its kernel: the product for MM (tolerance 1e-9), the
/// reconstructed factorization for LU, Cholesky and QR (1e-8). `inputs`
/// are the matrices the run was given.
///
/// # Panics
/// Panics if a QR output comes without `taus`.
pub fn check_kernel(
    kernel: Kernel,
    inputs: &[Matrix],
    out: &RunOutput,
    nb: usize,
    r: usize,
) -> Result<(), String> {
    let res = &out.result;
    match kernel {
        Kernel::Mm => check_mm(&inputs[0], &inputs[1], res, 1e-9),
        Kernel::Lu => check_lu(&inputs[0], res, 1e-8),
        Kernel::Cholesky => check_cholesky(&inputs[0], res, 1e-8),
        Kernel::Qr => {
            let taus = out.taus.as_deref().expect("QR returns taus");
            check_qr(&inputs[0], res, taus, nb, r, 1e-8)
        }
    }
}

/// Checks a solve: the max-norm residual `|A x - b|` must be below
/// `tol`.
pub fn check_solve(a: &Matrix, x: &[f64], b: &[f64], tol: f64) -> Result<(), String> {
    let res = hetgrid_exec::solve::residual(a, x, b);
    if res < tol {
        Ok(())
    } else {
        Err(format!("solve residual {res:.3e} above tol {tol:.1e}"))
    }
}

/// Checks the executor's observed per-processor message and work-unit
/// tables against the [`hetgrid_sim::counts`] prediction, exactly.
pub fn check_counts(report: &ExecReport, predicted: &KernelCounts) -> Result<(), String> {
    if report.messages_sent != predicted.messages {
        return Err(format!(
            "message counts diverge from sim prediction:\n observed {:?}\npredicted {:?}",
            report.messages_sent, predicted.messages
        ));
    }
    if report.work_units != predicted.work_units {
        return Err(format!(
            "work units diverge from sim prediction:\n observed {:?}\npredicted {:?}",
            report.work_units, predicted.work_units
        ));
    }
    Ok(())
}

/// Memory-bound oracle for the master-worker platform: the per-worker
/// residency high-water marks of the executed plan (the
/// [`hetgrid_sim::counts::star_residency_peaks`] fold — exact for the
/// executor, because residency transitions conflict on the worker's
/// memory pseudo-resource and therefore replay in program order) must
/// fit the star's per-worker budget, and the master must hold no
/// resident worker blocks at all. The executor additionally asserts the
/// live count after every load, so a violation trips twice: once at
/// runtime, once here against the closed-form trace.
pub fn check_star_memory(peaks: &[u64], worker_mem: usize) -> Result<(), String> {
    if peaks.first() != Some(&0) {
        return Err(format!(
            "star master shows a resident-block peak of {:?} (must be 0)",
            peaks.first()
        ));
    }
    for (w, &peak) in peaks.iter().enumerate().skip(1) {
        if peak > worker_mem as u64 {
            return Err(format!(
                "star worker {w} peaks at {peak} resident blocks, budget is {worker_mem}"
            ));
        }
    }
    Ok(())
}

/// Cross-checks the *metrics-layer* counters against the same
/// closed-form [`hetgrid_sim::counts`] predictions the [`ExecReport`]
/// oracle uses. `delta` must be a per-run snapshot delta taken around a
/// kernel run with tracing enabled (the executor's probes are no-ops
/// otherwise). The metrics path is plumbed independently of the report
/// (atomic counters vs. per-worker locals sent over the done channel),
/// so this catches instrumentation drift in either direction. Also
/// requires the per-edge `exec.edge.*.msgs` series to sum to the same
/// total — an edge accounted twice or not at all fails here even when
/// the per-processor totals happen to agree.
pub fn check_obs_counts(
    delta: &hetgrid_obs::MetricsSnapshot,
    predicted: &KernelCounts,
) -> Result<(), String> {
    let p = predicted.messages.len();
    let q = predicted.messages.first().map_or(0, |row| row.len());
    for i in 0..p {
        for j in 0..q {
            let msgs = delta.counter(&format!("exec.p{i}_{j}.msgs"));
            if msgs != predicted.messages[i][j] {
                return Err(format!(
                    "obs counter exec.p{i}_{j}.msgs = {msgs}, sim predicts {}",
                    predicted.messages[i][j]
                ));
            }
            let work = delta.counter(&format!("exec.p{i}_{j}.work"));
            if work != predicted.work_units[i][j] {
                return Err(format!(
                    "obs counter exec.p{i}_{j}.work = {work}, sim predicts {}",
                    predicted.work_units[i][j]
                ));
            }
        }
    }
    let edge_total: u64 = delta
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("exec.edge.") && name.ends_with(".msgs"))
        .map(|(_, v)| v)
        .sum();
    let predicted_total: u64 = predicted.messages.iter().flatten().sum();
    if edge_total != predicted_total {
        return Err(format!(
            "obs per-edge message counters sum to {edge_total}, sim predicts {predicted_total}"
        ));
    }
    Ok(())
}

/// Accounting oracle for the serve plan cache: checks the
/// `serve.*` counter invariants on a per-run metrics delta taken
/// around a batch of requests against a [`hetgrid_serve::Service`].
///
/// * every admitted request is either a cache hit or a cache miss —
///   `hits + misses == admitted`;
/// * the solver runs exactly once per miss (coalesced duplicates wait
///   on the leader instead of re-solving) — `solves == misses`;
/// * the cache can only evict entries it inserted, and insertions only
///   happen on misses — `evictions <= misses`;
/// * a coalesced wait is recorded as a hit, so `coalesced <= hits`.
///
/// A cache that double-solves, drops accounting on the panic path, or
/// counts a shed request as admitted fails here even when every
/// response is correct.
pub fn check_serve_cache(delta: &hetgrid_obs::MetricsSnapshot) -> Result<(), String> {
    let admitted = delta.counter("serve.requests.admitted");
    let hits = delta.counter("serve.cache.hits");
    let misses = delta.counter("serve.cache.misses");
    let solves = delta.counter("serve.solver.invocations");
    let evictions = delta.counter("serve.cache.evictions");
    let coalesced = delta.counter("serve.cache.coalesced");

    if hits + misses != admitted {
        return Err(format!(
            "serve cache accounting leak: hits {hits} + misses {misses} != admitted {admitted}"
        ));
    }
    if solves != misses {
        return Err(format!(
            "serve solver ran {solves} times for {misses} cache misses (must be 1:1)"
        ));
    }
    if evictions > misses {
        return Err(format!(
            "serve cache evicted {evictions} entries but only {misses} were ever inserted"
        ));
    }
    if coalesced > hits {
        return Err(format!(
            "serve coalesced {coalesced} requests but only {hits} hits were recorded"
        ));
    }
    Ok(())
}

/// Telemetry-codec oracle: writing a metrics snapshot to the text
/// exposition format and parsing it back must reproduce the snapshot
/// exactly — counters and histograms equal, gauges bit-identical
/// (`to_bits`, so NaN payloads and signed zeros count too). The
/// exposition is what `hetgrid top` and any scraper consume; a lossy
/// or ambiguous encoding would silently corrupt every downstream
/// reading, so the harness round-trips the *live* registry contents
/// (hostile names included — per-tenant counters embed user strings)
/// after every instrumented run.
pub fn check_expo_roundtrip(snap: &hetgrid_obs::MetricsSnapshot) -> Result<(), String> {
    let text = hetgrid_obs::expo::write(snap);
    let back = hetgrid_obs::expo::parse(&text)
        .map_err(|e| format!("exposition parse-back failed: {e}"))?;
    if back.counters != snap.counters {
        return Err("exposition round-trip changed the counters".to_string());
    }
    if back.histograms != snap.histograms {
        return Err("exposition round-trip changed the histograms".to_string());
    }
    if back.gauges.len() != snap.gauges.len() {
        return Err(format!(
            "exposition round-trip changed the gauge count: {} -> {}",
            snap.gauges.len(),
            back.gauges.len()
        ));
    }
    for (name, v) in &snap.gauges {
        match back.gauges.get(name) {
            Some(b) if b.to_bits() == v.to_bits() => {}
            Some(b) => {
                return Err(format!(
                    "exposition round-trip changed gauge {name:?}: {v} -> {b}"
                ))
            }
            None => return Err(format!("exposition round-trip lost gauge {name:?}")),
        }
    }
    Ok(())
}

/// Differential oracle for elastic-grid recovery: a run that survived a
/// crash (or absorbed a join) must be **indistinguishable** from the
/// fault-free run of the same scenario.
///
/// * the recovered result must equal the fault-free reference
///   *bit-exactly* (tolerance zero) — checkpoint replay re-executes the
///   same per-block arithmetic in the same order, so even the rounding
///   must agree;
/// * QR's Householder scalars must match exactly as well;
/// * the driver must have attributed every scheduled fault — an epoch
///   that aborted and silently restarted without accounting a crash or
///   join fails here.
///
/// Block conservation across the grid change is asserted inside
/// `run_recovery` itself (the gather panics on any missing block), so a
/// run that reaches this oracle has already proven it.
pub fn check_recovery(
    reference: &Matrix,
    recovered: &Matrix,
    reference_taus: Option<&[f64]>,
    recovered_taus: Option<&[f64]>,
    stats: &RecoveryStats,
    expected_faults: usize,
) -> Result<(), String> {
    if !recovered.approx_eq(reference, 0.0) {
        return Err(format!(
            "recovered result is not bit-exact vs the fault-free run: max err {:.3e} \
             (stats: {stats:?})",
            recovered.sub(reference).max_abs()
        ));
    }
    match (reference_taus, recovered_taus) {
        (None, None) => {}
        (Some(a), Some(b)) if a == b => {}
        (Some(a), Some(b)) => {
            let max_err = a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            return Err(format!(
                "recovered Householder scalars diverge from the fault-free run: \
                 lengths {} vs {}, max err {max_err:.3e}",
                a.len(),
                b.len()
            ));
        }
        (a, b) => {
            return Err(format!(
                "Householder scalars present/absent mismatch: reference {}, recovered {}",
                a.is_some(),
                b.is_some()
            ));
        }
    }
    let handled = stats.crashes + stats.joins;
    if handled != expected_faults {
        return Err(format!(
            "recovery driver handled {handled} grid faults, schedule injected {expected_faults} \
             (stats: {stats:?})"
        ));
    }
    Ok(())
}

/// Conservation oracle for redistribution, judged by processor: the
/// move count [`hetgrid_adapt::redistribute`] reports must equal the
/// analytic [`Placement::blocks_moved`], every block must be held by the
/// processor `to` names, and the gathered matrix content must be
/// untouched.
pub fn check_redistribution(
    m: &Matrix,
    from: &Placement,
    to: &Placement,
    nb: usize,
    r: usize,
) -> Result<(), String> {
    let planned = from.blocks_moved(to, nb);
    let mut dm = DistributedMatrix::scatter(m, from.dist, nb, r);
    let moved = hetgrid_adapt::redistribute(&mut dm, from, to);
    let held: usize = dm.stores.iter().map(|store| store.len()).sum();
    if moved != planned || held != nb * nb {
        return Err(format!(
            "redistribute moved {moved} blocks, analysis says {planned}; {held} of {} held",
            nb * nb
        ));
    }
    // After the move, every block must be held by its new processor...
    let q = dm.grid.1;
    for (s, store) in dm.stores.iter().enumerate() {
        let holder = to.arr.proc(s / q, s % q);
        if let Some(&(bi, bj)) = store.keys().find(|&&(bi, bj)| to.owner(bi, bj) != holder) {
            let owner = to.owner(bi, bj);
            return Err(format!(
                "block ({bi}, {bj}) held by processor {holder}, owned by {owner}"
            ));
        }
    }
    // ...and the matrix content must be untouched.
    let gathered = dm.gather();
    if !gathered.approx_eq(m, 0.0) {
        return Err(format!(
            "redistribution corrupted data: max err {:.3e}",
            gathered.sub(m).max_abs()
        ));
    }
    Ok(())
}
