//! Overhead benchmark for the observability layer: the instrumented
//! GEMM executor and exact-solver paths with tracing disabled (the
//! default) must not measurably regress, and the cost of running them
//! with tracing *enabled* is reported so it stays understood.
//!
//! Five measurements, written to `BENCH_obs.json` at the repo root:
//!
//! 1. the disabled fast path in isolation — a tight loop of `span!` /
//!    `event!` invocations while tracing is off (one relaxed atomic
//!    load each, nothing formatted);
//! 2. the same loop with only the *flight-recorder* bit set — spans
//!    are formatted and pushed into the per-thread crash ring but
//!    never exported, which is the cost a `--flight-recorder` run
//!    pays on every instrumented operation;
//! 3. the cost of one `series::sample()` — the periodic metrics delta
//!    the serve sampler thread records once a second;
//! 4. the threaded GEMM executor (`hetgrid_exec::run_mm_on_cfg`) with tracing
//!    off vs on;
//! 5. the exact solver (`hetgrid_core::exact::solve_global`) with
//!    tracing off vs on (its effort counters publish to the metrics
//!    registry unconditionally, once per solve — the toggle exercises
//!    the span/trace layer only).
//!
//! Usage: `obs_overhead [--smoke]`. `--smoke` shrinks the problems so
//! CI exercises the full path in seconds. Wall-clock timings on shared
//! runners are reported, not asserted — with one exception: the
//! disabled probe is pure in-core work (no allocation, no syscalls),
//! so it is stable enough to gate on. If it exceeds 2 ns per call the
//! zero-cost-when-off contract is broken and the benchmark exits
//! non-zero.

use hetgrid_core::exact;
use hetgrid_dist::BlockCyclic;
use hetgrid_exec::{run_mm_on_cfg, slowdown_weights, ChannelTransport, ExecConfig};
use hetgrid_linalg::Matrix;
use hetgrid_obs::diag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

fn time_avg(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Runs `f` `reps` times with tracing set to `on`, draining the trace
/// collector afterwards so runs never pay for a predecessor's buffer.
fn time_traced(reps: usize, on: bool, f: &mut impl FnMut()) -> f64 {
    hetgrid_obs::set_enabled(on);
    let dt = time_avg(reps, f);
    hetgrid_obs::set_enabled(false);
    hetgrid_obs::trace::clear();
    dt
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"smoke\": {},", smoke);

    // --- 1. the disabled fast path in isolation ---
    let probes: u64 = if smoke { 1_000_000 } else { 20_000_000 };
    hetgrid_obs::set_enabled(false);
    let track = hetgrid_obs::trace::track("obs-overhead");
    let t0 = Instant::now();
    for i in 0..probes {
        let g = hetgrid_obs::span!(track, "never formatted {}", i);
        std::hint::black_box(&g);
        hetgrid_obs::event!(track, "never formatted {}", i);
    }
    let ns_per_probe = t0.elapsed().as_secs_f64() * 1e9 / (2 * probes) as f64;
    println!(
        "disabled span!/event! fast path: {:.2} ns per call ({} calls)",
        ns_per_probe,
        2 * probes
    );
    let _ = writeln!(json, "  \"disabled_probe_ns\": {:.3},", ns_per_probe);

    // --- 2. the same probes with only the flight-recorder bit set ---
    // Spans are formatted and land in the per-thread crash ring (a
    // bounded overwrite, no allocation growth), but nothing is
    // exported. This is the steady-state cost of `--flight-recorder`.
    let flight_probes: u64 = if smoke { 100_000 } else { 2_000_000 };
    hetgrid_obs::trace::set_flight(true);
    let t0 = Instant::now();
    for i in 0..flight_probes {
        let g = hetgrid_obs::span!(track, "flight ring probe {}", i);
        std::hint::black_box(&g);
        hetgrid_obs::event!(track, "flight ring probe {}", i);
    }
    let flight_ns = t0.elapsed().as_secs_f64() * 1e9 / (2 * flight_probes) as f64;
    hetgrid_obs::trace::set_flight(false);
    hetgrid_obs::flight::clear();
    println!(
        "flight-recorder span!/event! path: {:.2} ns per call ({} calls)",
        flight_ns,
        2 * flight_probes
    );
    let _ = writeln!(json, "  \"flight_probe_ns\": {:.3},", flight_ns);

    // --- 3. one periodic metrics-series sample ---
    // The serve sampler thread calls this once a second; its cost is a
    // full registry snapshot plus a delta against the previous one.
    let samples: usize = if smoke { 200 } else { 2_000 };
    let series = hetgrid_obs::series::Series::new();
    let sample_s = time_avg(samples, || series.sample());
    println!(
        "series::sample() snapshot+delta: {:.2} us per sample ({} samples)",
        sample_s * 1e6,
        samples
    );
    let _ = writeln!(json, "  \"series_sample_us\": {:.3},", sample_s * 1e6);

    // --- 4. GEMM executor, tracing off vs on ---
    let (nb, r, reps) = if smoke { (4, 8, 3) } else { (8, 24, 10) };
    let arr = hetgrid_core::Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
    let dist = BlockCyclic::new(2, 2);
    let weights = slowdown_weights(&arr);
    let n = nb * r;
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    diag!(
        "timing {}x{} GEMM on the threaded executor ({} reps)...",
        n,
        n,
        reps
    );
    let mut gemm = || {
        let cfg = ExecConfig::default();
        let out = run_mm_on_cfg(&ChannelTransport, &a, &b, &dist, nb, r, &weights, cfg);
        std::hint::black_box(out.unwrap());
    };
    let gemm_off = time_traced(reps, false, &mut gemm);
    let gemm_on = time_traced(reps, true, &mut gemm);
    println!(
        "exec GEMM {}x{} (nb={}, r={}): off {:.3} ms, on {:.3} ms  ({:+.1}%)",
        n,
        n,
        nb,
        r,
        gemm_off * 1e3,
        gemm_on * 1e3,
        (gemm_on / gemm_off - 1.0) * 100.0
    );
    let _ = writeln!(
        json,
        "  \"gemm\": {{ \"n\": {}, \"off_ms\": {:.4}, \"on_ms\": {:.4} }},",
        n,
        gemm_off * 1e3,
        gemm_on * 1e3
    );

    // --- 5. exact solver, tracing off vs on ---
    let (p, q, solver_reps) = if smoke { (3, 3, 5) } else { (3, 3, 30) };
    let times: Vec<f64> = (1..=(p * q)).map(|x| x as f64).collect();
    diag!(
        "timing exact solve_global {}x{} ({} reps)...",
        p,
        q,
        solver_reps
    );
    let mut solve = || {
        std::hint::black_box(exact::solve_global(&times, p, q));
    };
    let solve_off = time_traced(solver_reps, false, &mut solve);
    let solve_on = time_traced(solver_reps, true, &mut solve);
    println!(
        "exact solve_global {}x{}: off {:.3} ms, on {:.3} ms  ({:+.1}%)",
        p,
        q,
        solve_off * 1e3,
        solve_on * 1e3,
        (solve_on / solve_off - 1.0) * 100.0
    );
    let _ = writeln!(
        json,
        "  \"solve_global\": {{ \"grid\": \"{}x{}\", \"off_ms\": {:.4}, \"on_ms\": {:.4} }}",
        p,
        q,
        solve_off * 1e3,
        solve_on * 1e3
    );

    json.push_str("}\n");
    // BENCH_obs.json lives at the repo root, two levels above this
    // crate's manifest directory.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{}/BENCH_obs.json", root);
    std::fs::write(&path, json).expect("writing BENCH_obs.json");
    diag!("wrote {}", path);

    // The disabled probe is the one timing stable enough to assert on:
    // anything above 2 ns means the off path grew real work.
    if ns_per_probe > 2.0 {
        eprintln!(
            "FAIL: disabled probe costs {:.2} ns per call (budget: 2 ns)",
            ns_per_probe
        );
        std::process::exit(1);
    }
}
