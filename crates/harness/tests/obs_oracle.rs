//! Differential oracle for the observability layer: run the *real*
//! kernels with tracing enabled and require the `exec.*` metric deltas
//! to equal the closed-form `hetgrid_sim::counts` predictions exactly,
//! and the fault-injection counters to record what the virtual
//! transport actually did.
//!
//! This lives in its own integration-test binary so the process-global
//! obs state (enabled flag, metrics registry, trace collector) is
//! isolated from the main harness suite; within the binary the tests
//! serialize on one mutex for the same reason.

use hetgrid_exec::{run, ExecConfig, Transport as _};
use hetgrid_harness::scenario::{exec_scenario, kernel_inputs};
use hetgrid_harness::{oracles, FaultProfile, Kernel, VirtualTransport};
use hetgrid_linalg::Matrix;
use hetgrid_sim::counts;
use rand::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Runs one instrumented kernel case and returns the metrics delta it
/// produced, leaving tracing disabled and the trace buffer drained.
fn run_instrumented(
    kernel: Kernel,
    profile: FaultProfile,
    seed: u64,
) -> hetgrid_obs::MetricsSnapshot {
    let sc = exec_scenario(seed);
    let transport = VirtualTransport::new(seed, profile);
    let inputs = kernel_inputs(kernel, &mut StdRng::seed_from_u64(seed), sc.nb * sc.r);
    let refs: Vec<&Matrix> = inputs.iter().collect();
    let dist = sc.dist.as_ref();
    let cfg = ExecConfig::default();

    hetgrid_obs::set_enabled(true);
    let before = hetgrid_obs::metrics().snapshot();
    run(
        &transport,
        kernel,
        &refs,
        dist,
        sc.nb,
        sc.r,
        &sc.weights,
        cfg,
    )
    .unwrap();
    let predicted = counts::fold(&kernel.plan(dist, sc.nb), 0, &sc.weights);
    let delta = hetgrid_obs::metrics().snapshot().delta(&before);
    hetgrid_obs::set_enabled(false);
    hetgrid_obs::trace::clear();

    if let Err(msg) = oracles::check_obs_counts(&delta, &predicted) {
        panic!(
            "obs differential oracle failed: {msg}\n  case: seed {seed}, profile '{}', {}",
            profile.name,
            sc.describe()
        );
    }
    delta
}

#[test]
fn obs_counters_match_sim_counts_for_mm() {
    let _g = obs_lock();
    for seed in 0..4u64 {
        run_instrumented(Kernel::Mm, FaultProfile::FIFO, seed);
    }
}

#[test]
fn obs_counters_match_sim_counts_for_lu() {
    let _g = obs_lock();
    for seed in 0..4u64 {
        run_instrumented(Kernel::Lu, FaultProfile::FIFO, seed);
    }
}

#[test]
fn obs_counters_match_sim_counts_for_cholesky() {
    let _g = obs_lock();
    for seed in 0..4u64 {
        run_instrumented(Kernel::Cholesky, FaultProfile::FIFO, seed);
    }
}

#[test]
fn obs_counters_match_sim_counts_for_qr() {
    let _g = obs_lock();
    for seed in 0..4u64 {
        run_instrumented(Kernel::Qr, FaultProfile::FIFO, seed);
    }
}

#[test]
fn obs_counters_survive_fault_injection() {
    // Faults delay and reorder messages but never lose or duplicate
    // them, so the obs counters must still match the predictions bit
    // for bit — the same invariant `check_counts` enforces on the
    // report path.
    let _g = obs_lock();
    run_instrumented(Kernel::Mm, FaultProfile::CHAOS, 3);
    run_instrumented(Kernel::Lu, FaultProfile::DELAY, 1);
    run_instrumented(Kernel::Cholesky, FaultProfile::REORDER, 2);
    run_instrumented(Kernel::Qr, FaultProfile::CHAOS, 4);
}

#[test]
fn fault_counters_record_injected_faults() {
    let _g = obs_lock();
    // Drive the transport directly (as the vtransport unit tests do)
    // so the assertion does not depend on a kernel's traffic pattern.
    let before = hetgrid_obs::metrics().snapshot();
    let t = VirtualTransport::new(3, FaultProfile::CHAOS);
    let mut eps = t.connect::<u32>(2);
    let rx = eps.pop().unwrap();
    let tx = eps.pop().unwrap();
    for v in 0..200 {
        tx.send(1, v).unwrap();
    }
    let mut got: Vec<u32> = (0..200).map(|_| rx.recv().unwrap()).collect();
    let delta = hetgrid_obs::metrics().snapshot().delta(&before);
    got.sort_unstable();
    assert_eq!(got, (0..200).collect::<Vec<_>>());
    // CHAOS both delays and reorders; seed 3 is pinned by the
    // vtransport unit test `chaos_actually_reorders`.
    assert!(
        delta.counter("harness.faults.delayed") > 0,
        "CHAOS should have held some messages"
    );
    assert!(
        delta.counter("harness.faults.reordered") > 0,
        "CHAOS should have picked out of order"
    );

    // Pick a seed whose first 0 -> 1 send is held (the decision is a
    // pure function of the seed, so this search is deterministic).
    let seed = (0..1024u64)
        .find(|&s| FaultProfile::DELAY.hold_for(s, 0, 1, 0).is_some())
        .expect("some seed must delay the first message");
    let before = hetgrid_obs::metrics().snapshot();
    let t = VirtualTransport::new(seed, FaultProfile::DELAY);
    let mut eps = t.connect::<u32>(2);
    let tx = eps.remove(0);
    tx.send(1, 11).unwrap();
    drop(tx);
    let rx = eps.pop().unwrap();
    assert_eq!(rx.recv().unwrap(), 11);
    let delta = hetgrid_obs::metrics().snapshot().delta(&before);
    // The lone message was held, and the starving receiver promoted it.
    assert_eq!(delta.counter("harness.faults.delayed"), 1);
    assert_eq!(delta.counter("harness.faults.promoted"), 1);
}
