//! Differential oracle for the serve plan cache: drive the *real*
//! [`hetgrid_serve::Service`] through a mixed workload, snapshot the
//! process-global metrics registry around it, and require the
//! accounting invariants (`hits + misses == admitted`,
//! `solves == misses`, `evictions <= misses`, `coalesced <= hits`) to
//! hold on the delta via [`oracles::check_serve_cache`].
//!
//! Lives in its own integration-test binary so the process-global
//! metrics registry is isolated from the main harness suite; within
//! the binary the tests serialize on one mutex for the same reason.

use hetgrid_harness::oracles;
use hetgrid_serve::proto::{encode_request, Kernel, PlanSpec, Request, RequestBody, SolveSpec};
use hetgrid_serve::{Service, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn plan_frame(seed: usize, kernel: Kernel) -> Vec<u8> {
    encode_request(&Request {
        tenant: "oracle".into(),
        body: RequestBody::Plan(PlanSpec {
            solve: SolveSpec {
                p: 2,
                q: 2,
                times: vec![1.0 + seed as f64 * 0.25, 2.0, 3.0, 5.0],
            },
            kernel,
            nb: 6,
        }),
    })
}

#[test]
fn sequential_workload_with_evictions_satisfies_the_cache_oracle() {
    let _g = obs_lock();
    // Capacity 3 with 8 distinct specs forces evictions and re-misses
    // on revisit; the oracle must still balance.
    let svc = Service::new(ServiceConfig {
        cache_capacity: 3,
        ..ServiceConfig::default()
    });
    let before = hetgrid_obs::metrics().snapshot();
    for round in 0..3 {
        for seed in 0..8 {
            let kernel = if seed % 2 == 0 {
                Kernel::Lu
            } else {
                Kernel::Qr
            };
            let _ = svc.handle(&plan_frame(seed, kernel));
            if round == 1 && seed % 3 == 0 {
                // Immediate repeat: a guaranteed hit on a hot entry.
                let _ = svc.handle(&plan_frame(seed, kernel));
            }
        }
    }
    let delta = hetgrid_obs::metrics().snapshot().delta(&before);
    oracles::check_serve_cache(&delta).expect("serve cache invariants");
    // The workload was sized to actually exercise both paths.
    assert!(
        delta.counter("serve.cache.evictions") > 0,
        "capacity 3 < 8 specs"
    );
    assert!(delta.counter("serve.cache.hits") > 0);
    assert!(delta.counter("serve.cache.misses") >= 8);
}

/// Eight threads of four Cholesky plan requests each over six distinct
/// specs: 32 admitted requests, six of them cold.
fn concurrent_workload(svc: &Service) {
    std::thread::scope(|s| {
        for t in 0..8 {
            s.spawn(move || {
                for r in 0..4 {
                    // Overlapping seed ranges across threads: plenty of
                    // duplicates to coalesce, some distinct work.
                    let _ = svc.handle(&plan_frame((t + r) % 6, Kernel::Cholesky));
                }
            });
        }
    });
}

#[test]
fn concurrent_workload_satisfies_the_cache_oracle() {
    let _g = obs_lock();
    let svc = Service::new(ServiceConfig::default());
    let before = hetgrid_obs::metrics().snapshot();
    concurrent_workload(&svc);
    let delta = hetgrid_obs::metrics().snapshot().delta(&before);
    oracles::check_serve_cache(&delta).expect("serve cache invariants");
    assert_eq!(delta.counter("serve.requests.admitted"), 32);
    assert_eq!(delta.counter("serve.cache.misses"), 6);
}

/// A leader that caches its bytes and retires its flight between a
/// second request's cache check and its in-flight check must not hand
/// that request a second solve: every round solves each cold key once.
#[test]
fn a_cold_key_is_solved_once_in_every_round() {
    let _g = obs_lock();
    for round in 0..2000 {
        let svc = Service::new(ServiceConfig::default());
        let before = hetgrid_obs::metrics().snapshot();
        concurrent_workload(&svc);
        let delta = hetgrid_obs::metrics().snapshot().delta(&before);
        assert_eq!(delta.counter("serve.cache.misses"), 6, "round {round}");
    }
}

/// The oracle itself must reject cooked books: hand-built deltas that
/// violate each invariant in turn.
#[test]
fn oracle_rejects_each_violated_invariant() {
    fn snap(pairs: &[(&str, u64)]) -> hetgrid_obs::MetricsSnapshot {
        let mut counters = BTreeMap::new();
        for (name, v) in pairs {
            counters.insert(format!("serve.{name}"), *v);
        }
        hetgrid_obs::MetricsSnapshot {
            counters,
            ..Default::default()
        }
    }
    // Balanced books pass.
    let good = snap(&[
        ("requests.admitted", 10),
        ("cache.hits", 7),
        ("cache.misses", 3),
        ("solver.invocations", 3),
        ("cache.evictions", 1),
        ("cache.coalesced", 2),
    ]);
    oracles::check_serve_cache(&good).expect("balanced delta");

    // A request that was neither hit nor miss.
    let leak = snap(&[
        ("requests.admitted", 10),
        ("cache.hits", 6),
        ("cache.misses", 3),
    ]);
    assert!(oracles::check_serve_cache(&leak).is_err());

    // A duplicate solve that slipped past coalescing.
    let double = snap(&[
        ("requests.admitted", 4),
        ("cache.hits", 1),
        ("cache.misses", 3),
        ("solver.invocations", 4),
    ]);
    assert!(oracles::check_serve_cache(&double).is_err());

    // More evictions than insertions.
    let phantom = snap(&[
        ("requests.admitted", 2),
        ("cache.misses", 2),
        ("solver.invocations", 2),
        ("cache.evictions", 3),
    ]);
    assert!(oracles::check_serve_cache(&phantom).is_err());

    // Coalesced waits exceeding recorded hits.
    let overcount = snap(&[
        ("requests.admitted", 3),
        ("cache.hits", 1),
        ("cache.misses", 2),
        ("solver.invocations", 2),
        ("cache.coalesced", 2),
    ]);
    assert!(oracles::check_serve_cache(&overcount).is_err());
}
