//! The zero-cost-when-off contract: with tracing disabled a `span!` or
//! `event!` is one relaxed atomic load, nothing formatted. Pure in-core
//! work (no allocation, no syscalls), so unlike every other timing it
//! is stable enough to gate on — in a release build only:
//!
//! ```text
//! cargo test --release -p hetgrid-obs -- --ignored disabled_probe
//! ```

use std::time::Instant;

#[test]
#[ignore = "a timing: meaningful only with --release"]
fn disabled_probe_costs_at_most_2ns() {
    const PROBES: u64 = 4_000_000;
    hetgrid_obs::set_enabled(false);
    let track = hetgrid_obs::trace::track("disabled-probe");
    // Scheduler and cache noise only ever add time: the fastest of a
    // few passes is the closest to the cost of the code.
    let ns_per_probe = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..PROBES {
                let g = hetgrid_obs::span!(track, "never formatted {}", i);
                std::hint::black_box(&g);
                hetgrid_obs::event!(track, "never formatted {}", i);
            }
            t0.elapsed().as_secs_f64() * 1e9 / (2 * PROBES) as f64
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        ns_per_probe <= 2.0,
        "disabled probe costs {ns_per_probe:.2} ns per call (budget: 2 ns)"
    );
}
