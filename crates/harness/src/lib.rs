//! # hetgrid-harness
//!
//! Deterministic simulation and fault-injection harness for the
//! distributed executor — FoundationDB-style testing scaled down to
//! this workspace: the *real* kernel code (`hetgrid_exec`'s mm, lu,
//! cholesky, solve) runs over a virtual transport whose misbehaviour is
//! a pure function of one `u64` seed, and every run is judged by
//! differential oracles instead of hand-written expectations.
//!
//! The pieces:
//!
//! * [`faults`] — fault profiles (FIFO control, reorder, delay, chaos)
//!   and the seeded decision function;
//! * [`vtransport`] — the virtual [`hetgrid_exec::Transport`] that
//!   delays and reorders messages within the kernels' permitted
//!   semantics, crashes or pauses processors on a [`KillSchedule`]
//!   (reported through [`hetgrid_exec::Transport::faults`], which
//!   `hetgrid_exec::run_recovery` reads), with a starvation watchdog
//!   that reports the seed;
//! * [`scenario`] — seeded generation of grids, cycle-times,
//!   distributions, and matrices;
//! * [`oracles`] — executor output vs. `hetgrid-linalg` reference,
//!   observed message/work tables vs. `hetgrid_sim::counts`
//!   predictions, redistribution conservation;
//! * [`runner`] — one-call case runners whose panics embed the seed
//!   for deterministic replay.
//!
//! ## Reproducing a failure
//!
//! Every failure message contains `HARNESS_SEED=<n>`. Re-running the
//! suite with that variable set replays exactly the failing case:
//!
//! ```text
//! HARNESS_SEED=17 cargo test -p hetgrid-harness
//! ```
//!
//! `HARNESS_SEEDS=<count>` widens the default 8-seed corpus (the
//! nightly CI job runs with a larger corpus).

#![warn(missing_docs)]

pub mod faults;
pub mod oracles;
pub mod runner;
pub mod scenario;
pub mod vtransport;

pub use faults::{kill_variants, FaultProfile, KillSchedule};
pub use hetgrid_plan::Kernel;
pub use runner::{
    run_adapt_case, run_exec_case, run_recovery_case, run_recovery_join_case,
    run_redistribution_case, run_schedule_case, run_solve_case, run_star_case, run_two_crash_case,
};
pub use vtransport::VirtualTransport;

/// The seed corpus for a test run.
///
/// * `HARNESS_SEED=n` — exactly that one seed (replay mode);
/// * `HARNESS_SEEDS=k` — the first `k` seeds of the fixed corpus;
/// * neither — the first 8 seeds.
///
/// The corpus itself is fixed (a Weyl sequence on the golden ratio), so
/// seed `i` means the same scenario on every machine and every run.
pub fn seed_corpus() -> Vec<u64> {
    if let Ok(v) = std::env::var("HARNESS_SEED") {
        let seed = v
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("HARNESS_SEED must be a u64, got '{v}'"));
        return vec![seed];
    }
    let count = std::env::var("HARNESS_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(8);
    (0..count as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_corpus_has_eight_distinct_seeds() {
        let seeds = seed_corpus();
        if std::env::var("HARNESS_SEED").is_ok() || std::env::var("HARNESS_SEEDS").is_ok() {
            return; // respect an externally pinned corpus
        }
        assert_eq!(seeds.len(), 8);
        let set: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), 8);
    }
}
