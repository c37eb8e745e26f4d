//! The elastic-grid recovery test matrix: every block kernel under
//! every fault profile with a seeded single-crash kill schedule, plus
//! processor joins and the watchdog's behaviour when nobody recovers.
//!
//! A failing case prints its seed and kill schedule; replay with
//! `HARNESS_SEED=<n> cargo test -p hetgrid-harness --test recovery`.
//! `HARNESS_KILLS=<k>` sweeps more crash points per seed (nightly CI
//! does), and `HARNESS_SEEDS=<count>` widens the corpus as usual.

use hetgrid_exec::{ExecConfig, GridFault, RecoveryStats, Transport};
use hetgrid_harness::{
    kill_variants, run_recovery_case, run_recovery_join_case, run_schedule_case,
    run_two_crash_case, seed_corpus, FaultProfile, Kernel, KillSchedule, VirtualTransport,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Runs `f(seed, variant)` over the corpus and the kill-variant sweep,
/// annotating any panic with both so every failure is replayable.
fn over_kill_corpus(label: &str, f: impl Fn(u64, u64)) {
    for seed in seed_corpus() {
        for variant in 0..kill_variants() as u64 {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(seed, variant))) {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "(non-string panic payload)".to_string());
                panic!(
                    "[{label}] seed {seed} kill-variant {variant} failed — replay: \
                     HARNESS_SEED={seed} cargo test -p hetgrid-harness --test recovery\n{msg}"
                );
            }
        }
    }
}

macro_rules! crash_cases {
    ($($name:ident: $kernel:expr, $profile:expr;)*) => {$(
        #[test]
        fn $name() {
            over_kill_corpus(stringify!($name), |seed, variant| {
                run_recovery_case($kernel, $profile, seed, variant);
            });
        }
    )*};
}

crash_cases! {
    mm_crash_fifo:          Kernel::Mm,       FaultProfile::FIFO;
    mm_crash_reorder:       Kernel::Mm,       FaultProfile::REORDER;
    mm_crash_delay:         Kernel::Mm,       FaultProfile::DELAY;
    mm_crash_chaos:         Kernel::Mm,       FaultProfile::CHAOS;
    lu_crash_fifo:          Kernel::Lu,       FaultProfile::FIFO;
    lu_crash_reorder:       Kernel::Lu,       FaultProfile::REORDER;
    lu_crash_delay:         Kernel::Lu,       FaultProfile::DELAY;
    lu_crash_chaos:         Kernel::Lu,       FaultProfile::CHAOS;
    cholesky_crash_fifo:    Kernel::Cholesky, FaultProfile::FIFO;
    cholesky_crash_reorder: Kernel::Cholesky, FaultProfile::REORDER;
    cholesky_crash_delay:   Kernel::Cholesky, FaultProfile::DELAY;
    cholesky_crash_chaos:   Kernel::Cholesky, FaultProfile::CHAOS;
    qr_crash_fifo:          Kernel::Qr,       FaultProfile::FIFO;
    qr_crash_reorder:       Kernel::Qr,       FaultProfile::REORDER;
    qr_crash_delay:         Kernel::Qr,       FaultProfile::DELAY;
    qr_crash_chaos:         Kernel::Qr,       FaultProfile::CHAOS;
}

macro_rules! join_cases {
    ($($name:ident: $kernel:expr;)*) => {$(
        #[test]
        fn $name() {
            over_kill_corpus(stringify!($name), |seed, variant| {
                run_recovery_join_case($kernel, FaultProfile::CHAOS, seed, variant);
            });
        }
    )*};
}

join_cases! {
    mm_join_chaos:       Kernel::Mm;
    lu_join_chaos:       Kernel::Lu;
    cholesky_join_chaos: Kernel::Cholesky;
    qr_join_chaos:       Kernel::Qr;
}

/// Two crashes in a row: the second victim is a processor of the grid
/// the first recovery left, so recovery must re-solve from that grid.
/// Every kernel, bit-exact against the fault-free run.
#[test]
fn two_crashes_in_a_row_recover() {
    for kernel in [Kernel::Mm, Kernel::Lu, Kernel::Cholesky, Kernel::Qr] {
        for seed in seed_corpus() {
            let stats = run_two_crash_case(kernel, FaultProfile::CHAOS, seed);
            assert_eq!(stats.crashes, 2, "{kernel:?}, seed {seed}: {stats:?}");
        }
    }
}

/// A schedule fires in list order. At the default lookahead on the 2x2
/// cyclic grid, processor 0 never reads processor 3's blocks under MM,
/// so it can retire step 3 before processor 3 retires step 1; if
/// `Crash{0, 3}` fired first, `Crash{3, 1}` could never fire on the 1x2
/// survivor grid.
#[test]
fn a_kill_schedule_fires_in_list_order() {
    let crash = |proc, at_step| GridFault::Crash { proc, at_step };
    let lookahead = ExecConfig::default().lookahead;
    for seed in seed_corpus() {
        let events = vec![crash(3, 1), crash(0, 3)];
        let stats = run_schedule_case(Kernel::Mm, FaultProfile::CHAOS, seed, events, lookahead);
        assert_eq!(stats.crashes, 2, "seed {seed}: {stats:?}");
    }
}

/// Same seed, same schedule, run twice: the whole recovery path — kill
/// firing, frontier, survivor grid, block placement, resumed epoch — is
/// a pure function of the seed.
#[test]
fn recovery_is_deterministic() {
    for seed in seed_corpus().into_iter().take(2) {
        run_recovery_case(Kernel::Lu, FaultProfile::CHAOS, seed, 0);
        run_recovery_case(Kernel::Lu, FaultProfile::CHAOS, seed, 0);
    }
}

/// What recovery did on one crash and one join per kernel, each on the
/// kernel's own corpus seed: `(crashes, joins, dead_blocks,
/// blocks_moved)`. These follow from the fault, the scenario and the
/// survivor policy alone; the frontier and the replayed steps depend on
/// thread timing and are not pinned.
#[test]
fn recovery_counts_are_pinned() {
    let counts = |s: RecoveryStats| (s.crashes, s.joins, s.dead_blocks, s.blocks_moved);
    let cases = [
        (Kernel::Mm, (1, 0, 6, 4), (0, 1, 0, 17)),
        (Kernel::Lu, (1, 0, 2, 19), (0, 1, 0, 28)),
        (Kernel::Cholesky, (1, 0, 8, 20), (0, 1, 0, 36)),
        (Kernel::Qr, (1, 0, 4, 18), (0, 1, 0, 30)),
    ];
    for (i, (kernel, crash, join)) in cases.into_iter().enumerate() {
        // Corpus seed `i`, fixed whatever `HARNESS_SEED` says.
        let seed = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
        let stats = run_recovery_case(kernel, FaultProfile::FIFO, seed, 0);
        assert_eq!(counts(stats), crash, "{kernel:?} crash");
        let stats = run_recovery_join_case(kernel, FaultProfile::CHAOS, seed, 0);
        assert_eq!(counts(stats), join, "{kernel:?} join");
    }
}

/// An *un-recovered* crash must still trip the starvation watchdog
/// deterministically — and the panic must say a kill schedule (not a
/// deadlock bug) starved the peer, with the schedule and seed printed.
///
/// This drives raw endpoints instead of a kernel: `run_grid` aborts the
/// whole grid on any worker error (so a kernel-level crash surfaces as
/// a typed `PeerDropped`, not a watchdog panic), and here nobody calls
/// `abort` or resumes — the exact situation the watchdog exists for.
#[test]
fn unrecovered_crash_trips_watchdog_with_kill_context() {
    let schedule = KillSchedule {
        events: vec![GridFault::Crash {
            proc: 1,
            at_step: 0,
        }],
    };
    let transport = VirtualTransport::new(7, FaultProfile::FIFO)
        .with_kills(&schedule)
        .with_watchdog(Duration::from_millis(200));
    let eps = transport.connect::<u32>(3);
    let mut it = eps.into_iter();
    let survivor_ep = it.next().expect("endpoint 0");
    let victim_ep = it.next().expect("endpoint 1");
    let _bystander = it.next().expect("endpoint 2");

    std::thread::scope(|s| {
        s.spawn(move || {
            // The victim retires step 0, the kill fires at the beacon,
            // and the thread dies without aborting the grid.
            assert!(
                victim_ep.mark(0).is_err(),
                "kill entry must fire at the retirement beacon"
            );
        });
        let survivor = s.spawn(move || survivor_ep.recv());
        let payload = survivor
            .join()
            .expect_err("the blocked survivor must starve and panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "(non-string panic payload)".to_string());
        assert!(
            msg.contains("un-recovered grid fault"),
            "watchdog panic does not name the kill schedule: {msg}"
        );
        assert!(
            msg.contains("HARNESS_SEED=7"),
            "watchdog panic does not carry the replay seed: {msg}"
        );
    });
}

/// The control case for the message above: with no kill schedule, a
/// starved peer reports genuine starvation (so a real deadlock is never
/// mis-blamed on fault injection).
#[test]
fn genuine_starvation_is_not_blamed_on_kills() {
    let transport =
        VirtualTransport::new(9, FaultProfile::FIFO).with_watchdog(Duration::from_millis(150));
    let eps = transport.connect::<u32>(2);
    let mut it = eps.into_iter();
    let ep = it.next().expect("endpoint 0");
    // Keep the peer endpoint alive: dropping it would close the
    // mailboxes and turn the stall into a clean `Closed` error.
    let _peer = it.next().expect("endpoint 1");
    let payload = catch_unwind(AssertUnwindSafe(|| ep.recv()))
        .expect_err("recv with no sender must starve and panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "(non-string panic payload)".to_string());
    assert!(
        msg.contains("genuine starvation"),
        "watchdog panic mis-attributes the stall: {msg}"
    );
}
