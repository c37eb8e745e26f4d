//! The paper's model has one cycle-time per processor — "time to update
//! one `r x r` block" — whatever the block operation, so every block
//! kernel must run close to GEMM's rate: the triangular solves and the
//! Householder apply do most of their flops through GEMM's micro-kernel,
//! the Householder factorisation all but its leaf sweeps. Absolute times depend
//! on the machine; seconds-per-flop relative to `gemm` on the same core
//! in the same process does not, so unlike every other timing it can be
//! gated on — in a release build only:
//!
//! ```text
//! cargo test --release -p hetgrid-linalg --test kernel_rate -- --ignored
//! ```

use hetgrid_linalg::gemm::gemm;
use hetgrid_linalg::qr::qr_factor;
use hetgrid_linalg::tri::{solve_lower, solve_right_upper};
use hetgrid_linalg::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Fastest of 15 runs, in seconds per flop: scheduler and cache noise
/// only ever add time.
fn seconds_per_flop(flops: f64, mut f: impl FnMut()) -> f64 {
    f();
    (0..15)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() / flops
        })
        .fold(f64::INFINITY, f64::min)
}

/// `ratio`, a kernel's seconds per flop over GEMM's, against its budget.
fn gate(name: &str, spf: f64, gemm_spf: f64, budget: f64) {
    let ratio = spf / gemm_spf;
    println!(
        "{name}: {:.2} GFLOP/s, {ratio:.1}x gemm's seconds per flop",
        1e-9 / spf
    );
    assert!(
        ratio <= budget,
        "{name} takes {ratio:.1}x gemm's seconds per flop (budget: {budget}x; \
         gemm runs at {:.1} GFLOP/s here)",
        1e-9 / gemm_spf
    );
}

#[test]
#[ignore = "a timing: meaningful only with --release"]
fn block_kernels_run_within_sight_of_gemm() {
    let (r, m) = (128, 512);
    let mut state = 0x5EED_u64;
    let mut dense = |rows: usize| {
        Matrix::from_fn(rows, r, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    };
    let (a, b, tall, rhs) = (dense(r), dense(r), dense(m), dense(m));
    let mut c = Matrix::zeros(r, r);
    let factors = qr_factor(&tall);
    let (rf, mf) = (r as f64, m as f64);

    let gemm_spf = seconds_per_flop(2.0 * rf * rf * rf, || {
        gemm(-1.0, black_box(&a), black_box(&b), 1.0, &mut c)
    });
    let factor_spf = seconds_per_flop(2.0 * rf * rf * (mf - rf / 3.0), || {
        black_box(qr_factor(black_box(&tall)));
    });
    let apply_spf = seconds_per_flop(4.0 * mf * rf * rf, || {
        black_box(factors.qt_mul(black_box(&rhs)));
    });

    // The block solves of LU and Cholesky, `n^3` flops each: the row
    // sweeps they replaced read 6.5-8x, the recursion 1.5-1.8x and 2.4-2.9x.
    let mut factor = dense(r);
    for i in 0..r {
        factor[(i, i)] += r as f64;
    }
    let lower_spf = seconds_per_flop(rf * rf * rf, || {
        black_box(solve_lower(black_box(&factor), black_box(&b), true));
    });
    let right_spf = seconds_per_flop(rf * rf * rf, || {
        black_box(solve_right_upper(black_box(&factor), black_box(&b)));
    });

    // Householder at Level 3: as reflector-at-a-time sweeps they read
    // 7-10x (factor) and 5-6x (apply); with a compact-WY `T` 4.5-4.9x
    // and 0.9-1.3x.
    gate(&format!("qr_factor {m}x{r}"), factor_spf, gemm_spf, 5.0);
    gate(&format!("qt_mul {m}x{r}"), apply_spf, gemm_spf, 3.0);
    gate(
        &format!("solve_lower unit {r}x{r}"),
        lower_spf,
        gemm_spf,
        4.0,
    );
    gate(
        &format!("solve_right_upper {r}x{r}"),
        right_spf,
        gemm_spf,
        4.0,
    );
}
