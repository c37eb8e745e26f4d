//! The kernel floor of an executor run: how long the block kernels the
//! plan prescribes would take with nothing else in the way.
//!
//! floor = sum over kernel kinds (weighted block-op count x measured
//! single-thread block-kernel time) / min(workers, cores). What an
//! `exec::run_*` call takes beyond its floor is scheduling, transport,
//! copies and waiting: the exec layer's own share.

use hetgrid_linalg::cholesky::cholesky;
use hetgrid_linalg::gemm::gemm;
use hetgrid_linalg::lu::lu_factor;
use hetgrid_linalg::qr::qr_factor;
use hetgrid_linalg::tri::{solve_lower, solve_right_upper};
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Plan, Step};
use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;
use crate::stats::median;

/// Weighted block-kernel invocations of one plan (slowdown weights
/// applied: a processor of weight `w` runs each of its kernels `w` times).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockOps {
    pub gemm: u64,
    pub trsm: u64,
    pub lu: u64,
    pub cholesky: u64,
    /// QR work units spent factoring stacked panels.
    pub qr_factor_units: u64,
    /// QR work units spent applying `Q^T` to stacked columns.
    pub qr_apply_units: u64,
}

impl BlockOps {
    /// Total weighted work units as `sim::counts` and `ExecReport` count
    /// them (every block kernel is one unit; QR counts two per block).
    pub fn work_units(&self) -> u64 {
        self.gemm + self.trsm + self.lu + self.cholesky + self.qr_factor_units + self.qr_apply_units
    }

    /// CPU seconds of block kernels, single thread.
    pub fn cpu_seconds(&self, t: &KernelTimes) -> f64 {
        self.gemm as f64 * t.gemm
            + self.trsm as f64 * t.trsm
            + self.lu as f64 * t.lu
            + self.cholesky as f64 * t.cholesky
            + self.qr_factor_units as f64 * t.qr_factor_unit
            + self.qr_apply_units as f64 * t.qr_apply_unit
    }
}

/// Folds a plan into its weighted block-kernel counts.
pub fn block_ops(plan: &Plan, weights: &[Vec<u64>]) -> BlockOps {
    let w = |(i, j): (usize, usize)| weights[i][j];
    let mut ops = BlockOps::default();
    for step in &plan.steps {
        match step {
            Step::Mm { .. } => {
                for (i, row) in plan.owned.iter().enumerate() {
                    for (j, owned) in row.iter().enumerate() {
                        ops.gemm += *owned as u64 * weights[i][j];
                    }
                }
            }
            Step::Factor {
                diag,
                panel,
                trsm,
                trailing,
                ..
            } => {
                // The diagonal block's factorisation rides in its
                // owner's panel entry; the rest of the panel is solves.
                ops.lu += w(*diag);
                for e in panel.iter().chain(trsm) {
                    ops.trsm += e.blocks as u64 * w(e.owner);
                }
                ops.trsm -= w(*diag);
                for (i, row) in trailing.iter().enumerate() {
                    for (j, blocks) in row.iter().enumerate() {
                        ops.gemm += *blocks as u64 * weights[i][j];
                    }
                }
            }
            Step::Cholesky {
                diag,
                panel,
                trailing,
                ..
            } => {
                ops.cholesky += w(*diag);
                for e in panel {
                    ops.trsm += e.blocks as u64 * w(e.owner);
                }
                for e in trailing {
                    ops.gemm += e.blocks as u64 * w(e.owner);
                }
            }
            Step::Qr {
                diag,
                panel,
                columns,
                ..
            } => {
                ops.qr_factor_units += 2 * panel.len() as u64 * w(*diag);
                for col in columns {
                    ops.qr_apply_units += 2 * (col.members.len() as u64 + 1) * w(col.head);
                }
            }
            Step::Compute { worker, .. } => ops.gemm += weights[0][*worker],
            Step::Load { .. } | Step::Evict { .. } => {}
        }
    }
    ops
}

/// Single-thread seconds of one block kernel on `r x r` blocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimes {
    pub gemm: f64,
    pub trsm: f64,
    /// `linalg::lu::lu_factor` of one block (exec's unpivoted block
    /// factorisation is private; this is the crate's public equivalent).
    pub lu: f64,
    pub cholesky: f64,
    pub qr_factor_unit: f64,
    pub qr_apply_unit: f64,
}

/// Median seconds of `reps` calls of `f`, after one unmeasured call.
pub fn timed_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Times each block kernel on fixed pseudo-random `r x r` blocks.
pub fn kernel_times(r: usize, reps: usize) -> KernelTimes {
    let mut rng = Rng::new(0xB10C);
    let mut rand = |rows: usize| Matrix::from_fn(rows, r, |_, _| rng.range(-1.0, 1.0));
    let (a, b) = (rand(r), rand(r));
    let mut c = rand(r);
    let dominant = Matrix::from_fn(r, r, |i, j| {
        let sym = 0.5 * (a[(i, j)] + a[(j, i)]);
        if i == j {
            sym + r as f64
        } else {
            sym
        }
    });
    let lower = Matrix::from_fn(r, r, |i, j| if i >= j { dominant[(i, j)] } else { 0.0 });
    let upper = lower.transpose();
    // A stacked QR panel of `QR_STACK` blocks: factor and apply each
    // charge two work units per block.
    const QR_STACK: usize = 4;
    let tall = rand(QR_STACK * r);
    let tall_rhs = rand(QR_STACK * r);
    let factors = qr_factor(&tall);
    let units = (2 * QR_STACK) as f64;

    let solve_l = timed_median(reps, || {
        black_box(solve_lower(&lower, black_box(&b), true));
    });
    let solve_u = timed_median(reps, || {
        black_box(solve_right_upper(&upper, black_box(&b)));
    });
    KernelTimes {
        gemm: timed_median(reps, || {
            gemm(-1.0, black_box(&a), black_box(&b), 1.0, &mut c)
        }),
        trsm: 0.5 * (solve_l + solve_u),
        lu: timed_median(reps, || {
            black_box(lu_factor(black_box(&dominant)).expect("dominant block"));
        }),
        cholesky: timed_median(reps, || {
            black_box(cholesky(black_box(&dominant)).expect("SPD block"));
        }),
        qr_factor_unit: timed_median(reps, || {
            black_box(qr_factor(black_box(&tall)));
        }) / units,
        qr_apply_unit: timed_median(reps, || {
            black_box(factors.qt_mul(black_box(&tall_rhs)));
        }) / units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgrid_dist::BlockCyclic;
    use hetgrid_sim::counts;

    /// The fold must see exactly the work `sim::counts` sees, or the
    /// floor would price a different plan than the executor runs.
    #[test]
    fn block_ops_total_equals_sim_counts_total() {
        let dist = BlockCyclic::new(2, 2);
        let weights = vec![vec![1, 2], vec![3, 5]];
        let nb = 6;
        let cases = [
            (
                hetgrid_plan::mm_plan(&dist, nb),
                counts::mm_counts(&dist, (nb, nb, nb), &weights),
            ),
            (
                hetgrid_plan::factor_plan(&dist, nb),
                counts::lu_counts(&dist, nb, &weights),
            ),
            (
                hetgrid_plan::cholesky_plan(&dist, nb),
                counts::cholesky_counts(&dist, nb, &weights),
            ),
            (
                hetgrid_plan::qr_plan(&dist, nb),
                counts::qr_counts(&dist, nb, &weights),
            ),
        ];
        for (plan, expect) in cases {
            assert_eq!(block_ops(&plan, &weights).work_units(), expect.total_work());
        }
        let lu = block_ops(&hetgrid_plan::factor_plan(&dist, nb), &weights);
        assert!(lu.lu > 0 && lu.trsm > 0 && lu.gemm > 0);
    }
}
