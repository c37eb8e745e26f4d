//! Deterministic cycle-time drift profiles for closed-loop experiments.
//!
//! The paper's Section 2.2 machine is a *non-dedicated* network of
//! workstations: other users' jobs change the effective cycle-times over
//! time. A [`DriftProfile`] models that exogenous load as a deterministic
//! function of the iteration index, so adaptive-rebalancing experiments
//! (hetgrid-adapt) are exactly reproducible: the profile maps the base
//! cycle-times of the pool to the *true* cycle-times at every iteration.
//!
//! Per-processor `factors` are multiplicative: a factor of `4.0` means
//! the machine became four times slower (e.g. three competing jobs), a
//! factor of `1.0` means unchanged.

/// A deterministic schedule of cycle-time drift over iterations.
#[derive(Clone, Debug, PartialEq)]
pub enum DriftProfile {
    /// No drift: the pool stays at its base cycle-times forever.
    Stationary,
    /// A one-off load change: from iteration `at` onward, processor `k`
    /// runs at `base[k] * factors[k]` (a user logs in and stays).
    Step {
        /// First iteration at which the new speeds apply.
        at: usize,
        /// Per-processor multiplicative slowdown factors.
        factors: Vec<f64>,
    },
    /// A gradual change: cycle-times interpolate linearly from the base
    /// at iteration `from` to `base * factors` at iteration `to`, and
    /// stay there (load building up over the morning).
    Ramp {
        /// Last iteration at base speeds.
        from: usize,
        /// First iteration at fully drifted speeds (must exceed `from`).
        to: usize,
        /// Per-processor multiplicative slowdown factors at `to`.
        factors: Vec<f64>,
    },
    /// Recurring transient load: within every window of `period`
    /// iterations, the first `width` iterations run at `base * factors`
    /// and the remainder at base speeds (a periodic batch job).
    PeriodicSpike {
        /// Length of the repeating window.
        period: usize,
        /// Number of loaded iterations at the start of each window.
        width: usize,
        /// Per-processor multiplicative slowdown factors while loaded.
        factors: Vec<f64>,
    },
}

impl DriftProfile {
    /// The true cycle-times of the pool at iteration `iter`, given the
    /// base cycle-times.
    ///
    /// # Panics
    /// Panics if a `factors` vector does not match `base` in length, a
    /// factor is not strictly positive and finite, `Ramp` has
    /// `from >= to`, or `PeriodicSpike` has `period == 0` or
    /// `width > period`.
    pub fn times_at(&self, base: &[f64], iter: usize) -> Vec<f64> {
        match self {
            DriftProfile::Stationary => base.to_vec(),
            DriftProfile::Step { at, factors } => {
                check_factors(base, factors);
                if iter >= *at {
                    scaled(base, factors, 1.0)
                } else {
                    base.to_vec()
                }
            }
            DriftProfile::Ramp { from, to, factors } => {
                check_factors(base, factors);
                assert!(from < to, "DriftProfile::Ramp: from must precede to");
                let t = if iter <= *from {
                    0.0
                } else if iter >= *to {
                    1.0
                } else {
                    (iter - from) as f64 / (to - from) as f64
                };
                scaled(base, factors, t)
            }
            DriftProfile::PeriodicSpike {
                period,
                width,
                factors,
            } => {
                check_factors(base, factors);
                assert!(*period > 0, "DriftProfile::PeriodicSpike: zero period");
                assert!(
                    width <= period,
                    "DriftProfile::PeriodicSpike: width exceeds period"
                );
                if iter % period < *width {
                    scaled(base, factors, 1.0)
                } else {
                    base.to_vec()
                }
            }
        }
    }
}

fn check_factors(base: &[f64], factors: &[f64]) {
    assert_eq!(
        base.len(),
        factors.len(),
        "DriftProfile: factors/base length mismatch"
    );
    assert!(
        factors.iter().all(|&f| f > 0.0 && f.is_finite()),
        "DriftProfile: factors must be positive and finite"
    );
}

/// Interpolated scaling: `base[k] * (1 + t * (factors[k] - 1))`.
fn scaled(base: &[f64], factors: &[f64], t: f64) -> Vec<f64> {
    base.iter()
        .zip(factors)
        .map(|(&b, &f)| b * (1.0 + t * (f - 1.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 4] = [1.0, 1.0, 2.0, 2.0];

    #[test]
    fn stationary_never_moves() {
        for iter in [0, 7, 1000] {
            assert_eq!(DriftProfile::Stationary.times_at(&BASE, iter), BASE);
        }
    }

    #[test]
    fn step_switches_exactly_at_the_boundary() {
        let p = DriftProfile::Step {
            at: 10,
            factors: vec![4.0, 1.0, 1.0, 1.0],
        };
        assert_eq!(p.times_at(&BASE, 9), BASE);
        assert_eq!(p.times_at(&BASE, 10), vec![4.0, 1.0, 2.0, 2.0]);
        assert_eq!(p.times_at(&BASE, 999), vec![4.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn ramp_interpolates_linearly() {
        let p = DriftProfile::Ramp {
            from: 0,
            to: 10,
            factors: vec![3.0, 1.0, 1.0, 1.0],
        };
        assert_eq!(p.times_at(&BASE, 0)[0], 1.0);
        assert!((p.times_at(&BASE, 5)[0] - 2.0).abs() < 1e-12);
        assert_eq!(p.times_at(&BASE, 10)[0], 3.0);
        assert_eq!(p.times_at(&BASE, 20)[0], 3.0);
        // Unit factors leave the other processors untouched throughout.
        assert_eq!(p.times_at(&BASE, 5)[2], 2.0);
    }

    #[test]
    fn periodic_spike_repeats() {
        let p = DriftProfile::PeriodicSpike {
            period: 5,
            width: 2,
            factors: vec![2.0; 4],
        };
        for window in 0..3 {
            let base_iter = window * 5;
            assert_eq!(p.times_at(&BASE, base_iter)[0], 2.0);
            assert_eq!(p.times_at(&BASE, base_iter + 1)[0], 2.0);
            assert_eq!(p.times_at(&BASE, base_iter + 2)[0], 1.0);
            assert_eq!(p.times_at(&BASE, base_iter + 4)[0], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_factors_rejected() {
        DriftProfile::Step {
            at: 0,
            factors: vec![1.0; 3],
        }
        .times_at(&BASE, 0);
    }
}
