//! Drift detection with hysteresis.
//!
//! The detector compares the current cycle-time estimates against the
//! *reference* times the active plan was solved for. Both vectors are
//! normalized to mean 1.0 first, so a uniform slowdown of the whole pool
//! (which changes the makespan but not the optimal distribution) never
//! looks like drift — only changes in the *relative* speeds do.
//!
//! Hysteresis keeps the loop from thrashing: drift must persist above
//! the trigger threshold for `patience` consecutive iterations to be
//! confirmed, the streak only resets once the deviation falls below
//! [`RELEASE`] times the threshold, and after a confirmation (whether or
//! not the policy then rebalanced) a `cooldown` suppresses re-evaluation.

/// Fraction of the threshold below which the drift streak resets;
/// deviations between `RELEASE * threshold` and `threshold` neither
/// extend nor reset the streak.
const RELEASE: f64 = 0.5;

/// Hysteresis parameters of the drift detector.
#[derive(Clone, Copy, Debug)]
pub struct DriftDetectorConfig {
    /// Relative deviation at which an iteration counts toward drift
    /// (e.g. 0.2 = a processor is 20% off its planned relative speed).
    pub threshold: f64,
    /// Number of consecutive above-threshold iterations required to
    /// confirm drift.
    pub patience: usize,
    /// Number of iterations after a confirmation during which no new
    /// drift is reported.
    pub cooldown: usize,
}

impl Default for DriftDetectorConfig {
    fn default() -> Self {
        DriftDetectorConfig {
            threshold: 0.2,
            patience: 3,
            cooldown: 5,
        }
    }
}

/// Sustained-drift detector over normalized cycle-time vectors.
/// [`crate::ControllerConfig::validate`] keeps its configuration sound.
#[derive(Clone, Debug)]
pub(crate) struct DriftDetector {
    cfg: DriftDetectorConfig,
    streak: usize,
    cooldown_left: usize,
}

impl DriftDetector {
    /// A detector in the quiescent state.
    pub(crate) fn new(cfg: DriftDetectorConfig) -> Self {
        DriftDetector {
            cfg,
            streak: 0,
            cooldown_left: 0,
        }
    }

    /// Scale-free deviation between two cycle-time vectors: both are
    /// normalized to mean 1.0 and the maximum relative difference
    /// `|est - ref| / ref` over processors is returned.
    ///
    /// # Panics
    /// Panics on empty, mismatched, or non-positive inputs.
    fn relative_deviation(reference: &[f64], estimates: &[f64]) -> f64 {
        assert_eq!(
            reference.len(),
            estimates.len(),
            "DriftDetector: length mismatch"
        );
        assert!(!reference.is_empty(), "DriftDetector: empty input");
        let norm = |v: &[f64]| -> Vec<f64> {
            assert!(
                v.iter().all(|&t| t > 0.0 && t.is_finite()),
                "DriftDetector: cycle-times must be positive"
            );
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|&t| t / mean).collect()
        };
        let r = norm(reference);
        let e = norm(estimates);
        r.iter()
            .zip(&e)
            .map(|(&rk, &ek)| (ek - rk).abs() / rk)
            .fold(0.0, f64::max)
    }

    /// Feeds one iteration's estimates; returns `true` when sustained
    /// drift is confirmed this iteration.
    pub(crate) fn observe(&mut self, reference: &[f64], estimates: &[f64]) -> bool {
        let dev = Self::relative_deviation(reference, estimates);
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            self.streak = 0;
            return false;
        }
        if dev >= self.cfg.threshold {
            self.streak += 1;
        } else if dev < self.cfg.threshold * RELEASE {
            self.streak = 0;
        }
        self.streak >= self.cfg.patience
    }

    /// Arms the post-confirmation cooldown and resets the streak. The
    /// controller calls this after every policy evaluation, whether or
    /// not it rebalanced, so a declined rebalance is not re-litigated
    /// every iteration.
    pub(crate) fn arm_cooldown(&mut self) {
        self.cooldown_left = self.cfg.cooldown;
        self.streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(patience: usize, cooldown: usize) -> DriftDetector {
        DriftDetector::new(DriftDetectorConfig {
            threshold: 0.2,
            patience,
            cooldown,
        })
    }

    #[test]
    fn uniform_slowdown_is_not_drift() {
        let reference = [1.0, 2.0, 3.0, 4.0];
        let doubled: Vec<f64> = reference.iter().map(|t| t * 2.0).collect();
        assert_eq!(DriftDetector::relative_deviation(&reference, &doubled), 0.0);
    }

    #[test]
    fn relative_change_is_drift() {
        let dev = DriftDetector::relative_deviation(&[1.0, 1.0], &[2.0, 1.0]);
        // Normalized estimates are [4/3, 2/3]: 33% deviation.
        assert!((dev - 1.0 / 3.0).abs() < 1e-12, "dev = {}", dev);
    }

    #[test]
    fn patience_delays_confirmation() {
        let mut d = detector(3, 0);
        let reference = [1.0, 1.0];
        let drifted = [3.0, 1.0];
        assert!(!d.observe(&reference, &drifted));
        assert!(!d.observe(&reference, &drifted));
        assert!(d.observe(&reference, &drifted));
    }

    #[test]
    fn release_band_freezes_but_does_not_reset_streak() {
        let mut d = detector(2, 0);
        let reference = [1.0, 1.0];
        let strong = [2.0, 1.0]; // dev 1/3, above threshold
        let weak = [1.3, 1.0]; // dev ~0.13, inside [release*thr, thr)
        let calm = [1.02, 1.0]; // dev ~0.01, below release
        assert!(!d.observe(&reference, &strong));
        assert!(!d.observe(&reference, &weak)); // streak frozen at 1
        assert!(d.observe(&reference, &strong)); // streak reaches 2
        d.arm_cooldown(); // streak back to 0
        assert!(!d.observe(&reference, &strong)); // streak 1 of 2
        assert!(!d.observe(&reference, &calm)); // below release: reset
        assert_eq!(d.streak, 0);
    }

    #[test]
    fn cooldown_suppresses_redetection() {
        let mut d = detector(1, 3);
        let reference = [1.0, 1.0];
        let drifted = [3.0, 1.0];
        assert!(d.observe(&reference, &drifted));
        d.arm_cooldown();
        for _ in 0..3 {
            assert!(!d.observe(&reference, &drifted));
        }
        // Cooldown elapsed: the persisting drift is re-confirmed.
        assert!(d.observe(&reference, &drifted));
    }

    #[test]
    fn quiescent_on_matching_estimates() {
        let mut d = detector(1, 0);
        let reference = [1.0, 2.0, 4.0];
        for _ in 0..10 {
            assert!(!d.observe(&reference, &reference));
        }
        assert_eq!(
            DriftDetector::relative_deviation(&reference, &reference),
            0.0
        );
    }
}
