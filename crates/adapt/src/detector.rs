//! Drift detection with hysteresis, and the times a confirmed drift is
//! re-solved for.
//!
//! Each processor's cycle-time is tracked with an exponentially
//! weighted moving average (EWMA) parameterized by a *half-life*: after
//! `half_life` observations, the weight of an old sample has decayed to
//! one half. The detector compares these estimates against the
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
//!
//! The EWMA only detects. At confirmation it is still part-way to a
//! stepped time, so a re-solve on it would target a blend of old and new
//! and need a second one; the detector hands back the mean of the
//! samples since its streak began instead.

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

/// Sustained-drift detector over per-processor samples.
/// [`crate::ControllerConfig::validate`] keeps its configuration sound.
#[derive(Clone, Debug)]
pub(crate) struct DriftDetector {
    cfg: DriftDetectorConfig,
    /// Weight of a new sample in the EWMA: `1 - 0.5^(1 / half_life)`.
    alpha: f64,
    /// The EWMA estimates, by processor id.
    pub(crate) estimates: Vec<f64>,
    /// Per-processor sum and count of the samples since the streak
    /// began.
    streak_samples: Vec<(f64, usize)>,
    streak: usize,
    cooldown_left: usize,
}

impl DriftDetector {
    /// A quiescent detector whose estimates start at `initial` (by
    /// processor id: the times the initial plan was solved for);
    /// `half_life` is in observations.
    pub(crate) fn new(cfg: DriftDetectorConfig, half_life: f64, initial: &[f64]) -> Self {
        DriftDetector {
            cfg,
            alpha: 1.0 - 0.5f64.powf(1.0 / half_life),
            estimates: initial.to_vec(),
            streak_samples: vec![(0.0, 0); initial.len()],
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

    /// Folds one iteration's samples (by processor id; `None` where a
    /// processor did no work) into the estimates and the streak, and
    /// compares the estimates with `reference`. On a confirmed drift it
    /// arms the cooldown and returns the times to re-solve for: each
    /// processor's mean sample since the streak began, or its estimate
    /// if it has none.
    ///
    /// # Panics
    /// Panics if `samples` has the wrong length or holds a non-positive
    /// sample.
    pub(crate) fn observe(
        &mut self,
        reference: &[f64],
        samples: &[Option<f64>],
    ) -> Option<Vec<f64>> {
        assert_eq!(
            samples.len(),
            self.estimates.len(),
            "DriftDetector: sample length mismatch"
        );
        let paired = self.estimates.iter_mut().zip(&mut self.streak_samples);
        for ((est, acc), sample) in paired.zip(samples) {
            if let Some(v) = *sample {
                assert!(
                    v > 0.0 && v.is_finite(),
                    "DriftDetector: samples must be positive"
                );
                *est += self.alpha * (v - *est);
                *acc = (acc.0 + v, acc.1 + 1);
            }
        }
        let confirmed = self.step(Self::relative_deviation(reference, &self.estimates));
        let times = confirmed.then(|| {
            let paired = self.streak_samples.iter().zip(&self.estimates);
            paired
                .map(|(&(sum, n), &est)| if n > 0 { sum / n as f64 } else { est })
                .collect()
        });
        if self.streak == 0 {
            self.streak_samples.fill((0.0, 0));
        }
        times
    }

    /// The hysteresis: folds one deviation into the streak and returns
    /// `true` when sustained drift is confirmed, arming the cooldown and
    /// resetting the streak, so a declined rebalance is not re-litigated
    /// every iteration.
    fn step(&mut self, dev: f64) -> bool {
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
        if self.streak < self.cfg.patience {
            return false;
        }
        self.cooldown_left = self.cfg.cooldown;
        self.streak = 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(patience: usize, cooldown: usize) -> DriftDetector {
        let cfg = DriftDetectorConfig {
            threshold: 0.2,
            patience,
            cooldown,
        };
        DriftDetector::new(cfg, 3.0, &[1.0, 1.0])
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
        assert!(!d.step(0.5));
        assert!(!d.step(0.5));
        assert!(d.step(0.5));
    }

    #[test]
    fn release_band_freezes_but_does_not_reset_streak() {
        let mut d = detector(2, 0);
        let (strong, weak, calm) = (1.0 / 3.0, 0.13, 0.01); // weak: inside [release*thr, thr)
        assert!(!d.step(strong));
        assert!(!d.step(weak)); // streak frozen at 1
        assert!(d.step(strong)); // streak reaches 2, then resets
        assert!(!d.step(strong)); // streak 1 of 2
        assert!(!d.step(calm)); // below release: reset
        assert_eq!(d.streak, 0);
    }

    #[test]
    fn cooldown_suppresses_redetection() {
        let mut d = detector(1, 3);
        assert!(d.step(0.5));
        for _ in 0..3 {
            assert!(!d.step(0.5));
        }
        // Cooldown elapsed: the persisting drift is re-confirmed.
        assert!(d.step(0.5));
    }

    #[test]
    fn quiescent_on_matching_samples() {
        let reference = [1.0, 2.0, 4.0];
        let mut d = DriftDetector::new(DriftDetectorConfig::default(), 3.0, &reference);
        let samples = reference.map(Some);
        for _ in 0..10 {
            assert_eq!(d.observe(&reference, &samples), None);
        }
        assert_eq!(d.estimates, reference);
    }

    #[test]
    fn confirmation_returns_the_streak_mean_not_the_ewma() {
        // Processor 0 steps from 1 to 3. The streak begins one sample
        // after the step (the first leaves the EWMA in the release band)
        // and is confirmed two samples later: the EWMA is still short of
        // 3 there, the mean of the streak's samples is exact.
        let mut d = detector(2, 0);
        let (reference, stepped) = ([1.0, 1.0], [Some(3.0), Some(1.0)]);
        assert_eq!(d.observe(&reference, &stepped), None);
        assert_eq!(d.observe(&reference, &stepped), None);
        assert_eq!(d.observe(&reference, &stepped), Some(vec![3.0, 1.0]));
        assert!(d.estimates[0] < 2.5, "EWMA {}", d.estimates[0]);
    }

    #[test]
    fn alpha_matches_half_life_semantics() {
        // After exactly `half_life` observations of a new constant value,
        // the remaining gap to it has halved.
        let mut d = DriftDetector::new(DriftDetectorConfig::default(), 3.0, &[1.0]);
        for _ in 0..3 {
            d.observe(&[1.0], &[Some(2.0)]);
        }
        assert!(
            (d.estimates[0] - 1.5).abs() < 1e-12,
            "est = {}",
            d.estimates[0]
        );
    }

    #[test]
    fn missing_samples_leave_the_estimate() {
        let mut d = DriftDetector::new(DriftDetectorConfig::default(), 1.0, &[1.0, 2.0]);
        d.observe(&[1.0, 2.0], &[Some(5.0), None]);
        assert!(d.estimates[0] > 1.0);
        assert_eq!(d.estimates[1], 2.0);
    }

    #[test]
    fn converges_to_stationary_value() {
        let mut d = DriftDetector::new(DriftDetectorConfig::default(), 4.0, &[10.0]);
        for _ in 0..200 {
            d.observe(&[10.0], &[Some(2.5)]);
        }
        assert!((d.estimates[0] - 2.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_sample() {
        DriftDetector::new(DriftDetectorConfig::default(), 1.0, &[1.0])
            .observe(&[1.0], &[Some(0.0)]);
    }
}
