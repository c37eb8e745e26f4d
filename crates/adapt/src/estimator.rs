//! Online per-processor cycle-time estimation.
//!
//! Each processor's cycle-time is tracked with an exponentially weighted
//! moving average (EWMA) parameterized by a *half-life*: after
//! `half_life` observations, the weight of an old sample has decayed to
//! one half. Short half-lives react quickly but chase transient spikes;
//! long half-lives smooth noise but delay detection — the knob the
//! closed-loop experiments sweep.

/// EWMA cycle-time estimator, one state per physical processor id.
#[derive(Clone, Debug)]
pub(crate) struct EwmaEstimator {
    alpha: f64,
    estimates: Vec<f64>,
}

impl EwmaEstimator {
    /// An estimator seeded with known initial cycle-times (the times the
    /// initial plan was solved from), so early drift detection compares
    /// against a meaningful baseline. `half_life` is in observations;
    /// [`crate::ControllerConfig::validate`] keeps it positive.
    pub(crate) fn seeded(initial: &[f64], half_life: f64) -> Self {
        EwmaEstimator {
            alpha: 1.0 - 0.5f64.powf(1.0 / half_life),
            estimates: initial.to_vec(),
        }
    }

    /// Folds a full per-processor observation vector (indexed by
    /// processor id); `None` entries leave that processor's estimate
    /// unchanged.
    ///
    /// # Panics
    /// Panics if `values` has the wrong length or holds a non-positive
    /// observation.
    pub(crate) fn observe_all(&mut self, values: &[Option<f64>]) {
        assert_eq!(
            values.len(),
            self.estimates.len(),
            "EwmaEstimator: observation length mismatch"
        );
        for (est, value) in self.estimates.iter_mut().zip(values) {
            if let Some(v) = *value {
                assert!(
                    v > 0.0 && v.is_finite(),
                    "EwmaEstimator: observations must be positive"
                );
                *est += self.alpha * (v - *est);
            }
        }
    }

    /// The current estimates, by processor id.
    pub(crate) fn estimates(&self) -> &[f64] {
        &self.estimates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_matches_half_life_semantics() {
        let hl = 3.0;
        let mut e = EwmaEstimator::seeded(&[1.0], hl);
        // After exactly `half_life` observations of a new constant value,
        // the remaining gap to it has halved.
        for _ in 0..3 {
            e.observe_all(&[Some(2.0)]);
        }
        let est = e.estimates()[0];
        assert!((est - 1.5).abs() < 1e-12, "est = {}", est);
    }

    #[test]
    fn observe_all_skips_missing() {
        let mut e = EwmaEstimator::seeded(&[1.0, 2.0], 1.0);
        e.observe_all(&[Some(5.0), None]);
        assert!(e.estimates()[0] > 1.0);
        assert_eq!(e.estimates()[1], 2.0);
    }

    #[test]
    fn converges_to_stationary_value() {
        let mut e = EwmaEstimator::seeded(&[10.0], 4.0);
        for _ in 0..200 {
            e.observe_all(&[Some(2.5)]);
        }
        assert!((e.estimates()[0] - 2.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_observation() {
        EwmaEstimator::seeded(&[1.0], 1.0).observe_all(&[Some(0.0)]);
    }
}
