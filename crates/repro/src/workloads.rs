//! Heterogeneity generators: structured cycle-time pools modelling the
//! machines the paper's introduction motivates — departmental HNOWs with
//! a few hardware generations, and multi-user parallel machines whose
//! effective speeds drift with background load.

use rand::rngs::StdRng;
use rand::Rng;

/// A named heterogeneity model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heterogeneity {
    /// Uniform cycle-times in (0.01, 1] — the paper's Figure 6–8 input.
    Uniform,
    /// Two hardware generations: fast machines at `t = 1`, slow ones at
    /// `t = ratio`, mixed roughly 50/50.
    TwoClass2x,
    /// Two generations at 4x ratio.
    TwoClass4x,
    /// Three generations (1, 2, 4) as a department accumulates hardware.
    ThreeGenerations,
    /// Identical hardware with Poisson-like background load: effective
    /// cycle-time `1 + jobs` with `jobs` geometric-ish in 0..=4.
    MultiUser,
    /// Near-homogeneous: `1 + eps` jitter (sanity band; every strategy
    /// should coincide).
    NearHomogeneous,
}

impl Heterogeneity {
    /// All models, for sweeps.
    pub const ALL: [Heterogeneity; 6] = [
        Heterogeneity::Uniform,
        Heterogeneity::TwoClass2x,
        Heterogeneity::TwoClass4x,
        Heterogeneity::ThreeGenerations,
        Heterogeneity::MultiUser,
        Heterogeneity::NearHomogeneous,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Heterogeneity::Uniform => "uniform",
            Heterogeneity::TwoClass2x => "two-class-2x",
            Heterogeneity::TwoClass4x => "two-class-4x",
            Heterogeneity::ThreeGenerations => "three-gen",
            Heterogeneity::MultiUser => "multi-user",
            Heterogeneity::NearHomogeneous => "near-homog",
        }
    }

    /// Draws `n` cycle-times from the model.
    pub fn sample(&self, n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n)
            .map(|_| match self {
                Heterogeneity::Uniform => rng.gen_range(0.01..=1.0),
                Heterogeneity::TwoClass2x => {
                    if rng.gen_bool(0.5) {
                        1.0
                    } else {
                        2.0
                    }
                }
                Heterogeneity::TwoClass4x => {
                    if rng.gen_bool(0.5) {
                        1.0
                    } else {
                        4.0
                    }
                }
                Heterogeneity::ThreeGenerations => [1.0, 2.0, 4.0][rng.gen_range(0..3usize)],
                Heterogeneity::MultiUser => {
                    // Geometric-ish job count: P(j) ~ 0.5^(j+1), capped.
                    let mut jobs = 0u32;
                    while jobs < 4 && rng.gen_bool(0.5) {
                        jobs += 1;
                    }
                    (1 + jobs) as f64
                }
                Heterogeneity::NearHomogeneous => 1.0 + rng.gen_range(-0.02..0.02),
            })
            .collect()
    }

    /// The heterogeneity ratio `max(t)/min(t)` the model can produce —
    /// an upper bound on the speedup re-balancing can buy vs uniform
    /// cyclic.
    pub fn max_ratio(&self) -> f64 {
        match self {
            Heterogeneity::Uniform => 100.0,
            Heterogeneity::TwoClass2x => 2.0,
            Heterogeneity::TwoClass4x => 4.0,
            Heterogeneity::ThreeGenerations => 4.0,
            Heterogeneity::MultiUser => 5.0,
            Heterogeneity::NearHomogeneous => 1.05,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_respect_declared_ratio() {
        let mut rng = StdRng::seed_from_u64(1);
        for model in Heterogeneity::ALL {
            let t = model.sample(200, &mut rng);
            assert_eq!(t.len(), 200);
            let max = t.iter().cloned().fold(0.0f64, f64::max);
            let min = t.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(min > 0.0, "{}: non-positive time", model.name());
            assert!(
                max / min <= model.max_ratio() + 1e-9,
                "{}: ratio {} exceeds declared {}",
                model.name(),
                max / min,
                model.max_ratio()
            );
        }
    }

    #[test]
    fn two_class_values_are_exact() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Heterogeneity::TwoClass4x.sample(100, &mut rng);
        assert!(t.iter().all(|&x| x == 1.0 || x == 4.0));
        assert!(t.contains(&1.0));
        assert!(t.contains(&4.0));
    }

    #[test]
    fn multi_user_times_are_integers_ge_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Heterogeneity::MultiUser.sample(100, &mut rng);
        assert!(t
            .iter()
            .all(|&x| (1.0..=5.0).contains(&x) && x.fract() == 0.0));
    }
}
