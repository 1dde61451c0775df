//! Estimator configuration and parameter derivation.
//!
//! The paper sets its sample sizes as
//!
//! * `r = (c_r · log n / ε²) · (m · τ_max / T)` with `τ_max ≤ κ/ε`
//!   (Lemma 5.5) — the size of the uniform edge sample `R`;
//! * `ℓ = (c_ℓ · log n / ε²) · (m · d_R / (r · T))` (Lemma 5.7) — the number
//!   of degree-proportional inner samples drawn from `R`;
//! * `s = (c_s · log n / ε²) · (m · κ / T)` (Theorem 5.13) — the number of
//!   neighbor samples used to estimate each `t_e` inside `Assignment`;
//!
//! together with the thresholds
//!
//! * degree cutoff `m κ² / (ε² T)` (Algorithm 3, line 9),
//! * assignment ceiling `κ / (2ε)` (Algorithm 3, line 18).
//!
//! Theory constants (`c_r > 6`, `c_ℓ > 20`, `c_s > 60`) make the failure
//! probability polynomially small but are hopeless in practice at the graph
//! sizes a laptop holds — the `log n / ε²` factor alone is several thousand.
//! [`EstimatorConfig`] therefore exposes the constants and the `log n`
//! factor: [`EstimatorConfig::paper_faithful`] uses the literal settings,
//! while the default [`EstimatorConfig::builder`] uses practical constants
//! that preserve every scaling (`m κ / T`, `1/ε²`) but keep the constants
//! near one, which is what the experiments sweep over.

use crate::error::EstimatorError;
use crate::rng::RngMode;
use crate::Result;

/// Configuration for the streaming triangle estimators.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Target relative accuracy ε of a single estimator copy.
    pub epsilon: f64,
    /// Upper bound on the graph degeneracy κ (the algorithm is
    /// parameterized by it; real deployments use a known bound or a
    /// small-space estimate).
    pub kappa: usize,
    /// A lower bound (or advance guess) `T̂` for the triangle count, used to
    /// size the samples. Standard for the entire streaming triangle
    /// literature; a geometric guessing wrapper can remove the assumption at
    /// the cost of a `log` factor.
    pub triangle_lower_bound: u64,
    /// Multiplier `c_r` for the uniform sample size `r`.
    pub r_constant: f64,
    /// Multiplier `c_ℓ` for the inner sample count `ℓ`.
    pub inner_constant: f64,
    /// Multiplier `c_s` for the per-edge neighbor samples `s` in Assignment.
    pub assignment_constant: f64,
    /// Whether to multiply sample sizes by `ln n` (paper-faithful) or not
    /// (practical mode).
    pub use_log_n: bool,
    /// Whether to multiply sample sizes by `1/ε²` (paper-faithful) or not.
    pub use_epsilon_squared: bool,
    /// Number of independent estimator copies aggregated by median-of-means.
    pub copies: usize,
    /// Randomness seed. Every sampling decision is a pure function of
    /// `hash(seed, position, draw)` (see [`crate::rng`]), so every run with
    /// the same seed and stream is identical at every batch, shard and
    /// worker configuration.
    pub seed: u64,
    /// Hard cap applied to `r`, `ℓ` and `s` so a mis-set `T̂` cannot make a
    /// run explode. `usize::MAX` disables the cap.
    pub max_samples: usize,
}

impl EstimatorConfig {
    /// Starts building a configuration with practical defaults.
    pub fn builder() -> EstimatorConfigBuilder {
        EstimatorConfigBuilder::default()
    }

    /// The literal parameter settings of the paper (Lemmas 5.5/5.7,
    /// Theorem 5.13): `c_r = 7`, `c_ℓ = 21`, `c_s = 61`, with the `log n`
    /// and `1/ε²` factors enabled. Space explodes on small graphs; intended
    /// for documentation and the parameter-scaling experiment, not routine
    /// runs.
    pub fn paper_faithful(epsilon: f64, kappa: usize, triangle_lower_bound: u64) -> Self {
        EstimatorConfig {
            epsilon,
            kappa,
            triangle_lower_bound,
            r_constant: 7.0,
            inner_constant: 21.0,
            assignment_constant: 61.0,
            use_log_n: true,
            use_epsilon_squared: true,
            copies: 7,
            seed: 0,
            max_samples: usize::MAX,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(EstimatorError::invalid_config(format!(
                "epsilon must lie in (0, 1), got {}",
                self.epsilon
            )));
        }
        if self.kappa == 0 {
            return Err(EstimatorError::invalid_config("kappa must be at least 1"));
        }
        if self.triangle_lower_bound == 0 {
            return Err(EstimatorError::invalid_config(
                "triangle_lower_bound must be at least 1",
            ));
        }
        if self.copies == 0 {
            return Err(EstimatorError::invalid_config("copies must be at least 1"));
        }
        if self.r_constant <= 0.0 || self.inner_constant <= 0.0 || self.assignment_constant <= 0.0 {
            return Err(EstimatorError::invalid_config(
                "sample-size constants must be positive",
            ));
        }
        Ok(())
    }

    /// The shared `poly(log n, 1/ε)` factor applied to every sample size.
    fn scale_factor(&self, n: usize) -> f64 {
        let mut f = 1.0;
        if self.use_log_n {
            f *= (n.max(2) as f64).ln();
        }
        if self.use_epsilon_squared {
            f /= self.epsilon * self.epsilon;
        }
        f
    }

    /// Derives the pass-independent parameters for a stream with `m` edges
    /// and `n` vertices.
    pub fn derive(&self, m: usize, n: usize) -> DerivedParameters {
        let m_f = m as f64;
        let t_hat = self.triangle_lower_bound as f64;
        let kappa = self.kappa as f64;
        let scale = self.scale_factor(n);

        // r = c_r · scale · m·κ/T  (τ_max ≈ κ; the ε in τ_max ≤ κ/ε is folded
        // into the constant in practical mode and into 1/ε² in faithful mode).
        let r = (self.r_constant * scale * m_f * kappa / t_hat).ceil();
        // s = c_s · scale · m·κ/T.
        let s = (self.assignment_constant * scale * m_f * kappa / t_hat).ceil();

        let cap = self.max_samples as f64;
        let r = r.clamp(1.0, cap) as usize;
        let s = s.clamp(1.0, cap) as usize;

        DerivedParameters {
            r,
            assignment_samples: s,
            degree_cutoff: m_f * kappa * kappa / (self.epsilon * self.epsilon * t_hat),
            assignment_ceiling: kappa / (2.0 * self.epsilon),
            heavy_threshold: kappa / self.epsilon,
        }
    }

    /// Derives the inner sample count `ℓ` once `d_R` is known
    /// (Lemma 5.7: `ℓ = c_ℓ · scale · m · d_R / (r · T)`).
    pub fn derive_inner_samples(&self, m: usize, n: usize, r: usize, d_r: u64) -> usize {
        let scale = self.scale_factor(n);
        let t_hat = self.triangle_lower_bound as f64;
        let ell = (self.inner_constant * scale * m as f64 * d_r as f64 / (r as f64 * t_hat)).ceil();
        ell.clamp(1.0, self.max_samples as f64) as usize
    }
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig::builder().build()
    }
}

/// Builder for [`EstimatorConfig`].
#[derive(Debug, Clone)]
pub struct EstimatorConfigBuilder {
    config: EstimatorConfig,
}

impl Default for EstimatorConfigBuilder {
    fn default() -> Self {
        EstimatorConfigBuilder {
            config: EstimatorConfig {
                epsilon: 0.1,
                kappa: 8,
                triangle_lower_bound: 1,
                r_constant: 12.0,
                inner_constant: 30.0,
                assignment_constant: 12.0,
                use_log_n: false,
                use_epsilon_squared: false,
                copies: 7,
                seed: 0,
                max_samples: 4_000_000,
            },
        }
    }
}

impl EstimatorConfigBuilder {
    /// Sets the target relative accuracy ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets the degeneracy bound κ.
    pub fn kappa(mut self, kappa: usize) -> Self {
        self.config.kappa = kappa;
        self
    }

    /// Sets the triangle-count lower bound `T̂`.
    pub fn triangle_lower_bound(mut self, t: u64) -> Self {
        self.config.triangle_lower_bound = t;
        self
    }

    /// Sets the constant `c_r` for the uniform sample size.
    pub fn r_constant(mut self, c: f64) -> Self {
        self.config.r_constant = c;
        self
    }

    /// Sets the constant `c_ℓ` for the inner sample count.
    pub fn inner_constant(mut self, c: f64) -> Self {
        self.config.inner_constant = c;
        self
    }

    /// Sets the constant `c_s` for the assignment neighbor samples.
    pub fn assignment_constant(mut self, c: f64) -> Self {
        self.config.assignment_constant = c;
        self
    }

    /// Enables/disables the `ln n` factor in sample sizes.
    pub fn use_log_n(mut self, yes: bool) -> Self {
        self.config.use_log_n = yes;
        self
    }

    /// Enables/disables the `1/ε²` factor in sample sizes.
    pub fn use_epsilon_squared(mut self, yes: bool) -> Self {
        self.config.use_epsilon_squared = yes;
        self
    }

    /// Sets the number of independent copies.
    pub fn copies(mut self, copies: usize) -> Self {
        self.config.copies = copies;
        self
    }

    /// Sets the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Accepts the randomness regime and changes nothing:
    /// [`RngMode::Counter`] is the only regime, so every configuration
    /// already runs under it. Kept so callers that name the regime
    /// explicitly still build.
    pub fn rng_mode(self, mode: RngMode) -> Self {
        let RngMode::Counter = mode;
        self
    }

    /// Sets the hard sample cap.
    pub fn max_samples(mut self, cap: usize) -> Self {
        self.config.max_samples = cap;
        self
    }

    /// Finishes building without validating. Invalid values are reported by
    /// [`EstimatorConfig::validate`], which every estimator entry point
    /// calls before touching the stream; prefer [`try_build`] to surface
    /// configuration mistakes at construction time instead.
    ///
    /// [`try_build`]: EstimatorConfigBuilder::try_build
    pub fn build(self) -> EstimatorConfig {
        self.config
    }

    /// Validates and finishes building, rejecting invalid configurations
    /// (ε ∉ (0, 1), zero `kappa` / `copies` / `triangle_lower_bound`,
    /// non-positive constants) with [`EstimatorError::InvalidConfig`] at
    /// build time rather than deep inside an estimator run.
    ///
    /// [`EstimatorError::InvalidConfig`]: crate::EstimatorError::InvalidConfig
    pub fn try_build(self) -> Result<EstimatorConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Sample sizes and thresholds derived from an [`EstimatorConfig`] and the
/// stream dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedParameters {
    /// Size `r` of the uniform edge sample `R` (Lemma 5.5).
    pub r: usize,
    /// Neighbor samples `s` per edge inside `Assignment` (Theorem 5.13).
    pub assignment_samples: usize,
    /// Degree cutoff `mκ²/(ε²T)`: edges above it get `Y_e = ∞`
    /// (Algorithm 3, line 9).
    pub degree_cutoff: f64,
    /// Assignment ceiling `κ/(2ε)`: if the smallest estimated `Y_e` exceeds
    /// it the triangle stays unassigned (Algorithm 3, line 18).
    pub assignment_ceiling: f64,
    /// Exact-analysis heavy threshold `κ/ε` (Definition 5.10), exposed for
    /// the heavy/costly experiments.
    pub heavy_threshold: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let c = EstimatorConfig::builder().build();
        assert!(c.validate().is_ok());
        assert_eq!(c.copies, 7);
        assert!(!c.use_log_n);
    }

    #[test]
    fn rng_mode_setter_changes_nothing() {
        let c = EstimatorConfig::builder()
            .rng_mode(RngMode::Counter)
            .try_build()
            .unwrap();
        assert_eq!(c, EstimatorConfig::builder().try_build().unwrap());
    }

    #[test]
    fn try_build_validates_at_build_time() {
        let ok = EstimatorConfig::builder()
            .epsilon(0.2)
            .kappa(3)
            .triangle_lower_bound(10)
            .copies(5)
            .try_build()
            .unwrap();
        assert_eq!(ok.copies, 5);
        for bad in [
            EstimatorConfig::builder().epsilon(0.0).try_build(),
            EstimatorConfig::builder().epsilon(1.0).try_build(),
            EstimatorConfig::builder().kappa(0).try_build(),
            EstimatorConfig::builder()
                .triangle_lower_bound(0)
                .try_build(),
            EstimatorConfig::builder().copies(0).try_build(),
            EstimatorConfig::builder().inner_constant(0.0).try_build(),
        ] {
            assert!(matches!(bad, Err(EstimatorError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = EstimatorConfig::builder().epsilon(0.0).build();
        assert!(bad.validate().is_err());
        let bad = EstimatorConfig::builder().epsilon(1.5).build();
        assert!(bad.validate().is_err());
        let bad = EstimatorConfig::builder().kappa(0).build();
        assert!(bad.validate().is_err());
        let bad = EstimatorConfig::builder().triangle_lower_bound(0).build();
        assert!(bad.validate().is_err());
        let bad = EstimatorConfig::builder().copies(0).build();
        assert!(bad.validate().is_err());
        let bad = EstimatorConfig::builder().r_constant(-1.0).build();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn derived_r_scales_like_m_kappa_over_t() {
        let c = EstimatorConfig::builder()
            .kappa(4)
            .triangle_lower_bound(1000)
            .r_constant(10.0)
            .build();
        let p1 = c.derive(10_000, 5000);
        let p2 = c.derive(20_000, 5000);
        // doubling m doubles r
        assert!((p2.r as f64 / p1.r as f64 - 2.0).abs() < 0.01);
        let c_more_t = EstimatorConfig::builder()
            .kappa(4)
            .triangle_lower_bound(2000)
            .r_constant(10.0)
            .build();
        let p3 = c_more_t.derive(10_000, 5000);
        // doubling T halves r
        assert!((p1.r as f64 / p3.r as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn log_n_and_epsilon_factors_increase_samples() {
        let base = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(100)
            .build();
        let faithful = EstimatorConfig::paper_faithful(0.1, 3, 100);
        let p_base = base.derive(1000, 1000);
        let p_faithful = faithful.derive(1000, 1000);
        assert!(p_faithful.r > p_base.r);
        assert!(p_faithful.assignment_samples > p_base.assignment_samples);
        assert!(faithful.validate().is_ok());
    }

    #[test]
    fn max_samples_caps_everything() {
        let c = EstimatorConfig::builder()
            .kappa(100)
            .triangle_lower_bound(1)
            .max_samples(500)
            .build();
        let p = c.derive(1_000_000, 1_000_000);
        assert_eq!(p.r, 500);
        assert_eq!(p.assignment_samples, 500);
        assert_eq!(
            c.derive_inner_samples(1_000_000, 1_000_000, 10, 1_000_000),
            500
        );
    }

    #[test]
    fn inner_samples_follow_lemma_5_7() {
        let c = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(1000)
            .inner_constant(20.0)
            .build();
        let (m, n, r) = (10_000usize, 4000usize, 100usize);
        let ell_small = c.derive_inner_samples(m, n, r, 1_000);
        let ell_large = c.derive_inner_samples(m, n, r, 2_000);
        // ℓ is proportional to d_R.
        assert!((ell_large as f64 / ell_small as f64 - 2.0).abs() < 0.05);
    }

    #[test]
    fn thresholds_match_formulas() {
        let c = EstimatorConfig::builder()
            .epsilon(0.2)
            .kappa(5)
            .triangle_lower_bound(500)
            .build();
        let p = c.derive(10_000, 1000);
        assert!((p.degree_cutoff - 10_000.0 * 25.0 / (0.04 * 500.0)).abs() < 1e-9);
        assert!((p.assignment_ceiling - 5.0 / 0.4).abs() < 1e-9);
        assert!((p.heavy_threshold - 25.0).abs() < 1e-9);
    }

    #[test]
    fn derived_parameters_are_at_least_one() {
        let c = EstimatorConfig::builder()
            .kappa(1)
            .triangle_lower_bound(u64::MAX / 2)
            .build();
        let p = c.derive(10, 10);
        assert!(p.r >= 1);
        assert!(p.assignment_samples >= 1);
    }
}
