//! Physical and numerical model parameters (the knobs Beatnik's
//! rocketrig driver exposes).


use beatnik_json::impl_json_struct;

/// Z-Model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Atwood number `A = (ρ₁ − ρ₂)/(ρ₁ + ρ₂)`; positive means the
    /// configuration is Rayleigh–Taylor unstable under `gravity`.
    pub atwood: f64,
    /// Gravitational acceleration magnitude (acts along −z).
    pub gravity: f64,
    /// Artificial-viscosity coefficient `μ` applied to the vorticity
    /// Laplacian (stabilizes the sheet; Beatnik's `--mu`).
    pub mu: f64,
    /// Krasny desingularization parameter `ε` of the Birkhoff–Rott
    /// kernel (Beatnik's `--epsilon`).
    pub epsilon: f64,
    /// Cutoff distance of the cutoff BR solver (Beatnik's
    /// `--cutoff-distance`).
    pub cutoff: f64,
    /// Time-step size.
    pub dt: f64,
    /// Apply the Krasny spectral filter every this many steps
    /// (0 = never). Requires an FFT-capable (periodic) model order.
    pub filter_every: usize,
    /// Krasny filter tolerance: Fourier modes of the perturbation fields
    /// with amplitude below this are zeroed (suppresses the roundoff-seeded
    /// short-wavelength instability classic to vortex-sheet methods).
    pub filter_tolerance: f64,
}

impl_json_struct!(Params {
    atwood,
    gravity,
    mu,
    epsilon,
    cutoff,
    dt,
    filter_every,
    filter_tolerance,
});

impl Default for Params {
    fn default() -> Self {
        Params {
            atwood: 0.5,
            gravity: 9.8,
            mu: 1.0,
            epsilon: 0.25,
            cutoff: 0.5,
            dt: 1e-3,
            filter_every: 0,
            filter_tolerance: 1e-12,
        }
    }
}

/// Why a parameter (of [`Params`] or of an initial condition) was
/// rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamError {
    /// The value is NaN or infinite.
    NonFinite {
        /// Parameter name.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The value is finite but outside the parameter's range.
    OutOfRange {
        /// Parameter name.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// The allowed range, in words.
        want: &'static str,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ParamError::NonFinite { name, value } => {
                write!(f, "{name} must be finite, got {value}")
            }
            ParamError::OutOfRange { name, value, want } => {
                write!(f, "{name} must be {want}, got {value}")
            }
        }
    }
}

impl std::error::Error for ParamError {}

impl From<ParamError> for String {
    fn from(e: ParamError) -> String {
        e.to_string()
    }
}

/// `Ok` if `value` is finite, else [`ParamError::NonFinite`].
pub(crate) fn finite(name: &'static str, value: f64) -> Result<(), ParamError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ParamError::NonFinite { name, value })
    }
}

/// `Ok` if `value` is finite and `ok(value)`; `want` names the range.
fn in_range(
    name: &'static str,
    value: f64,
    ok: impl Fn(f64) -> bool,
    want: &'static str,
) -> Result<(), ParamError> {
    finite(name, value)?;
    if ok(value) {
        Ok(())
    } else {
        Err(ParamError::OutOfRange { name, value, want })
    }
}

impl Params {
    /// Validate physical sanity; called by the solver at startup. Every
    /// real-valued field must be finite (NaN passes no comparison, so
    /// this is checked first), then lie in its range.
    pub fn validate(&self) -> Result<(), ParamError> {
        in_range(
            "atwood",
            self.atwood,
            |a| (-1.0..=1.0).contains(&a),
            "in [-1, 1]",
        )?;
        finite("gravity", self.gravity)?;
        in_range("mu", self.mu, |v| v >= 0.0, "non-negative")?;
        in_range("epsilon", self.epsilon, |v| v > 0.0, "positive")?;
        in_range("cutoff", self.cutoff, |v| v > 0.0, "positive")?;
        in_range("dt", self.dt, |v| v > 0.0, "positive")?;
        in_range(
            "filter_tolerance",
            self.filter_tolerance,
            |v| v >= 0.0,
            "non-negative",
        )
    }

    /// The linear RT growth rate `σ = √(A·g·k)` for wavenumber `k`
    /// predicted by the model's linearization (used by tests and by CFL
    /// heuristics).
    pub fn growth_rate(&self, k: f64) -> f64 {
        (self.atwood * self.gravity * k).max(0.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        assert!(Params::default().validate().is_ok());
    }

    #[test]
    fn invalid_params_are_rejected() {
        let p = Params { atwood: 1.5, ..Params::default() };
        assert!(p.validate().is_err());
        let p = Params { epsilon: 0.0, ..Params::default() };
        assert!(p.validate().is_err());
        let p = Params { dt: -1.0, ..Params::default() };
        assert!(p.validate().is_err());
        let p = Params { mu: -0.1, ..Params::default() };
        assert!(p.validate().is_err());
        let p = Params { cutoff: 0.0, ..Params::default() };
        assert!(p.validate().is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cases = [
                Params { atwood: bad, ..Params::default() },
                Params { gravity: bad, ..Params::default() },
                Params { mu: bad, ..Params::default() },
                Params { epsilon: bad, ..Params::default() },
                Params { cutoff: bad, ..Params::default() },
                Params { dt: bad, ..Params::default() },
                Params { filter_tolerance: bad, ..Params::default() },
            ];
            for p in cases {
                assert!(
                    matches!(p.validate(), Err(ParamError::NonFinite { .. })),
                    "{p:?} passed validation"
                );
            }
        }
        let err = Params { dt: f64::NAN, ..Params::default() }.validate().unwrap_err();
        assert_eq!(err.to_string(), "dt must be finite, got NaN");
        let err = Params { atwood: 1.5, ..Params::default() }.validate().unwrap_err();
        assert_eq!(err.to_string(), "atwood must be in [-1, 1], got 1.5");
    }

    #[test]
    fn growth_rate_formula() {
        let p = Params {
            atwood: 0.5,
            gravity: 2.0,
            ..Params::default()
        };
        assert!((p.growth_rate(1.0) - 1.0).abs() < 1e-12);
        assert!((p.growth_rate(4.0) - 2.0).abs() < 1e-12);
        // Stable stratification has zero growth.
        let s = Params {
            atwood: -0.5,
            ..p
        };
        assert_eq!(s.growth_rate(1.0), 0.0);
    }
}
