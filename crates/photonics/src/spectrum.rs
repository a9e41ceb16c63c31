//! Lorentzian lineshapes and transmission spectra.
//!
//! An all-pass microring resonator produces a Lorentzian-shaped notch at its
//! resonant wavelength when observed at the through port (paper Fig. 2).  The
//! same lineshape governs how much optical power one resonator "sees" from a
//! neighbouring WDM channel, which is the root of inter-channel crosstalk
//! (Eq. (8) of the paper).

use crate::units::Nanometers;

/// A Lorentzian lineshape parameterised by its centre and half-width.
///
/// The normalised Lorentzian used throughout the paper is
/// `L(λ) = δ² / ((λ − λ₀)² + δ²)` where `δ` is the half-width at half maximum
/// (equal to half the 3-dB bandwidth, `λ₀ / (2 Q)`).
///
/// # Example
///
/// ```
/// use crosslight_photonics::spectrum::Lorentzian;
/// use crosslight_photonics::units::Nanometers;
///
/// let line = Lorentzian::from_q_factor(Nanometers::new(1550.0), 8000.0);
/// // At the centre the response is exactly 1.
/// assert!((line.response(Nanometers::new(1550.0)) - 1.0).abs() < 1e-12);
/// // One half-width away the response is exactly 1/2.
/// let hwhm = line.half_width();
/// assert!((line.response(Nanometers::new(1550.0) + hwhm) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lorentzian {
    center: Nanometers,
    half_width: Nanometers,
}

impl Lorentzian {
    /// Creates a lineshape from its centre wavelength and half-width at half
    /// maximum.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `half_width` is not strictly positive.
    #[must_use]
    pub fn new(center: Nanometers, half_width: Nanometers) -> Self {
        debug_assert!(half_width.value() > 0.0, "half-width must be positive");
        Self { center, half_width }
    }

    /// Creates a lineshape from the resonator quality factor.
    ///
    /// The paper defines `δ = λᵢ / (2 Q)` as the half-width entering the
    /// crosstalk expression, i.e. half of the 3-dB bandwidth `λ/Q`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `q_factor` is not strictly positive.
    #[must_use]
    pub fn from_q_factor(center: Nanometers, q_factor: f64) -> Self {
        debug_assert!(q_factor > 0.0, "Q factor must be positive");
        Self::new(center, Nanometers::new(center.value() / (2.0 * q_factor)))
    }

    /// Returns the centre wavelength of the lineshape.
    #[must_use]
    pub fn center(&self) -> Nanometers {
        self.center
    }

    /// Returns the half-width at half maximum (δ).
    #[must_use]
    pub fn half_width(&self) -> Nanometers {
        self.half_width
    }

    /// Returns the full 3-dB bandwidth (2δ).
    #[must_use]
    pub fn bandwidth_3db(&self) -> Nanometers {
        self.half_width * 2.0
    }

    /// Evaluates the normalised Lorentzian response at `wavelength`.
    ///
    /// The response is 1 at the centre and decays towards 0 far from it.
    #[must_use]
    pub fn response(&self, wavelength: Nanometers) -> f64 {
        let delta = self.half_width.value();
        let detuning = wavelength.value() - self.center.value();
        delta * delta / (detuning * detuning + delta * delta)
    }

    /// Returns the detuning from the centre at which the response equals
    /// `target`, or `None` if `target` is outside `(0, 1]`.
    ///
    /// The returned detuning is non-negative; by symmetry `±detuning` both
    /// produce the same response.
    #[must_use]
    pub fn detuning_for_response(&self, target: f64) -> Option<Nanometers> {
        if !(target > 0.0 && target <= 1.0) {
            return None;
        }
        let delta = self.half_width.value();
        // target = δ² / (x² + δ²)  ⇒  x = δ sqrt(1/target − 1)
        Some(Nanometers::new(delta * (1.0 / target - 1.0).sqrt()))
    }

    /// Samples the lineshape on `points` uniformly spaced wavelengths spanning
    /// `±span` around the centre, returning `(wavelength, response)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    #[must_use]
    pub fn sample(&self, span: Nanometers, points: usize) -> Vec<(Nanometers, f64)> {
        assert!(points >= 2, "at least two sample points are required");
        let start = self.center.value() - span.value();
        let step = 2.0 * span.value() / (points as f64 - 1.0);
        (0..points)
            .map(|i| {
                let wl = Nanometers::new(start + step * i as f64);
                (wl, self.response(wl))
            })
            .collect()
    }
}

/// Characteristics of a resonator's through-port spectrum (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumSummary {
    /// Resonant (centre) wavelength.
    pub resonance: Nanometers,
    /// Free spectral range: spacing between successive resonances.
    pub free_spectral_range: Nanometers,
    /// Extinction ratio in dB: on-resonance suppression relative to
    /// off-resonance transmission.
    pub extinction_ratio_db: f64,
    /// 3-dB bandwidth of the resonance notch.
    pub bandwidth_3db: Nanometers,
    /// Loaded quality factor.
    pub q_factor: f64,
}

impl SpectrumSummary {
    /// Returns the finesse of the resonator, `FSR / bandwidth`.
    #[must_use]
    pub fn finesse(&self) -> f64 {
        self.free_spectral_range.value() / self.bandwidth_3db.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Lorentzian {
        Lorentzian::from_q_factor(Nanometers::new(1550.0), 8000.0)
    }

    #[test]
    fn q_factor_sets_half_width() {
        let l = line();
        // δ = 1550 / (2·8000) ≈ 0.0969 nm
        assert!((l.half_width().value() - 1550.0 / 16000.0).abs() < 1e-12);
        assert!((l.bandwidth_3db().value() - 1550.0 / 8000.0).abs() < 1e-12);
    }

    #[test]
    fn response_is_one_at_center_and_decays() {
        let l = line();
        assert!((l.response(l.center()) - 1.0).abs() < 1e-12);
        let near = l.response(Nanometers::new(1550.2));
        let far = l.response(Nanometers::new(1551.0));
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn response_is_symmetric() {
        let l = line();
        let d = Nanometers::new(0.37);
        let plus = l.response(l.center() + d);
        let minus = l.response(l.center() - d);
        assert!((plus - minus).abs() < 1e-12);
    }

    #[test]
    fn detuning_for_response_inverts_response() {
        let l = line();
        for target in [1.0, 0.9, 0.5, 0.1, 1e-3] {
            let det = l.detuning_for_response(target).expect("valid target");
            let got = l.response(l.center() + det);
            assert!((got - target).abs() < 1e-9, "target {target} got {got}");
        }
    }

    #[test]
    fn detuning_for_response_rejects_invalid_targets() {
        let l = line();
        assert!(l.detuning_for_response(0.0).is_none());
        assert!(l.detuning_for_response(-0.1).is_none());
        assert!(l.detuning_for_response(1.1).is_none());
    }

    #[test]
    fn sampling_spans_requested_range() {
        let l = line();
        let samples = l.sample(Nanometers::new(1.0), 101);
        assert_eq!(samples.len(), 101);
        assert!((samples[0].0.value() - 1549.0).abs() < 1e-9);
        assert!((samples[100].0.value() - 1551.0).abs() < 1e-9);
        // Peak is at the centre sample.
        let max = samples
            .iter()
            .map(|(_, r)| *r)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((max - 1.0).abs() < 1e-9);
    }

    #[test]
    fn finesse_is_fsr_over_bandwidth() {
        let summary = SpectrumSummary {
            resonance: Nanometers::new(1550.0),
            free_spectral_range: Nanometers::new(18.0),
            extinction_ratio_db: 20.0,
            bandwidth_3db: Nanometers::new(0.19375),
            q_factor: 8000.0,
        };
        assert!((summary.finesse() - 18.0 / 0.19375).abs() < 1e-9);
    }
}
