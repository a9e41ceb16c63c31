//! Electro-optic (EO) tuning.
//!
//! EO tuning exploits carrier-based index modulation: it is fast (~20 ns in
//! Table II) and extremely cheap per nanometre of shift (4 µW/nm), but its
//! reach is limited to a fraction of a nanometre — enough to imprint vector
//! values on an already-calibrated MR, not enough to compensate multi-nm FPV
//! or thermal drifts.

use crosslight_photonics::units::{MilliWatts, Nanometers, Seconds};

use crate::error::{Result, TuningError};

/// Default maximum resonance shift an EO tuner can produce.
///
/// Carrier-injection/depletion tuning reaches a few hundred picometres; the
/// paper's hybrid scheme relies on EO only for the small per-value shifts, so
/// 0.5 nm is a comfortable bound for the Q≈8000 devices used here.
pub const DEFAULT_EO_RANGE_NM: f64 = 0.5;

/// An electro-optic tuner attached to one MR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EoTuner {
    /// Power drawn per nanometre of resonance shift (Table II: 4 µW/nm).
    pub power_per_nm: MilliWatts,
    /// Time to settle after a tuning command (Table II: 20 ns).
    pub latency: Seconds,
    /// Maximum achievable shift magnitude.
    pub max_shift: Nanometers,
}

impl EoTuner {
    /// The paper's Table II EO tuner: 20 ns latency, 4 µW/nm.
    #[must_use]
    pub fn table_ii() -> Self {
        Self {
            power_per_nm: MilliWatts::from_microwatts(4.0),
            latency: Seconds::from_nanos(20.0),
            max_shift: Nanometers::new(DEFAULT_EO_RANGE_NM),
        }
    }

    /// Returns `true` if the tuner can produce a shift of the given magnitude.
    #[must_use]
    pub fn can_reach(&self, shift: Nanometers) -> bool {
        shift.abs() <= self.max_shift
    }

    /// Power drawn while holding a resonance shift of `shift`.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::ShiftOutOfRange`] if the magnitude exceeds the
    /// tuner's range.
    pub fn power_for_shift(&self, shift: Nanometers) -> Result<MilliWatts> {
        if !self.can_reach(shift) {
            return Err(TuningError::ShiftOutOfRange {
                requested_nm: shift.value().abs(),
                max_nm: self.max_shift.value(),
            });
        }
        Ok(self.power_per_nm * shift.value().abs())
    }

    /// Latency of applying one tuning command.
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.latency
    }
}

impl Default for EoTuner {
    fn default() -> Self {
        Self::table_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_parameters() {
        let t = EoTuner::table_ii();
        assert!((t.power_per_nm.to_microwatts() - 4.0).abs() < 1e-12);
        assert!((t.latency.to_nanos() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn power_scales_linearly_with_shift() {
        let t = EoTuner::table_ii();
        let p1 = t.power_for_shift(Nanometers::new(0.1)).unwrap();
        let p2 = t.power_for_shift(Nanometers::new(0.2)).unwrap();
        assert!((p2.value() - 2.0 * p1.value()).abs() < 1e-15);
        // Sign does not matter.
        let pneg = t.power_for_shift(Nanometers::new(-0.2)).unwrap();
        assert!((pneg.value() - p2.value()).abs() < 1e-15);
    }

    #[test]
    fn out_of_range_shift_is_rejected() {
        let t = EoTuner::table_ii();
        assert!(t.can_reach(Nanometers::new(0.4)));
        assert!(!t.can_reach(Nanometers::new(2.0)));
        assert!(matches!(
            t.power_for_shift(Nanometers::new(2.0)),
            Err(TuningError::ShiftOutOfRange { .. })
        ));
    }

    #[test]
    fn eo_power_is_orders_of_magnitude_below_to_power() {
        // Holding a 0.5 nm shift costs 2 µW with EO; the TO heater pays
        // 27.5 mW × (0.5/18) ≈ 764 µW for the same shift.
        let eo = EoTuner::table_ii()
            .power_for_shift(Nanometers::new(0.5))
            .unwrap();
        assert!(eo.to_microwatts() < 10.0);
    }
}
