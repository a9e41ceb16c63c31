//! Thermo-optic (TO) tuning.
//!
//! TO tuning heats the MR with an integrated microheater, shifting the
//! effective index.  It reaches a full free spectral range — enough to
//! compensate any FPV or thermal drift — but costs 27.5 mW per FSR of shift
//! and settles in ~4 µs (Table II), which is why the paper avoids using it in
//! the per-value inner loop.

use crosslight_photonics::thermal::Microheater;
use crosslight_photonics::units::{MilliWatts, Nanometers, Radians, Seconds};

use crate::error::{Result, TuningError};

/// A thermo-optic tuner attached to one MR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToTuner {
    heater: Microheater,
    /// Free spectral range of the tuned MR — one FSR of shift costs the full
    /// heater power.
    pub free_spectral_range: Nanometers,
    /// Time to reach thermal steady state (Table II: 4 µs).
    pub latency: Seconds,
}

impl ToTuner {
    /// The paper's Table II TO tuner (27.5 mW/FSR, 4 µs) for an MR with the
    /// given FSR.
    #[must_use]
    pub fn table_ii(free_spectral_range: Nanometers) -> Self {
        Self {
            heater: Microheater::table_ii(),
            free_spectral_range,
            latency: Seconds::from_micros(4.0),
        }
    }

    /// Returns the heater characterisation.
    #[must_use]
    pub fn heater(&self) -> &Microheater {
        &self.heater
    }

    /// A TO tuner can reach any shift within one FSR (shifts beyond an FSR
    /// wrap to an equivalent resonance).
    #[must_use]
    pub fn can_reach(&self, shift: Nanometers) -> bool {
        shift.abs() <= self.free_spectral_range
    }

    /// Power drawn while holding a resonance shift of `shift`.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::ShiftOutOfRange`] if the magnitude exceeds one
    /// free spectral range.
    pub fn power_for_shift(&self, shift: Nanometers) -> Result<MilliWatts> {
        if !self.can_reach(shift) {
            return Err(TuningError::ShiftOutOfRange {
                requested_nm: shift.value().abs(),
                max_nm: self.free_spectral_range.value(),
            });
        }
        Ok(MilliWatts::new(self.heater.power_for_shift(
            shift.value(),
            self.free_spectral_range.value(),
        )))
    }

    /// Power drawn while holding a phase correction of `phase`.
    #[must_use]
    pub fn power_for_phase(&self, phase: Radians) -> MilliWatts {
        MilliWatts::new(self.heater.power_for_phase(phase))
    }

    /// Converts a resonance shift into the equivalent phase correction
    /// (one FSR ↔ 2π).
    #[must_use]
    pub fn shift_to_phase(&self, shift: Nanometers) -> Radians {
        Radians::new(shift.value() / self.free_spectral_range.value() * std::f64::consts::TAU)
    }

    /// Latency of one thermal settling event.
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuner() -> ToTuner {
        ToTuner::table_ii(Nanometers::new(18.0))
    }

    #[test]
    fn full_fsr_costs_full_heater_power() {
        let t = tuner();
        let p = t.power_for_shift(Nanometers::new(18.0)).unwrap();
        assert!((p.value() - 27.5).abs() < 1e-12);
    }

    #[test]
    fn power_scales_linearly_and_is_sign_independent() {
        let t = tuner();
        let p = t.power_for_shift(Nanometers::new(1.8)).unwrap();
        assert!((p.value() - 2.75).abs() < 1e-12);
        let pneg = t.power_for_shift(Nanometers::new(-1.8)).unwrap();
        assert!((pneg.value() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn shift_beyond_fsr_is_rejected() {
        let t = tuner();
        assert!(matches!(
            t.power_for_shift(Nanometers::new(20.0)),
            Err(TuningError::ShiftOutOfRange { .. })
        ));
    }

    #[test]
    fn phase_and_shift_views_are_consistent() {
        let t = tuner();
        let shift = Nanometers::new(4.5); // a quarter FSR → π/2
        let phase = t.shift_to_phase(shift);
        assert!((phase.value() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        let via_phase = t.power_for_phase(phase);
        let via_shift = t.power_for_shift(shift).unwrap();
        assert!((via_phase.value() - via_shift.value()).abs() < 1e-12);
    }

    #[test]
    fn to_latency_is_microseconds() {
        assert!((tuner().latency().to_micros() - 4.0).abs() < 1e-12);
    }
}
