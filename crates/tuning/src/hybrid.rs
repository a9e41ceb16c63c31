//! Hybrid EO + TO tuning policy (paper §IV.B).
//!
//! The paper adapts the hybrid tuning idea of Lu et al. (IEEE Photonics 2019):
//! use slow, powerful thermo-optic tuning only for the large shifts (one-time
//! FPV compensation at boot, rare large temperature excursions) and fast,
//! frugal electro-optic tuning for everything in the per-value inner loop.

use crosslight_photonics::units::{MilliWatts, Nanometers, Seconds};

use crate::eo::EoTuner;
use crate::error::{Result, TuningError};
use crate::to::ToTuner;

/// Which physical mechanism a planned tuning action uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TuningMechanism {
    /// Electro-optic carrier tuning (fast, tiny power, small range).
    ElectroOptic,
    /// Thermo-optic heater tuning (slow, milliwatt power, full range).
    ThermoOptic,
}

/// A planned tuning action for one MR: the mechanism chosen, the power it
/// will hold, and the latency before the ring settles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningPlan {
    /// Mechanism selected by the policy.
    pub mechanism: TuningMechanism,
    /// Resonance shift the plan realises.
    pub shift: Nanometers,
    /// Steady-state power held while the shift is applied.
    pub power: MilliWatts,
    /// Settling latency of the mechanism.
    pub latency: Seconds,
}

impl TuningPlan {
    /// Returns `true` when the plan uses the electro-optic mechanism.
    #[must_use]
    pub fn is_electro_optic(&self) -> bool {
        matches!(self.mechanism, TuningMechanism::ElectroOptic)
    }
}

/// The hybrid tuner combining one EO and one TO tuner per MR.
///
/// # Example
///
/// ```
/// use crosslight_tuning::hybrid::HybridTuner;
/// use crosslight_photonics::units::Nanometers;
///
/// let tuner = HybridTuner::paper();
/// let plan = tuner.plan_shift(Nanometers::new(0.2));
/// assert!(plan.is_electro_optic());
/// assert!(plan.latency.to_nanos() < 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridTuner {
    eo: EoTuner,
    to: ToTuner,
}

impl HybridTuner {
    /// Creates a hybrid tuner from explicit EO and TO tuners.
    #[must_use]
    pub fn new(eo: EoTuner, to: ToTuner) -> Self {
        Self { eo, to }
    }

    /// The paper's hybrid tuner: Table II EO and TO parameters with the
    /// optimized MR's 18 nm FSR.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            eo: EoTuner::table_ii(),
            to: ToTuner::table_ii(Nanometers::new(crosslight_photonics::mr::OPTIMIZED_FSR_NM)),
        }
    }

    /// Returns the EO tuner.
    #[must_use]
    pub fn eo(&self) -> &EoTuner {
        &self.eo
    }

    /// Returns the TO tuner.
    #[must_use]
    pub fn to(&self) -> &ToTuner {
        &self.to
    }

    /// Plans a resonance shift: EO if the shift fits the EO range, otherwise
    /// TO.
    ///
    /// Shifts beyond one FSR are folded back into the FSR (tuning to the next
    /// resonance order is equivalent), so this function always succeeds.
    #[must_use]
    pub fn plan_shift(&self, shift: Nanometers) -> TuningPlan {
        let folded = self.fold_into_fsr(shift);
        if self.eo.can_reach(folded) {
            let power = self
                .eo
                .power_for_shift(folded)
                .expect("folded shift is within EO range by construction");
            TuningPlan {
                mechanism: TuningMechanism::ElectroOptic,
                shift: folded,
                power,
                latency: self.eo.latency(),
            }
        } else {
            let power = self
                .to
                .power_for_shift(folded)
                .expect("folded shift is within one FSR by construction");
            TuningPlan {
                mechanism: TuningMechanism::ThermoOptic,
                shift: folded,
                power,
                latency: self.to.latency(),
            }
        }
    }

    /// Plans a shift but requires it to be achievable electro-optically,
    /// which is how weight/activation values are imprinted in the inner loop.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::ShiftOutOfRange`] if the shift exceeds the EO
    /// range (the caller should have pre-compensated larger drifts with TO).
    pub fn plan_eo_shift(&self, shift: Nanometers) -> Result<TuningPlan> {
        if !self.eo.can_reach(shift) {
            return Err(TuningError::ShiftOutOfRange {
                requested_nm: shift.value().abs(),
                max_nm: self.eo.max_shift.value(),
            });
        }
        Ok(TuningPlan {
            mechanism: TuningMechanism::ElectroOptic,
            shift,
            power: self.eo.power_for_shift(shift)?,
            latency: self.eo.latency(),
        })
    }

    /// Folds an arbitrary shift into `[-FSR, FSR]` by moving to the adjacent
    /// resonance order when cheaper.
    fn fold_into_fsr(&self, shift: Nanometers) -> Nanometers {
        let fsr = self.to.free_spectral_range.value();
        let mut s = shift.value() % fsr;
        if s.abs() > fsr / 2.0 {
            s -= s.signum() * fsr;
        }
        Nanometers::new(s)
    }
}

impl Default for HybridTuner {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_shifts_use_eo() {
        let tuner = HybridTuner::paper();
        let plan = tuner.plan_shift(Nanometers::new(0.3));
        assert!(plan.is_electro_optic());
        assert!(plan.power.to_microwatts() < 2.0);
        assert!((plan.latency.to_nanos() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn large_shifts_fall_back_to_to() {
        let tuner = HybridTuner::paper();
        let plan = tuner.plan_shift(Nanometers::new(2.1));
        assert!(!plan.is_electro_optic());
        assert!(plan.power.value() > 1.0);
        assert!((plan.latency.to_micros() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn shifts_beyond_fsr_fold_back() {
        let tuner = HybridTuner::paper();
        // 18.2 nm folds to 0.2 nm → EO territory.
        let plan = tuner.plan_shift(Nanometers::new(18.2));
        assert!(plan.is_electro_optic());
        assert!((plan.shift.value() - 0.2).abs() < 1e-9);
        // 10 nm folds to −8 nm (closer to the next order).
        let plan = tuner.plan_shift(Nanometers::new(10.0));
        assert!((plan.shift.value() + 8.0).abs() < 1e-9);
    }

    #[test]
    fn eo_only_plan_rejects_large_shifts() {
        let tuner = HybridTuner::paper();
        assert!(tuner.plan_eo_shift(Nanometers::new(0.4)).is_ok());
        assert!(matches!(
            tuner.plan_eo_shift(Nanometers::new(1.0)),
            Err(TuningError::ShiftOutOfRange { .. })
        ));
    }

    #[test]
    fn hybrid_is_never_worse_than_to_only() {
        let tuner = HybridTuner::paper();
        let to_only = ToTuner::table_ii(Nanometers::new(18.0));
        for shift_nm in [0.05, 0.1, 0.3, 0.45, 1.0, 2.0, 5.0] {
            let hybrid_power = tuner.plan_shift(Nanometers::new(shift_nm)).power;
            let to_power = to_only.power_for_shift(Nanometers::new(shift_nm)).unwrap();
            assert!(
                hybrid_power.value() <= to_power.value() + 1e-12,
                "hybrid must not exceed TO-only power at {shift_nm} nm"
            );
        }
    }

    #[test]
    fn accessors_expose_sub_tuners() {
        let tuner = HybridTuner::paper();
        assert!((tuner.eo().latency().to_nanos() - 20.0).abs() < 1e-9);
        assert!((tuner.to().latency().to_micros() - 4.0).abs() < 1e-9);
    }
}
