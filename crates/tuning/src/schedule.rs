//! Boot-time and runtime tuning workflow (paper §IV.B, last paragraph).
//!
//! The paper's circuit-level workflow is:
//!
//! 1. **Boot**: a one-time thermo-optic compensation of design-time FPV drift
//!    is applied to every MR (the required shifts were characterised offline
//!    during the test phase).
//! 2. **Boot**: the pre-computed crosstalk-cancelling phase offsets (TED) are
//!    applied.
//! 3. **Runtime**: vector values are imprinted electro-optically on every
//!    vector operation.
//! 4. **Runtime (rare)**: if a large ambient temperature shift is observed, a
//!    one-time TO recalibration runs again.
//!
//! [`TuningSchedule`] captures this state machine so the architecture
//! simulator can charge the right latency to the right phase (boot-time work
//! never appears in the per-inference latency).

use crosslight_photonics::units::{Nanometers, Seconds};

use crate::hybrid::HybridTuner;

/// Threshold of ambient resonance drift beyond which a runtime TO
/// recalibration is triggered (comparable to the EO range, since anything
/// smaller can be absorbed electro-optically).
pub const RECALIBRATION_THRESHOLD_NM: f64 = 0.4;

/// Phases of the tuning lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningPhase {
    /// The accelerator has not been calibrated yet.
    Uncalibrated,
    /// Boot-time FPV + crosstalk calibration has completed; the accelerator is
    /// serving inferences.
    Online,
}

/// A record of one calibration or recalibration event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationEvent {
    /// Drift magnitude that was compensated.
    pub compensated_shift: Nanometers,
    /// Latency of the event (thermo-optic settling).
    pub latency: Seconds,
}

/// The tuning lifecycle state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningSchedule {
    tuner: HybridTuner,
    phase: TuningPhase,
    calibrations: Vec<CalibrationEvent>,
}

impl TuningSchedule {
    /// Creates a schedule for the paper's hybrid tuner, still uncalibrated.
    #[must_use]
    pub fn new(tuner: HybridTuner) -> Self {
        Self {
            tuner,
            phase: TuningPhase::Uncalibrated,
            calibrations: Vec::new(),
        }
    }

    /// Returns the current lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> TuningPhase {
        self.phase
    }

    /// Returns all calibration events so far.
    #[must_use]
    pub fn calibrations(&self) -> &[CalibrationEvent] {
        &self.calibrations
    }

    /// Performs the boot-time calibration: one TO settling event that absorbs
    /// the FPV drift, after which the accelerator is online.
    pub fn boot_calibrate(&mut self, fpv_drift: Nanometers) -> CalibrationEvent {
        let event = CalibrationEvent {
            compensated_shift: fpv_drift,
            latency: self.tuner.to().latency(),
        };
        self.calibrations.push(event);
        self.phase = TuningPhase::Online;
        event
    }

    /// Reports an observed ambient drift.  Returns `Some(event)` if it was
    /// large enough to require a TO recalibration, `None` if the EO circuit
    /// absorbs it for free.
    ///
    /// # Panics
    ///
    /// Panics if called before [`TuningSchedule::boot_calibrate`]; runtime
    /// drift handling only makes sense once the accelerator is online.
    pub fn observe_ambient_drift(&mut self, drift: Nanometers) -> Option<CalibrationEvent> {
        assert!(
            self.phase == TuningPhase::Online,
            "ambient drift observed before boot calibration"
        );
        if drift.abs().value() <= RECALIBRATION_THRESHOLD_NM {
            return None;
        }
        let event = CalibrationEvent {
            compensated_shift: drift,
            latency: self.tuner.to().latency(),
        };
        self.calibrations.push(event);
        Some(event)
    }

    /// Latency charged to every vector operation for value imprinting (the EO
    /// settling time) once the system is online.
    #[must_use]
    pub fn per_operation_latency(&self) -> Seconds {
        self.tuner.eo().latency()
    }

    /// Total latency spent in calibration events so far (boot + runtime).
    #[must_use]
    pub fn total_calibration_latency(&self) -> Seconds {
        self.calibrations.iter().map(|c| c.latency).sum()
    }
}

impl Default for TuningSchedule {
    fn default() -> Self {
        Self::new(HybridTuner::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_calibration_brings_accelerator_online() {
        let mut schedule = TuningSchedule::default();
        assert_eq!(schedule.phase(), TuningPhase::Uncalibrated);
        let event = schedule.boot_calibrate(Nanometers::new(2.1));
        assert_eq!(schedule.phase(), TuningPhase::Online);
        assert!((event.latency.to_micros() - 4.0).abs() < 1e-9);
        assert_eq!(schedule.calibrations().len(), 1);
    }

    #[test]
    fn small_ambient_drift_is_absorbed_without_recalibration() {
        let mut schedule = TuningSchedule::default();
        schedule.boot_calibrate(Nanometers::new(2.1));
        assert!(schedule
            .observe_ambient_drift(Nanometers::new(0.1))
            .is_none());
        assert_eq!(schedule.calibrations().len(), 1);
    }

    #[test]
    fn large_ambient_drift_triggers_to_recalibration() {
        let mut schedule = TuningSchedule::default();
        schedule.boot_calibrate(Nanometers::new(2.1));
        let event = schedule.observe_ambient_drift(Nanometers::new(1.5));
        assert!(event.is_some());
        assert_eq!(schedule.calibrations().len(), 2);
        assert!((schedule.total_calibration_latency().to_micros() - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "before boot calibration")]
    fn runtime_drift_before_boot_panics() {
        let mut schedule = TuningSchedule::default();
        let _ = schedule.observe_ambient_drift(Nanometers::new(1.0));
    }

    #[test]
    fn per_operation_latency_is_the_eo_latency() {
        let schedule = TuningSchedule::default();
        assert!((schedule.per_operation_latency().to_nanos() - 20.0).abs() < 1e-9);
    }
}
