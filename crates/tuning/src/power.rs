//! Bank-level tuning-power accounting.
//!
//! The architecture simulator needs one number per MR bank: the steady-state
//! tuning power of keeping every ring on its channel *and* imprinting values.
//! That number depends on all three of the paper's cross-layer choices:
//!
//! * the MR design (optimized devices drift less under FPV, so the one-time
//!   compensation is cheaper),
//! * whether TED collective tuning is used to cancel thermal crosstalk, and
//! * whether the hybrid EO/TO circuit is available for value imprinting
//!   (otherwise values are imprinted thermo-optically, as prior accelerators
//!   do).
//!
//! This module composes the [`fpv`](crosslight_photonics::fpv),
//! [`thermal`](crosslight_photonics::thermal), [`ted`](crate::ted),
//! [`eo`](crate::eo) and [`to`](crate::to) models into that single figure.

use crosslight_photonics::fpv::FpvModel;
use crosslight_photonics::mr::MrGeometry;
use crosslight_photonics::thermal::ThermalCrosstalkModel;
use crosslight_photonics::units::{Micrometers, MilliWatts, Nanometers, Radians, Seconds};

use crate::eo::EoTuner;
use crate::error::Result;
use crate::hybrid::HybridTuner;
use crate::ted::TedSolver;
use crate::to::ToTuner;

/// Average detuning magnitude used to imprint one value on an MR.
///
/// Values map to detunings inside the Lorentzian linewidth; with Q ≈ 8000 the
/// usable detuning range is a few hundred picometres, so the *average* value
/// shift is taken as 0.1 nm.
pub const MEAN_VALUE_SHIFT_NM: f64 = 0.1;

/// Which circuit imprints values (weights/activations) onto the MRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueTuning {
    /// Fast electro-optic imprinting (CrossLight's hybrid circuit).
    ElectroOptic,
    /// Thermo-optic imprinting (prior accelerators such as DEAP-CNN).
    ThermoOptic,
}

/// Whether thermal-crosstalk compensation uses TED collective tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrosstalkCompensation {
    /// Collective Thermal Eigenmode Decomposition.
    Ted,
    /// Independent per-heater compensation (naive).
    Naive,
}

/// Configuration of the tuning power estimate for one MR bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankTuningConfig {
    /// Number of MRs in the bank.
    pub mr_count: usize,
    /// Centre-to-centre spacing between adjacent MRs.
    pub spacing: Micrometers,
    /// MR geometry (decides FPV drift magnitude).
    pub geometry: MrGeometry,
    /// Crosstalk compensation strategy.
    pub compensation: CrosstalkCompensation,
    /// Circuit used to imprint values.
    pub value_tuning: ValueTuning,
}

impl BankTuningConfig {
    /// The CrossLight `opt_TED` configuration: 15 optimized MRs at 5 µm
    /// spacing, TED compensation, EO value imprinting.
    #[must_use]
    pub fn crosslight_opt_ted(mr_count: usize) -> Self {
        Self {
            mr_count,
            spacing: Micrometers::new(5.0),
            geometry: MrGeometry::optimized(),
            compensation: CrosstalkCompensation::Ted,
            value_tuning: ValueTuning::ElectroOptic,
        }
    }
}

/// Itemised tuning power of one MR bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankTuningPower {
    /// Power spent holding the one-time FPV compensation (TO heaters).
    pub fpv_compensation: MilliWatts,
    /// Extra power attributable to thermal-crosstalk compensation (the gap
    /// between crosstalk-aware tuning and isolated-device tuning).
    pub crosstalk_compensation: MilliWatts,
    /// Power of imprinting values on all MRs of the bank.
    pub value_imprinting: MilliWatts,
    /// Worst-case latency to reprogram the bank with new values.
    pub reprogram_latency: Seconds,
}

impl BankTuningPower {
    /// Total steady-state tuning power of the bank.
    #[must_use]
    pub fn total(&self) -> MilliWatts {
        self.fpv_compensation + self.crosstalk_compensation + self.value_imprinting
    }
}

/// Estimates the tuning power of one MR bank under the given configuration.
///
/// The FPV compensation targets are the per-MR mean absolute drifts of the
/// bank's geometry under the typical process corner, spread deterministically
/// across the bank (alternating above/below the mean) so that TED sees a
/// realistic mix of common-mode and differential targets.
///
/// # Errors
///
/// Propagates matrix/dimension errors from the TED solver; these do not occur
/// for valid configurations (`mr_count ≥ 1`, positive spacing).
pub fn estimate_bank_tuning_power(config: &BankTuningConfig) -> Result<BankTuningPower> {
    let fpv = FpvModel::new(config.geometry, Default::default());
    let fsr = if config.geometry.is_width_optimized() {
        Nanometers::new(crosslight_photonics::mr::OPTIMIZED_FSR_NM)
    } else {
        Nanometers::new(crosslight_photonics::mr::CONVENTIONAL_FSR_NM)
    };
    let to = ToTuner::table_ii(fsr);
    let eo = EoTuner::table_ii();
    let hybrid = HybridTuner::new(eo, to);

    // Per-MR FPV compensation targets: mean drift modulated ±35% across the
    // bank so the targets are heterogeneous (as real FPV is).
    let mean_shift = fpv.mean_absolute_drift();
    let targets: Vec<Radians> = (0..config.mr_count)
        .map(|i| {
            let modulation = 1.0 + 0.35 * ((i as f64) * 2.1).sin();
            to.shift_to_phase(mean_shift * modulation)
        })
        .collect();

    // Isolated-device cost: what the same targets would cost with no thermal
    // coupling at all.  The crosstalk-compensation component is everything the
    // chosen strategy pays on top of (or saves relative to) this baseline.
    let isolated: f64 = targets
        .iter()
        .map(|t| to.heater().power_for_phase(*t))
        .sum();

    let crosstalk_model = ThermalCrosstalkModel::default();
    let compensated_total = if config.mr_count == 1 {
        isolated
    } else {
        let matrix = crosstalk_model
            .crosstalk_matrix(config.mr_count, config.spacing)
            .map_err(|e| crate::error::TuningError::InvalidMatrix {
                reason: e.to_string(),
            })?;
        let solver = TedSolver::new(&matrix, *to.heater())?;
        match config.compensation {
            CrosstalkCompensation::Ted => solver.solve(&targets)?.total_power.value(),
            CrosstalkCompensation::Naive => solver.naive_power(&targets)?.value(),
        }
    };

    // When TED makes the compensated total *cheaper* than isolated tuning the
    // saving is reflected in `fpv_compensation`; crosstalk power is never
    // reported as negative.
    let fpv_compensation = MilliWatts::new(isolated.min(compensated_total));
    let crosstalk_compensation = MilliWatts::new((compensated_total - isolated).max(0.0));

    // Value imprinting across the whole bank.
    let mean_value_shift = Nanometers::new(MEAN_VALUE_SHIFT_NM);
    let (value_power_per_mr, value_latency) = match config.value_tuning {
        ValueTuning::ElectroOptic => {
            let plan = hybrid.plan_eo_shift(mean_value_shift)?;
            (plan.power, plan.latency)
        }
        ValueTuning::ThermoOptic => {
            let power = to.power_for_shift(mean_value_shift)?;
            (power, to.latency())
        }
    };
    let value_imprinting = value_power_per_mr * config.mr_count as f64;

    Ok(BankTuningPower {
        fpv_compensation,
        crosstalk_compensation,
        value_imprinting,
        reprogram_latency: value_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(
        geometry: MrGeometry,
        compensation: CrosstalkCompensation,
        value_tuning: ValueTuning,
    ) -> BankTuningConfig {
        BankTuningConfig {
            mr_count: 15,
            spacing: Micrometers::new(5.0),
            geometry,
            compensation,
            value_tuning,
        }
    }

    #[test]
    fn optimized_devices_cost_less_fpv_power() {
        let optimized = estimate_bank_tuning_power(&config(
            MrGeometry::optimized(),
            CrosstalkCompensation::Ted,
            ValueTuning::ElectroOptic,
        ))
        .unwrap();
        let conventional = estimate_bank_tuning_power(&config(
            MrGeometry::conventional(),
            CrosstalkCompensation::Ted,
            ValueTuning::ElectroOptic,
        ))
        .unwrap();
        assert!(optimized.fpv_compensation.value() < conventional.fpv_compensation.value());
        assert!(optimized.total().value() < conventional.total().value());
    }

    #[test]
    fn ted_saves_power_over_naive_compensation() {
        let ted = estimate_bank_tuning_power(&config(
            MrGeometry::optimized(),
            CrosstalkCompensation::Ted,
            ValueTuning::ElectroOptic,
        ))
        .unwrap();
        let naive = estimate_bank_tuning_power(&config(
            MrGeometry::optimized(),
            CrosstalkCompensation::Naive,
            ValueTuning::ElectroOptic,
        ))
        .unwrap();
        assert!(ted.total().value() < naive.total().value());
    }

    #[test]
    fn eo_value_imprinting_is_cheaper_and_faster_than_to() {
        let eo = estimate_bank_tuning_power(&config(
            MrGeometry::optimized(),
            CrosstalkCompensation::Ted,
            ValueTuning::ElectroOptic,
        ))
        .unwrap();
        let to = estimate_bank_tuning_power(&config(
            MrGeometry::optimized(),
            CrosstalkCompensation::Ted,
            ValueTuning::ThermoOptic,
        ))
        .unwrap();
        assert!(eo.value_imprinting.value() < to.value_imprinting.value());
        assert!(eo.reprogram_latency.value() < to.reprogram_latency.value());
        // EO reprogramming is the Table II 20 ns; TO is 4 µs.
        assert!((eo.reprogram_latency.to_nanos() - 20.0).abs() < 1e-9);
        assert!((to.reprogram_latency.to_micros() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn all_four_crosslight_variants_are_ordered() {
        // base > base_TED > opt > opt_TED in total tuning power, mirroring the
        // ordering of the paper's Fig. 7 variants.
        let base = estimate_bank_tuning_power(&config(
            MrGeometry::conventional(),
            CrosstalkCompensation::Naive,
            ValueTuning::ElectroOptic,
        ))
        .unwrap()
        .total();
        let base_ted = estimate_bank_tuning_power(&config(
            MrGeometry::conventional(),
            CrosstalkCompensation::Ted,
            ValueTuning::ElectroOptic,
        ))
        .unwrap()
        .total();
        let opt = estimate_bank_tuning_power(&config(
            MrGeometry::optimized(),
            CrosstalkCompensation::Naive,
            ValueTuning::ElectroOptic,
        ))
        .unwrap()
        .total();
        let opt_ted = estimate_bank_tuning_power(&config(
            MrGeometry::optimized(),
            CrosstalkCompensation::Ted,
            ValueTuning::ElectroOptic,
        ))
        .unwrap()
        .total();
        assert!(base.value() > base_ted.value());
        assert!(base_ted.value() > opt_ted.value());
        assert!(opt.value() > opt_ted.value());
        assert!(base.value() > opt.value());
    }

    #[test]
    fn single_mr_bank_has_no_crosstalk_component() {
        let mut cfg = BankTuningConfig::crosslight_opt_ted(1);
        cfg.compensation = CrosstalkCompensation::Naive;
        let power = estimate_bank_tuning_power(&cfg).unwrap();
        assert!(power.crosstalk_compensation.value() < 1e-12);
        assert!(power.total().value() > 0.0);
    }

    #[test]
    fn total_is_sum_of_components() {
        let power = estimate_bank_tuning_power(&BankTuningConfig::crosslight_opt_ted(15)).unwrap();
        let expected = power.fpv_compensation.value()
            + power.crosstalk_compensation.value()
            + power.value_imprinting.value();
        assert!((power.total().value() - expected).abs() < 1e-12);
    }
}
