//! Accelerator-level power model.
//!
//! Aggregates the per-unit power of the CONV and FC VDP pools (laser, tuning,
//! detection, conversion) and adds the electronic control/buffer overhead of
//! the global control unit, memory interface and DAC arrays shown in the
//! paper's Fig. 3.
//!
//! The only free parameters the paper does not specify are the electronic
//! control constants; they are collected here as named calibration constants
//! and documented in `EXPERIMENTS.md`.

use crosslight_photonics::units::{MilliWatts, Watts};

use crate::config::CrossLightConfig;
use crate::error::Result;
use crate::vdp::{VdpUnit, VdpUnitReport};

/// Static power of the global electronic control unit, partial-sum buffers
/// and memory interface (calibration constant; not specified by the paper).
pub const CONTROL_BASE_MW: f64 = 2_000.0;

/// Per-VDP-unit electronic overhead (local DAC array control, buffering).
pub const CONTROL_PER_UNIT_MW: f64 = 10.0;

/// Itemised accelerator power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorPower {
    /// Total laser (light source) electrical power.
    pub laser: MilliWatts,
    /// Total MR tuning power (FPV compensation, crosstalk compensation, value
    /// imprinting).
    pub tuning: MilliWatts,
    /// Photodetector + TIA + VCSEL power.
    pub detection: MilliWatts,
    /// ADC/DAC transceiver power.
    pub conversion: MilliWatts,
    /// Electronic control, buffering and memory-interface power.
    pub control: MilliWatts,
}

impl AcceleratorPower {
    /// Total electrical power.
    #[must_use]
    pub fn total(&self) -> MilliWatts {
        self.laser + self.tuning + self.detection + self.conversion + self.control
    }

    /// Total power in watts (convenience for reporting).
    #[must_use]
    pub fn total_watts(&self) -> Watts {
        self.total().to_watts()
    }
}

/// Computes the accelerator power of a configuration.
///
/// # Errors
///
/// Propagates laser/tuning model errors (which do not occur for valid
/// configurations).
pub fn accelerator_power(config: &CrossLightConfig) -> Result<AcceleratorPower> {
    let conv_unit = VdpUnit::conv_unit(config).report()?;
    let fc_unit = VdpUnit::fc_unit(config).report()?;
    Ok(accelerator_power_from_unit_reports(
        config, &conv_unit, &fc_unit,
    ))
}

/// Combines already-computed per-unit reports into the accelerator power —
/// the accumulation half of [`accelerator_power`], shared with the
/// [`ModelCache`](crate::cache::ModelCache) so cached unit reports produce
/// bit-identical totals.  `conv_unit`/`fc_unit` must describe *this*
/// configuration's CONV/FC units.
#[must_use]
pub fn accelerator_power_from_unit_reports(
    config: &CrossLightConfig,
    conv_unit: &VdpUnitReport,
    fc_unit: &VdpUnitReport,
) -> AcceleratorPower {
    let conv_n = config.conv_units as f64;
    let fc_n = config.fc_units as f64;

    let laser = conv_unit.laser_power * conv_n + fc_unit.laser_power * fc_n;
    let tuning = conv_unit.tuning_power * conv_n + fc_unit.tuning_power * fc_n;
    let detection = conv_unit.detection_power * conv_n + fc_unit.detection_power * fc_n;
    let conversion = conv_unit.conversion_power * conv_n + fc_unit.conversion_power * fc_n;
    let control = MilliWatts::new(
        CONTROL_BASE_MW + CONTROL_PER_UNIT_MW * (config.conv_units + config.fc_units) as f64,
    );

    AcceleratorPower {
        laser,
        tuning,
        detection,
        conversion,
        control,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::CrossLightVariant;

    #[test]
    fn total_is_sum_of_components() {
        let power = accelerator_power(&CrossLightConfig::paper_best()).unwrap();
        let expected = power.laser.value()
            + power.tuning.value()
            + power.detection.value()
            + power.conversion.value()
            + power.control.value();
        assert!((power.total().value() - expected).abs() < 1e-9);
        assert!((power.total_watts().value() - expected / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn best_config_power_is_in_a_plausible_range() {
        // The paper's Fig. 7 places CrossLight below CPUs/GPUs (hundreds of
        // watts) and above edge accelerators (a few watts).
        let power = accelerator_power(&CrossLightConfig::paper_best()).unwrap();
        let watts = power.total_watts().value();
        assert!(watts > 5.0 && watts < 150.0, "total power {watts} W");
    }

    #[test]
    fn tuning_dominates_in_the_unoptimized_variant() {
        let base = accelerator_power(&CrossLightVariant::Base.config()).unwrap();
        assert!(base.tuning.value() > base.laser.value());
        assert!(base.tuning.value() > base.detection.value());
    }

    #[test]
    fn variant_power_ordering_matches_figure_7() {
        let power_of = |v: CrossLightVariant| {
            accelerator_power(&v.config())
                .unwrap()
                .total_watts()
                .value()
        };
        let base = power_of(CrossLightVariant::Base);
        let base_ted = power_of(CrossLightVariant::BaseTed);
        let opt = power_of(CrossLightVariant::Opt);
        let opt_ted = power_of(CrossLightVariant::OptTed);
        assert!(base > base_ted, "base {base} vs base_TED {base_ted}");
        assert!(base > opt, "base {base} vs opt {opt}");
        assert!(
            base_ted > opt_ted,
            "base_TED {base_ted} vs opt_TED {opt_ted}"
        );
        assert!(opt > opt_ted, "opt {opt} vs opt_TED {opt_ted}");
    }

    #[test]
    fn more_units_draw_more_power() {
        let small = CrossLightConfig::new(20, 150, 50, 30, crate::config::DesignChoices::default())
            .unwrap();
        let big = CrossLightConfig::paper_best();
        let p_small = accelerator_power(&small).unwrap().total().value();
        let p_big = accelerator_power(&big).unwrap().total().value();
        assert!(p_big > p_small);
    }
}
