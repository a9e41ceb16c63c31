//! Accelerator area model.
//!
//! The paper compares accelerators "within a reasonable area constraint
//! (~16–25 mm²)" (§V.D) and reports area as the third axis of the Fig. 6
//! design-space scatter.  The model here counts the photonic real estate of
//! the MR banks (at the configured spacing), the per-arm optoelectronics
//! (balanced PD, TIA, VCSEL, routing) and the per-unit electronics
//! (ADC/DAC transceiver, DAC array, laser coupling).  Per-device footprints
//! that the paper does not specify are named calibration constants.

use crosslight_photonics::units::SquareMillimeters;

use crate::config::CrossLightConfig;

/// Waveguide track width allotted to each MR cell (µm); the cell area is
/// `spacing × MR_TRACK_WIDTH_UM`.
pub const MR_TRACK_WIDTH_UM: f64 = 10.0;

/// Area of the per-arm optoelectronics: balanced photodetector, TIA, VCSEL and
/// local routing (mm², calibration constant).
pub const ARM_OVERHEAD_MM2: f64 = 0.008;

/// Area of the per-unit electronics: ADC/DAC transceiver lane, DAC array,
/// laser coupling and local control (mm², calibration constant).
pub const UNIT_OVERHEAD_MM2: f64 = 0.09;

/// Itemised area of an accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorArea {
    /// Area of all MR banks.
    pub mr_banks: SquareMillimeters,
    /// Area of per-arm optoelectronics.
    pub arm_devices: SquareMillimeters,
    /// Area of per-unit electronics.
    pub unit_electronics: SquareMillimeters,
}

impl AcceleratorArea {
    /// Total accelerator area.
    #[must_use]
    pub fn total(&self) -> SquareMillimeters {
        self.mr_banks + self.arm_devices + self.unit_electronics
    }
}

/// Computes the area of a configuration.
#[must_use]
pub fn accelerator_area(config: &CrossLightConfig) -> AcceleratorArea {
    let mr_cell_um2 = config.design.mr_spacing.value() * MR_TRACK_WIDTH_UM;
    let mr_banks = SquareMillimeters::new(config.total_mrs() as f64 * mr_cell_um2 * 1e-6);
    let arm_devices = SquareMillimeters::new(config.total_arms() as f64 * ARM_OVERHEAD_MM2);
    let unit_electronics =
        SquareMillimeters::new((config.conv_units + config.fc_units) as f64 * UNIT_OVERHEAD_MM2);
    AcceleratorArea {
        mr_banks,
        arm_devices,
        unit_electronics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignChoices;
    use crosslight_photonics::units::Micrometers;

    #[test]
    fn best_config_lands_in_the_paper_area_window() {
        let area = accelerator_area(&CrossLightConfig::paper_best());
        let mm2 = area.total().value();
        assert!(
            (14.0..=26.0).contains(&mm2),
            "best configuration should sit in the ~16–25 mm² window, got {mm2}"
        );
    }

    #[test]
    fn total_is_sum_of_components() {
        let area = accelerator_area(&CrossLightConfig::paper_best());
        let expected =
            area.mr_banks.value() + area.arm_devices.value() + area.unit_electronics.value();
        assert!((area.total().value() - expected).abs() < 1e-12);
    }

    #[test]
    fn area_grows_with_unit_count_and_size() {
        let base = accelerator_area(&CrossLightConfig::paper_best())
            .total()
            .value();
        let fewer_units = CrossLightConfig::new(20, 150, 50, 30, DesignChoices::default()).unwrap();
        assert!(accelerator_area(&fewer_units).total().value() < base);
        let bigger_units =
            CrossLightConfig::new(40, 300, 100, 60, DesignChoices::default()).unwrap();
        assert!(accelerator_area(&bigger_units).total().value() > base);
    }

    #[test]
    fn wider_mr_spacing_increases_bank_area() {
        let tight = CrossLightConfig::paper_best();
        let wide_design = DesignChoices {
            mr_spacing: Micrometers::new(120.0),
            ..DesignChoices::default()
        };
        let wide = tight.with_design(wide_design);
        assert!(
            accelerator_area(&wide).mr_banks.value()
                > 10.0 * accelerator_area(&tight).mr_banks.value()
        );
    }
}
