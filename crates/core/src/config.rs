//! CrossLight accelerator configuration.
//!
//! The architecture-level knobs of the paper's sensitivity study (§V.C) are
//! the CONV VDP unit size `N`, the FC VDP unit size `K`, and the unit counts
//! `n` (CONV) and `m` (FC).  The paper's best configuration — the one used for
//! all comparisons — is `(N, K, n, m) = (20, 150, 100, 60)`.
//!
//! The cross-layer design choices (MR device design, TED tuning, value-tuning
//! circuit, wavelength reuse) are captured by [`DesignChoices`], with the four
//! paper variants provided by [`crate::variants`].

use crosslight_photonics::mr::MrGeometry;
use crosslight_photonics::units::Micrometers;
use crosslight_photonics::wdm::WavelengthReuse;
use crosslight_tuning::power::{CrosstalkCompensation, ValueTuning};

use crate::error::{ArchitectureError, Result};

/// Maximum MRs per bank (and wavelengths per arm), paper §IV.C.2.
pub const MAX_MRS_PER_BANK: usize = 15;

/// MR centre-to-centre spacing chosen by the paper's Fig. 4 analysis.
pub const MR_SPACING_UM: f64 = 5.0;

/// The paper's best configuration from the Fig. 6 design-space exploration.
pub const BEST_CONFIG: (usize, usize, usize, usize) = (20, 150, 100, 60);

/// Cross-layer design choices distinguishing the CrossLight variants and the
/// baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignChoices {
    /// MR device design (optimized = FPV-resilient 400/800 nm widths).
    pub geometry: MrGeometry,
    /// Thermal-crosstalk compensation strategy.
    pub compensation: CrosstalkCompensation,
    /// Circuit used to imprint weight/activation values.
    pub value_tuning: ValueTuning,
    /// Wavelength allocation strategy.
    pub wavelength_reuse: WavelengthReuse,
    /// MR spacing within banks.
    pub mr_spacing: Micrometers,
}

impl DesignChoices {
    /// The fully cross-layer-optimized CrossLight design (opt + TED).
    #[must_use]
    pub fn crosslight_opt_ted() -> Self {
        Self {
            geometry: MrGeometry::optimized(),
            compensation: CrosstalkCompensation::Ted,
            value_tuning: ValueTuning::ElectroOptic,
            wavelength_reuse: WavelengthReuse::AcrossArms,
            mr_spacing: Micrometers::new(MR_SPACING_UM),
        }
    }
}

impl Default for DesignChoices {
    fn default() -> Self {
        Self::crosslight_opt_ted()
    }
}

/// Complete CrossLight accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossLightConfig {
    /// Dot-product size supported by each CONV VDP unit (`N`).
    pub conv_unit_size: usize,
    /// Dot-product size supported by each FC VDP unit (`K`).
    pub fc_unit_size: usize,
    /// Number of CONV VDP units (`n`).
    pub conv_units: usize,
    /// Number of FC VDP units (`m`).
    pub fc_units: usize,
    /// Maximum MRs per bank (wavelengths per arm).
    pub mrs_per_bank: usize,
    /// Cross-layer design choices.
    pub design: DesignChoices,
    /// Weight/activation resolution in bits used for energy-per-bit
    /// accounting (the architecture's achievable resolution is computed
    /// separately by [`crate::resolution`]).
    pub resolution_bits: u32,
}

impl CrossLightConfig {
    /// Creates a configuration, validating the architecture parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::InvalidConfig`] if any dimension is zero,
    /// `K < N` (the paper requires FC units to be larger than CONV units), or
    /// the bank size exceeds [`MAX_MRS_PER_BANK`].
    pub fn new(
        conv_unit_size: usize,
        fc_unit_size: usize,
        conv_units: usize,
        fc_units: usize,
        design: DesignChoices,
    ) -> Result<Self> {
        if conv_unit_size == 0 || fc_unit_size == 0 || conv_units == 0 || fc_units == 0 {
            return Err(ArchitectureError::InvalidConfig {
                name: "dimensions",
                reason: format!(
                    "all of N, K, n, m must be positive, got ({conv_unit_size}, {fc_unit_size}, \
                     {conv_units}, {fc_units})"
                ),
            });
        }
        if fc_unit_size < conv_unit_size {
            return Err(ArchitectureError::InvalidConfig {
                name: "fc_unit_size",
                reason: format!(
                    "the paper requires K > N (FC vectors are larger); got K={fc_unit_size} < \
                     N={conv_unit_size}"
                ),
            });
        }
        Ok(Self {
            conv_unit_size,
            fc_unit_size,
            conv_units,
            fc_units,
            mrs_per_bank: MAX_MRS_PER_BANK,
            design,
            resolution_bits: 16,
        })
    }

    /// The paper's best configuration, `(N, K, n, m) = (20, 150, 100, 60)`,
    /// with the fully optimized design.
    #[must_use]
    pub fn paper_best() -> Self {
        let (n_size, k_size, n_units, m_units) = BEST_CONFIG;
        Self::new(
            n_size,
            k_size,
            n_units,
            m_units,
            DesignChoices::crosslight_opt_ted(),
        )
        .expect("the paper's best configuration is valid")
    }

    /// Returns a copy with different design choices (used to build the four
    /// paper variants over the same architecture dimensions).
    #[must_use]
    pub fn with_design(mut self, design: DesignChoices) -> Self {
        self.design = design;
        self
    }

    /// Returns a copy with a different energy-accounting resolution.
    #[must_use]
    pub fn with_resolution_bits(mut self, bits: u32) -> Self {
        self.resolution_bits = bits;
        self
    }

    /// Number of parallel arms in each CONV VDP unit.
    #[must_use]
    pub fn conv_arms_per_unit(&self) -> usize {
        self.conv_unit_size.div_ceil(self.mrs_per_bank)
    }

    /// Number of parallel arms in each FC VDP unit.
    #[must_use]
    pub fn fc_arms_per_unit(&self) -> usize {
        self.fc_unit_size.div_ceil(self.mrs_per_bank)
    }

    /// Total arms across the whole accelerator.
    #[must_use]
    pub fn total_arms(&self) -> usize {
        self.conv_units * self.conv_arms_per_unit() + self.fc_units * self.fc_arms_per_unit()
    }

    /// Total MR count across the accelerator (two banks per arm: one for
    /// activations, one for weights).
    #[must_use]
    pub fn total_mrs(&self) -> usize {
        self.total_arms() * 2 * self.mrs_per_bank
    }

    /// Number of laser wavelengths required per VDP unit, accounting for the
    /// wavelength-reuse strategy.
    #[must_use]
    pub fn lasers_per_unit(&self, unit_size: usize) -> usize {
        self.design
            .wavelength_reuse
            .lasers_required(unit_size, self.mrs_per_bank)
    }
}

impl Default for CrossLightConfig {
    fn default() -> Self {
        Self::paper_best()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_best_matches_section_v_c() {
        let c = CrossLightConfig::paper_best();
        assert_eq!(c.conv_unit_size, 20);
        assert_eq!(c.fc_unit_size, 150);
        assert_eq!(c.conv_units, 100);
        assert_eq!(c.fc_units, 60);
        assert_eq!(c.mrs_per_bank, 15);
        assert_eq!(c.resolution_bits, 16);
        assert_eq!(c.design.mr_spacing, Micrometers::new(5.0));
    }

    #[test]
    fn arm_counts_follow_bank_size() {
        let c = CrossLightConfig::paper_best();
        assert_eq!(c.conv_arms_per_unit(), 2); // ceil(20 / 15)
        assert_eq!(c.fc_arms_per_unit(), 10); // ceil(150 / 15)
        assert_eq!(c.total_arms(), 100 * 2 + 60 * 10);
        assert_eq!(c.total_mrs(), c.total_arms() * 30);
    }

    #[test]
    fn wavelength_reuse_limits_lasers_per_unit() {
        let c = CrossLightConfig::paper_best();
        assert_eq!(c.lasers_per_unit(150), 15);
        assert_eq!(c.lasers_per_unit(20), 15);
        let mut no_reuse = c;
        no_reuse.design.wavelength_reuse = WavelengthReuse::PerElement;
        assert_eq!(no_reuse.lasers_per_unit(150), 150);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let d = DesignChoices::default();
        assert!(CrossLightConfig::new(0, 150, 100, 60, d).is_err());
        assert!(CrossLightConfig::new(20, 150, 0, 60, d).is_err());
        assert!(CrossLightConfig::new(150, 20, 100, 60, d).is_err());
    }

    #[test]
    fn with_methods_override_fields() {
        let c = CrossLightConfig::paper_best().with_resolution_bits(8);
        assert_eq!(c.resolution_bits, 8);
        let design = DesignChoices {
            compensation: CrosstalkCompensation::Naive,
            ..DesignChoices::default()
        };
        let c = c.with_design(design);
        assert_eq!(c.design.compensation, CrosstalkCompensation::Naive);
    }
}
