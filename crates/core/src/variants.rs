//! The four CrossLight variants compared in the paper's Fig. 7, Fig. 8 and
//! Table III.
//!
//! | Variant          | MR design    | Crosstalk tuning |
//! |------------------|--------------|------------------|
//! | `Cross_base`     | conventional | traditional (naive) TO |
//! | `Cross_opt`      | optimized    | traditional (naive) TO |
//! | `Cross_base_TED` | conventional | hybrid TED |
//! | `Cross_opt_TED`  | optimized    | hybrid TED |
//!
//! All four share the same architecture dimensions (the best configuration of
//! the Fig. 6 exploration) and the same EO value-imprinting datapath; they
//! differ in how much power the device- and circuit-level choices cost.

use crosslight_photonics::mr::MrGeometry;
use crosslight_photonics::units::Micrometers;
use crosslight_photonics::wdm::WavelengthReuse;
use crosslight_tuning::power::{CrosstalkCompensation, ValueTuning};

use crate::config::{CrossLightConfig, DesignChoices, MR_SPACING_UM};

/// The four CrossLight variants of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossLightVariant {
    /// Conventional MR design, traditional thermo-optic compensation.
    Base,
    /// Conventional MR design, hybrid TED-based tuning.
    BaseTed,
    /// Optimized MR design, traditional thermo-optic compensation.
    Opt,
    /// Optimized MR design, hybrid TED-based tuning (the full CrossLight).
    OptTed,
}

impl CrossLightVariant {
    /// All four variants in the order the paper lists them.
    #[must_use]
    pub fn all() -> [CrossLightVariant; 4] {
        [Self::Base, Self::BaseTed, Self::Opt, Self::OptTed]
    }

    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Base => "Cross_base",
            Self::BaseTed => "Cross_base_TED",
            Self::Opt => "Cross_opt",
            Self::OptTed => "Cross_opt_TED",
        }
    }

    /// Parses a paper figure label (as produced by
    /// [`CrossLightVariant::label`]) back into the variant — the inverse
    /// used by the wire protocol of `crosslight-server`, which transmits
    /// variants by their stable paper names.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        Self::all().into_iter().find(|v| v.label() == label)
    }

    /// The design choices of this variant.
    ///
    /// All variants share the same 5 µm layout (so they fit the same area
    /// window); variants without TED pay the naive crosstalk-compensation
    /// power penalty at that spacing, exactly as in the "without TED" curve of
    /// the paper's Fig. 4.
    #[must_use]
    pub fn design(&self) -> DesignChoices {
        let geometry = match self {
            Self::Base | Self::BaseTed => MrGeometry::conventional(),
            Self::Opt | Self::OptTed => MrGeometry::optimized(),
        };
        let compensation = match self {
            Self::Base | Self::Opt => CrosstalkCompensation::Naive,
            Self::BaseTed | Self::OptTed => CrosstalkCompensation::Ted,
        };
        DesignChoices {
            geometry,
            compensation,
            value_tuning: ValueTuning::ElectroOptic,
            wavelength_reuse: WavelengthReuse::AcrossArms,
            mr_spacing: Micrometers::new(MR_SPACING_UM),
        }
    }

    /// The full accelerator configuration of this variant (paper-best
    /// architecture dimensions with this variant's design choices).
    #[must_use]
    pub fn config(&self) -> CrossLightConfig {
        CrossLightConfig::paper_best().with_design(self.design())
    }
}

impl std::fmt::Display for CrossLightVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(CrossLightVariant::Base.label(), "Cross_base");
        assert_eq!(CrossLightVariant::BaseTed.label(), "Cross_base_TED");
        assert_eq!(CrossLightVariant::Opt.label(), "Cross_opt");
        assert_eq!(CrossLightVariant::OptTed.label(), "Cross_opt_TED");
        assert_eq!(CrossLightVariant::OptTed.to_string(), "Cross_opt_TED");
        assert_eq!(CrossLightVariant::all().len(), 4);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for variant in CrossLightVariant::all() {
            assert_eq!(
                CrossLightVariant::from_label(variant.label()),
                Some(variant)
            );
        }
        assert_eq!(CrossLightVariant::from_label("Cross_unknown"), None);
    }

    #[test]
    fn designs_differ_along_the_two_axes() {
        assert!(!CrossLightVariant::Base
            .design()
            .geometry
            .is_width_optimized());
        assert!(CrossLightVariant::OptTed
            .design()
            .geometry
            .is_width_optimized());
        assert_eq!(
            CrossLightVariant::Base.design().compensation,
            CrosstalkCompensation::Naive
        );
        assert_eq!(
            CrossLightVariant::BaseTed.design().compensation,
            CrosstalkCompensation::Ted
        );
        // All variants share the same 5 µm layout.
        assert_eq!(
            CrossLightVariant::OptTed.design().mr_spacing,
            CrossLightVariant::Opt.design().mr_spacing
        );
    }

    #[test]
    fn all_variants_share_architecture_dimensions() {
        for v in CrossLightVariant::all() {
            let c = v.config();
            assert_eq!(c.conv_unit_size, 20);
            assert_eq!(c.fc_unit_size, 150);
            assert_eq!(c.conv_units, 100);
            assert_eq!(c.fc_units, 60);
        }
    }
}
