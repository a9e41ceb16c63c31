//! Canonical, hashable identity of a configuration.
//!
//! [`CrossLightConfig`] is a plain-old-data struct, but it contains `f64`
//! physical quantities, so it cannot derive `Eq`/`Hash` directly.  The
//! runtime layer nevertheless needs an exact identity for configurations: its
//! result cache must treat two configurations as the same key *iff* every
//! field is identical, and its worker sharding needs a platform-stable hash
//! of that identity.
//!
//! [`ConfigKey`] is that identity: a lossless, bit-exact projection of every
//! configuration field into integers (floats via [`f64::to_bits`], enums via
//! explicit discriminants) that derives `Eq + Hash + Ord`.  Two
//! configurations produce equal keys exactly when they are field-for-field
//! identical, so a `ConfigKey` collision in a hash map is a true cache hit,
//! never an approximation.

use std::hash::Hash;

use crosslight_neural::fingerprint::fingerprint;
use crosslight_photonics::mr::MrGeometry;
use crosslight_photonics::units::{Micrometers, Nanometers};
use crosslight_photonics::wdm::WavelengthReuse;
use crosslight_tuning::power::{CrosstalkCompensation, ValueTuning};

use crate::config::{CrossLightConfig, DesignChoices, MAX_MRS_PER_BANK};
use crate::error::{ArchitectureError, Result};
use crate::vdp::VdpUnit;

/// Number of `u64` words in the canonical encoding of a [`GeometryKey`].
pub const GEOMETRY_KEY_WORDS: usize = 5;
/// Number of `u64` words in the canonical encoding of a [`DesignKey`].
pub const DESIGN_KEY_WORDS: usize = 9;
/// Number of `u64` words in the canonical encoding of a [`VdpUnitKey`].
pub const VDP_UNIT_KEY_WORDS: usize = 11;
/// Number of `u64` words in the canonical encoding of a [`ResolutionKey`].
pub const RESOLUTION_KEY_WORDS: usize = 9;
/// Number of `u64` words in the canonical encoding of a [`ConfigKey`] — and
/// of the [`CrossLightConfig`] it losslessly projects.
pub const CONFIG_KEY_WORDS: usize = 15;

/// Bit-exact projection of [`MrGeometry`] (all fields as `f64` bit patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct GeometryKey {
    input_waveguide_width: u64,
    ring_waveguide_width: u64,
    radius: u64,
    gap: u64,
    thickness: u64,
}

impl From<&MrGeometry> for GeometryKey {
    fn from(g: &MrGeometry) -> Self {
        Self {
            input_waveguide_width: g.input_waveguide_width.value().to_bits(),
            ring_waveguide_width: g.ring_waveguide_width.value().to_bits(),
            radius: g.radius.value().to_bits(),
            gap: g.gap.value().to_bits(),
            thickness: g.thickness.value().to_bits(),
        }
    }
}

/// Canonical `Eq + Hash` identity of one [`CrossLightConfig`].
///
/// Construct with [`CrossLightConfig::canonical_key`].  Field order (and
/// therefore hash and ordering) is part of the runtime cache contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigKey {
    conv_unit_size: usize,
    fc_unit_size: usize,
    conv_units: usize,
    fc_units: usize,
    mrs_per_bank: usize,
    resolution_bits: u32,
    geometry: GeometryKey,
    compensation: u8,
    value_tuning: u8,
    wavelength_reuse: u8,
    mr_spacing: u64,
}

impl ConfigKey {
    /// Platform-stable 64-bit routing hash of this key (FNV-1a over the
    /// canonical field encoding).  Stable across runs and architectures, so
    /// it can shard traffic deterministically; it is *not* an identity —
    /// use `==` on the key itself for that.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint(self)
    }
}

/// Canonical identity of a non-CrossLight backend: a small architecture tag
/// plus up to four 64-bit parameter words (dimensions, resolution, platform
/// index — each backend documents its own packing).  Everything a backend's
/// report depends on must be folded into these words, so equal keys always
/// mean bit-identical reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendKey {
    arch: u8,
    params: [u64; 4],
}

impl BackendKey {
    /// Packs an architecture tag and its parameter words into a key.
    #[must_use]
    pub const fn new(arch: u8, params: [u64; 4]) -> Self {
        Self { arch, params }
    }

    /// The architecture tag this key was packed with.
    #[must_use]
    pub const fn arch_tag(&self) -> u8 {
        self.arch
    }

    /// The raw parameter words this key was packed with.
    #[must_use]
    pub const fn params(&self) -> [u64; 4] {
        self.params
    }
}

/// Domain separator streamed ahead of every [`BackendKey`] so backend hash
/// streams cannot shadow CrossLight ones (whose first word is a small unit
/// size).  ASCII `"archzoo1"`.
const BACKEND_DOMAIN: u64 = 0x6172_6368_7a6f_6f31;

/// Architecture-generic canonical identity: either a full CrossLight
/// [`ConfigKey`] or a packed [`BackendKey`] for any other accelerator.
///
/// The `Hash` impl is deliberately manual: the `CrossLight` arm streams
/// **exactly** the bytes `ConfigKey` always has — no enum discriminant — so
/// every fingerprint, cache shard and worker route computed before the
/// architecture zoo existed is preserved bit-for-bit.  Equality stays
/// structural, so the (astronomically unlikely) cross-arm stream collision
/// can only ever cost a hash-bucket probe, never a wrong cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArchKey {
    /// A CrossLight configuration, keyed exactly as it always was.
    CrossLight(ConfigKey),
    /// Any other backend, keyed by tag + parameter words.
    Backend(BackendKey),
}

impl Hash for ArchKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            ArchKey::CrossLight(key) => key.hash(state),
            ArchKey::Backend(key) => {
                BACKEND_DOMAIN.hash(state);
                key.hash(state);
            }
        }
    }
}

impl From<ConfigKey> for ArchKey {
    fn from(key: ConfigKey) -> Self {
        ArchKey::CrossLight(key)
    }
}

impl From<BackendKey> for ArchKey {
    fn from(key: BackendKey) -> Self {
        ArchKey::Backend(key)
    }
}

impl ArchKey {
    /// Platform-stable 64-bit routing hash (FNV-1a over the canonical
    /// encoding).  For the `CrossLight` arm this equals
    /// [`ConfigKey::fingerprint`] on the inner key, by construction.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint(self)
    }

    /// The inner CrossLight key, if this identity is a CrossLight one.
    #[must_use]
    pub fn config_key(&self) -> Option<&ConfigKey> {
        match self {
            ArchKey::CrossLight(key) => Some(key),
            ArchKey::Backend(_) => None,
        }
    }
}

fn compensation_tag(c: CrosstalkCompensation) -> u8 {
    match c {
        CrosstalkCompensation::Ted => 0,
        CrosstalkCompensation::Naive => 1,
    }
}

fn value_tuning_tag(v: ValueTuning) -> u8 {
    match v {
        ValueTuning::ElectroOptic => 0,
        ValueTuning::ThermoOptic => 1,
    }
}

fn wavelength_reuse_tag(w: WavelengthReuse) -> u8 {
    match w {
        WavelengthReuse::PerElement => 0,
        WavelengthReuse::AcrossArms => 1,
    }
}

impl From<&DesignChoices> for GeometryKey {
    fn from(d: &DesignChoices) -> Self {
        Self::from(&d.geometry)
    }
}

/// Bit-exact projection of [`DesignChoices`]: the sub-config identity shared
/// by every model whose output depends only on the cross-layer design, not on
/// the architecture dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DesignKey {
    geometry: GeometryKey,
    compensation: u8,
    value_tuning: u8,
    wavelength_reuse: u8,
    mr_spacing: u64,
}

impl From<&DesignChoices> for DesignKey {
    fn from(d: &DesignChoices) -> Self {
        Self {
            geometry: GeometryKey::from(&d.geometry),
            compensation: compensation_tag(d.compensation),
            value_tuning: value_tuning_tag(d.value_tuning),
            wavelength_reuse: wavelength_reuse_tag(d.wavelength_reuse),
            mr_spacing: d.mr_spacing.value().to_bits(),
        }
    }
}

impl DesignChoices {
    /// Returns the canonical hashable identity of these design choices.
    #[must_use]
    pub fn canonical_key(&self) -> DesignKey {
        DesignKey::from(self)
    }
}

/// Canonical identity of one [`VdpUnit`]: everything its report depends on.
///
/// Two units with equal keys produce bit-identical [`VdpUnitReport`]s
/// (the model is a pure function of size, bank size and design), so the
/// [`ModelCache`](crate::cache::ModelCache) can share one report across every
/// `(n, m)` grid point — and across the CONV/FC pools — that reuses the same
/// `(N or K, design)` sub-configuration.
///
/// [`VdpUnitReport`]: crate::vdp::VdpUnitReport
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VdpUnitKey {
    size: usize,
    mrs_per_bank: usize,
    design: DesignKey,
}

impl VdpUnit {
    /// Returns the canonical hashable identity of this unit.
    #[must_use]
    pub fn canonical_key(&self) -> VdpUnitKey {
        VdpUnitKey {
            size: self.size,
            mrs_per_bank: self.mrs_per_bank,
            design: DesignKey::from(&self.design),
        }
    }
}

/// Canonical identity of the inputs of
/// [`achievable_resolution_bits`](crate::resolution::achievable_resolution_bits):
/// the geometry (which selects the spectral model), the wavelength-reuse
/// strategy, the bank size and the unit sizes (which set the channel count
/// without reuse).  A conservative superset of what the resolution model
/// reads, so equal keys always mean equal resolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResolutionKey {
    geometry: GeometryKey,
    wavelength_reuse: u8,
    mrs_per_bank: usize,
    conv_unit_size: usize,
    fc_unit_size: usize,
}

impl From<&CrossLightConfig> for ResolutionKey {
    fn from(config: &CrossLightConfig) -> Self {
        Self {
            geometry: GeometryKey::from(&config.design.geometry),
            wavelength_reuse: wavelength_reuse_tag(config.design.wavelength_reuse),
            mrs_per_bank: config.mrs_per_bank,
            conv_unit_size: config.conv_unit_size,
            fc_unit_size: config.fc_unit_size,
        }
    }
}

impl CrossLightConfig {
    /// Returns the canonical hashable identity of this configuration.
    ///
    /// Equal keys ⇔ bit-identical configurations, so downstream caches can
    /// key results by `ConfigKey` without false sharing between distinct
    /// design points.
    #[must_use]
    pub fn canonical_key(&self) -> ConfigKey {
        ConfigKey {
            conv_unit_size: self.conv_unit_size,
            fc_unit_size: self.fc_unit_size,
            conv_units: self.conv_units,
            fc_units: self.fc_units,
            mrs_per_bank: self.mrs_per_bank,
            resolution_bits: self.resolution_bits,
            geometry: GeometryKey::from(&self.design),
            compensation: compensation_tag(self.design.compensation),
            value_tuning: value_tuning_tag(self.design.value_tuning),
            wavelength_reuse: wavelength_reuse_tag(self.design.wavelength_reuse),
            mr_spacing: self.design.mr_spacing.value().to_bits(),
        }
    }

    /// Platform-stable routing hash of the canonical key; see
    /// [`ConfigKey::fingerprint`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.canonical_key().fingerprint()
    }
}

// ---------------------------------------------------------------------------
// Versioned word codecs.
//
// Every canonical key (and `CrossLightConfig` itself) encodes losslessly into
// a fixed-length little sequence of `u64` words — floats as bit patterns,
// enums as the same explicit tags the keys already use.  The word order below
// is the `crosslight-snapshot/v1` contract: cache snapshot frames carry these
// words over the wire, so reordering or re-numbering them is a format break.
// ---------------------------------------------------------------------------

fn invalid_word(name: &'static str, word: u64) -> ArchitectureError {
    ArchitectureError::InvalidConfig {
        name,
        reason: format!("canonical word {word} is outside the encodable range"),
    }
}

fn usize_word(name: &'static str, word: u64) -> Result<usize> {
    usize::try_from(word).map_err(|_| invalid_word(name, word))
}

fn compensation_from_tag(tag: u64) -> Result<CrosstalkCompensation> {
    match tag {
        0 => Ok(CrosstalkCompensation::Ted),
        1 => Ok(CrosstalkCompensation::Naive),
        other => Err(invalid_word("compensation", other)),
    }
}

fn value_tuning_from_tag(tag: u64) -> Result<ValueTuning> {
    match tag {
        0 => Ok(ValueTuning::ElectroOptic),
        1 => Ok(ValueTuning::ThermoOptic),
        other => Err(invalid_word("value_tuning", other)),
    }
}

fn wavelength_reuse_from_tag(tag: u64) -> Result<WavelengthReuse> {
    match tag {
        0 => Ok(WavelengthReuse::PerElement),
        1 => Ok(WavelengthReuse::AcrossArms),
        other => Err(invalid_word("wavelength_reuse", other)),
    }
}

fn tag_word(name: &'static str, word: u64) -> Result<u8> {
    if word <= 1 {
        Ok(word as u8)
    } else {
        Err(invalid_word(name, word))
    }
}

impl GeometryKey {
    /// Canonical word encoding (five `f64` bit patterns).
    #[must_use]
    pub fn to_words(&self) -> [u64; GEOMETRY_KEY_WORDS] {
        [
            self.input_waveguide_width,
            self.ring_waveguide_width,
            self.radius,
            self.gap,
            self.thickness,
        ]
    }

    /// Rebuilds a key from its canonical words.  Every bit pattern is a legal
    /// geometry projection, so this cannot fail.
    #[must_use]
    pub fn from_words(words: [u64; GEOMETRY_KEY_WORDS]) -> Self {
        Self {
            input_waveguide_width: words[0],
            ring_waveguide_width: words[1],
            radius: words[2],
            gap: words[3],
            thickness: words[4],
        }
    }
}

impl DesignKey {
    /// Canonical word encoding: geometry, then the three design tags, then
    /// the MR-spacing bit pattern.
    #[must_use]
    pub fn to_words(&self) -> [u64; DESIGN_KEY_WORDS] {
        let g = self.geometry.to_words();
        [
            g[0],
            g[1],
            g[2],
            g[3],
            g[4],
            u64::from(self.compensation),
            u64::from(self.value_tuning),
            u64::from(self.wavelength_reuse),
            self.mr_spacing,
        ]
    }

    /// Rebuilds a key from its canonical words.
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::InvalidConfig`] if a design tag is
    /// outside its enum range.
    pub fn from_words(words: [u64; DESIGN_KEY_WORDS]) -> Result<Self> {
        Ok(Self {
            geometry: GeometryKey::from_words([words[0], words[1], words[2], words[3], words[4]]),
            compensation: tag_word("compensation", words[5])?,
            value_tuning: tag_word("value_tuning", words[6])?,
            wavelength_reuse: tag_word("wavelength_reuse", words[7])?,
            mr_spacing: words[8],
        })
    }
}

impl VdpUnitKey {
    /// Canonical word encoding: size, bank size, then the design words.
    #[must_use]
    pub fn to_words(&self) -> [u64; VDP_UNIT_KEY_WORDS] {
        let d = self.design.to_words();
        [
            self.size as u64,
            self.mrs_per_bank as u64,
            d[0],
            d[1],
            d[2],
            d[3],
            d[4],
            d[5],
            d[6],
            d[7],
            d[8],
        ]
    }

    /// Rebuilds a key from its canonical words.
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::InvalidConfig`] if a dimension word does
    /// not fit this platform's `usize` or a design tag is out of range.
    pub fn from_words(words: [u64; VDP_UNIT_KEY_WORDS]) -> Result<Self> {
        Ok(Self {
            size: usize_word("size", words[0])?,
            mrs_per_bank: usize_word("mrs_per_bank", words[1])?,
            design: DesignKey::from_words([
                words[2], words[3], words[4], words[5], words[6], words[7], words[8], words[9],
                words[10],
            ])?,
        })
    }
}

impl ResolutionKey {
    /// Canonical word encoding: geometry, reuse tag, bank size, unit sizes.
    #[must_use]
    pub fn to_words(&self) -> [u64; RESOLUTION_KEY_WORDS] {
        let g = self.geometry.to_words();
        [
            g[0],
            g[1],
            g[2],
            g[3],
            g[4],
            u64::from(self.wavelength_reuse),
            self.mrs_per_bank as u64,
            self.conv_unit_size as u64,
            self.fc_unit_size as u64,
        ]
    }

    /// Rebuilds a key from its canonical words.
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::InvalidConfig`] if a dimension word does
    /// not fit this platform's `usize` or the reuse tag is out of range.
    pub fn from_words(words: [u64; RESOLUTION_KEY_WORDS]) -> Result<Self> {
        Ok(Self {
            geometry: GeometryKey::from_words([words[0], words[1], words[2], words[3], words[4]]),
            wavelength_reuse: tag_word("wavelength_reuse", words[5])?,
            mrs_per_bank: usize_word("mrs_per_bank", words[6])?,
            conv_unit_size: usize_word("conv_unit_size", words[7])?,
            fc_unit_size: usize_word("fc_unit_size", words[8])?,
        })
    }
}

impl ConfigKey {
    /// Canonical word encoding: the six architecture dimensions, then the
    /// geometry words, the three design tags, and the MR-spacing pattern.
    #[must_use]
    pub fn to_words(&self) -> [u64; CONFIG_KEY_WORDS] {
        let g = self.geometry.to_words();
        [
            self.conv_unit_size as u64,
            self.fc_unit_size as u64,
            self.conv_units as u64,
            self.fc_units as u64,
            self.mrs_per_bank as u64,
            u64::from(self.resolution_bits),
            g[0],
            g[1],
            g[2],
            g[3],
            g[4],
            u64::from(self.compensation),
            u64::from(self.value_tuning),
            u64::from(self.wavelength_reuse),
            self.mr_spacing,
        ]
    }

    /// Rebuilds a key from its canonical words.
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::InvalidConfig`] if a dimension word does
    /// not fit this platform's `usize`/`u32` or a design tag is out of range.
    pub fn from_words(words: [u64; CONFIG_KEY_WORDS]) -> Result<Self> {
        Ok(Self {
            conv_unit_size: usize_word("conv_unit_size", words[0])?,
            fc_unit_size: usize_word("fc_unit_size", words[1])?,
            conv_units: usize_word("conv_units", words[2])?,
            fc_units: usize_word("fc_units", words[3])?,
            mrs_per_bank: usize_word("mrs_per_bank", words[4])?,
            resolution_bits: u32::try_from(words[5])
                .map_err(|_| invalid_word("resolution_bits", words[5]))?,
            geometry: GeometryKey::from_words([words[6], words[7], words[8], words[9], words[10]]),
            compensation: tag_word("compensation", words[11])?,
            value_tuning: tag_word("value_tuning", words[12])?,
            wavelength_reuse: tag_word("wavelength_reuse", words[13])?,
            mr_spacing: words[14],
        })
    }
}

impl CrossLightConfig {
    /// Canonical word encoding of this configuration — identical to
    /// `self.canonical_key().to_words()`, exposed so snapshot frames can
    /// carry a full configuration without a parallel encoding.
    #[must_use]
    pub fn to_canonical_words(&self) -> [u64; CONFIG_KEY_WORDS] {
        self.canonical_key().to_words()
    }

    /// Rebuilds a configuration from its canonical words, validating the
    /// same architecture invariants as [`CrossLightConfig::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::InvalidConfig`] for out-of-range tags,
    /// zero dimensions, `K < N`, or a bank size outside
    /// `1..=`[`MAX_MRS_PER_BANK`].
    pub fn from_canonical_words(words: [u64; CONFIG_KEY_WORDS]) -> Result<Self> {
        let key = ConfigKey::from_words(words)?;
        if key.conv_unit_size == 0
            || key.fc_unit_size == 0
            || key.conv_units == 0
            || key.fc_units == 0
        {
            return Err(ArchitectureError::InvalidConfig {
                name: "dimensions",
                reason: format!(
                    "all of N, K, n, m must be positive, got ({}, {}, {}, {})",
                    key.conv_unit_size, key.fc_unit_size, key.conv_units, key.fc_units
                ),
            });
        }
        if key.fc_unit_size < key.conv_unit_size {
            return Err(ArchitectureError::InvalidConfig {
                name: "fc_unit_size",
                reason: format!(
                    "the paper requires K > N (FC vectors are larger); got K={} < N={}",
                    key.fc_unit_size, key.conv_unit_size
                ),
            });
        }
        if key.mrs_per_bank == 0 || key.mrs_per_bank > MAX_MRS_PER_BANK {
            return Err(ArchitectureError::InvalidConfig {
                name: "mrs_per_bank",
                reason: format!(
                    "bank size must be in 1..={MAX_MRS_PER_BANK}, got {}",
                    key.mrs_per_bank
                ),
            });
        }
        if key.resolution_bits == 0 {
            return Err(ArchitectureError::InvalidConfig {
                name: "resolution_bits",
                reason: "resolution must be positive".into(),
            });
        }
        Ok(Self {
            conv_unit_size: key.conv_unit_size,
            fc_unit_size: key.fc_unit_size,
            conv_units: key.conv_units,
            fc_units: key.fc_units,
            mrs_per_bank: key.mrs_per_bank,
            design: DesignChoices {
                geometry: MrGeometry {
                    input_waveguide_width: Nanometers::new(f64::from_bits(
                        key.geometry.input_waveguide_width,
                    )),
                    ring_waveguide_width: Nanometers::new(f64::from_bits(
                        key.geometry.ring_waveguide_width,
                    )),
                    radius: Micrometers::new(f64::from_bits(key.geometry.radius)),
                    gap: Nanometers::new(f64::from_bits(key.geometry.gap)),
                    thickness: Nanometers::new(f64::from_bits(key.geometry.thickness)),
                },
                compensation: compensation_from_tag(u64::from(key.compensation))?,
                value_tuning: value_tuning_from_tag(u64::from(key.value_tuning))?,
                wavelength_reuse: wavelength_reuse_from_tag(u64::from(key.wavelength_reuse))?,
                mr_spacing: Micrometers::new(f64::from_bits(key.mr_spacing)),
            },
            resolution_bits: key.resolution_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::CrossLightVariant;

    #[test]
    fn identical_configs_share_keys_and_fingerprints() {
        let a = CrossLightConfig::paper_best();
        let b = CrossLightConfig::paper_best();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_variant_gets_a_distinct_key() {
        let keys: Vec<ConfigKey> = CrossLightVariant::all()
            .iter()
            .map(|v| v.config().canonical_key())
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn each_field_perturbation_changes_the_key() {
        let base = CrossLightConfig::paper_best();
        let key = base.canonical_key();

        let mut dims = base;
        dims.conv_units += 1;
        assert_ne!(dims.canonical_key(), key);

        let res = base.with_resolution_bits(8);
        assert_ne!(res.canonical_key(), key);

        let mut design = base.design;
        design.compensation = CrosstalkCompensation::Naive;
        assert_ne!(base.with_design(design).canonical_key(), key);

        let mut design = base.design;
        design.mr_spacing = crosslight_photonics::units::Micrometers::new(5.5);
        assert_ne!(base.with_design(design).canonical_key(), key);

        let mut design = base.design;
        design.geometry = MrGeometry::conventional();
        assert_ne!(base.with_design(design).canonical_key(), key);
    }

    #[test]
    fn unit_keys_ignore_unit_counts_but_track_sizes_and_design() {
        let base = CrossLightConfig::paper_best();
        let mut more_units = base;
        more_units.conv_units *= 2;
        more_units.fc_units += 5;
        // Same (size, bank, design) sub-config → same unit key, even though
        // the full configs differ.
        assert_eq!(
            VdpUnit::conv_unit(&base).canonical_key(),
            VdpUnit::conv_unit(&more_units).canonical_key()
        );
        assert_ne!(
            VdpUnit::conv_unit(&base).canonical_key(),
            VdpUnit::fc_unit(&base).canonical_key()
        );
        let mut design = base.design;
        design.compensation = CrosstalkCompensation::Naive;
        assert_ne!(
            VdpUnit::conv_unit(&base.with_design(design)).canonical_key(),
            VdpUnit::conv_unit(&base).canonical_key()
        );
        assert_eq!(
            base.design.canonical_key(),
            more_units.design.canonical_key()
        );
    }

    #[test]
    fn resolution_keys_ignore_unit_counts() {
        let base = CrossLightConfig::paper_best();
        let mut more_units = base;
        more_units.conv_units *= 3;
        assert_eq!(ResolutionKey::from(&base), ResolutionKey::from(&more_units));
        let mut bigger_fc = base;
        bigger_fc.fc_unit_size += 15;
        assert_ne!(ResolutionKey::from(&base), ResolutionKey::from(&bigger_fc));
    }

    #[test]
    fn arch_keys_preserve_crosslight_fingerprints_exactly() {
        for v in CrossLightVariant::all() {
            let key = v.config().canonical_key();
            assert_eq!(ArchKey::CrossLight(key).fingerprint(), key.fingerprint());
            assert_eq!(ArchKey::from(key).fingerprint(), v.config().fingerprint());
        }
    }

    #[test]
    fn backend_keys_are_distinct_from_each_other_and_from_crosslight() {
        use std::collections::HashSet;
        let mut set: HashSet<ArchKey> = HashSet::new();
        let mut fingerprints: HashSet<u64> = HashSet::new();
        for v in CrossLightVariant::all() {
            let key = ArchKey::CrossLight(v.config().canonical_key());
            set.insert(key);
            fingerprints.insert(key.fingerprint());
        }
        for arch in 0..4u8 {
            for word in 0..3u64 {
                let key = ArchKey::Backend(BackendKey::new(arch, [word, 16, 0, 0]));
                assert!(key.config_key().is_none());
                set.insert(key);
                fingerprints.insert(key.fingerprint());
            }
        }
        assert_eq!(set.len(), 16);
        assert_eq!(fingerprints.len(), 16, "tag+params must alter the stream");
    }

    #[test]
    fn backend_key_accessors_round_trip() {
        let key = BackendKey::new(7, [1, 2, 3, 4]);
        assert_eq!(key.arch_tag(), 7);
        assert_eq!(key.params(), [1, 2, 3, 4]);
        assert_eq!(ArchKey::from(key), ArchKey::Backend(key));
    }

    #[test]
    fn config_words_round_trip_bit_exactly() {
        for v in CrossLightVariant::all() {
            let config = v.config();
            let words = config.to_canonical_words();
            assert_eq!(words, config.canonical_key().to_words());
            let rebuilt = CrossLightConfig::from_canonical_words(words).unwrap();
            assert_eq!(rebuilt, config);
            assert_eq!(rebuilt.canonical_key(), config.canonical_key());
            assert_eq!(
                ConfigKey::from_words(words).unwrap(),
                config.canonical_key()
            );
        }
    }

    #[test]
    fn sub_key_words_round_trip() {
        let config = CrossLightConfig::paper_best();
        let unit = VdpUnit::conv_unit(&config).canonical_key();
        assert_eq!(VdpUnitKey::from_words(unit.to_words()).unwrap(), unit);
        let res = ResolutionKey::from(&config);
        assert_eq!(ResolutionKey::from_words(res.to_words()).unwrap(), res);
        let design = config.design.canonical_key();
        assert_eq!(DesignKey::from_words(design.to_words()).unwrap(), design);
    }

    #[test]
    fn word_decoders_reject_out_of_range_tags() {
        let config = CrossLightConfig::paper_best();
        let mut words = config.to_canonical_words();
        words[11] = 2; // compensation tag
        assert!(ConfigKey::from_words(words).is_err());
        let mut words = config.to_canonical_words();
        words[0] = 0; // conv_unit_size
        assert!(CrossLightConfig::from_canonical_words(words).is_err());
        let mut words = config.to_canonical_words();
        words[4] = MAX_MRS_PER_BANK as u64 + 1;
        assert!(CrossLightConfig::from_canonical_words(words).is_err());
        let mut unit = VdpUnit::conv_unit(&config).canonical_key().to_words();
        unit[7] = 9; // value_tuning tag inside the design words
        assert!(VdpUnitKey::from_words(unit).is_err());
    }

    #[test]
    fn special_float_geometry_words_survive_the_codec() {
        let config = CrossLightConfig::paper_best();
        let mut words = config.to_canonical_words();
        words[6] = f64::NAN.to_bits();
        words[10] = f64::NEG_INFINITY.to_bits();
        words[14] = (-0.0f64).to_bits();
        let rebuilt = CrossLightConfig::from_canonical_words(words).unwrap();
        assert_eq!(rebuilt.to_canonical_words(), words);
    }

    #[test]
    fn keys_order_and_hash_consistently() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        for v in CrossLightVariant::all() {
            set.insert(v.config().canonical_key());
            set.insert(v.config().canonical_key());
        }
        assert_eq!(set.len(), 4);
    }
}
