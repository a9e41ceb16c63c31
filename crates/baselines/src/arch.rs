//! Architecture-generic evaluation API: the [`ArchSpec`] backend zoo.
//!
//! Every accelerator the workspace can evaluate — the four CrossLight
//! variants and any dimensioned CrossLight configuration, DEAP-CNN,
//! HolyLight, the electronic reference platforms, the symmetric-MRR crossbar
//! and LiteCON — is described by one [`ArchSpec`] value.  A spec knows three
//! things:
//!
//! 1. **Its canonical identity** ([`ArchSpec::canonical_key`]): an
//!    [`ArchKey`] with a stable FNV-1a fingerprint.  CrossLight specs key to
//!    `ArchKey::CrossLight` with the *exact* pre-zoo [`ConfigKey`] hash
//!    stream, so runtime caches, shard routing and worker assignment are
//!    bit-identical to what they were before other architectures existed.
//! 2. **How to simulate itself** ([`ArchSpec::simulate`]): every backend
//!    produces a full core [`SimulationReport`] (power/area breakdown +
//!    inference metrics), so one wire protocol and one cache serve the whole
//!    zoo.
//! 3. **Its names** ([`ArchSpec::arch_name`] for the wire,
//!    [`ArchSpec::label`] for tables).
//!
//! The [`AcceleratorModel`] trait is the object-safe view of the same
//! contract, for harnesses that iterate over heterogeneous backend lists.
//!
//! [`ConfigKey`]: crosslight_core::canonical::ConfigKey

use crosslight_core::area::{accelerator_area, AcceleratorArea};
use crosslight_core::canonical::{ArchKey, BackendKey};
use crosslight_core::config::CrossLightConfig;
use crosslight_core::error::Result;
use crosslight_core::performance::{inference_metrics, InferenceLatency, InferenceMetrics};
use crosslight_core::power::{accelerator_power, AcceleratorPower};
use crosslight_core::simulator::{CrossLightSimulator, SimulationReport};
use crosslight_neural::fingerprint::fingerprint;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_photonics::units::{MilliWatts, Picojoules, Seconds, SquareMillimeters, Watts};

use crate::deap_cnn::{DeapCnn, DEAP_RESOLUTION_BITS};
use crate::electronic::{self, ElectronicPlatform};
use crate::holylight::{HolyLight, HOLYLIGHT_RESOLUTION_BITS, HOLYLIGHT_UNIT_SIZE};
use crate::litecon::LiteCon;
use crate::symmetric_crossbar::SymmetricCrossbar;

/// Backend tags used inside [`BackendKey`]s (part of the cache contract —
/// never renumber).
mod tag {
    pub const DEAP_CNN: u8 = 1;
    pub const HOLYLIGHT: u8 = 2;
    pub const ELECTRONIC: u8 = 3;
    pub const SYMMETRIC_CROSSBAR: u8 = 4;
    pub const LITECON: u8 = 5;
}

/// Nominal operand resolution attributed to the electronic reference
/// platforms (their survey rows are resolution-agnostic; int8 inference is
/// the common deployment they describe).
pub const ELECTRONIC_NOMINAL_BITS: u32 = 8;

/// One simulatable accelerator architecture, fully parameterized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArchSpec {
    /// A CrossLight configuration (any variant, dims and resolution).
    CrossLight(CrossLightConfig),
    /// The DEAP-CNN baseline.
    DeapCnn(DeapCnn),
    /// The HolyLight baseline (unit count is a knob).
    HolyLight(HolyLight),
    /// An electronic reference platform (survey row).
    Electronic(ElectronicPlatform),
    /// The symmetric-MRR crossbar (rows × cols × resolution knobs).
    SymmetricCrossbar(SymmetricCrossbar),
    /// LiteCON (units × unit size × resolution knobs).
    LiteCon(LiteCon),
}

impl ArchSpec {
    /// The wire name of this spec's architecture family.
    #[must_use]
    pub fn arch_name(&self) -> &'static str {
        match self {
            Self::CrossLight(_) => "crosslight",
            Self::DeapCnn(_) => "deap-cnn",
            Self::HolyLight(_) => "holylight",
            Self::Electronic(_) => "electronic",
            Self::SymmetricCrossbar(_) => "symmetric-crossbar",
            Self::LiteCon(_) => "litecon",
        }
    }

    /// Human-readable label for tables and figures.
    #[must_use]
    pub fn label(&self) -> String {
        use crate::accelerator::PhotonicAccelerator;
        match self {
            Self::CrossLight(config) => {
                // Name the design family when it matches a paper variant, so
                // two variants with the same dimensions stay distinguishable
                // in tables.
                let family = crosslight_core::variants::CrossLightVariant::all()
                    .into_iter()
                    .find(|v| v.design() == config.design)
                    .map_or("CrossLight", |v| v.label());
                format!(
                    "{family}[{},{},{},{}]@{}b",
                    config.conv_unit_size,
                    config.fc_unit_size,
                    config.conv_units,
                    config.fc_units,
                    config.resolution_bits
                )
            }
            Self::DeapCnn(deap) => deap.name(),
            Self::HolyLight(h) => {
                if h.units() == crate::holylight::HOLYLIGHT_UNITS {
                    h.name()
                } else {
                    format!("{}_{}u", h.name(), h.units())
                }
            }
            Self::Electronic(p) => p.name.to_string(),
            Self::SymmetricCrossbar(xbar) => xbar.name(),
            Self::LiteCon(lc) => lc.name(),
        }
    }

    /// Canonical cache/sharding identity.  CrossLight specs produce the
    /// exact pre-zoo key; every other backend packs its knobs into a tagged
    /// [`BackendKey`].
    #[must_use]
    pub fn canonical_key(&self) -> ArchKey {
        match self {
            Self::CrossLight(config) => ArchKey::CrossLight(config.canonical_key()),
            Self::DeapCnn(deap) => ArchKey::Backend(BackendKey::new(
                tag::DEAP_CNN,
                [deap.config().fingerprint(), 0, 0, 0],
            )),
            Self::HolyLight(h) => ArchKey::Backend(BackendKey::new(
                tag::HOLYLIGHT,
                [h.units() as u64, HOLYLIGHT_UNIT_SIZE as u64, 0, 0],
            )),
            Self::Electronic(p) => ArchKey::Backend(BackendKey::new(
                tag::ELECTRONIC,
                [
                    fingerprint(&p.name),
                    p.avg_epb_pj.to_bits(),
                    p.avg_kfps_per_watt.to_bits(),
                    p.power_watts.to_bits(),
                ],
            )),
            Self::SymmetricCrossbar(xbar) => ArchKey::Backend(BackendKey::new(
                tag::SYMMETRIC_CROSSBAR,
                [
                    xbar.rows() as u64,
                    xbar.cols() as u64,
                    u64::from(xbar.resolution_bits()),
                    0,
                ],
            )),
            Self::LiteCon(lc) => ArchKey::Backend(BackendKey::new(
                tag::LITECON,
                [
                    lc.units() as u64,
                    lc.unit_size() as u64,
                    u64::from(lc.resolution_bits()),
                    0,
                ],
            )),
        }
    }

    /// Platform-stable fingerprint of [`canonical_key`](Self::canonical_key).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.canonical_key().fingerprint()
    }

    /// The native operand resolution this spec reports.
    #[must_use]
    pub fn resolution_bits(&self) -> u32 {
        match self {
            Self::CrossLight(config) => config.resolution_bits,
            Self::DeapCnn(_) => DEAP_RESOLUTION_BITS,
            Self::HolyLight(_) => HOLYLIGHT_RESOLUTION_BITS,
            Self::Electronic(_) => ELECTRONIC_NOMINAL_BITS,
            Self::SymmetricCrossbar(xbar) => xbar.resolution_bits(),
            Self::LiteCon(lc) => lc.resolution_bits(),
        }
    }

    /// The inner CrossLight configuration, if this spec is a CrossLight one.
    #[must_use]
    pub fn crosslight_config(&self) -> Option<&CrossLightConfig> {
        match self {
            Self::CrossLight(config) => Some(config),
            _ => None,
        }
    }

    /// Evaluates one inference workload to a full core report.
    ///
    /// The CrossLight arm runs the real simulator; DEAP-CNN reuses the core
    /// power/area/latency models under its own design choices; the remaining
    /// photonic backends synthesize the report from their analytical models
    /// (per-phase latency split, all metrics derived from the total latency
    /// so the report is self-consistent); the electronic arm synthesizes a
    /// deterministic report from its survey row.
    ///
    /// # Errors
    ///
    /// Propagates the backend's configuration/mapping errors.
    pub fn simulate(&self, workload: &NetworkWorkload) -> Result<SimulationReport> {
        match self {
            Self::CrossLight(config) => CrossLightSimulator::new(*config).evaluate(workload),
            Self::DeapCnn(deap) => {
                let config = deap.config();
                let power = accelerator_power(config)?;
                let area = accelerator_area(config);
                let metrics = inference_metrics(workload, config, &power)?;
                Ok(SimulationReport {
                    power,
                    area,
                    metrics,
                    resolution_bits: DEAP_RESOLUTION_BITS,
                })
            }
            Self::HolyLight(h) => synthesize(
                h.power_breakdown(),
                h.area_breakdown(),
                h.pass_latency(),
                h.phase_cycles(&workload.conv_layers)?,
                h.phase_cycles(&workload.fc_layers)?,
                workload,
                HOLYLIGHT_RESOLUTION_BITS,
            ),
            Self::SymmetricCrossbar(xbar) => synthesize(
                xbar.power_breakdown(),
                xbar.area_breakdown(),
                xbar.pass_latency(),
                xbar.phase_cycles(&workload.conv_layers)?,
                xbar.phase_cycles(&workload.fc_layers)?,
                workload,
                xbar.resolution_bits(),
            ),
            Self::LiteCon(lc) => synthesize(
                lc.power_breakdown(),
                lc.area_breakdown(),
                lc.pass_latency(),
                lc.phase_cycles(&workload.conv_layers)?,
                lc.phase_cycles(&workload.fc_layers)?,
                workload,
                lc.resolution_bits(),
            ),
            Self::Electronic(p) => Ok(electronic_report(p)),
        }
    }

    /// One default spec per architecture family, in comparison-table order.
    #[must_use]
    pub fn zoo_defaults() -> Vec<ArchSpec> {
        let mut specs = vec![
            ArchSpec::CrossLight(crosslight_core::variants::CrossLightVariant::OptTed.config()),
            ArchSpec::DeapCnn(DeapCnn::new()),
            ArchSpec::HolyLight(HolyLight::new()),
            ArchSpec::SymmetricCrossbar(SymmetricCrossbar::new()),
            ArchSpec::LiteCon(LiteCon::new()),
        ];
        specs.extend(electronic::all_platforms().map(ArchSpec::Electronic));
        specs
    }
}

/// Assembles a self-consistent [`SimulationReport`] from an analytical
/// backend's power/area breakdowns and per-phase pass counts.
fn synthesize(
    power: AcceleratorPower,
    area: AcceleratorArea,
    pass_latency: Seconds,
    conv_cycles: u64,
    fc_cycles: u64,
    workload: &NetworkWorkload,
    resolution_bits: u32,
) -> Result<SimulationReport> {
    let towers = workload.towers as f64;
    let latency = InferenceLatency {
        conv_time: Seconds::new(pass_latency.value() * conv_cycles as f64 * towers),
        fc_time: Seconds::new(pass_latency.value() * fc_cycles as f64 * towers),
        electronic_time: Seconds::new(0.0),
    };
    let total_s = latency.total().value();
    let power_w = power.total_watts().value();
    let fps = 1.0 / total_s;
    let energy_pj = power_w * total_s * 1e12;
    let operand_bits = 2.0 * workload.total_macs() as f64 * f64::from(resolution_bits);
    Ok(SimulationReport {
        power,
        area,
        metrics: InferenceMetrics {
            latency,
            fps,
            energy_per_inference: Picojoules::new(energy_pj),
            energy_per_bit_pj: energy_pj / operand_bits,
            kfps_per_watt: fps / 1000.0 / power_w,
            power: Watts::new(power_w),
        },
        resolution_bits,
    })
}

/// Deterministic synthesized report for an electronic survey row: the row's
/// averages are taken at face value (workload independent), with throughput
/// derived so `fps / 1000 / power == kfps_per_watt` holds exactly.
fn electronic_report(p: &ElectronicPlatform) -> SimulationReport {
    let fps = p.avg_kfps_per_watt * p.power_watts * 1000.0;
    let latency_s = 1.0 / fps;
    let latency = InferenceLatency {
        conv_time: Seconds::new(0.0),
        fc_time: Seconds::new(0.0),
        electronic_time: Seconds::new(latency_s),
    };
    SimulationReport {
        power: AcceleratorPower {
            laser: MilliWatts::new(0.0),
            tuning: MilliWatts::new(0.0),
            detection: MilliWatts::new(0.0),
            conversion: MilliWatts::new(0.0),
            control: MilliWatts::new(p.power_watts * 1000.0),
        },
        area: AcceleratorArea {
            mr_banks: SquareMillimeters::new(0.0),
            arm_devices: SquareMillimeters::new(0.0),
            unit_electronics: SquareMillimeters::new(0.0),
        },
        metrics: InferenceMetrics {
            latency,
            fps,
            energy_per_inference: Picojoules::new(p.power_watts * latency_s * 1e12),
            energy_per_bit_pj: p.avg_epb_pj,
            kfps_per_watt: p.avg_kfps_per_watt,
            power: Watts::new(p.power_watts),
        },
        resolution_bits: ELECTRONIC_NOMINAL_BITS,
    }
}

/// Object-safe view of the architecture zoo, for heterogeneous backend lists.
pub trait AcceleratorModel {
    /// Wire name of the architecture family.
    fn arch(&self) -> &'static str;

    /// Human-readable label for tables and figures.
    fn label(&self) -> String;

    /// Canonical cache/sharding identity.
    fn canonical_key(&self) -> ArchKey;

    /// Evaluates one inference workload to a full core report.
    ///
    /// # Errors
    ///
    /// Propagates the backend's configuration/mapping errors.
    fn simulate(&self, workload: &NetworkWorkload) -> Result<SimulationReport>;
}

impl AcceleratorModel for ArchSpec {
    fn arch(&self) -> &'static str {
        self.arch_name()
    }

    fn label(&self) -> String {
        ArchSpec::label(self)
    }

    fn canonical_key(&self) -> ArchKey {
        ArchSpec::canonical_key(self)
    }

    fn simulate(&self, workload: &NetworkWorkload) -> Result<SimulationReport> {
        ArchSpec::simulate(self, workload)
    }
}

macro_rules! impl_accelerator_model_via_spec {
    ($($backend:ty => $arm:ident),* $(,)?) => {$(
        impl AcceleratorModel for $backend {
            fn arch(&self) -> &'static str {
                ArchSpec::$arm(*self).arch_name()
            }

            fn label(&self) -> String {
                ArchSpec::$arm(*self).label()
            }

            fn canonical_key(&self) -> ArchKey {
                ArchSpec::$arm(*self).canonical_key()
            }

            fn simulate(&self, workload: &NetworkWorkload) -> Result<SimulationReport> {
                ArchSpec::$arm(*self).simulate(workload)
            }
        }
    )*};
}

impl_accelerator_model_via_spec! {
    DeapCnn => DeapCnn,
    HolyLight => HolyLight,
    ElectronicPlatform => Electronic,
    SymmetricCrossbar => SymmetricCrossbar,
    LiteCon => LiteCon,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::{AcceleratorReport, PhotonicAccelerator};
    use crosslight_core::variants::CrossLightVariant;
    use crosslight_neural::zoo::PaperModel;

    fn workloads() -> Vec<NetworkWorkload> {
        PaperModel::all()
            .iter()
            .map(|m| NetworkWorkload::from_spec(&m.spec()).unwrap())
            .collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300)
    }

    #[test]
    fn crosslight_specs_reuse_the_pre_zoo_identity() {
        for variant in CrossLightVariant::all() {
            let config = variant.config();
            let spec = ArchSpec::CrossLight(config);
            assert_eq!(
                spec.canonical_key(),
                ArchKey::CrossLight(config.canonical_key())
            );
            assert_eq!(spec.fingerprint(), config.fingerprint());
            assert_eq!(spec.arch_name(), "crosslight");
            assert_eq!(spec.crosslight_config(), Some(&config));
        }
    }

    #[test]
    fn zoo_fingerprints_are_pairwise_distinct() {
        let mut specs = ArchSpec::zoo_defaults();
        specs.push(ArchSpec::HolyLight(HolyLight::with_units(125)));
        specs.push(ArchSpec::SymmetricCrossbar(
            SymmetricCrossbar::with_dims(32, 64, 8).unwrap(),
        ));
        specs.push(ArchSpec::SymmetricCrossbar(
            SymmetricCrossbar::with_dims(64, 32, 8).unwrap(),
        ));
        specs.push(ArchSpec::LiteCon(LiteCon::with_dims(128, 32, 8).unwrap()));
        let fingerprints: Vec<u64> = specs.iter().map(ArchSpec::fingerprint).collect();
        for (i, a) in fingerprints.iter().enumerate() {
            for (j, b) in fingerprints.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{} vs {}", specs[i].label(), specs[j].label());
            }
            let _ = i;
        }
        for spec in &specs {
            if spec.crosslight_config().is_none() {
                assert!(spec.canonical_key().config_key().is_none());
            }
        }
    }

    #[test]
    fn simulate_matches_evaluate_for_every_photonic_backend() {
        let w = &workloads()[1];
        let cases: Vec<(ArchSpec, AcceleratorReport)> = vec![
            (
                ArchSpec::DeapCnn(DeapCnn::new()),
                DeapCnn::new().evaluate(w).unwrap(),
            ),
            (
                ArchSpec::HolyLight(HolyLight::new()),
                HolyLight::new().evaluate(w).unwrap(),
            ),
            (
                ArchSpec::SymmetricCrossbar(SymmetricCrossbar::new()),
                SymmetricCrossbar::new().evaluate(w).unwrap(),
            ),
            (
                ArchSpec::LiteCon(LiteCon::new()),
                LiteCon::new().evaluate(w).unwrap(),
            ),
        ];
        for (spec, direct) in cases {
            let report = spec.simulate(w).unwrap();
            let projected = AcceleratorReport::from_simulation(&report);
            assert!(
                close(projected.power_watts, direct.power_watts),
                "{}: power {} vs {}",
                spec.label(),
                projected.power_watts,
                direct.power_watts
            );
            assert!(
                close(projected.latency_s, direct.latency_s),
                "{}",
                spec.label()
            );
            assert!(close(projected.fps, direct.fps), "{}", spec.label());
            assert!(
                close(projected.energy_per_bit_pj, direct.energy_per_bit_pj),
                "{}",
                spec.label()
            );
            assert!(
                close(projected.kfps_per_watt, direct.kfps_per_watt),
                "{}",
                spec.label()
            );
            assert!(
                close(projected.area_mm2, direct.area_mm2),
                "{}",
                spec.label()
            );
            assert_eq!(projected.resolution_bits, direct.resolution_bits);
        }
    }

    #[test]
    fn crosslight_simulate_is_the_real_simulator_bit_for_bit() {
        let w = &workloads()[0];
        let config = CrossLightVariant::OptTed.config();
        let via_spec = ArchSpec::CrossLight(config).simulate(w).unwrap();
        let direct = CrossLightSimulator::new(config).evaluate(w).unwrap();
        assert_eq!(via_spec, direct);
    }

    #[test]
    fn electronic_reports_are_self_consistent_and_workload_independent() {
        for p in electronic::all_platforms() {
            let spec = ArchSpec::Electronic(p);
            let a = spec.simulate(&workloads()[0]).unwrap();
            let b = spec.simulate(&workloads()[3]).unwrap();
            assert_eq!(a, b, "{}", p.name);
            assert!(close(a.metrics.kfps_per_watt, p.avg_kfps_per_watt));
            assert!(close(a.metrics.energy_per_bit_pj, p.avg_epb_pj));
            assert!(close(a.power.total_watts().value(), p.power_watts));
            assert!(close(
                a.metrics.fps / 1000.0 / a.power.total_watts().value(),
                a.metrics.kfps_per_watt
            ));
            assert_eq!(spec.resolution_bits(), ELECTRONIC_NOMINAL_BITS);
        }
    }

    #[test]
    fn trait_objects_cover_the_whole_zoo() {
        let models: Vec<Box<dyn AcceleratorModel>> = vec![
            Box::new(ArchSpec::CrossLight(CrossLightVariant::Base.config())),
            Box::new(DeapCnn::new()),
            Box::new(HolyLight::new()),
            Box::new(electronic::P100),
            Box::new(SymmetricCrossbar::new()),
            Box::new(LiteCon::new()),
        ];
        let w = &workloads()[0];
        for model in &models {
            let report = model.simulate(w).unwrap();
            assert!(report.metrics.fps > 0.0, "{}", model.label());
            assert!(!model.arch().is_empty());
            let _ = model.canonical_key().fingerprint();
        }
        assert_eq!(models[3].label(), "P100");
        assert_eq!(models[4].arch(), "symmetric-crossbar");
    }

    #[test]
    fn zoo_defaults_span_every_family() {
        let specs = ArchSpec::zoo_defaults();
        assert_eq!(specs.len(), 11); // 1 CrossLight + 4 photonic/electronic families…
        let mut names: Vec<&str> = specs.iter().map(ArchSpec::arch_name).collect();
        names.dedup();
        assert_eq!(
            names,
            vec![
                "crosslight",
                "deap-cnn",
                "holylight",
                "symmetric-crossbar",
                "litecon",
                "electronic"
            ]
        );
    }
}
