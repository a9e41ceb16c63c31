//! HolyLight baseline model (Liu et al., DATE 2019).
//!
//! HolyLight replaces microrings with microdisks to save device area and uses
//! a "whispering gallery mode" resonance that is inherently lossy (paper §II).
//! Each microdisk only resolves 2 bits, so eight disks are ganged per 16-bit
//! weight (paper §V.B).  Relative to CrossLight the consequences are:
//!
//! * **8× more resonant devices per weight**, each needing thermal
//!   calibration against process/thermal drift → much higher tuning power.
//! * **~10 dB of extra insertion loss per weight** (8 × 1.22 dB) → much
//!   higher laser power, per Eq. (7).
//! * **No FPV-resilient device design and no TED**, so calibration costs the
//!   conventional-device drift.
//! * Microdisk switching itself is fast, so the per-pass latency is close to
//!   CrossLight's; the efficiency gap comes from power, which is exactly how
//!   the paper describes the comparison (9.5× EPB, 15.9× perf/W).
//!
//! The model shares the Table II device parameters, loss model and laser
//! equation with the rest of the workspace.

use crosslight_core::decompose::sequential_passes;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_photonics::devices::{photodetector, tia, Transceiver};
use crosslight_photonics::fpv::{FpvModel, ProcessCorner};
use crosslight_photonics::laser::LaserPowerModel;
use crosslight_photonics::loss::{LossBudget, LossModel};
use crosslight_photonics::microdisk::MicrodiskGang;
use crosslight_photonics::mr::{MrGeometry, CONVENTIONAL_FSR_NM};
use crosslight_photonics::thermal::Microheater;
use crosslight_photonics::units::{DecibelLoss, Micrometers, MilliWatts, Seconds};

use crate::accelerator::{AcceleratorReport, PhotonicAccelerator};

/// Weights processed per HolyLight dot-product unit per pass.
pub const HOLYLIGHT_UNIT_SIZE: usize = 16;

/// Number of dot-product units provisioned (keeps the design inside the same
/// ~16–25 mm² window as the other accelerators).
pub const HOLYLIGHT_UNITS: usize = 250;

/// Microdisk switching (value-imprinting) latency: disks are driven
/// electro-optically via carrier injection, comparable to an MZM.
pub const DISK_SWITCH_LATENCY_NS: f64 = 10.0;

/// Bit-serial cycles per 16-bit multiply–accumulate.
///
/// HolyLight's microdisks resolve 2 bits each, so a 16-bit operand is
/// processed as 8 two-bit slices whose partial products are shifted and added
/// electronically — one disk-switching cycle per slice.
pub const BIT_SERIAL_CYCLES: u64 = (HOLYLIGHT_RESOLUTION_BITS / 2) as u64;

/// Per-unit area: 16 weight cells of 8 microdisks each plus the activation
/// modulators, photodetector tree and ADC/DAC lane (mm², calibration
/// constant).
pub const HOLYLIGHT_UNIT_AREA_MM2: f64 = 0.075;

/// Fixed electronic control power (same role as CrossLight's control unit).
pub const HOLYLIGHT_CONTROL_MW: f64 = 2_000.0;

/// Native resolution after combining eight 2-bit disks.
pub const HOLYLIGHT_RESOLUTION_BITS: u32 = 16;

/// The HolyLight baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HolyLight {
    units: usize,
    unit_size: usize,
}

impl HolyLight {
    /// Creates the HolyLight model with its published design choices.
    #[must_use]
    pub fn new() -> Self {
        Self {
            units: HOLYLIGHT_UNITS,
            unit_size: HOLYLIGHT_UNIT_SIZE,
        }
    }

    /// Creates a HolyLight model with an explicit unit count (used by the
    /// design-space experiments).
    #[must_use]
    pub fn with_units(units: usize) -> Self {
        Self {
            units: units.max(1),
            unit_size: HOLYLIGHT_UNIT_SIZE,
        }
    }

    /// Number of dot-product units provisioned.
    #[must_use]
    pub fn units(&self) -> usize {
        self.units
    }

    /// Resonant devices (microdisks) per unit: eight per weight cell plus
    /// eight per activation imprint cell.
    #[must_use]
    pub fn disks_per_unit(&self) -> usize {
        self.unit_size * MicrodiskGang::holylight_weight_cell().count() * 2
    }

    /// Per-pass latency of one unit.
    #[must_use]
    pub fn pass_latency(&self) -> Seconds {
        let imprint = Seconds::from_nanos(DISK_SWITCH_LATENCY_NS);
        let detection = photodetector().latency + tia().latency;
        let conversion = Seconds::new(16.0 / (Transceiver::isscc2019().max_rate_gbps * 1e9));
        imprint + detection + conversion
    }

    /// Laser power of the whole accelerator.
    #[must_use]
    pub fn laser_power(&self) -> MilliWatts {
        let gang = MicrodiskGang::holylight_weight_cell();
        let mut budget = LossBudget::new(LossModel::paper());
        // Each wavelength traverses its own 8-disk weight gang and the
        // activation imprint stage, plus routing and the combiner feeding the
        // photodetector tree.
        budget.add_microdisks(gang.count());
        budget.add_mr_modulation(1);
        budget.add_propagation(Micrometers::new(500.0));
        budget.add_combiners(1);
        budget.add_splitters(1);
        let model = LaserPowerModel::paper();
        let per_wavelength = model
            .required_electrical_power(budget.total() + DecibelLoss::new(0.0), self.unit_size)
            .expect("valid loss budget");
        per_wavelength * (self.unit_size * self.units) as f64
    }

    /// Thermal calibration (tuning) power of all microdisks.
    #[must_use]
    pub fn tuning_power(&self) -> MilliWatts {
        // Microdisks are fabricated without the paper's FPV-optimized widths,
        // so they drift like conventional devices; each disk holds a thermal
        // trim of the mean absolute drift.
        let fpv = FpvModel::new(MrGeometry::conventional(), ProcessCorner::typical());
        let per_disk = Microheater::table_ii()
            .power_for_shift(fpv.mean_absolute_drift().value(), CONVENTIONAL_FSR_NM);
        MilliWatts::new(per_disk * (self.disks_per_unit() * self.units) as f64)
    }

    /// Photodetector, TIA and conversion power.
    #[must_use]
    pub fn detection_power(&self) -> MilliWatts {
        let per_unit = photodetector().power + tia().power;
        let sample_rate_gbps = 16.0 / self.pass_latency().value() / 1e9;
        let conversion = Transceiver::isscc2019().power_at_rate(sample_rate_gbps);
        (per_unit + conversion) * self.units as f64
    }

    /// Total accelerator power.
    #[must_use]
    pub fn total_power(&self) -> MilliWatts {
        self.laser_power()
            + self.tuning_power()
            + self.detection_power()
            + MilliWatts::new(HOLYLIGHT_CONTROL_MW)
    }

    /// Accelerator area.
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        self.units as f64 * HOLYLIGHT_UNIT_AREA_MM2
    }

    /// Itemised power breakdown in the core report layout.  The detection
    /// column holds the photodetector/TIA receivers and the conversion
    /// column the per-unit ADC/DAC lane — together they equal
    /// [`detection_power`](Self::detection_power) up to float association.
    #[must_use]
    pub fn power_breakdown(&self) -> crosslight_core::power::AcceleratorPower {
        let receivers = (photodetector().power + tia().power) * self.units as f64;
        let sample_rate_gbps = 16.0 / self.pass_latency().value() / 1e9;
        let conversion =
            Transceiver::isscc2019().power_at_rate(sample_rate_gbps) * self.units as f64;
        crosslight_core::power::AcceleratorPower {
            laser: self.laser_power(),
            tuning: self.tuning_power(),
            detection: receivers,
            conversion,
            control: MilliWatts::new(HOLYLIGHT_CONTROL_MW),
        }
    }

    /// Itemised area breakdown in the core report layout: the calibrated
    /// per-unit area is all resonant devices, so it is reported as bank area.
    #[must_use]
    pub fn area_breakdown(&self) -> crosslight_core::area::AcceleratorArea {
        use crosslight_photonics::units::SquareMillimeters;
        crosslight_core::area::AcceleratorArea {
            mr_banks: SquareMillimeters::new(self.area_mm2()),
            arm_devices: SquareMillimeters::new(0.0),
            unit_electronics: SquareMillimeters::new(0.0),
        }
    }

    /// Bit-serial passes one layer list needs on the unit pool (each pass is
    /// repeated for every 2-bit operand slice).
    ///
    /// # Errors
    ///
    /// Propagates decomposition errors (do not occur for valid dimensions).
    pub fn phase_cycles(
        &self,
        layers: &[crosslight_neural::layers::DotProductWorkload],
    ) -> crosslight_core::error::Result<u64> {
        let mut cycles: u64 = 0;
        for layer in layers {
            cycles += sequential_passes(
                layer.dot_length,
                layer.dot_count,
                self.unit_size,
                self.units,
            )?;
        }
        Ok(cycles * BIT_SERIAL_CYCLES)
    }
}

impl Default for HolyLight {
    fn default() -> Self {
        Self::new()
    }
}

impl PhotonicAccelerator for HolyLight {
    fn name(&self) -> String {
        "Holylight".to_string()
    }

    fn evaluate(
        &self,
        workload: &NetworkWorkload,
    ) -> crosslight_core::error::Result<AcceleratorReport> {
        // All layers run on the single pool of small units; every pass is
        // repeated for each 2-bit operand slice (bit-serial operation).
        let cycles =
            self.phase_cycles(&workload.conv_layers)? + self.phase_cycles(&workload.fc_layers)?;
        let latency_s = self.pass_latency().value() * cycles as f64 * workload.towers as f64;
        let power_w = self.total_power().to_watts().value();
        let fps = 1.0 / latency_s;
        let energy_pj = power_w * latency_s * 1e12;
        let operand_bits =
            2.0 * workload.total_macs() as f64 * f64::from(HOLYLIGHT_RESOLUTION_BITS);
        Ok(AcceleratorReport {
            power_watts: power_w,
            latency_s,
            fps,
            energy_per_bit_pj: energy_pj / operand_bits,
            kfps_per_watt: fps / 1000.0 / power_w,
            resolution_bits: HOLYLIGHT_RESOLUTION_BITS,
            area_mm2: self.area_mm2(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::CrossLightAccelerator;
    use crate::deap_cnn::DeapCnn;
    use crosslight_core::variants::CrossLightVariant;
    use crosslight_neural::zoo::PaperModel;

    fn workloads() -> Vec<NetworkWorkload> {
        PaperModel::all()
            .iter()
            .map(|m| NetworkWorkload::from_spec(&m.spec()).unwrap())
            .collect()
    }

    #[test]
    fn holylight_reaches_sixteen_bits_by_ganging_disks() {
        let h = HolyLight::new();
        assert_eq!(h.disks_per_unit(), 16 * 8 * 2);
        let report = h.evaluate(&workloads()[0]).unwrap();
        assert_eq!(report.resolution_bits, 16);
        assert_eq!(h.name(), "Holylight");
    }

    #[test]
    fn holylight_power_exceeds_every_crosslight_variant() {
        let workloads = workloads();
        let holylight = HolyLight::new().evaluate_average(&workloads).unwrap();
        for variant in CrossLightVariant::all() {
            let cl = CrossLightAccelerator::new(variant)
                .evaluate_average(&workloads)
                .unwrap();
            assert!(
                holylight.power_watts > cl.power_watts,
                "HolyLight {} W should exceed {} ({} W)",
                holylight.power_watts,
                variant,
                cl.power_watts
            );
        }
    }

    #[test]
    fn epb_gap_to_crosslight_matches_the_paper_factor() {
        let workloads = workloads();
        let holylight = HolyLight::new().evaluate_average(&workloads).unwrap();
        let opt_ted = CrossLightAccelerator::new(CrossLightVariant::OptTed)
            .evaluate_average(&workloads)
            .unwrap();
        let ratio = holylight.energy_per_bit_pj / opt_ted.energy_per_bit_pj;
        // Paper: 9.5×.  Accept the same order (×3 tolerance either way).
        assert!(
            ratio > 3.0 && ratio < 40.0,
            "HolyLight/CrossLight EPB ratio {ratio:.1} should be near the paper's 9.5×"
        );
        let ppw_ratio = opt_ted.kfps_per_watt / holylight.kfps_per_watt;
        assert!(
            ppw_ratio > 3.0 && ppw_ratio < 60.0,
            "perf/W ratio {ppw_ratio:.1} should be near the paper's 15.9×"
        );
    }

    #[test]
    fn holylight_beats_deap_but_loses_to_crosslight() {
        // Table III ordering: DEAP ≫ Holylight > Cross_base > … > Cross_opt_TED
        // in EPB.
        let workloads = workloads();
        let deap = DeapCnn::new().evaluate_average(&workloads).unwrap();
        let holylight = HolyLight::new().evaluate_average(&workloads).unwrap();
        let base = CrossLightAccelerator::new(CrossLightVariant::Base)
            .evaluate_average(&workloads)
            .unwrap();
        assert!(deap.energy_per_bit_pj > holylight.energy_per_bit_pj);
        assert!(holylight.energy_per_bit_pj > base.energy_per_bit_pj);
        assert!(deap.kfps_per_watt < holylight.kfps_per_watt);
        assert!(holylight.kfps_per_watt < base.kfps_per_watt);
    }

    #[test]
    fn holylight_area_is_in_the_comparison_window() {
        let area = HolyLight::new().area_mm2();
        assert!((10.0..=30.0).contains(&area), "area {area} mm²");
    }

    #[test]
    fn unit_count_scales_power_and_area() {
        let small = HolyLight::with_units(100);
        let big = HolyLight::with_units(400);
        assert!(big.total_power().value() > small.total_power().value());
        assert!(big.area_mm2() > small.area_mm2());
    }
}
