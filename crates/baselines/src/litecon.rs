//! LiteCON all-photonic baseline (after arXiv:2206.13861).
//!
//! LiteCON performs CNN inference almost entirely in the optical domain:
//! weights are held stationary in silicon photonic elements, activations stay
//! optical between layers, and only the final readout of each dot-product
//! unit is converted back to the electrical domain.  The modelling
//! consequences relative to CrossLight are:
//!
//! * **Almost no conversion power** — one low-rate ADC per unit instead of
//!   per-pass DAC/ADC traffic, and a small control processor
//!   ([`LITECON_CONTROL_MW`]).
//! * **No value-imprint latency** — weights are stationary, so a pass costs
//!   only propagation, detection and the single readout conversion.
//! * **Analog resolution is expensive** — the optical signal chain natively
//!   resolves [`LITECON_NATIVE_BITS`] bits; every additional bit doubles the
//!   required optical SNR, modelled as [`LITECON_SNR_DB_PER_BIT`] dB of extra
//!   laser-power headroom.  LiteCON is therefore very attractive at low
//!   resolution and degrades quickly as operands widen.
//!
//! The model shares the Table II device parameters, loss model and laser
//! equation with the rest of the workspace.

use crosslight_core::decompose::sequential_passes;
use crosslight_core::error::{ArchitectureError, Result};
use crosslight_neural::workload::NetworkWorkload;
use crosslight_photonics::devices::{photodetector, tia, Transceiver};
use crosslight_photonics::fpv::{FpvModel, ProcessCorner};
use crosslight_photonics::laser::LaserPowerModel;
use crosslight_photonics::loss::{LossBudget, LossModel};
use crosslight_photonics::mr::{MrGeometry, CONVENTIONAL_FSR_NM};
use crosslight_photonics::thermal::Microheater;
use crosslight_photonics::units::{DecibelLoss, Micrometers, MilliWatts, Seconds};

use crate::accelerator::{AcceleratorReport, PhotonicAccelerator};

/// Default number of dot-product units.
pub const LITECON_DEFAULT_UNITS: usize = 128;

/// Default dot-product length per unit.
pub const LITECON_DEFAULT_UNIT_SIZE: usize = 32;

/// Bits the all-optical signal chain natively resolves.
pub const LITECON_NATIVE_BITS: u32 = 4;

/// Default operand resolution (the paper's sweet spot).
pub const LITECON_DEFAULT_BITS: u32 = 4;

/// Extra laser headroom per resolution bit beyond the native analog depth:
/// one more bit of analog precision needs twice the optical SNR (~3 dB).
pub const LITECON_SNR_DB_PER_BIT: f64 = 3.01;

/// Area of one stationary weight element (mm²).
pub const LITECON_CELL_AREA_MM2: f64 = 0.0008;

/// Per-unit readout electronics area (mm²).
pub const LITECON_UNIT_AREA_MM2: f64 = 0.01;

/// Minimal electronic control power of the all-photonic datapath (mW).
pub const LITECON_CONTROL_MW: f64 = 500.0;

/// Readout sample rate of the per-unit ADC (GS/s·bit) — low, because only
/// final results cross the domain boundary.
pub const LITECON_READOUT_RATE_GBPS: f64 = 1.0;

/// The LiteCON all-photonic accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LiteCon {
    units: usize,
    unit_size: usize,
    resolution_bits: u32,
}

impl LiteCon {
    /// Creates the published design at its native resolution.
    #[must_use]
    pub fn new() -> Self {
        Self {
            units: LITECON_DEFAULT_UNITS,
            unit_size: LITECON_DEFAULT_UNIT_SIZE,
            resolution_bits: LITECON_DEFAULT_BITS,
        }
    }

    /// Creates a LiteCON instance with explicit dimensions and resolution.
    ///
    /// # Errors
    ///
    /// Errors if any knob is zero.
    pub fn with_dims(units: usize, unit_size: usize, resolution_bits: u32) -> Result<Self> {
        if units == 0 || unit_size == 0 {
            return Err(ArchitectureError::InvalidConfig {
                name: "litecon_dims",
                reason: format!("units and unit_size must be positive; got {units}×{unit_size}"),
            });
        }
        if resolution_bits == 0 {
            return Err(ArchitectureError::InvalidConfig {
                name: "resolution_bits",
                reason: "at least one bit of resolution is required".into(),
            });
        }
        Ok(Self {
            units,
            unit_size,
            resolution_bits,
        })
    }

    /// Number of dot-product units.
    #[must_use]
    pub fn units(&self) -> usize {
        self.units
    }

    /// Dot-product length per unit.
    #[must_use]
    pub fn unit_size(&self) -> usize {
        self.unit_size
    }

    /// Operand resolution in bits.
    #[must_use]
    pub fn resolution_bits(&self) -> u32 {
        self.resolution_bits
    }

    /// Per-pass latency: propagation through the stationary weight chain,
    /// detection, and the single readout conversion.
    #[must_use]
    pub fn pass_latency(&self) -> Seconds {
        let detection = photodetector().latency + tia().latency;
        let conversion =
            Seconds::new(f64::from(self.resolution_bits) / (LITECON_READOUT_RATE_GBPS * 1e9));
        detection + conversion
    }

    /// SNR headroom the analog chain needs beyond its native depth.
    #[must_use]
    pub fn snr_headroom(&self) -> DecibelLoss {
        let extra_bits = f64::from(self.resolution_bits.saturating_sub(LITECON_NATIVE_BITS));
        DecibelLoss::new(LITECON_SNR_DB_PER_BIT * extra_bits)
    }

    /// Loss budget of one wavelength through a unit's stationary weight
    /// chain, inflated by the SNR headroom the requested resolution needs.
    #[must_use]
    pub fn loss_budget(&self) -> LossBudget {
        let mut budget = LossBudget::new(LossModel::paper());
        budget.add_mr_modulation(1);
        budget.add_mr_through(self.unit_size.saturating_sub(1));
        budget.add_propagation(Micrometers::new(10.0 * self.unit_size as f64));
        budget.add_combiners(1);
        budget
    }

    /// Laser power of the whole accelerator (Eq. (7) per wavelength, with
    /// the resolution-dependent SNR headroom added to the loss budget).
    #[must_use]
    pub fn laser_power(&self) -> MilliWatts {
        let per_wavelength = LaserPowerModel::paper()
            .required_electrical_power(
                self.loss_budget().total() + self.snr_headroom(),
                self.unit_size,
            )
            .expect("valid loss budget");
        per_wavelength * (self.unit_size * self.units) as f64
    }

    /// Thermal trim of the stationary weight elements (conventional drift,
    /// one heater per element).
    #[must_use]
    pub fn tuning_power(&self) -> MilliWatts {
        let fpv = FpvModel::new(MrGeometry::conventional(), ProcessCorner::typical());
        let per_element = Microheater::table_ii()
            .power_for_shift(fpv.mean_absolute_drift().value(), CONVENTIONAL_FSR_NM);
        MilliWatts::new(per_element * (self.unit_size * self.units) as f64)
    }

    /// Photodetector + TIA power of the per-unit receivers.
    #[must_use]
    pub fn detection_power(&self) -> MilliWatts {
        (photodetector().power + tia().power) * self.units as f64
    }

    /// Readout conversion power: one low-rate ADC per unit.
    #[must_use]
    pub fn conversion_power(&self) -> MilliWatts {
        Transceiver::isscc2019().power_at_rate(LITECON_READOUT_RATE_GBPS) * self.units as f64
    }

    /// Total accelerator power.
    #[must_use]
    pub fn total_power(&self) -> MilliWatts {
        self.laser_power()
            + self.tuning_power()
            + self.detection_power()
            + self.conversion_power()
            + MilliWatts::new(LITECON_CONTROL_MW)
    }

    /// Accelerator area.
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        (self.units * self.unit_size) as f64 * LITECON_CELL_AREA_MM2
            + self.units as f64 * LITECON_UNIT_AREA_MM2
    }

    /// Itemised power breakdown in the core report layout.
    #[must_use]
    pub fn power_breakdown(&self) -> crosslight_core::power::AcceleratorPower {
        crosslight_core::power::AcceleratorPower {
            laser: self.laser_power(),
            tuning: self.tuning_power(),
            detection: self.detection_power(),
            conversion: self.conversion_power(),
            control: MilliWatts::new(LITECON_CONTROL_MW),
        }
    }

    /// Itemised area breakdown in the core report layout: stationary weight
    /// elements as bank area, readout electronics as unit electronics.
    #[must_use]
    pub fn area_breakdown(&self) -> crosslight_core::area::AcceleratorArea {
        use crosslight_photonics::units::SquareMillimeters;
        crosslight_core::area::AcceleratorArea {
            mr_banks: SquareMillimeters::new(
                (self.units * self.unit_size) as f64 * LITECON_CELL_AREA_MM2,
            ),
            arm_devices: SquareMillimeters::new(0.0),
            unit_electronics: SquareMillimeters::new(self.units as f64 * LITECON_UNIT_AREA_MM2),
        }
    }

    /// Passes one layer list needs on the unit pool (weights stationary, so
    /// no bit-serial repetition — resolution is paid in laser power instead).
    ///
    /// # Errors
    ///
    /// Propagates decomposition errors (do not occur for valid dimensions).
    pub fn phase_cycles(
        &self,
        layers: &[crosslight_neural::layers::DotProductWorkload],
    ) -> Result<u64> {
        let mut cycles: u64 = 0;
        for layer in layers {
            cycles += sequential_passes(
                layer.dot_length,
                layer.dot_count,
                self.unit_size,
                self.units,
            )?;
        }
        Ok(cycles)
    }
}

impl Default for LiteCon {
    fn default() -> Self {
        Self::new()
    }
}

impl PhotonicAccelerator for LiteCon {
    fn name(&self) -> String {
        format!(
            "LiteCON_{}x{}_{}b",
            self.units, self.unit_size, self.resolution_bits
        )
    }

    fn evaluate(&self, workload: &NetworkWorkload) -> Result<AcceleratorReport> {
        let cycles =
            self.phase_cycles(&workload.conv_layers)? + self.phase_cycles(&workload.fc_layers)?;
        let latency_s = self.pass_latency().value() * cycles as f64 * workload.towers as f64;
        let power_w = self.total_power().to_watts().value();
        let fps = 1.0 / latency_s;
        let energy_pj = power_w * latency_s * 1e12;
        let operand_bits = 2.0 * workload.total_macs() as f64 * f64::from(self.resolution_bits);
        Ok(AcceleratorReport {
            power_watts: power_w,
            latency_s,
            fps,
            energy_per_bit_pj: energy_pj / operand_bits,
            kfps_per_watt: fps / 1000.0 / power_w,
            resolution_bits: self.resolution_bits,
            area_mm2: self.area_mm2(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_neural::zoo::PaperModel;

    fn workloads() -> Vec<NetworkWorkload> {
        PaperModel::all()
            .iter()
            .map(|m| NetworkWorkload::from_spec(&m.spec()).unwrap())
            .collect()
    }

    #[test]
    fn construction_validates_every_knob() {
        assert!(LiteCon::with_dims(0, 32, 4).is_err());
        assert!(LiteCon::with_dims(128, 0, 4).is_err());
        assert!(LiteCon::with_dims(128, 32, 0).is_err());
        let lc = LiteCon::with_dims(64, 16, 8).unwrap();
        assert_eq!(
            (lc.units(), lc.unit_size(), lc.resolution_bits()),
            (64, 16, 8)
        );
        assert_eq!(LiteCon::default(), LiteCon::new());
    }

    #[test]
    fn resolution_is_paid_in_laser_power_not_cycles() {
        let low = LiteCon::with_dims(128, 32, 4).unwrap();
        let high = LiteCon::with_dims(128, 32, 16).unwrap();
        let w = &workloads()[0];
        assert_eq!(
            low.phase_cycles(&w.conv_layers).unwrap(),
            high.phase_cycles(&w.conv_layers).unwrap()
        );
        assert!(high.laser_power().value() > 8.0 * low.laser_power().value());
        assert!(high.snr_headroom().value() > low.snr_headroom().value());
    }

    #[test]
    fn epb_degrades_as_operands_widen() {
        let w = workloads();
        let low = LiteCon::with_dims(128, 32, 4)
            .unwrap()
            .evaluate_average(&w)
            .unwrap();
        let high = LiteCon::with_dims(128, 32, 16)
            .unwrap()
            .evaluate_average(&w)
            .unwrap();
        assert!(
            high.energy_per_bit_pj > low.energy_per_bit_pj,
            "analog SNR headroom should dominate the wider-operand EPB: {} vs {}",
            high.energy_per_bit_pj,
            low.energy_per_bit_pj
        );
    }

    #[test]
    fn conversion_power_is_a_small_fraction_of_the_total() {
        let lc = LiteCon::new();
        let conversion = lc.conversion_power().value();
        let total = lc.total_power().value();
        assert!(
            conversion / total < 0.05,
            "all-photonic datapath should barely pay for conversion: {conversion} of {total} mW"
        );
    }

    #[test]
    fn report_metrics_are_self_consistent() {
        let lc = LiteCon::new();
        let report = lc.evaluate(&workloads()[0]).unwrap();
        assert!((report.fps - 1.0 / report.latency_s).abs() / report.fps < 1e-9);
        assert!(
            (report.kfps_per_watt - report.fps / 1000.0 / report.power_watts).abs()
                / report.kfps_per_watt
                < 1e-9
        );
        assert_eq!(report.resolution_bits, LITECON_DEFAULT_BITS);
        assert!(report.area_mm2 > 0.0);
        assert!(lc.name().starts_with("LiteCON_128x32"));
    }
}
