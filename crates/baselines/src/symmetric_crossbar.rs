//! Symmetric add–drop MRR crossbar baseline (after arXiv:2401.16072).
//!
//! The crossbar stores an `R × C` weight matrix in add–drop microring
//! resonators with a *symmetric* (matched-gap) bus coupling: each input
//! wavelength runs along a row bus, is weighted once, and is dropped onto a
//! column bus whose photodetector accumulates the column's dot product.  One
//! pass therefore computes `C` dot products of length `R` — the crossbar is
//! parameterized by `rows × cols × resolution` rather than by unit pools.
//!
//! Relative to CrossLight, the modelling consequences are:
//!
//! * **Long bus traversals** — a wavelength passes `C − 1` off-resonance
//!   rings on its row and up to `R − 1` on its column, so through loss (and
//!   hence laser power, Eq. (7)) grows with both dimensions.
//! * **Symmetric coupling halves the calibration cost** — the matched
//!   through/drop gaps make the resonance shift differential, so the thermal
//!   trim per ring is modelled at half the conventional-device drift
//!   ([`SYMMETRIC_TUNING_FACTOR`]).
//! * **Moderate native resolution** — one symmetric ring resolves
//!   [`SYMMETRIC_NATIVE_BITS`] bits; wider operands are processed in
//!   bit-serial slices exactly like HolyLight's 2-bit disks.
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
use crosslight_photonics::units::{Micrometers, MilliWatts, Seconds};

use crate::accelerator::{AcceleratorReport, PhotonicAccelerator};

/// Default crossbar rows (input-vector length per pass).
pub const SYMMETRIC_DEFAULT_ROWS: usize = 64;

/// Default crossbar columns (parallel dot products per pass).
pub const SYMMETRIC_DEFAULT_COLS: usize = 64;

/// Bits one symmetric add–drop ring resolves; wider operands are bit-serial.
pub const SYMMETRIC_NATIVE_BITS: u32 = 8;

/// Default operand resolution.
pub const SYMMETRIC_DEFAULT_BITS: u32 = 8;

/// Ring-to-ring pitch on the row/column buses (µm).  The symmetric coupler
/// is compact, but the crossbar still needs heater clearance.
pub const SYMMETRIC_PITCH_UM: f64 = 50.0;

/// Electro-optic value-imprint latency per pass (carrier injection).
pub const SYMMETRIC_IMPRINT_LATENCY_NS: f64 = 5.0;

/// Fraction of the conventional-device thermal trim a symmetric ring needs:
/// the matched gaps make half of the fabrication drift common-mode.
pub const SYMMETRIC_TUNING_FACTOR: f64 = 0.5;

/// Area of one ring cell including its heater and drop waveguide (mm²).
pub const SYMMETRIC_CELL_AREA_MM2: f64 = 0.0012;

/// Per-column receiver/electronics area (mm²).
pub const SYMMETRIC_COLUMN_AREA_MM2: f64 = 0.02;

/// Fixed electronic control power (mW).
pub const SYMMETRIC_CONTROL_MW: f64 = 1_500.0;

/// The symmetric-MRR crossbar accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymmetricCrossbar {
    rows: usize,
    cols: usize,
    resolution_bits: u32,
}

impl SymmetricCrossbar {
    /// Creates the published square crossbar at its native resolution.
    #[must_use]
    pub fn new() -> Self {
        Self {
            rows: SYMMETRIC_DEFAULT_ROWS,
            cols: SYMMETRIC_DEFAULT_COLS,
            resolution_bits: SYMMETRIC_DEFAULT_BITS,
        }
    }

    /// Creates a crossbar with explicit dimensions and operand resolution.
    ///
    /// # Errors
    ///
    /// Errors if any knob is zero.
    pub fn with_dims(rows: usize, cols: usize, resolution_bits: u32) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(ArchitectureError::InvalidConfig {
                name: "crossbar_dims",
                reason: format!("rows and cols must be positive; got {rows}×{cols}"),
            });
        }
        if resolution_bits == 0 {
            return Err(ArchitectureError::InvalidConfig {
                name: "resolution_bits",
                reason: "at least one bit of resolution is required".into(),
            });
        }
        Ok(Self {
            rows,
            cols,
            resolution_bits,
        })
    }

    /// Crossbar rows (dot-product length per pass).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Crossbar columns (parallel dot products per pass).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Operand resolution in bits.
    #[must_use]
    pub fn resolution_bits(&self) -> u32 {
        self.resolution_bits
    }

    /// Bit-serial slices per pass: wider operands than the ring's native
    /// resolution are processed [`SYMMETRIC_NATIVE_BITS`] bits at a time.
    #[must_use]
    pub fn slice_cycles(&self) -> u64 {
        u64::from(self.resolution_bits.div_ceil(SYMMETRIC_NATIVE_BITS))
    }

    /// Per-pass latency: value imprint, detection and one output conversion.
    #[must_use]
    pub fn pass_latency(&self) -> Seconds {
        let imprint = Seconds::from_nanos(SYMMETRIC_IMPRINT_LATENCY_NS);
        let detection = photodetector().latency + tia().latency;
        let conversion = Seconds::new(
            f64::from(self.resolution_bits) / (Transceiver::isscc2019().max_rate_gbps * 1e9),
        );
        imprint + detection + conversion
    }

    /// Worst-case loss budget of one wavelength: its row bus, one weighting
    /// drop, its column bus and the receiver combiner.
    #[must_use]
    pub fn loss_budget(&self) -> LossBudget {
        let mut budget = LossBudget::new(LossModel::paper());
        budget.add_mr_modulation(1);
        budget.add_mr_through((self.cols - 1) + (self.rows - 1));
        budget.add_propagation(Micrometers::new(
            SYMMETRIC_PITCH_UM * (self.rows + self.cols) as f64,
        ));
        budget.add_combiners(1);
        budget.add_splitters(1);
        budget
    }

    /// Laser power of the whole crossbar (Eq. (7) per wavelength, `rows`
    /// wavelengths shared across the columns).
    #[must_use]
    pub fn laser_power(&self) -> MilliWatts {
        let per_wavelength = LaserPowerModel::paper()
            .required_electrical_power(self.loss_budget().total(), self.rows)
            .expect("valid loss budget");
        per_wavelength * self.rows as f64
    }

    /// Thermal calibration power of every ring: symmetric coupling cancels
    /// half the conventional drift, the rest is trimmed per ring.
    #[must_use]
    pub fn tuning_power(&self) -> MilliWatts {
        let fpv = FpvModel::new(MrGeometry::conventional(), ProcessCorner::typical());
        let per_ring = Microheater::table_ii().power_for_shift(
            fpv.mean_absolute_drift().value() * SYMMETRIC_TUNING_FACTOR,
            CONVENTIONAL_FSR_NM,
        );
        MilliWatts::new(per_ring * (self.rows * self.cols) as f64)
    }

    /// Photodetector + TIA power of the column receivers.
    #[must_use]
    pub fn detection_power(&self) -> MilliWatts {
        (photodetector().power + tia().power) * self.cols as f64
    }

    /// ADC/DAC power of the per-column converters.
    #[must_use]
    pub fn conversion_power(&self) -> MilliWatts {
        let sample_rate_gbps = f64::from(self.resolution_bits) / self.pass_latency().value() / 1e9;
        Transceiver::isscc2019().power_at_rate(sample_rate_gbps) * self.cols as f64
    }

    /// Total accelerator power.
    #[must_use]
    pub fn total_power(&self) -> MilliWatts {
        self.laser_power()
            + self.tuning_power()
            + self.detection_power()
            + self.conversion_power()
            + MilliWatts::new(SYMMETRIC_CONTROL_MW)
    }

    /// Accelerator area.
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        (self.rows * self.cols) as f64 * SYMMETRIC_CELL_AREA_MM2
            + self.cols as f64 * SYMMETRIC_COLUMN_AREA_MM2
    }

    /// Itemised power breakdown in the core report layout.
    #[must_use]
    pub fn power_breakdown(&self) -> crosslight_core::power::AcceleratorPower {
        crosslight_core::power::AcceleratorPower {
            laser: self.laser_power(),
            tuning: self.tuning_power(),
            detection: self.detection_power(),
            conversion: self.conversion_power(),
            control: MilliWatts::new(SYMMETRIC_CONTROL_MW),
        }
    }

    /// Itemised area breakdown in the core report layout: ring cells as bank
    /// area, column receivers as unit electronics.
    #[must_use]
    pub fn area_breakdown(&self) -> crosslight_core::area::AcceleratorArea {
        use crosslight_photonics::units::SquareMillimeters;
        crosslight_core::area::AcceleratorArea {
            mr_banks: SquareMillimeters::new(
                (self.rows * self.cols) as f64 * SYMMETRIC_CELL_AREA_MM2,
            ),
            arm_devices: SquareMillimeters::new(0.0),
            unit_electronics: SquareMillimeters::new(self.cols as f64 * SYMMETRIC_COLUMN_AREA_MM2),
        }
    }

    /// Bit-serial crossbar passes one layer list needs (`cols` dot products
    /// of length `rows` per pass).
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
            cycles += sequential_passes(layer.dot_length, layer.dot_count, self.rows, self.cols)?;
        }
        Ok(cycles * self.slice_cycles())
    }
}

impl Default for SymmetricCrossbar {
    fn default() -> Self {
        Self::new()
    }
}

impl PhotonicAccelerator for SymmetricCrossbar {
    fn name(&self) -> String {
        format!(
            "SymXbar_{}x{}_{}b",
            self.rows, self.cols, self.resolution_bits
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
        assert!(SymmetricCrossbar::with_dims(0, 64, 8).is_err());
        assert!(SymmetricCrossbar::with_dims(64, 0, 8).is_err());
        assert!(SymmetricCrossbar::with_dims(64, 64, 0).is_err());
        let xbar = SymmetricCrossbar::with_dims(32, 128, 4).unwrap();
        assert_eq!(
            (xbar.rows(), xbar.cols(), xbar.resolution_bits()),
            (32, 128, 4)
        );
        assert_eq!(SymmetricCrossbar::default(), SymmetricCrossbar::new());
    }

    #[test]
    fn wider_operands_run_bit_serial() {
        assert_eq!(
            SymmetricCrossbar::with_dims(64, 64, 4)
                .unwrap()
                .slice_cycles(),
            1
        );
        assert_eq!(
            SymmetricCrossbar::with_dims(64, 64, 8)
                .unwrap()
                .slice_cycles(),
            1
        );
        assert_eq!(
            SymmetricCrossbar::with_dims(64, 64, 16)
                .unwrap()
                .slice_cycles(),
            2
        );
        let w = &workloads()[0];
        let fast = SymmetricCrossbar::with_dims(64, 64, 8)
            .unwrap()
            .evaluate(w)
            .unwrap();
        let slow = SymmetricCrossbar::with_dims(64, 64, 16)
            .unwrap()
            .evaluate(w)
            .unwrap();
        assert!(slow.latency_s > 1.5 * fast.latency_s);
    }

    #[test]
    fn bigger_crossbars_pay_more_power_and_area_but_fewer_passes() {
        let small = SymmetricCrossbar::with_dims(32, 32, 8).unwrap();
        let big = SymmetricCrossbar::with_dims(128, 128, 8).unwrap();
        assert!(big.total_power().value() > small.total_power().value());
        assert!(big.area_mm2() > small.area_mm2());
        let w = &workloads()[1];
        let small_report = small.evaluate(w).unwrap();
        let big_report = big.evaluate(w).unwrap();
        assert!(big_report.latency_s < small_report.latency_s);
    }

    #[test]
    fn through_loss_grows_with_both_dimensions() {
        let small = SymmetricCrossbar::with_dims(32, 32, 8).unwrap();
        let wide = SymmetricCrossbar::with_dims(32, 256, 8).unwrap();
        let tall = SymmetricCrossbar::with_dims(256, 32, 8).unwrap();
        assert!(wide.loss_budget().total() > small.loss_budget().total());
        assert!(tall.loss_budget().total() > small.loss_budget().total());
    }

    #[test]
    fn report_metrics_are_self_consistent() {
        let xbar = SymmetricCrossbar::new();
        let report = xbar.evaluate(&workloads()[0]).unwrap();
        assert!((report.fps - 1.0 / report.latency_s).abs() / report.fps < 1e-9);
        assert!(
            (report.kfps_per_watt - report.fps / 1000.0 / report.power_watts).abs()
                / report.kfps_per_watt
                < 1e-9
        );
        assert_eq!(report.resolution_bits, SYMMETRIC_DEFAULT_BITS);
        assert!(report.area_mm2 > 0.0);
        assert!(xbar.name().starts_with("SymXbar_64x64"));
    }
}
