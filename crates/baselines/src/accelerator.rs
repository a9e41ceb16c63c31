//! Common evaluation interface for photonic accelerators.

use crosslight_core::error::{ArchitectureError, Result};
use crosslight_core::simulator::{AverageMetrics, CrossLightSimulator, SimulationReport};
use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::workload::NetworkWorkload;

/// The metrics every accelerator reports for one workload — the columns of
/// the paper's Fig. 7, Fig. 8 and Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorReport {
    /// Total accelerator power in watts.
    pub power_watts: f64,
    /// Latency of one inference in seconds.
    pub latency_s: f64,
    /// Inferences per second.
    pub fps: f64,
    /// Energy per operand bit in pJ/bit.
    pub energy_per_bit_pj: f64,
    /// Performance per watt in kFPS/W.
    pub kfps_per_watt: f64,
    /// Native weight resolution of the accelerator in bits.
    pub resolution_bits: u32,
    /// Accelerator area in mm².
    pub area_mm2: f64,
}

impl AcceleratorReport {
    /// Projects a CrossLight [`SimulationReport`] onto the common report —
    /// the single conversion used by both the serial adapter below and the
    /// runtime-backed experiment paths, so they agree bit-for-bit.
    #[must_use]
    pub fn from_simulation(report: &SimulationReport) -> Self {
        Self {
            power_watts: report.power.total_watts().value(),
            latency_s: report.metrics.latency.total().value(),
            fps: report.metrics.fps,
            energy_per_bit_pj: report.metrics.energy_per_bit_pj,
            kfps_per_watt: report.metrics.kfps_per_watt,
            resolution_bits: report.resolution_bits,
            area_mm2: report.area.total().value(),
        }
    }

    /// Averages per-workload reports fieldwise, in slice order, through
    /// [`AverageMetrics::column_mean`] — the same accumulation path
    /// `AverageMetrics::from_reports` uses in the core crate, so the two
    /// averaged tables agree bit-for-bit on how a mean is taken.
    ///
    /// All reports must come from the same accelerator: resolution and area
    /// are workload-independent, so they are taken from the first report.
    ///
    /// # Errors
    ///
    /// Errors on an empty report list.
    pub fn average(reports: &[Self]) -> Result<Self> {
        let Some(first) = reports.first() else {
            return Err(ArchitectureError::MappingFailed {
                reason: "cannot average over an empty report list".into(),
            });
        };
        Ok(Self {
            power_watts: AverageMetrics::column_mean(reports, |r| r.power_watts)?,
            latency_s: AverageMetrics::column_mean(reports, |r| r.latency_s)?,
            fps: AverageMetrics::column_mean(reports, |r| r.fps)?,
            energy_per_bit_pj: AverageMetrics::column_mean(reports, |r| r.energy_per_bit_pj)?,
            kfps_per_watt: AverageMetrics::column_mean(reports, |r| r.kfps_per_watt)?,
            resolution_bits: first.resolution_bits,
            area_mm2: first.area_mm2,
        })
    }
}

/// A photonic DNN accelerator that can be evaluated on a network workload.
///
/// The trait is object-safe so experiment harnesses can iterate over a
/// heterogeneous list of accelerators.
pub trait PhotonicAccelerator {
    /// Display name used in figures and tables.
    fn name(&self) -> String;

    /// Evaluates one inference workload.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ArchitectureError`] if the underlying model fails
    /// (does not happen for the built-in accelerators on valid workloads).
    fn evaluate(&self, workload: &NetworkWorkload) -> Result<AcceleratorReport>;

    /// Evaluates several workloads and averages the headline metrics.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; errors on an empty workload list.
    fn evaluate_average(&self, workloads: &[NetworkWorkload]) -> Result<AcceleratorReport> {
        if workloads.is_empty() {
            return Err(ArchitectureError::MappingFailed {
                reason: "cannot average over an empty workload list".into(),
            });
        }
        let reports: Vec<AcceleratorReport> = workloads
            .iter()
            .map(|w| self.evaluate(w))
            .collect::<std::result::Result<_, _>>()?;
        AcceleratorReport::average(&reports)
    }
}

/// Adapter exposing a CrossLight variant through the common trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossLightAccelerator {
    variant: CrossLightVariant,
}

impl CrossLightAccelerator {
    /// Creates an adapter for the given variant.
    #[must_use]
    pub fn new(variant: CrossLightVariant) -> Self {
        Self { variant }
    }

    /// Returns the wrapped variant.
    #[must_use]
    pub fn variant(&self) -> CrossLightVariant {
        self.variant
    }
}

impl PhotonicAccelerator for CrossLightAccelerator {
    fn name(&self) -> String {
        self.variant.label().to_string()
    }

    fn evaluate(&self, workload: &NetworkWorkload) -> Result<AcceleratorReport> {
        let simulator = CrossLightSimulator::new(self.variant.config());
        let report = simulator.evaluate(workload)?;
        Ok(AcceleratorReport::from_simulation(&report))
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
    fn crosslight_adapter_reports_consistent_metrics() {
        let acc = CrossLightAccelerator::new(CrossLightVariant::OptTed);
        assert_eq!(acc.name(), "Cross_opt_TED");
        assert_eq!(acc.variant(), CrossLightVariant::OptTed);
        let w = &workloads()[0];
        let report = acc.evaluate(w).unwrap();
        assert!((report.fps - 1.0 / report.latency_s).abs() / report.fps < 1e-9);
        assert!(
            (report.kfps_per_watt - report.fps / 1000.0 / report.power_watts).abs()
                / report.kfps_per_watt
                < 1e-9
        );
        assert_eq!(report.resolution_bits, 16);
    }

    #[test]
    fn averaging_over_models_works_through_the_trait() {
        let acc: Box<dyn PhotonicAccelerator> =
            Box::new(CrossLightAccelerator::new(CrossLightVariant::OptTed));
        let avg = acc.evaluate_average(&workloads()).unwrap();
        assert!(avg.fps > 0.0 && avg.energy_per_bit_pj > 0.0);
        assert!(acc.evaluate_average(&[]).is_err());
    }
}
