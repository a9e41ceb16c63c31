//! E1 — device design-space exploration (§IV.A).
//!
//! Reproduces the paper's fabricated-chip result analytically: sweeping the
//! ring-waveguide width shows that the 400 nm bus / 800 nm ring design cuts
//! FPV-induced resonance drift from ~7.1 nm to ~2.1 nm (a ~70% reduction),
//! which directly lowers the thermo-optic power needed to compensate.

use crosslight_photonics::fpv::{DriftStatistics, FpvModel, ProcessCorner};
use crosslight_photonics::mr::MrGeometry;
use crosslight_photonics::units::Nanometers;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{fmt_f64, TextTable};

/// One row of the device DSE: a candidate geometry and its drift statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceDseRow {
    /// Ring waveguide width of the candidate design (nm).
    pub ring_width_nm: f64,
    /// Input (bus) waveguide width (nm).
    pub input_width_nm: f64,
    /// Analytic worst-case (3σ) drift.
    pub worst_case_drift_nm: f64,
    /// Monte-Carlo 99.7th-percentile drift.
    pub monte_carlo_p997_nm: f64,
    /// Mean absolute drift (what the tuning power model compensates).
    pub mean_abs_drift_nm: f64,
}

/// Results of the device design-space exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDseResult {
    /// One row per candidate geometry, ordered by ring width.
    pub rows: Vec<DeviceDseRow>,
    /// Drift of the conventional reference design.
    pub conventional_drift_nm: f64,
    /// Drift of the width-optimized design.
    pub optimized_drift_nm: f64,
    /// Relative reduction (paper: ~70%).
    pub reduction: f64,
}

impl DeviceDseResult {
    /// Renders the result as a text table.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "ring width (nm)",
            "bus width (nm)",
            "worst-case drift (nm)",
            "MC p99.7 (nm)",
            "mean |drift| (nm)",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                fmt_f64(row.ring_width_nm, 0),
                fmt_f64(row.input_width_nm, 0),
                fmt_f64(row.worst_case_drift_nm, 2),
                fmt_f64(row.monte_carlo_p997_nm, 2),
                fmt_f64(row.mean_abs_drift_nm, 2),
            ]);
        }
        table
    }
}

/// Runs the device design-space exploration with `samples` Monte-Carlo draws
/// per candidate geometry.
#[must_use]
pub fn run(samples: usize, seed: u64) -> DeviceDseResult {
    let corner = ProcessCorner::typical();
    let mut rng = StdRng::seed_from_u64(seed);
    let candidates: Vec<MrGeometry> = [500.0, 600.0, 700.0, 800.0]
        .iter()
        .map(|&ring_width| {
            let mut geometry = if (ring_width - 800.0f64).abs() < 1.0 {
                MrGeometry::optimized()
            } else {
                MrGeometry::conventional()
            };
            geometry.ring_waveguide_width = Nanometers::new(ring_width);
            if (ring_width - 800.0f64).abs() < 1.0 {
                geometry.input_waveguide_width = Nanometers::new(400.0);
            }
            geometry
        })
        .collect();

    let rows: Vec<DeviceDseRow> = candidates
        .iter()
        .map(|&geometry| {
            let model = FpvModel::new(geometry, corner);
            let stats: DriftStatistics = model.monte_carlo(samples, &mut rng);
            DeviceDseRow {
                ring_width_nm: geometry.ring_waveguide_width.value(),
                input_width_nm: geometry.input_waveguide_width.value(),
                worst_case_drift_nm: model.worst_case_drift().value(),
                monte_carlo_p997_nm: stats.p997_abs.value(),
                mean_abs_drift_nm: stats.mean_abs.value(),
            }
        })
        .collect();

    let conventional = FpvModel::new(MrGeometry::conventional(), corner)
        .worst_case_drift()
        .value();
    let optimized = FpvModel::new(MrGeometry::optimized(), corner)
        .worst_case_drift()
        .value();
    DeviceDseResult {
        rows,
        conventional_drift_nm: conventional,
        optimized_drift_nm: optimized,
        reduction: 1.0 - optimized / conventional,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_paper_drift_reduction() {
        let result = run(5_000, 7);
        assert!((result.conventional_drift_nm - 7.1).abs() < 0.8);
        assert!((result.optimized_drift_nm - 2.1).abs() < 0.3);
        assert!((result.reduction - 0.70).abs() < 0.05);
    }

    #[test]
    fn drift_decreases_monotonically_with_ring_width() {
        let result = run(2_000, 11);
        let drifts: Vec<f64> = result.rows.iter().map(|r| r.worst_case_drift_nm).collect();
        for pair in drifts.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9);
        }
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_worst_case() {
        let result = run(20_000, 13);
        for row in &result.rows {
            let rel =
                (row.monte_carlo_p997_nm - row.worst_case_drift_nm).abs() / row.worst_case_drift_nm;
            assert!(rel < 0.25, "row {row:?} deviates {rel}");
        }
    }

    #[test]
    fn table_has_one_row_per_candidate() {
        let result = run(500, 3);
        let table = result.table();
        assert_eq!(table.len(), result.rows.len());
        assert!(table.render().contains("ring width"));
    }
}
