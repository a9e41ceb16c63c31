//! E2 — Fig. 4: phase-crosstalk ratio and tuning power vs. MR spacing.
//!
//! For a block of 10 MRs with heterogeneous FPV-compensation targets, sweeps
//! the centre-to-centre spacing and reports (a) the phase-crosstalk ratio
//! between adjacent MRs, (b) the total tuning power with TED collective
//! tuning and (c) without TED — the three curves of the paper's Fig. 4.
//! The TED curve has its minimum at the paper's 5 µm operating point.

use crosslight_photonics::fpv::FpvModel;
use crosslight_photonics::mr::MrGeometry;
use crosslight_photonics::thermal::ThermalCrosstalkModel;
use crosslight_photonics::units::{Micrometers, Radians};
use crosslight_tuning::ted::{TedSolver, TedWorkspace};
use crosslight_tuning::to::ToTuner;

use crate::report::{fmt_f64, TextTable};

/// Number of MRs in the fabricated block the paper characterises.
pub const BLOCK_SIZE: usize = 10;

/// One spacing point of the Fig. 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrosstalkRow {
    /// MR centre-to-centre spacing (µm).
    pub spacing_um: f64,
    /// Phase-crosstalk ratio between adjacent MRs.
    pub phase_crosstalk_ratio: f64,
    /// Total block tuning power with TED (mW).
    pub ted_power_mw: f64,
    /// Total block tuning power without TED (mW).
    pub naive_power_mw: f64,
}

/// The full Fig. 4 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkSweep {
    /// One row per spacing.
    pub rows: Vec<CrosstalkRow>,
    /// Spacing with the lowest TED power (paper: 5 µm).
    pub optimal_spacing_um: f64,
}

impl CrosstalkSweep {
    /// Renders the sweep as a text table.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "spacing (um)",
            "phase crosstalk ratio",
            "TED power (mW)",
            "no-TED power (mW)",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                fmt_f64(row.spacing_um, 1),
                fmt_f64(row.phase_crosstalk_ratio, 4),
                fmt_f64(row.ted_power_mw, 2),
                fmt_f64(row.naive_power_mw, 2),
            ]);
        }
        table
    }
}

/// FPV-compensation phase targets for the block: the optimized device's mean
/// drift, modulated ±35% across the block so TED sees both common-mode and
/// differential components (as real per-device FPV does).
fn block_targets() -> Vec<Radians> {
    let fpv = FpvModel::new(MrGeometry::optimized(), Default::default());
    let to = ToTuner::table_ii(crosslight_photonics::units::Nanometers::new(
        crosslight_photonics::mr::OPTIMIZED_FSR_NM,
    ));
    (0..BLOCK_SIZE)
        .map(|i| {
            let modulation = 1.0 + 0.35 * ((i as f64) * 2.1).sin();
            to.shift_to_phase(fpv.mean_absolute_drift() * modulation)
        })
        .collect()
}

/// Runs the Fig. 4 sweep over the given spacings (µm).
///
/// # Panics
///
/// Panics if `spacings_um` is empty.
#[must_use]
pub fn run(spacings_um: &[f64]) -> CrosstalkSweep {
    assert!(!spacings_um.is_empty(), "at least one spacing is required");
    let model = ThermalCrosstalkModel::default();
    let targets = block_targets();
    // One TED workspace serves the whole sweep: each spacing's solve reuses
    // the previous iteration's buffers instead of allocating fresh vectors.
    let mut workspace = TedWorkspace::new();
    let rows: Vec<CrosstalkRow> = spacings_um
        .iter()
        .map(|&spacing_um| {
            let spacing = Micrometers::new(spacing_um);
            let matrix = model
                .crosstalk_matrix(BLOCK_SIZE, spacing)
                .expect("valid spacing");
            let solver = TedSolver::with_table_ii_heater(&matrix).expect("valid matrix");
            let ted = solver
                .solve_with(&targets, &mut workspace)
                .expect("targets fit the block");
            let ted_power_mw = ted.total_power.value();
            let naive = solver.naive_power(&targets).expect("targets fit the block");
            CrosstalkRow {
                spacing_um,
                phase_crosstalk_ratio: model.phase_crosstalk_ratio(spacing),
                ted_power_mw,
                naive_power_mw: naive.value(),
            }
        })
        .collect();
    let optimal_spacing_um = rows
        .iter()
        .min_by(|a, b| {
            a.ted_power_mw
                .partial_cmp(&b.ted_power_mw)
                .expect("finite powers")
        })
        .expect("non-empty sweep")
        .spacing_um;
    CrosstalkSweep {
        rows,
        optimal_spacing_um,
    }
}

/// The spacing grid used for the paper-style figure (1–25 µm).
#[must_use]
pub fn paper_spacings() -> Vec<f64> {
    vec![
        1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crosstalk_ratio_decays_exponentially() {
        let sweep = run(&paper_spacings());
        let ratios: Vec<f64> = sweep.rows.iter().map(|r| r.phase_crosstalk_ratio).collect();
        for pair in ratios.windows(2) {
            assert!(pair[1] < pair[0]);
        }
        assert!(ratios[0] > 0.5);
        assert!(*ratios.last().unwrap() < 0.01);
    }

    #[test]
    fn ted_power_minimum_is_at_five_micrometers() {
        let sweep = run(&paper_spacings());
        assert!(
            (sweep.optimal_spacing_um - 5.0).abs() < 1.6,
            "TED optimum should be near 5 um, got {}",
            sweep.optimal_spacing_um
        );
    }

    #[test]
    fn ted_is_cheaper_than_naive_at_every_practical_spacing() {
        let sweep = run(&paper_spacings());
        for row in sweep.rows.iter().filter(|r| r.spacing_um >= 3.0) {
            assert!(
                row.ted_power_mw < row.naive_power_mw,
                "at {} um TED {} should beat naive {}",
                row.spacing_um,
                row.ted_power_mw,
                row.naive_power_mw
            );
        }
    }

    #[test]
    fn naive_power_grows_as_spacing_shrinks() {
        let sweep = run(&[2.0, 5.0, 10.0, 20.0]);
        let powers: Vec<f64> = sweep.rows.iter().map(|r| r.naive_power_mw).collect();
        for pair in powers.windows(2) {
            assert!(pair[1] < pair[0]);
        }
    }

    #[test]
    fn table_matches_row_count() {
        let sweep = run(&paper_spacings());
        assert_eq!(sweep.table().len(), paper_spacings().len());
        assert!(sweep.table().render().contains("TED power"));
    }

    #[test]
    #[should_panic(expected = "at least one spacing")]
    fn empty_sweep_panics() {
        let _ = run(&[]);
    }
}
