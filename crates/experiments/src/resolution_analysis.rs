//! E4 — §V.B resolution analysis.
//!
//! Sweeps the number of MRs per bank and the channel spacing to show where
//! the 16-bit operating point of the paper sits: with the optimized MR design
//! (Q ≈ 8000, 18 nm FSR) and wavelength reuse keeping separations above 1 nm,
//! a 15-MR bank still resolves 16 bits, whereas denser grids or lower-Q
//! devices (the DEAP-CNN / HolyLight situations) fall to a few bits.

use crosslight_photonics::crosstalk::bank_resolution_bits;
use crosslight_photonics::microdisk::MICRODISK_RESOLUTION_BITS;
use crosslight_photonics::mr::{CONVENTIONAL_Q_FACTOR, OPTIMIZED_FSR_NM, OPTIMIZED_Q_FACTOR};
use crosslight_photonics::units::Nanometers;

use crate::report::TextTable;

/// One row of the resolution sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolutionRow {
    /// MRs per bank.
    pub mrs_per_bank: usize,
    /// Resolution with the optimized design and wavelength reuse (bits).
    pub crosslight_bits: u32,
    /// Resolution with a conventional low-Q device at per-element channel
    /// density (the DEAP-CNN situation), in bits.
    pub dense_low_q_bits: u32,
}

/// The resolution analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionAnalysis {
    /// One row per bank size.
    pub rows: Vec<ResolutionRow>,
    /// Resolution of a single HolyLight microdisk (2 bits, from the device
    /// model).
    pub microdisk_bits: u32,
}

impl ResolutionAnalysis {
    /// Renders the analysis as a text table.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "MRs per bank",
            "CrossLight (bits)",
            "dense low-Q (bits)",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.mrs_per_bank.to_string(),
                row.crosslight_bits.to_string(),
                row.dense_low_q_bits.to_string(),
            ]);
        }
        table
    }

    /// The row for a given bank size, if present.
    #[must_use]
    pub fn row_for(&self, mrs_per_bank: usize) -> Option<&ResolutionRow> {
        self.rows.iter().find(|r| r.mrs_per_bank == mrs_per_bank)
    }
}

/// Runs the resolution sweep over bank sizes `2..=max_mrs`.
///
/// # Panics
///
/// Panics if `max_mrs < 2`.
#[must_use]
pub fn run(max_mrs: usize) -> ResolutionAnalysis {
    assert!(max_mrs >= 2, "sweep needs at least two bank sizes");
    let rows = (2..=max_mrs)
        .map(|mrs| {
            // CrossLight: wavelength reuse spreads the bank's channels over
            // the full FSR.
            let reuse_spacing = Nanometers::new(OPTIMIZED_FSR_NM / mrs as f64);
            let crosslight_bits = bank_resolution_bits(mrs, reuse_spacing, OPTIMIZED_Q_FACTOR, 16)
                .expect("valid sweep point");
            // Dense, low-Q situation: one wavelength per vector element forces
            // ~10× denser channels on a conventional device.
            let dense_spacing = Nanometers::new(OPTIMIZED_FSR_NM / (10.0 * mrs as f64));
            let dense_low_q_bits =
                bank_resolution_bits(mrs, dense_spacing, CONVENTIONAL_Q_FACTOR, 16)
                    .expect("valid sweep point");
            ResolutionRow {
                mrs_per_bank: mrs,
                crosslight_bits,
                dense_low_q_bits,
            }
        })
        .collect();
    ResolutionAnalysis {
        rows,
        microdisk_bits: MICRODISK_RESOLUTION_BITS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crosslight_operating_point_reaches_16_bits() {
        let analysis = run(20);
        let row = analysis.row_for(15).expect("15-MR row exists");
        assert_eq!(row.crosslight_bits, 16);
    }

    #[test]
    fn dense_low_q_banks_lose_most_of_their_resolution() {
        let analysis = run(20);
        let row = analysis.row_for(15).expect("15-MR row exists");
        assert!(
            row.dense_low_q_bits <= 6,
            "dense low-Q bank resolved {} bits",
            row.dense_low_q_bits
        );
        assert!(row.dense_low_q_bits < row.crosslight_bits);
    }

    #[test]
    fn resolution_is_monotone_non_increasing_in_bank_size() {
        let analysis = run(30);
        for pair in analysis.rows.windows(2) {
            assert!(pair[1].crosslight_bits <= pair[0].crosslight_bits);
        }
    }

    #[test]
    fn microdisk_resolution_matches_the_paper() {
        assert_eq!(run(4).microdisk_bits, 2);
    }

    #[test]
    fn table_renders_all_rows() {
        let analysis = run(10);
        assert_eq!(analysis.table().len(), 9);
    }
}
