//! Inter-channel (spectral) crosstalk and achievable resolution.
//!
//! When several MRs share a bus waveguide, the Lorentzian tail of each ring's
//! response overlaps its neighbours' channels.  The paper quantifies this with
//! Eqs. (8)–(10):
//!
//! * Eq. (8): `φ(i, j) = δ² / ((λᵢ − λⱼ)² + δ²)` — the noise content that the
//!   *j*-th MR contributes to the signal of the *i*-th MR, where `δ = λᵢ/(2Q)`.
//! * Eq. (9): `P_noise = Σᵢ φ(i, j) · P_in[i]` — total noise power picked up.
//! * Eq. (10): `Resolution = 1 / max|P_noise|` — for unit input power, the
//!   number of distinguishable levels; in bits this is `log2` of that value.
//!
//! With the paper's optimized MRs (Q ≈ 8000, FSR 18 nm) and wavelength reuse
//! keeping channel separations above 1 nm, 15 MRs per bank achieve 16-bit
//! resolution (§V.B); DEAP-CNN reaches only 4 bits and HolyLight 2 bits per
//! microdisk.

use crate::error::{PhotonicsError, Result};
use crate::units::Nanometers;
use crate::wdm::WdmGrid;

/// Inter-channel crosstalk analysis for a bank of MRs on a shared bus.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelCrosstalkAnalysis {
    channels: Vec<Nanometers>,
    q_factor: f64,
}

impl ChannelCrosstalkAnalysis {
    /// Creates an analysis for explicit channel wavelengths and a shared Q
    /// factor.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if fewer than one channel
    /// is supplied or the Q factor is not strictly positive.
    pub fn new(channels: Vec<Nanometers>, q_factor: f64) -> Result<Self> {
        if channels.is_empty() {
            return Err(PhotonicsError::InvalidParameter {
                name: "channels",
                reason: "crosstalk analysis needs at least one channel".into(),
            });
        }
        if q_factor <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "q_factor",
                reason: format!("Q factor must be positive, got {q_factor}"),
            });
        }
        Ok(Self { channels, q_factor })
    }

    /// Creates an analysis from a WDM grid.
    ///
    /// # Errors
    ///
    /// Same as [`ChannelCrosstalkAnalysis::new`].
    pub fn from_grid(grid: &WdmGrid, q_factor: f64) -> Result<Self> {
        Self::new(grid.channels().to_vec(), q_factor)
    }

    /// Returns the number of channels in the analysis.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Eq. (8): noise coupling coefficient from channel `j` into channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[must_use]
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.channels.len() && j < self.channels.len(),
            "channel index out of bounds"
        );
        if i == j {
            return 1.0;
        }
        let lambda_i = self.channels[i].value();
        let lambda_j = self.channels[j].value();
        let delta = lambda_i / (2.0 * self.q_factor);
        let detuning = lambda_i - lambda_j;
        delta * delta / (detuning * detuning + delta * delta)
    }

    /// Eq. (9): total noise power in channel `i` for unit input power per
    /// channel.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn noise_power(&self, i: usize) -> f64 {
        (0..self.channels.len())
            .filter(|&j| j != i)
            .map(|j| self.coupling(i, j))
            .sum()
    }

    /// The worst (largest) noise power over all channels.
    #[must_use]
    pub fn worst_noise_power(&self) -> f64 {
        (0..self.channels.len())
            .map(|i| self.noise_power(i))
            .fold(0.0, f64::max)
    }

    /// Precomputes the full Eq. (8) coupling matrix so repeated noise-power
    /// queries read coefficients instead of re-deriving Lorentzian tails.
    ///
    /// Every entry is produced by [`ChannelCrosstalkAnalysis::coupling`], so
    /// matrix-backed results are bit-identical to the per-pair path.
    #[must_use]
    pub fn coupling_matrix(&self) -> CouplingMatrix {
        let n = self.channels.len();
        let mut entries = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                entries.push(self.coupling(i, j));
            }
        }
        CouplingMatrix { entries, n }
    }

    /// Eq. (10): number of distinguishable signal levels, `1 / max|P_noise|`.
    ///
    /// Returns `f64::INFINITY` for a single channel (no crosstalk at all).
    #[must_use]
    pub fn resolution_levels(&self) -> f64 {
        resolution_levels_from_noise(self.worst_noise_power())
    }

    /// Achievable resolution in bits, following the paper's reading of
    /// Eq. (10): the value `1 / max|P_noise|` is reported directly as the bit
    /// resolution (clamped to at least one bit and capped at `cap_bits`).
    ///
    /// Under this reading the paper's own numbers are reproduced: the
    /// optimized CrossLight bank (Q ≈ 8000, >1 nm separations, 15 MRs) clears
    /// 16 bits comfortably, DEAP-CNN's dense low-Q channels land near 4 bits,
    /// and a microdisk's broad response near 2 bits.  The paper treats 16
    /// bits as the ceiling of interest, so callers usually pass
    /// `cap_bits = 16`.
    #[must_use]
    pub fn resolution_bits(&self, cap_bits: u32) -> u32 {
        resolution_bits_from_levels(self.resolution_levels(), cap_bits)
    }
}

/// Precomputed Eq. (8) coupling coefficients of one channel bank.
///
/// Row `i` holds `coupling(i, j)` for every `j`, in channel order.  The
/// matrix is not exactly symmetric — `δ` in Eq. (8) depends on the *victim*
/// wavelength `λᵢ` — but it is symmetric in magnitude ordering: for every
/// victim, closer aggressors always couple more strongly.
///
/// Produced by [`ChannelCrosstalkAnalysis::coupling_matrix`].  All
/// aggregation methods reproduce the per-pair implementation bit for bit
/// (same coefficients, same summation order); they only skip the repeated
/// Lorentzian evaluations.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingMatrix {
    entries: Vec<f64>,
    n: usize,
}

impl CouplingMatrix {
    /// Returns the number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.n
    }

    /// Precomputed Eq. (8) coefficient from channel `j` into channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[must_use]
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "channel index out of bounds");
        self.entries[i * self.n + j]
    }

    /// Eq. (9) noise power in channel `i`, read from the precomputed row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn noise_power(&self, i: usize) -> f64 {
        assert!(i < self.n, "channel index out of bounds");
        let row = &self.entries[i * self.n..(i + 1) * self.n];
        let mut total = 0.0;
        for (j, &coupling) in row.iter().enumerate() {
            if j != i {
                total += coupling;
            }
        }
        total
    }

    /// Writes the per-channel noise powers into `out` (resized to the channel
    /// count), the workspace variant of calling
    /// [`CouplingMatrix::noise_power`] per channel.  Reusing `out` across
    /// calls makes repeated bank analyses allocation-free.
    pub fn noise_power_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.n).map(|i| self.noise_power(i)));
    }

    /// The worst (largest) per-channel noise power.
    #[must_use]
    pub fn worst_noise_power(&self) -> f64 {
        (0..self.n).map(|i| self.noise_power(i)).fold(0.0, f64::max)
    }

    /// Eq. (10) distinguishable levels; see
    /// [`ChannelCrosstalkAnalysis::resolution_levels`].
    #[must_use]
    pub fn resolution_levels(&self) -> f64 {
        resolution_levels_from_noise(self.worst_noise_power())
    }

    /// Achievable resolution in bits; see
    /// [`ChannelCrosstalkAnalysis::resolution_bits`].
    #[must_use]
    pub fn resolution_bits(&self, cap_bits: u32) -> u32 {
        resolution_bits_from_levels(self.resolution_levels(), cap_bits)
    }
}

fn resolution_levels_from_noise(noise: f64) -> f64 {
    if noise <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / noise
    }
}

fn resolution_bits_from_levels(levels: f64, cap_bits: u32) -> u32 {
    if levels.is_infinite() {
        return cap_bits;
    }
    let bits = levels.floor();
    if bits < 1.0 {
        1
    } else {
        (bits as u32).min(cap_bits)
    }
}

/// Resolution achievable by a uniform bank: `mr_count` channels equally spaced
/// by `spacing`, all with quality factor `q_factor`.
///
/// This is the function the CrossLight resolution analysis (§V.B) sweeps, and
/// it sits on the architecture simulator's per-configuration path, so it is
/// allocation-free: the uniform channel grid is generated on the fly instead
/// of materializing a wavelength vector and an analysis object.  Results are
/// bit-identical to [`reference::bank_resolution_bits_naive`] (the original
/// implementation), which the property tests enforce with exact equality.
///
/// # Errors
///
/// Returns [`PhotonicsError::InvalidParameter`] for an empty bank, a
/// non-positive spacing, or a non-positive Q factor.
pub fn bank_resolution_bits(
    mr_count: usize,
    spacing: Nanometers,
    q_factor: f64,
    cap_bits: u32,
) -> Result<u32> {
    if mr_count == 0 {
        return Err(PhotonicsError::InvalidParameter {
            name: "mr_count",
            reason: "bank must contain at least one MR".into(),
        });
    }
    if spacing.value() <= 0.0 {
        return Err(PhotonicsError::InvalidParameter {
            name: "spacing",
            reason: format!("channel spacing must be positive, got {spacing}"),
        });
    }
    if q_factor <= 0.0 {
        return Err(PhotonicsError::InvalidParameter {
            name: "q_factor",
            reason: format!("Q factor must be positive, got {q_factor}"),
        });
    }
    // The same arithmetic as building the channel vector explicitly:
    // λₖ = 1550 + spacing·k (multiply first, then add, exactly as
    // `Nanometers::new(1550.0) + spacing * k as f64` evaluates).
    let spacing_nm = spacing.value();
    let lambda = |k: usize| 1550.0 + spacing_nm * k as f64;
    let mut worst = 0.0f64;
    for i in 0..mr_count {
        let lambda_i = lambda(i);
        let delta = lambda_i / (2.0 * q_factor);
        let delta_sq = delta * delta;
        let mut noise = 0.0;
        for j in 0..mr_count {
            if j == i {
                continue;
            }
            let detuning = lambda_i - lambda(j);
            noise += delta_sq / (detuning * detuning + delta_sq);
        }
        worst = worst.max(noise);
    }
    Ok(resolution_bits_from_levels(
        resolution_levels_from_noise(worst),
        cap_bits,
    ))
}

/// Reference implementations preserved for exact-equality testing (the same
/// pattern as `crosslight_neural::tensor::reference`): the optimized paths
/// above must reproduce these bit for bit.
pub mod reference {
    use super::{ChannelCrosstalkAnalysis, Nanometers, Result};

    /// The original [`super::bank_resolution_bits`]: materializes the uniform
    /// channel grid and a [`ChannelCrosstalkAnalysis`], then walks every
    /// channel pair.
    ///
    /// # Errors
    ///
    /// Same as [`super::bank_resolution_bits`].
    pub fn bank_resolution_bits_naive(
        mr_count: usize,
        spacing: Nanometers,
        q_factor: f64,
        cap_bits: u32,
    ) -> Result<u32> {
        if mr_count == 0 {
            return Err(super::PhotonicsError::InvalidParameter {
                name: "mr_count",
                reason: "bank must contain at least one MR".into(),
            });
        }
        if spacing.value() <= 0.0 {
            return Err(super::PhotonicsError::InvalidParameter {
                name: "spacing",
                reason: format!("channel spacing must be positive, got {spacing}"),
            });
        }
        let channels: Vec<Nanometers> = (0..mr_count)
            .map(|i| Nanometers::new(1550.0) + spacing * i as f64)
            .collect();
        let analysis = ChannelCrosstalkAnalysis::new(channels, q_factor)?;
        Ok(analysis.resolution_bits(cap_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupling_is_one_on_diagonal_and_small_off_diagonal() {
        let grid = WdmGrid::c_band_grid(15, Nanometers::new(1.2)).expect("fits");
        let analysis = ChannelCrosstalkAnalysis::from_grid(&grid, 8000.0).expect("valid");
        assert!((analysis.coupling(3, 3) - 1.0).abs() < 1e-12);
        let adjacent = analysis.coupling(3, 4);
        let distant = analysis.coupling(0, 14);
        assert!(adjacent < 0.01, "adjacent coupling {adjacent}");
        assert!(distant < adjacent);
    }

    #[test]
    fn paper_operating_point_achieves_16_bits() {
        // §V.B: Q ≈ 8000, FSR 18 nm, >1 nm separations, 15 MRs per bank → 16 bits.
        let bits = bank_resolution_bits(15, Nanometers::new(1.2), 8000.0, 16).expect("valid");
        assert_eq!(bits, 16);
    }

    #[test]
    fn low_q_and_tight_spacing_degrade_resolution() {
        // DEAP-CNN-like conditions: low Q and dense channels → few bits.
        let tight = bank_resolution_bits(15, Nanometers::new(0.3), 2000.0, 16).expect("valid");
        let paper = bank_resolution_bits(15, Nanometers::new(1.2), 8000.0, 16).expect("valid");
        assert!(tight < paper);
        assert!(tight <= 8, "tight-spacing resolution was {tight} bits");
    }

    #[test]
    fn resolution_decreases_with_more_mrs() {
        let few = bank_resolution_bits(5, Nanometers::new(0.4), 8000.0, 24).expect("valid");
        let many = bank_resolution_bits(30, Nanometers::new(0.4), 8000.0, 24).expect("valid");
        assert!(many <= few);
    }

    #[test]
    fn single_channel_is_capped_not_infinite() {
        let bits = bank_resolution_bits(1, Nanometers::new(1.0), 8000.0, 16).expect("valid");
        assert_eq!(bits, 16);
        let analysis =
            ChannelCrosstalkAnalysis::new(vec![Nanometers::new(1550.0)], 8000.0).expect("valid");
        assert!(analysis.resolution_levels().is_infinite());
    }

    #[test]
    fn noise_power_is_worst_for_middle_channels() {
        let grid = WdmGrid::c_band_grid(15, Nanometers::new(1.2)).expect("fits");
        let analysis = ChannelCrosstalkAnalysis::from_grid(&grid, 8000.0).expect("valid");
        let edge = analysis.noise_power(0);
        let middle = analysis.noise_power(7);
        assert!(middle > edge);
        assert!(analysis.worst_noise_power() >= middle);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(ChannelCrosstalkAnalysis::new(vec![], 8000.0).is_err());
        assert!(ChannelCrosstalkAnalysis::new(vec![Nanometers::new(1550.0)], 0.0).is_err());
        assert!(bank_resolution_bits(0, Nanometers::new(1.0), 8000.0, 16).is_err());
        assert!(bank_resolution_bits(5, Nanometers::new(0.0), 8000.0, 16).is_err());
        assert!(bank_resolution_bits(5, Nanometers::new(1.0), -1.0, 16).is_err());
    }

    #[test]
    fn resolution_bits_never_below_one() {
        // Pathologically dense grid still reports at least 1 bit.
        let bits = bank_resolution_bits(30, Nanometers::new(0.01), 500.0, 16).expect("valid");
        assert!(bits >= 1);
    }

    #[test]
    fn matrix_reproduces_the_per_pair_path_exactly() {
        let grid = WdmGrid::c_band_grid(15, Nanometers::new(1.2)).expect("fits");
        let analysis = ChannelCrosstalkAnalysis::from_grid(&grid, 8000.0).expect("valid");
        let matrix = analysis.coupling_matrix();
        assert_eq!(matrix.channel_count(), analysis.channel_count());
        let mut noise = Vec::new();
        matrix.noise_power_into(&mut noise);
        for (i, &noise_i) in noise.iter().enumerate() {
            for j in 0..analysis.channel_count() {
                assert_eq!(matrix.coupling(i, j), analysis.coupling(i, j));
            }
            assert_eq!(matrix.noise_power(i), analysis.noise_power(i));
            assert_eq!(noise_i, analysis.noise_power(i));
        }
        assert_eq!(matrix.worst_noise_power(), analysis.worst_noise_power());
        assert_eq!(matrix.resolution_levels(), analysis.resolution_levels());
        assert_eq!(matrix.resolution_bits(16), analysis.resolution_bits(16));
    }

    #[test]
    fn noise_power_into_reuses_its_buffer() {
        let grid = WdmGrid::c_band_grid(8, Nanometers::new(1.0)).expect("fits");
        let matrix = ChannelCrosstalkAnalysis::from_grid(&grid, 8000.0)
            .expect("valid")
            .coupling_matrix();
        let mut noise = Vec::with_capacity(8);
        matrix.noise_power_into(&mut noise);
        assert_eq!(noise.len(), 8);
        let first = noise.clone();
        matrix.noise_power_into(&mut noise);
        assert_eq!(noise, first);
        assert!(noise.capacity() >= 8);
    }

    #[test]
    fn allocation_free_bank_resolution_matches_the_reference() {
        for &(count, spacing, q) in &[
            (1usize, 1.0, 8000.0),
            (5, 0.4, 8000.0),
            (15, 1.2, 8000.0),
            (15, 0.3, 2000.0),
            (30, 0.01, 500.0),
        ] {
            let fast = bank_resolution_bits(count, Nanometers::new(spacing), q, 16).unwrap();
            let naive =
                reference::bank_resolution_bits_naive(count, Nanometers::new(spacing), q, 16)
                    .unwrap();
            assert_eq!(fast, naive, "count={count} spacing={spacing} q={q}");
        }
        assert!(
            reference::bank_resolution_bits_naive(0, Nanometers::new(1.0), 8000.0, 16).is_err()
        );
    }
}
