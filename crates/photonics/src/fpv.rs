//! Fabrication-process-variation (FPV) model.
//!
//! CMOS-compatible silicon-photonic fabrication introduces die- and
//! wafer-level variations in waveguide width and thickness, which shift MR
//! resonant wavelengths by several nanometres (the paper cites up to ~9 nm
//! within a wafer).  The paper's device-level contribution (§IV.A) is a
//! fabricated design-space exploration showing that a 400 nm input / 800 nm
//! ring waveguide design cuts the FPV-induced drift from ~7.1 nm to ~2.1 nm —
//! a 70% reduction — which directly lowers the tuning power needed to
//! compensate.
//!
//! The authors' measurements come from an EBeam-fabricated chip; here the chip
//! is replaced by an analytical sensitivity model (see `DESIGN.md`,
//! substitution table): resonance drift is the product of a geometry-dependent
//! sensitivity (nm of drift per nm of width error) and a process corner
//! describing the width/thickness error distribution.  The sensitivities are
//! calibrated so the two designs reproduce the paper's 7.1 nm / 2.1 nm values
//! at the default process corner.

use rand::Rng;

use crate::mr::MrGeometry;
use crate::units::Nanometers;

/// Drift sensitivity (nm of resonance shift per nm of waveguide-width error)
/// of the conventional single-mode design.
///
/// Calibrated so a 3σ width error of the default process corner produces the
/// paper's 7.1 nm worst-case drift.
pub const CONVENTIONAL_SENSITIVITY: f64 = 7.1 / 15.0;

/// Drift sensitivity of the width-optimized (400/800 nm) design.
///
/// Calibrated so the same process corner produces the paper's 2.1 nm
/// worst-case drift (a 70% reduction).
pub const OPTIMIZED_SENSITIVITY: f64 = 2.1 / 15.0;

/// A fabrication process corner: the statistical distribution of geometry
/// errors across a wafer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessCorner {
    /// Standard deviation of the waveguide-width error.
    pub width_sigma: Nanometers,
    /// Standard deviation of the waveguide-thickness error (folded into the
    /// effective width error with a 0.5 weight, since thickness variations
    /// perturb the effective index less strongly than width variations).
    pub thickness_sigma: Nanometers,
}

impl ProcessCorner {
    /// The default process corner used throughout the reproduction:
    /// 5 nm width σ and 2 nm thickness σ, representative of 193 nm immersion /
    /// EBeam silicon-photonic processes.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            width_sigma: Nanometers::new(5.0),
            thickness_sigma: Nanometers::new(2.0),
        }
    }

    /// A tighter, well-controlled process corner.
    #[must_use]
    pub fn tight() -> Self {
        Self {
            width_sigma: Nanometers::new(2.5),
            thickness_sigma: Nanometers::new(1.0),
        }
    }

    /// Effective 1σ geometry error combining width and (de-weighted)
    /// thickness contributions in quadrature.
    #[must_use]
    pub fn effective_sigma(&self) -> Nanometers {
        let w = self.width_sigma.value();
        let t = 0.5 * self.thickness_sigma.value();
        Nanometers::new((w * w + t * t).sqrt())
    }

    /// Worst-case (3σ) geometry error.
    #[must_use]
    pub fn worst_case_error(&self) -> Nanometers {
        self.effective_sigma() * 3.0
    }
}

impl Default for ProcessCorner {
    fn default() -> Self {
        Self::typical()
    }
}

/// FPV model for a particular MR geometry under a particular process corner.
///
/// # Example
///
/// ```
/// use crosslight_photonics::fpv::{FpvModel, ProcessCorner};
/// use crosslight_photonics::mr::MrGeometry;
///
/// let conventional = FpvModel::new(MrGeometry::conventional(), ProcessCorner::typical());
/// let optimized = FpvModel::new(MrGeometry::optimized(), ProcessCorner::typical());
/// // The optimized design is markedly less sensitive (paper: 7.1 → 2.1 nm).
/// assert!(optimized.worst_case_drift().value() < 0.4 * conventional.worst_case_drift().value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpvModel {
    geometry: MrGeometry,
    corner: ProcessCorner,
    sensitivity: f64,
}

impl FpvModel {
    /// Creates an FPV model, inferring the drift sensitivity from the
    /// geometry (width-optimized designs get the reduced sensitivity).
    #[must_use]
    pub fn new(geometry: MrGeometry, corner: ProcessCorner) -> Self {
        let sensitivity = Self::sensitivity_for(&geometry);
        Self {
            geometry,
            corner,
            sensitivity,
        }
    }

    /// Drift sensitivity (nm drift per nm of effective geometry error) for a
    /// geometry.
    ///
    /// Wider ring waveguides confine the optical mode more strongly, so the
    /// effective index — and therefore the resonance — moves less per
    /// nanometre of edge error.  The model interpolates between the calibrated
    /// conventional and optimized sensitivities using the ring width.  The
    /// intended phase-matched penalty: designs whose bus and ring widths are
    /// within 50 nm of each other respond to correlated width errors in both
    /// waveguides at once, so they carry the full interpolated sensitivity,
    /// while width-mismatched designs (partially decorrelated edge errors)
    /// earn an 8% relief factor.
    #[must_use]
    pub fn sensitivity_for(geometry: &MrGeometry) -> f64 {
        if geometry.is_width_optimized() {
            return OPTIMIZED_SENSITIVITY;
        }
        let ring_width = geometry.ring_waveguide_width.value();
        // Interpolate: 500 nm → conventional sensitivity, 800 nm → optimized.
        let t = ((ring_width - 500.0) / 300.0).clamp(0.0, 1.0);
        let base = CONVENTIONAL_SENSITIVITY * (1.0 - t) + OPTIMIZED_SENSITIVITY * t;
        let matched_widths =
            (geometry.ring_waveguide_width.value() - geometry.input_waveguide_width.value()).abs()
                < 50.0;
        if matched_widths {
            base
        } else {
            base * 0.92
        }
    }

    /// Returns the geometry this model describes.
    #[must_use]
    pub fn geometry(&self) -> &MrGeometry {
        &self.geometry
    }

    /// Returns the process corner.
    #[must_use]
    pub fn corner(&self) -> &ProcessCorner {
        &self.corner
    }

    /// Returns the drift sensitivity (nm/nm).
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// Standard deviation of the FPV-induced resonance drift.
    #[must_use]
    pub fn drift_sigma(&self) -> Nanometers {
        self.corner.effective_sigma() * self.sensitivity
    }

    /// Worst-case (3σ) FPV-induced resonance drift — the number the paper
    /// quotes (7.1 nm conventional, 2.1 nm optimized).
    #[must_use]
    pub fn worst_case_drift(&self) -> Nanometers {
        self.corner.worst_case_error() * self.sensitivity
    }

    /// Mean absolute drift of the distribution (half-normal mean, ≈0.7979σ),
    /// used by the tuning-power model for the *average* compensation cost.
    #[must_use]
    pub fn mean_absolute_drift(&self) -> Nanometers {
        self.drift_sigma() * (2.0 / std::f64::consts::PI).sqrt()
    }

    /// Samples one FPV-induced resonance drift (signed, in nm).
    ///
    /// Uses a Box–Muller transform so the only external dependency is the
    /// `rand` RNG itself.
    pub fn sample_drift<R: Rng + ?Sized>(&self, rng: &mut R) -> Nanometers {
        let sigma = self.drift_sigma().value();
        // Box–Muller: u1 in (0, 1], u2 in [0, 1).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        Nanometers::new(z * sigma)
    }

    /// Samples `count` drifts and returns summary statistics, used by the
    /// device design-space-exploration experiment (E1).
    ///
    /// Allocates one sample buffer per call; repeated studies should hold a
    /// [`DriftWorkspace`] and use [`FpvModel::monte_carlo_with`] instead.
    pub fn monte_carlo<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> DriftStatistics {
        self.monte_carlo_with(count, rng, &mut DriftWorkspace::new())
    }

    /// Allocation-free [`FpvModel::monte_carlo`]: samples into the
    /// workspace's reusable buffer, so steady-state sweeps (many geometries ×
    /// process corners) never touch the heap.  Statistically identical to
    /// `monte_carlo` — same RNG stream, same statistics, bit for bit.
    pub fn monte_carlo_with<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        workspace: &mut DriftWorkspace,
    ) -> DriftStatistics {
        workspace.samples.clear();
        workspace
            .samples
            .extend((0..count).map(|_| self.sample_drift(rng).value()));
        DriftStatistics::from_samples_mut(&mut workspace.samples)
    }
}

/// Reusable sample buffer for [`FpvModel::monte_carlo_with`].
#[derive(Debug, Default, Clone)]
pub struct DriftWorkspace {
    samples: Vec<f64>,
}

impl DriftWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Summary statistics of a set of sampled resonance drifts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftStatistics {
    /// Number of samples.
    pub count: usize,
    /// Mean of the absolute drift.
    pub mean_abs: Nanometers,
    /// Standard deviation of the signed drift.
    pub sigma: Nanometers,
    /// Maximum absolute drift observed.
    pub max_abs: Nanometers,
    /// 99.7th percentile (≈3σ) of the absolute drift.
    pub p997_abs: Nanometers,
}

impl DriftStatistics {
    /// Computes statistics from raw signed drift samples (in nm).
    ///
    /// Copies the samples into a scratch buffer; callers that already own a
    /// mutable buffer should use [`DriftStatistics::from_samples_mut`].
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        Self::from_samples_mut(&mut samples.to_vec())
    }

    /// In-place variant of [`DriftStatistics::from_samples`]: consumes the
    /// buffer's contents (entries are replaced by their absolute values and
    /// partially reordered) so the 99.7th percentile comes from an O(n)
    /// `select_nth_unstable` pass instead of a full sort.  The statistics are
    /// bit-identical to the sorted reference implementation
    /// ([`reference::drift_statistics_sorted`]).
    #[must_use]
    pub fn from_samples_mut(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self {
                count: 0,
                mean_abs: Nanometers::new(0.0),
                sigma: Nanometers::new(0.0),
                max_abs: Nanometers::new(0.0),
                p997_abs: Nanometers::new(0.0),
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let mean_abs = samples.iter().map(|x| x.abs()).sum::<f64>() / n;
        let max_abs = samples.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
        for x in samples.iter_mut() {
            *x = x.abs();
        }
        let idx = ((samples.len() as f64) * 0.997).floor() as usize;
        let idx = idx.min(samples.len() - 1);
        // Selecting the idx-th element leaves exactly the value a full sort
        // would place there, so p99.7 matches the sorted path bit for bit.
        let (_, &mut p997, _) = samples.select_nth_unstable_by(idx, f64::total_cmp);
        Self {
            count: samples.len(),
            mean_abs: Nanometers::new(mean_abs),
            sigma: Nanometers::new(var.sqrt()),
            max_abs: Nanometers::new(max_abs),
            p997_abs: Nanometers::new(p997),
        }
    }
}

/// Reference implementations preserved for exact-equality testing (the same
/// pattern as `crosslight_neural::tensor::reference`).
pub mod reference {
    use super::{DriftStatistics, Nanometers};

    /// The original [`DriftStatistics::from_samples`]: allocates an absolute-
    /// value vector and fully sorts it to read the 99.7th percentile.
    #[must_use]
    pub fn drift_statistics_sorted(samples: &[f64]) -> DriftStatistics {
        if samples.is_empty() {
            return DriftStatistics {
                count: 0,
                mean_abs: Nanometers::new(0.0),
                sigma: Nanometers::new(0.0),
                max_abs: Nanometers::new(0.0),
                p997_abs: Nanometers::new(0.0),
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let mean_abs = samples.iter().map(|x| x.abs()).sum::<f64>() / n;
        let max_abs = samples.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
        let mut abs: Vec<f64> = samples.iter().map(|x| x.abs()).collect();
        abs.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let idx = ((abs.len() as f64) * 0.997).floor() as usize;
        let p997 = abs[idx.min(abs.len() - 1)];
        DriftStatistics {
            count: samples.len(),
            mean_abs: Nanometers::new(mean_abs),
            sigma: Nanometers::new(var.sqrt()),
            max_abs: Nanometers::new(max_abs),
            p997_abs: Nanometers::new(p997),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn calibration_reproduces_paper_drifts() {
        let conventional = FpvModel::new(MrGeometry::conventional(), ProcessCorner::typical());
        let optimized = FpvModel::new(MrGeometry::optimized(), ProcessCorner::typical());
        let conv_drift = conventional.worst_case_drift().value();
        let opt_drift = optimized.worst_case_drift().value();
        // Paper: 7.1 nm → 2.1 nm (±10% tolerance on the calibration).
        assert!(
            (conv_drift - 7.1).abs() / 7.1 < 0.1,
            "conventional {conv_drift}"
        );
        assert!((opt_drift - 2.1).abs() / 2.1 < 0.1, "optimized {opt_drift}");
        // 70% reduction.
        let reduction = 1.0 - opt_drift / conv_drift;
        assert!((reduction - 0.70).abs() < 0.05, "reduction {reduction}");
    }

    #[test]
    fn optimized_sensitivity_is_lower() {
        const { assert!(OPTIMIZED_SENSITIVITY < CONVENTIONAL_SENSITIVITY) };
        assert!(
            FpvModel::sensitivity_for(&MrGeometry::optimized())
                < FpvModel::sensitivity_for(&MrGeometry::conventional())
        );
    }

    #[test]
    fn intermediate_widths_interpolate() {
        let mut geometry = MrGeometry::conventional();
        geometry.ring_waveguide_width = Nanometers::new(650.0);
        let s = FpvModel::sensitivity_for(&geometry);
        assert!(s < CONVENTIONAL_SENSITIVITY);
        assert!(s > OPTIMIZED_SENSITIVITY);
    }

    #[test]
    fn tighter_process_reduces_drift() {
        let loose = FpvModel::new(MrGeometry::optimized(), ProcessCorner::typical());
        let tight = FpvModel::new(MrGeometry::optimized(), ProcessCorner::tight());
        assert!(tight.worst_case_drift() < loose.worst_case_drift());
    }

    #[test]
    fn monte_carlo_matches_analytic_sigma() {
        let model = FpvModel::new(MrGeometry::conventional(), ProcessCorner::typical());
        let mut rng = StdRng::seed_from_u64(42);
        let stats = model.monte_carlo(20_000, &mut rng);
        assert_eq!(stats.count, 20_000);
        let rel_err =
            (stats.sigma.value() - model.drift_sigma().value()).abs() / model.drift_sigma().value();
        assert!(rel_err < 0.05, "sigma relative error {rel_err}");
        // Worst observed drift should be in the vicinity of the 3σ figure.
        assert!(stats.max_abs.value() > model.worst_case_drift().value() * 0.8);
        assert!(stats.p997_abs <= stats.max_abs);
    }

    #[test]
    fn mean_absolute_drift_is_half_normal_mean() {
        let model = FpvModel::new(MrGeometry::optimized(), ProcessCorner::typical());
        let expected = model.drift_sigma().value() * (2.0 / std::f64::consts::PI).sqrt();
        assert!((model.mean_absolute_drift().value() - expected).abs() < 1e-12);
    }

    #[test]
    fn drift_statistics_handle_empty_input() {
        let stats = DriftStatistics::from_samples(&[]);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.max_abs.value(), 0.0);
        assert_eq!(stats, reference::drift_statistics_sorted(&[]));
        assert_eq!(stats, DriftStatistics::from_samples_mut(&mut []));
    }

    #[test]
    fn selection_based_statistics_match_the_sorted_reference() {
        let samples: Vec<f64> = (0..1500)
            .map(|i| ((i as f64) * 0.7).sin() * 3.0 - 1.0)
            .collect();
        let fast = DriftStatistics::from_samples(&samples);
        let sorted = reference::drift_statistics_sorted(&samples);
        assert_eq!(fast, sorted);
        let mut buffer = samples.clone();
        assert_eq!(DriftStatistics::from_samples_mut(&mut buffer), sorted);
    }

    #[test]
    fn workspace_monte_carlo_is_bit_identical_and_reuses_its_buffer() {
        let model = FpvModel::new(MrGeometry::conventional(), ProcessCorner::typical());
        let mut fresh_rng = StdRng::seed_from_u64(42);
        let fresh = model.monte_carlo(5_000, &mut fresh_rng);
        let mut workspace = DriftWorkspace::new();
        let mut ws_rng = StdRng::seed_from_u64(42);
        let with_ws = model.monte_carlo_with(5_000, &mut ws_rng, &mut workspace);
        assert_eq!(fresh, with_ws);
        let capacity = workspace.samples.capacity();
        let mut ws_rng = StdRng::seed_from_u64(42);
        let again = model.monte_carlo_with(5_000, &mut ws_rng, &mut workspace);
        assert_eq!(again, with_ws);
        assert_eq!(workspace.samples.capacity(), capacity);
    }

    #[test]
    fn mismatched_widths_earn_the_decorrelation_relief() {
        let mut matched = MrGeometry::conventional();
        matched.input_waveguide_width = matched.ring_waveguide_width;
        let mut mismatched = matched;
        mismatched.input_waveguide_width =
            Nanometers::new(matched.ring_waveguide_width.value() - 120.0);
        let full = FpvModel::sensitivity_for(&matched);
        let relieved = FpvModel::sensitivity_for(&mismatched);
        assert!((relieved - full * 0.92).abs() < 1e-12);
    }
}
