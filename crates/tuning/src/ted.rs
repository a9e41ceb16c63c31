//! Thermal Eigenmode Decomposition (TED) — collective crosstalk-aware tuning.
//!
//! The paper adapts TED from Milanizadeh et al. (JLT 2019): instead of letting
//! every microheater fight its neighbours' leaked heat independently, the
//! whole bank is tuned *collectively*.  The thermal-crosstalk matrix `C` maps
//! applied heater phases `p` to the phases `C·p` the MRs actually experience,
//! so the heater setting that realises the desired compensation `φ` is the
//! solution of `C·p = φ` — computed here in the eigenbasis of `C`.
//!
//! Because microheaters can only *add* phase (they heat, never cool), any
//! negative component of the raw solution is handled by raising the whole
//! bank by a common-mode offset, which is the same trick the TED literature
//! uses.  Two regimes emerge, and together they produce the U-shaped
//! power-vs-spacing curve of the paper's Fig. 4:
//!
//! * **Dense banks** (strong crosstalk): the common-mode part of the target is
//!   cheap — heat leaking from neighbours does useful work — but differential
//!   targets excite the small eigenvalues of `C` and need large offsets, so
//!   power climbs as spacing shrinks further.
//! * **Sparse banks** (weak crosstalk): `C → I`, no help from neighbours, and
//!   the power settles at the naive per-MR sum.
//!
//! The *naive* (non-TED) reference applies every target locally and must then
//! additionally burn power to counteract the uncorrected neighbour leakage,
//! which is why the dotted "without TED" line in Fig. 4 sits notably higher.

use crosslight_photonics::thermal::{CrosstalkMatrix, Microheater};
use crosslight_photonics::units::{MilliWatts, Radians};

use crate::eigen::{jacobi_eigen, EigenDecomposition, SymmetricMatrix};
use crate::error::{Result, TuningError};

/// Floor applied to eigenvalues when inverting the crosstalk matrix, so that
/// nearly singular (extremely dense) banks produce large-but-finite powers
/// instead of dividing by zero.
const EIGENVALUE_FLOOR: f64 = 1e-6;

/// A TED solver for one MR bank.
#[derive(Debug, Clone, PartialEq)]
pub struct TedSolver {
    matrix: SymmetricMatrix,
    decomposition: EigenDecomposition,
    heater: Microheater,
}

/// The heater settings TED computes for a bank, plus their power cost.
#[derive(Debug, Clone, PartialEq)]
pub struct TedSolution {
    /// Phase applied by each heater (all non-negative).
    pub heater_phases: Vec<Radians>,
    /// Common-mode offset that was added to keep all heater phases
    /// non-negative.
    pub common_mode_offset: Radians,
    /// Per-heater steady-state power.
    pub per_heater_power: Vec<MilliWatts>,
    /// Total steady-state power of the bank.
    pub total_power: MilliWatts,
}

/// Reusable scratch buffers for [`TedSolver::solve_with`].
///
/// A single workspace serves any bank size: every buffer (including the
/// vectors inside the embedded [`TedSolution`]) is cleared and refilled per
/// solve, so iteration loops — sweeps over spacings, repeated solves in the
/// benches — perform zero heap allocations after the first call.
#[derive(Debug, Clone, Default)]
pub struct TedWorkspace {
    targets: Vec<f64>,
    ones: Vec<f64>,
    p0: Vec<f64>,
    w: Vec<f64>,
    coefficients: Vec<f64>,
    solution: Option<TedSolution>,
}

impl TedWorkspace {
    /// Creates an empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The solution of the last successful [`TedSolver::solve_with`] call.
    #[must_use]
    pub fn solution(&self) -> Option<&TedSolution> {
        self.solution.as_ref()
    }

    /// Consumes the workspace, returning the last solution (if any).
    #[must_use]
    pub fn into_solution(self) -> Option<TedSolution> {
        self.solution
    }
}

impl TedSolver {
    /// Builds a solver from a thermal-crosstalk matrix and heater
    /// characterisation.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::InvalidMatrix`] if the matrix cannot be
    /// decomposed.
    pub fn new(crosstalk: &CrosstalkMatrix, heater: Microheater) -> Result<Self> {
        let matrix = SymmetricMatrix::new(crosstalk.size(), crosstalk.as_slice().to_vec())?;
        let decomposition = jacobi_eigen(&matrix)?;
        Ok(Self {
            matrix,
            decomposition,
            heater,
        })
    }

    /// Builds a solver with the Table II heater.
    ///
    /// # Errors
    ///
    /// Same as [`TedSolver::new`].
    pub fn with_table_ii_heater(crosstalk: &CrosstalkMatrix) -> Result<Self> {
        Self::new(crosstalk, Microheater::table_ii())
    }

    /// Returns the bank size.
    #[must_use]
    pub fn bank_size(&self) -> usize {
        self.matrix.size()
    }

    /// Returns the eigen-decomposition of the crosstalk matrix.
    #[must_use]
    pub fn decomposition(&self) -> &EigenDecomposition {
        &self.decomposition
    }

    /// Solves for the heater phases that realise the target phase
    /// compensation on every MR, using the eigenbasis of the crosstalk
    /// matrix, and reports the resulting power.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::DimensionMismatch`] if `targets` does not match
    /// the bank size.
    pub fn solve(&self, targets: &[Radians]) -> Result<TedSolution> {
        let mut workspace = TedWorkspace::new();
        self.solve_with(targets, &mut workspace)?;
        Ok(workspace
            .into_solution()
            .expect("solve_with stores a solution on success"))
    }

    /// Workspace form of [`TedSolver::solve`] for iteration loops: all
    /// intermediate vectors and the solution's own vectors are drawn from
    /// `workspace`, so repeated solves perform zero heap allocations in
    /// steady state.  Returns a reference to the solution stored in the
    /// workspace; results are identical to [`TedSolver::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::DimensionMismatch`] if `targets` does not match
    /// the bank size.
    pub fn solve_with<'ws>(
        &self,
        targets: &[Radians],
        workspace: &'ws mut TedWorkspace,
    ) -> Result<&'ws TedSolution> {
        let n = self.bank_size();
        if targets.len() != n {
            return Err(TuningError::DimensionMismatch {
                expected: n,
                actual: targets.len(),
            });
        }
        workspace.targets.clear();
        workspace.targets.extend(targets.iter().map(|t| t.value()));

        // Raw solution p0 = C⁻¹ φ through the eigenbasis.
        let (p0, w) = {
            let TedWorkspace {
                targets: target_values,
                ones,
                p0,
                w,
                coefficients,
                ..
            } = workspace;
            self.apply_inverse_into(target_values, coefficients, p0)?;
            // w = C⁻¹ 1: the response to a unit common-mode offset.
            ones.clear();
            ones.resize(n, 1.0);
            self.apply_inverse_into(ones, coefficients, w)?;
            (&*p0, &*w)
        };

        // Choose the smallest α ≥ 0 such that p0 + α·w ≥ 0 component-wise.
        let mut alpha: f64 = 0.0;
        for i in 0..n {
            if w[i] > 1e-12 && p0[i] < 0.0 {
                alpha = alpha.max(-p0[i] / w[i]);
            }
        }

        // Fill the solution, reusing its vectors when one is already there.
        let solution = workspace.solution.get_or_insert_with(|| TedSolution {
            heater_phases: Vec::new(),
            common_mode_offset: Radians::new(0.0),
            per_heater_power: Vec::new(),
            total_power: MilliWatts::new(0.0),
        });
        solution.heater_phases.clear();
        solution
            .heater_phases
            .extend((0..n).map(|i| Radians::new((p0[i] + alpha * w[i]).max(0.0))));
        solution.per_heater_power.clear();
        solution.per_heater_power.extend(
            solution
                .heater_phases
                .iter()
                .map(|&p| MilliWatts::new(self.heater.power_for_phase(p))),
        );
        solution.common_mode_offset = Radians::new(alpha);
        solution.total_power =
            MilliWatts::new(solution.per_heater_power.iter().map(|p| p.value()).sum());
        Ok(solution)
    }

    /// Power of the *naive* (non-TED) tuning strategy for the same targets:
    /// every heater applies its own target locally and additionally burns
    /// power to counteract the phase leaked in from every neighbour.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::DimensionMismatch`] if `targets` does not match
    /// the bank size.
    pub fn naive_power(&self, targets: &[Radians]) -> Result<MilliWatts> {
        let n = self.bank_size();
        if targets.len() != n {
            return Err(TuningError::DimensionMismatch {
                expected: n,
                actual: targets.len(),
            });
        }
        let mut total = 0.0;
        for i in 0..n {
            let own = targets[i].value().abs();
            let leaked: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| self.matrix.get(i, j) * targets[j].value().abs())
                .sum();
            // The heater must realise its own phase and cancel the leakage
            // (which, lacking a cooling mechanism, costs the same magnitude in
            // additional bias).
            total += self.heater.power_for_phase(Radians::new(own + leaked));
        }
        Ok(MilliWatts::new(total))
    }

    /// Power saving factor of TED relative to naive tuning for the given
    /// targets (naive / TED; values above 1 mean TED is cheaper).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`TedSolver::solve`] and
    /// [`TedSolver::naive_power`].
    pub fn saving_factor(&self, targets: &[Radians]) -> Result<f64> {
        let ted = self.solve(targets)?.total_power.value();
        let naive = self.naive_power(targets)?.value();
        if ted <= 0.0 {
            return Ok(f64::INFINITY);
        }
        Ok(naive / ted)
    }

    /// Applies `C⁻¹` to a vector through the eigen-decomposition, flooring
    /// eigenvalues to keep dense banks finite.  `coefficients` and `out` are
    /// caller-owned scratch, reused across calls.
    fn apply_inverse_into(
        &self,
        x: &[f64],
        coefficients: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.decomposition.project_into(x, coefficients)?;
        for (c, &l) in coefficients
            .iter_mut()
            .zip(self.decomposition.eigenvalues.iter())
        {
            *c /= l.max(EIGENVALUE_FLOOR);
        }
        self.decomposition.reconstruct_into(coefficients, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_photonics::thermal::ThermalCrosstalkModel;
    use crosslight_photonics::units::Micrometers;

    fn solver_at_spacing(count: usize, spacing_um: f64) -> TedSolver {
        let matrix = ThermalCrosstalkModel::default()
            .crosstalk_matrix(count, Micrometers::new(spacing_um))
            .unwrap();
        TedSolver::with_table_ii_heater(&matrix).unwrap()
    }

    fn uniform_targets(count: usize, phase: f64) -> Vec<Radians> {
        vec![Radians::new(phase); count]
    }

    fn varied_targets(count: usize) -> Vec<Radians> {
        // Deterministic but heterogeneous FPV-like targets in [0.2, 1.0] rad.
        (0..count)
            .map(|i| Radians::new(0.2 + 0.8 * (0.5 + 0.5 * ((i as f64) * 1.3).sin())))
            .collect()
    }

    #[test]
    fn solution_realises_targets_through_crosstalk() {
        let solver = solver_at_spacing(10, 5.0);
        let targets = varied_targets(10);
        let solution = solver.solve(&targets).unwrap();
        // Propagating the heater phases through the crosstalk matrix must give
        // the targets plus the (non-negative) common-mode offset.
        let applied: Vec<f64> = solution.heater_phases.iter().map(|p| p.value()).collect();
        let realised = solver.matrix.mul_vec(&applied).unwrap();
        for (i, r) in realised.iter().enumerate() {
            let expected = targets[i].value() + solution.common_mode_offset.value();
            assert!(
                (r - expected).abs() < 1e-6,
                "MR {i}: realised {r}, expected {expected}"
            );
        }
    }

    #[test]
    fn heater_phases_are_non_negative() {
        for spacing in [1.0, 2.0, 5.0, 10.0, 25.0] {
            let solver = solver_at_spacing(10, spacing);
            let solution = solver.solve(&varied_targets(10)).unwrap();
            for p in &solution.heater_phases {
                assert!(p.value() >= -1e-12, "negative heater phase at {spacing} um");
            }
        }
    }

    #[test]
    fn ted_is_cheaper_than_naive_at_practical_spacings() {
        for spacing in [3.0, 5.0, 10.0, 15.0] {
            let solver = solver_at_spacing(10, spacing);
            let targets = varied_targets(10);
            let saving = solver.saving_factor(&targets).unwrap();
            assert!(
                saving > 1.0,
                "TED should save power at {spacing} um (factor {saving})"
            );
        }
    }

    #[test]
    fn ted_power_has_minimum_at_intermediate_spacing() {
        // Reproduce the Fig. 4 U-shape: power at the 5 µm operating point is
        // lower than at both much tighter and much wider spacings.
        let targets = varied_targets(10);
        let power_at = |spacing: f64| {
            solver_at_spacing(10, spacing)
                .solve(&targets)
                .unwrap()
                .total_power
                .value()
        };
        let tight = power_at(1.0);
        let optimal = power_at(5.0);
        let wide = power_at(20.0);
        assert!(
            optimal < tight,
            "5 um ({optimal}) should beat 1 um ({tight})"
        );
        assert!(
            optimal < wide,
            "5 um ({optimal}) should beat 20 um ({wide})"
        );
    }

    #[test]
    fn naive_power_grows_as_spacing_shrinks() {
        let targets = varied_targets(10);
        let naive_at = |spacing: f64| {
            solver_at_spacing(10, spacing)
                .naive_power(&targets)
                .unwrap()
                .value()
        };
        assert!(naive_at(2.0) > naive_at(5.0));
        assert!(naive_at(5.0) > naive_at(15.0));
    }

    #[test]
    fn uniform_targets_benefit_from_dense_packing() {
        // With identical targets there is no differential component, so the
        // collective solution gets cheaper as crosstalk increases.
        let targets = uniform_targets(10, 0.8);
        let dense = solver_at_spacing(10, 2.0)
            .solve(&targets)
            .unwrap()
            .total_power;
        let sparse = solver_at_spacing(10, 20.0)
            .solve(&targets)
            .unwrap()
            .total_power;
        assert!(dense.value() < sparse.value());
    }

    #[test]
    fn far_spacing_converges_to_independent_tuning() {
        let solver = solver_at_spacing(8, 100.0);
        let targets = varied_targets(8);
        let ted = solver.solve(&targets).unwrap().total_power.value();
        let independent: f64 = targets
            .iter()
            .map(|t| Microheater::table_ii().power_for_phase(*t))
            .sum();
        assert!((ted - independent).abs() / independent < 1e-3);
        let naive = solver.naive_power(&targets).unwrap().value();
        assert!((naive - independent).abs() / independent < 1e-3);
    }

    #[test]
    fn solve_with_matches_solve_and_reuses_one_workspace_across_bank_sizes() {
        let mut workspace = TedWorkspace::new();
        assert!(workspace.solution().is_none());
        for (count, spacing) in [(10usize, 2.0), (10, 5.0), (6, 8.0), (15, 5.0)] {
            let solver = solver_at_spacing(count, spacing);
            let targets = varied_targets(count);
            let expected = solver.solve(&targets).unwrap();
            let got = solver.solve_with(&targets, &mut workspace).unwrap();
            assert_eq!(*got, expected);
            assert_eq!(workspace.solution(), Some(&expected));
        }
        let solver = solver_at_spacing(4, 5.0);
        assert!(solver
            .solve_with(&varied_targets(5), &mut workspace)
            .is_err());
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let solver = solver_at_spacing(5, 5.0);
        assert!(solver.solve(&uniform_targets(4, 0.1)).is_err());
        assert!(solver.naive_power(&uniform_targets(6, 0.1)).is_err());
    }

    #[test]
    fn zero_targets_cost_nothing() {
        let solver = solver_at_spacing(6, 5.0);
        let solution = solver.solve(&uniform_targets(6, 0.0)).unwrap();
        assert!(solution.total_power.value() < 1e-9);
        assert!(solver
            .saving_factor(&uniform_targets(6, 0.0))
            .unwrap()
            .is_infinite());
    }
}
