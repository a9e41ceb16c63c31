//! Jacobi eigen-decomposition for small symmetric matrices.
//!
//! Thermal Eigenmode Decomposition needs the eigenvalues and eigenvectors of
//! the (symmetric, positive) thermal-crosstalk matrix of an MR bank.  Banks
//! hold at most a few tens of MRs, so the classic cyclic Jacobi rotation
//! method is more than adequate and avoids pulling a linear-algebra
//! dependency into the workspace.

use crate::error::{Result, TuningError};

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Convergence threshold on the off-diagonal Frobenius norm.
const CONVERGENCE_EPS: f64 = 1e-12;

/// A dense symmetric matrix stored in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricMatrix {
    size: usize,
    data: Vec<f64>,
}

impl SymmetricMatrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::InvalidMatrix`] if the data length is not
    /// `size²` or the matrix is asymmetric beyond 1e-9.
    pub fn new(size: usize, data: Vec<f64>) -> Result<Self> {
        if size == 0 {
            return Err(TuningError::InvalidMatrix {
                reason: "matrix must have at least one row".into(),
            });
        }
        if data.len() != size * size {
            return Err(TuningError::InvalidMatrix {
                reason: format!("expected {} entries, got {}", size * size, data.len()),
            });
        }
        for i in 0..size {
            for j in 0..i {
                if (data[i * size + j] - data[j * size + i]).abs() > 1e-9 {
                    return Err(TuningError::InvalidMatrix {
                        reason: format!("asymmetric at ({i}, {j})"),
                    });
                }
            }
        }
        Ok(Self { size, data })
    }

    /// Creates an identity matrix of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn identity(size: usize) -> Self {
        assert!(size > 0, "identity matrix must have at least one row");
        let mut data = vec![0.0; size * size];
        for i in 0..size {
            data[i * size + i] = 1.0;
        }
        Self { size, data }
    }

    /// Returns the matrix dimension.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Returns the `(i, j)` entry.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.size && j < self.size, "index out of bounds");
        self.data[i * self.size + j]
    }

    /// Sets the `(i, j)` and `(j, i)` entries (preserving symmetry).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn set_symmetric(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.size && j < self.size, "index out of bounds");
        self.data[i * self.size + j] = value;
        self.data[j * self.size + i] = value;
    }

    /// Multiplies the matrix by a vector.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::DimensionMismatch`] if the vector length does
    /// not match the matrix dimension.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.mul_vec_into(v, &mut out)?;
        Ok(out)
    }

    /// Multiplies the matrix by a vector into a caller-owned buffer, reusing
    /// its allocation (the form the TED solver's iteration loops use so that
    /// repeated solves allocate nothing).
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::DimensionMismatch`] if the vector length does
    /// not match the matrix dimension.
    pub fn mul_vec_into(&self, v: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if v.len() != self.size {
            return Err(TuningError::DimensionMismatch {
                expected: self.size,
                actual: v.len(),
            });
        }
        out.clear();
        out.extend((0..self.size).map(|i| {
            let row = &self.data[i * self.size..(i + 1) * self.size];
            row.iter().zip(v).map(|(&m, &x)| m * x).sum::<f64>()
        }));
        Ok(())
    }

    /// Frobenius norm of the strictly off-diagonal part.
    #[must_use]
    pub fn off_diagonal_norm(&self) -> f64 {
        let mut sum = 0.0;
        for i in 0..self.size {
            for j in 0..self.size {
                if i != j {
                    sum += self.get(i, j) * self.get(i, j);
                }
            }
        }
        sum.sqrt()
    }
}

/// Result of an eigen-decomposition: `matrix = V · diag(λ) · Vᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenDecomposition {
    /// Eigenvalues, sorted in descending order.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors stored column-wise in row-major order: entry
    /// `vectors[i * n + k]` is component `i` of eigenvector `k`, matching the
    /// order of `eigenvalues`.
    pub eigenvectors: Vec<f64>,
    /// Matrix dimension.
    pub size: usize,
}

impl EigenDecomposition {
    /// Returns eigenvector `k` as a newly allocated vector.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of bounds.
    #[must_use]
    pub fn eigenvector(&self, k: usize) -> Vec<f64> {
        assert!(k < self.size, "eigenvector index out of bounds");
        (0..self.size)
            .map(|i| self.eigenvectors[i * self.size + k])
            .collect()
    }

    /// Projects a vector onto the eigenbasis, returning its modal
    /// coefficients (`Vᵀ · x`).
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::DimensionMismatch`] on length mismatch.
    pub fn project(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.project_into(x, &mut out)?;
        Ok(out)
    }

    /// Destination-buffer form of [`EigenDecomposition::project`], reusing
    /// the output allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::DimensionMismatch`] on length mismatch.
    pub fn project_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.size {
            return Err(TuningError::DimensionMismatch {
                expected: self.size,
                actual: x.len(),
            });
        }
        out.clear();
        out.extend((0..self.size).map(|k| {
            (0..self.size)
                .map(|i| self.eigenvectors[i * self.size + k] * x[i])
                .sum::<f64>()
        }));
        Ok(())
    }

    /// Reconstructs a vector from modal coefficients (`V · c`).
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::DimensionMismatch`] on length mismatch.
    pub fn reconstruct(&self, coefficients: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.reconstruct_into(coefficients, &mut out)?;
        Ok(out)
    }

    /// Destination-buffer form of [`EigenDecomposition::reconstruct`],
    /// reusing the output allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TuningError::DimensionMismatch`] on length mismatch.
    pub fn reconstruct_into(&self, coefficients: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if coefficients.len() != self.size {
            return Err(TuningError::DimensionMismatch {
                expected: self.size,
                actual: coefficients.len(),
            });
        }
        out.clear();
        out.extend((0..self.size).map(|i| {
            (0..self.size)
                .map(|k| self.eigenvectors[i * self.size + k] * coefficients[k])
                .sum::<f64>()
        }));
        Ok(())
    }
}

/// Computes the eigen-decomposition of a symmetric matrix with the cyclic
/// Jacobi method.
///
/// # Errors
///
/// Returns [`TuningError::EigenNotConverged`] if the off-diagonal norm does
/// not fall below the convergence threshold within the sweep limit (does not
/// happen for the well-conditioned crosstalk matrices this crate builds).
pub fn jacobi_eigen(matrix: &SymmetricMatrix) -> Result<EigenDecomposition> {
    let n = matrix.size();
    let mut a = matrix.clone();
    let mut v = SymmetricMatrix::identity(n);

    for _sweep in 0..MAX_SWEEPS {
        if a.off_diagonal_norm() < CONVERGENCE_EPS {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Update A = Jᵀ A J in place.
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set_symmetric(k, p, c * akp - s * akq);
                    a.set_symmetric(k, q, s * akp + c * akq);
                }
                let app_new = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                let aqq_new = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                a.set_symmetric(p, p, app_new);
                a.set_symmetric(q, q, aqq_new);
                a.set_symmetric(p, q, 0.0);

                // Accumulate the rotations into V (V is not symmetric, so we
                // update its raw storage directly).
                for k in 0..n {
                    let vkp = v.data[k * n + p];
                    let vkq = v.data[k * n + q];
                    v.data[k * n + p] = c * vkp - s * vkq;
                    v.data[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    if a.off_diagonal_norm() >= 1e-8 {
        return Err(TuningError::EigenNotConverged {
            off_diagonal_norm: a.off_diagonal_norm(),
        });
    }

    // Extract eigenvalues and sort descending, permuting eigenvectors along.
    let mut order: Vec<usize> = (0..n).collect();
    let eigenvalues_raw: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
    order.sort_by(|&x, &y| {
        eigenvalues_raw[y]
            .partial_cmp(&eigenvalues_raw[x])
            .expect("eigenvalues are finite")
    });
    let eigenvalues: Vec<f64> = order.iter().map(|&k| eigenvalues_raw[k]).collect();
    let mut eigenvectors = vec![0.0; n * n];
    for (new_k, &old_k) in order.iter().enumerate() {
        for i in 0..n {
            eigenvectors[i * n + new_k] = v.data[i * n + old_k];
        }
    }

    Ok(EigenDecomposition {
        eigenvalues,
        eigenvectors,
        size: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_reconstruction(m: &SymmetricMatrix, decomp: &EigenDecomposition) {
        let n = m.size();
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    sum += decomp.eigenvectors[i * n + k]
                        * decomp.eigenvalues[k]
                        * decomp.eigenvectors[j * n + k];
                }
                assert!(
                    (sum - m.get(i, j)).abs() < 1e-8,
                    "reconstruction mismatch at ({i}, {j}): {sum} vs {}",
                    m.get(i, j)
                );
            }
        }
    }

    #[test]
    fn analytic_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let m = SymmetricMatrix::new(2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let d = jacobi_eigen(&m).unwrap();
        assert!((d.eigenvalues[0] - 3.0).abs() < 1e-10);
        assert!((d.eigenvalues[1] - 1.0).abs() < 1e-10);
        check_reconstruction(&m, &d);
    }

    #[test]
    fn analytic_3x3_diagonal() {
        let m =
            SymmetricMatrix::new(3, vec![5.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, -1.0]).unwrap();
        let d = jacobi_eigen(&m).unwrap();
        assert!((d.eigenvalues[0] - 5.0).abs() < 1e-12);
        assert!((d.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((d.eigenvalues[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m =
            SymmetricMatrix::new(3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.25, 0.5, 0.25, 2.0]).unwrap();
        let d = jacobi_eigen(&m).unwrap();
        for a in 0..3 {
            for b in 0..3 {
                let dot: f64 = (0..3)
                    .map(|i| d.eigenvectors[i * 3 + a] * d.eigenvectors[i * 3 + b])
                    .sum();
                let expected = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-9, "orthonormality ({a}, {b})");
            }
        }
        check_reconstruction(&m, &d);
    }

    #[test]
    fn exponential_crosstalk_like_matrix_decomposes() {
        // A 10×10 matrix mimicking the thermal crosstalk structure.
        let n = 10;
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = (-((i as f64 - j as f64).abs()) * 1.25).exp();
            }
        }
        let m = SymmetricMatrix::new(n, data).unwrap();
        let d = jacobi_eigen(&m).unwrap();
        // All eigenvalues of this positive-definite Kac–Murdock–Szegő-like
        // matrix are positive and sorted descending.
        assert!(d.eigenvalues.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        assert!(d.eigenvalues.iter().all(|&l| l > 0.0));
        check_reconstruction(&m, &d);
    }

    #[test]
    fn project_reconstruct_roundtrip() {
        let n = 6;
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = (-((i as f64 - j as f64).abs()) * 0.8).exp();
            }
        }
        let m = SymmetricMatrix::new(n, data).unwrap();
        let d = jacobi_eigen(&m).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let coeffs = d.project(&x).unwrap();
        let back = d.reconstruct(&coeffs).unwrap();
        for (a, b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn mul_vec_and_dimension_checks() {
        let m = SymmetricMatrix::new(2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let y = m.mul_vec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 3.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
        let d = jacobi_eigen(&m).unwrap();
        assert!(d.project(&[1.0]).is_err());
        assert!(d.reconstruct(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn into_forms_match_allocating_forms_and_reuse_buffers() {
        let n = 5;
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = (-((i as f64 - j as f64).abs()) * 0.9).exp();
            }
        }
        let m = SymmetricMatrix::new(n, data).unwrap();
        let d = jacobi_eigen(&m).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        // One buffer serves all three operations across repeated calls.
        let mut buffer = vec![999.0; 16];
        m.mul_vec_into(&x, &mut buffer).unwrap();
        assert_eq!(buffer, m.mul_vec(&x).unwrap());
        d.project_into(&x, &mut buffer).unwrap();
        assert_eq!(buffer, d.project(&x).unwrap());
        let coeffs = buffer.clone();
        d.reconstruct_into(&coeffs, &mut buffer).unwrap();
        assert_eq!(buffer, d.reconstruct(&coeffs).unwrap());
        assert!(m.mul_vec_into(&[1.0], &mut buffer).is_err());
        assert!(d.project_into(&[1.0], &mut buffer).is_err());
        assert!(d.reconstruct_into(&[1.0], &mut buffer).is_err());
    }

    #[test]
    fn invalid_matrices_are_rejected() {
        assert!(SymmetricMatrix::new(0, vec![]).is_err());
        assert!(SymmetricMatrix::new(2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(SymmetricMatrix::new(2, vec![1.0, 2.0, 3.0, 1.0]).is_err());
    }

    #[test]
    fn identity_decomposition() {
        let m = SymmetricMatrix::identity(4);
        let d = jacobi_eigen(&m).unwrap();
        for l in d.eigenvalues {
            assert!((l - 1.0).abs() < 1e-12);
        }
    }
}
