//! Uniform symmetric fake-quantization of weights and activations.
//!
//! The paper's Fig. 5 sweeps weight/activation resolution from 1 to 16 bits
//! (using QKeras quantization-aware training) and shows how model accuracy
//! collapses below a model-dependent threshold.  This module provides the
//! quantizer used to reproduce that study: values are snapped to a uniform
//! symmetric grid whose scale is the tensor's absolute maximum.

use crate::layers::fake_quantize_slice;
use crate::tensor::Tensor;

/// Weight/activation bit-width configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantConfig {
    /// Bits used for weights and biases.
    pub weight_bits: u32,
    /// Bits used for activations.
    pub activation_bits: u32,
}

impl QuantConfig {
    /// Creates a configuration with distinct weight and activation widths.
    #[must_use]
    pub fn new(weight_bits: u32, activation_bits: u32) -> Self {
        Self {
            weight_bits,
            activation_bits,
        }
    }

    /// Creates a configuration using the same width for weights and
    /// activations, as the paper's Fig. 5 does.
    #[must_use]
    pub fn uniform(bits: u32) -> Self {
        Self::new(bits, bits)
    }

    /// Quantizes an activation tensor to `activation_bits`.
    #[must_use]
    pub fn quantize_activations(&self, tensor: &Tensor) -> Tensor {
        let mut out = tensor.clone();
        self.quantize_activations_in_place(&mut out);
        out
    }

    /// Quantizes an activation tensor to `activation_bits` in place,
    /// allocation-free (used by the quantized forward pass on its reused
    /// activation buffers).
    pub fn quantize_activations_in_place(&self, tensor: &mut Tensor) {
        fake_quantize_slice(tensor.as_mut_slice(), self.activation_bits);
    }

    /// Quantizes a standalone value vector to `weight_bits` (used by tests and
    /// by callers that hold raw parameter slices).
    #[must_use]
    pub fn quantize_weights_vec(&self, values: &[f32]) -> Vec<f32> {
        let mut out = values.to_vec();
        fake_quantize_slice(&mut out, self.weight_bits);
        out
    }

    /// Number of representable levels for the weight grid.
    #[must_use]
    pub fn weight_levels(&self) -> u64 {
        if self.weight_bits >= 63 {
            u64::MAX
        } else {
            1u64 << self.weight_bits
        }
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        // The paper's headline CrossLight resolution.
        Self::uniform(16)
    }
}

/// Worst-case quantization error (half a step) for values in `[-max_abs,
/// max_abs]` quantized to `bits`.
#[must_use]
pub fn quantization_error_bound(max_abs: f32, bits: u32) -> f32 {
    if bits == 0 {
        return max_abs;
    }
    if bits >= 24 {
        return 0.0;
    }
    let levels = (1u64 << (bits - 1)) as f32;
    max_abs / levels / 2.0 + max_abs / levels * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_config_sets_both_widths() {
        let q = QuantConfig::uniform(8);
        assert_eq!(q.weight_bits, 8);
        assert_eq!(q.activation_bits, 8);
        assert_eq!(q.weight_levels(), 256);
        assert_eq!(QuantConfig::default().weight_bits, 16);
    }

    #[test]
    fn activation_quantization_respects_error_bound() {
        let values: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.21).sin()).collect();
        let t = Tensor::from_vec(vec![64], values.clone()).unwrap();
        for bits in [2u32, 4, 8, 12] {
            let q = QuantConfig::uniform(bits);
            let out = q.quantize_activations(&t);
            let bound = quantization_error_bound(1.0, bits);
            for (a, b) in values.iter().zip(out.as_slice()) {
                assert!(
                    (a - b).abs() <= bound + 1e-6,
                    "{bits}-bit error {} exceeds bound {bound}",
                    (a - b).abs()
                );
            }
        }
    }

    #[test]
    fn error_shrinks_monotonically_with_bits() {
        let mut previous = f32::INFINITY;
        for bits in 1..=16 {
            let bound = quantization_error_bound(1.0, bits);
            assert!(bound < previous);
            previous = bound;
        }
        assert_eq!(quantization_error_bound(1.0, 24), 0.0);
        assert_eq!(quantization_error_bound(0.7, 0), 0.7);
    }

    #[test]
    fn weight_vec_quantization_is_consistent_with_activation_path() {
        let values: Vec<f32> = vec![0.9, -0.4, 0.1, -0.05];
        let q = QuantConfig::uniform(3);
        let via_vec = q.quantize_weights_vec(&values);
        let via_tensor = q
            .quantize_activations(&Tensor::from_vec(vec![4], values).unwrap())
            .into_vec();
        assert_eq!(via_vec, via_tensor);
    }
}
