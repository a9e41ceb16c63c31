//! Neural-network layers with forward and backward passes.
//!
//! Only the layer types that appear in the paper's Table I models are
//! provided: 2-D convolutions, fully connected (dense) layers, max/average
//! pooling, flattening and ReLU activations.  Pooling and normalisation run in
//! the electronic domain in CrossLight, but the substrate still needs them to
//! train and evaluate the models for the Fig. 5 quantization study.

mod activation;
mod conv;
mod dense;
mod flatten;
mod pool;

pub use activation::{softmax, softmax_into, Relu};
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::{AvgPool2d, MaxPool2d};

use crate::error::Result;
use crate::tensor::Tensor;

/// Categories of layers, used by the workload extractor to decide which
/// accelerator sub-unit (CONV pool vs. FC pool vs. electronic) executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution — runs on the CONV VDP units.
    Convolution,
    /// Fully connected layer — runs on the FC VDP units.
    FullyConnected,
    /// Pooling — executed electronically.
    Pooling,
    /// Shape manipulation with no arithmetic.
    Reshape,
    /// Elementwise non-linearity — executed by the optoelectronic non-linearity
    /// devices / electronics.
    Activation,
}

/// The vector-dot-product workload one layer contributes to an accelerator:
/// `dot_count` dot products of `dot_length` elements each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DotProductWorkload {
    /// Length of each dot product.
    pub dot_length: usize,
    /// Number of dot products per inference.
    pub dot_count: usize,
}

impl DotProductWorkload {
    /// Total multiply–accumulate operations represented by this workload.
    #[must_use]
    pub fn macs(&self) -> usize {
        self.dot_length * self.dot_count
    }
}

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches whatever `backward` needs, and
/// gradient application is a separate step so an optimizer can decide when to
/// update.
///
/// The primitive pass methods are the destination-buffer
/// [`Layer::forward_into`] / [`Layer::backward_into`]: together with each
/// layer's persistent internal workspaces (im2col scratch, cached columns,
/// gradient buffers) they perform **zero heap allocations in steady state**
/// (i.e. once buffer capacities have grown to the shapes in use).  The
/// allocating [`Layer::forward`] / [`Layer::backward`] conveniences are
/// provided wrappers.
pub trait Layer: std::fmt::Debug {
    /// Human-readable layer name (e.g. `"conv3x3x64"`).
    fn name(&self) -> String;

    /// The category this layer belongs to.
    fn kind(&self) -> LayerKind;

    /// Runs the layer on one sample, writing the result into a caller-owned
    /// tensor (reusing its buffer) and caching state for `backward`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape does not match the layer.
    fn forward_into(&mut self, input: &Tensor, output: &mut Tensor) -> Result<()>;

    /// Backpropagates the gradient of the loss with respect to this layer's
    /// output, accumulating parameter gradients and writing the gradient with
    /// respect to the input into a caller-owned tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward` or with a mismatched
    /// gradient shape.
    fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<()>;

    /// Allocating convenience wrapper around [`Layer::forward_into`].
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape does not match the layer.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut output = Tensor::default();
        self.forward_into(input, &mut output)?;
        Ok(output)
    }

    /// Allocating convenience wrapper around [`Layer::backward_into`].
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward` or with a mismatched
    /// gradient shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut grad_input = Tensor::default();
        self.backward_into(grad_output, &mut grad_input)?;
        Ok(grad_input)
    }

    /// Applies accumulated gradients with vanilla SGD and clears them.
    fn apply_gradients(&mut self, learning_rate: f32);

    /// Clears accumulated gradients without applying them.
    fn zero_gradients(&mut self);

    /// Number of trainable parameters.
    fn parameter_count(&self) -> usize;

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>>;

    /// Fake-quantizes the layer's parameters in place to `bits` of uniform
    /// symmetric resolution (no-op for parameter-free layers).
    fn quantize_parameters(&mut self, bits: u32);

    /// The dot-product workload this layer contributes per inference, if it
    /// runs on the photonic substrate.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn dot_products(&self, input_shape: &[usize]) -> Result<Option<DotProductWorkload>>;
}

/// Fake-quantizes a slice of values in place to `bits` of uniform symmetric
/// resolution, using the slice's absolute maximum as the scale.
///
/// With `bits == 0` the slice is zeroed (no information can be represented);
/// with `bits >= 24` the values are left untouched (beyond `f32` mantissa
/// precision there is nothing to round).
pub(crate) fn fake_quantize_slice(values: &mut [f32], bits: u32) {
    if bits >= 24 || values.is_empty() {
        return;
    }
    if bits == 0 {
        values.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let max_abs = values.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
    if max_abs == 0.0 {
        return;
    }
    let levels = (1u64 << (bits - 1)) as f32;
    let scale = max_abs / levels;
    for v in values.iter_mut() {
        let q = (*v / scale).round().clamp(-levels, levels - 1.0);
        *v = q * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_macs() {
        let w = DotProductWorkload {
            dot_length: 25,
            dot_count: 100,
        };
        assert_eq!(w.macs(), 2500);
    }

    #[test]
    fn fake_quantize_reduces_distinct_values() {
        let mut values: Vec<f32> = (0..100).map(|i| (i as f32) / 100.0 - 0.5).collect();
        fake_quantize_slice(&mut values, 2);
        let mut distinct: Vec<i32> = values.iter().map(|v| (v * 1000.0) as i32).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 4, "2-bit quantization leaves ≤4 levels");
    }

    #[test]
    fn fake_quantize_high_bits_is_identity() {
        let mut values = vec![0.123f32, -0.456, 0.789];
        let original = values.clone();
        fake_quantize_slice(&mut values, 24);
        assert_eq!(values, original);
    }

    #[test]
    fn fake_quantize_zero_bits_zeroes() {
        let mut values = vec![0.5f32, -0.25];
        fake_quantize_slice(&mut values, 0);
        assert!(values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fake_quantize_error_shrinks_with_bits() {
        let original: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.37).sin()).collect();
        let error_at = |bits: u32| {
            let mut q = original.clone();
            fake_quantize_slice(&mut q, bits);
            original
                .iter()
                .zip(q.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        assert!(error_at(2) > error_at(4));
        assert!(error_at(4) > error_at(8));
        assert!(error_at(8) > error_at(16));
    }
}
