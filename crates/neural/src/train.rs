//! SGD training loop and quantized evaluation.
//!
//! Training exists to support the Fig. 5 reproduction: small surrogate models
//! are trained on the synthetic datasets, their parameters are fake-quantized
//! to 1–16 bits, and test accuracy is measured at each resolution.

use crate::datasets::Dataset;
use crate::error::Result;
use crate::metrics::{accuracy, cross_entropy_with_grad_into};
use crate::model::Sequential;
use crate::quant::QuantConfig;
use crate::tensor::Tensor;

/// Hyperparameters of the SGD training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 12,
            learning_rate: 0.05,
            batch_size: 8,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub mean_loss: f64,
    /// Training accuracy over the epoch.
    pub train_accuracy: f64,
}

/// Trains a model in place with mini-batch SGD and cross-entropy loss.
///
/// # Errors
///
/// Propagates shape errors from the model's layers (e.g. when a dataset's
/// sample shape does not match the model's input shape).
pub fn train(
    model: &mut Sequential,
    data: &Dataset,
    config: &TrainConfig,
) -> Result<Vec<EpochStats>> {
    let mut stats = Vec::with_capacity(config.epochs);
    // Sample-loop buffers, allocated once and reused for every sample of
    // every epoch: together with the layers' internal workspaces the hot
    // loop runs allocation-free in steady state.
    let mut logits = Tensor::default();
    let mut grad = Tensor::default();
    let mut grad_sink = Tensor::default();
    let mut predictions = Vec::with_capacity(data.len());
    for epoch in 0..config.epochs {
        let mut total_loss = 0.0f64;
        let mut in_batch = 0usize;
        predictions.clear();
        model.zero_gradients();
        for (sample, &label) in data.samples.iter().zip(&data.labels) {
            model.forward_into(sample, &mut logits)?;
            predictions.push(logits.argmax());
            let loss = cross_entropy_with_grad_into(&logits, label, &mut grad);
            total_loss += f64::from(loss);
            model.backward_into(&grad, &mut grad_sink)?;
            in_batch += 1;
            if in_batch == config.batch_size {
                model.apply_gradients(config.learning_rate / config.batch_size as f32);
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            model.apply_gradients(config.learning_rate / in_batch as f32);
        }
        stats.push(EpochStats {
            epoch,
            mean_loss: total_loss / data.len().max(1) as f64,
            train_accuracy: accuracy(&predictions, &data.labels),
        });
    }
    Ok(stats)
}

/// Evaluates full-precision test accuracy.
///
/// # Errors
///
/// Propagates shape errors from the model's layers.
pub fn evaluate(model: &mut Sequential, data: &Dataset) -> Result<f64> {
    let mut predictions = Vec::with_capacity(data.len());
    let mut logits = Tensor::default();
    for sample in &data.samples {
        model.forward_into(sample, &mut logits)?;
        predictions.push(logits.argmax());
    }
    Ok(accuracy(&predictions, &data.labels))
}

/// Evaluates test accuracy with weights and activations fake-quantized to the
/// given configuration.
///
/// The model's stored parameters are not modified: evaluation works on an
/// internally quantized copy of each layer's output, and the weight
/// quantization is applied to a cloned weight view via
/// [`Sequential::quantize_parameters`] on a caller-provided clone.  Because
/// [`Sequential`] owns boxed layers (not clonable in general), the caller is
/// expected to re-train or rebuild the model if it needs the original weights
/// afterwards; the experiment harness simply rebuilds per bit-width.
///
/// # Errors
///
/// Propagates shape errors from the model's layers.
pub fn evaluate_quantized(
    model: &mut Sequential,
    data: &Dataset,
    quant: &QuantConfig,
) -> Result<f64> {
    model.quantize_parameters(quant.weight_bits);
    let mut predictions = Vec::with_capacity(data.len());
    let mut logits = Tensor::default();
    for sample in &data.samples {
        model.forward_quantized_into(sample, quant, &mut logits)?;
        predictions.push(logits.argmax());
    }
    Ok(accuracy(&predictions, &data.labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{generate_synthetic, SyntheticSpec};
    use crate::layers::{Dense, Flatten, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_mlp(input: usize, classes: usize, seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = Sequential::new("mlp", vec![1, 8, 8]);
        model.push(Box::new(Flatten::new()));
        model.push(Box::new(Dense::new(input, 24, &mut rng).unwrap()));
        model.push(Box::new(Relu::new()));
        model.push(Box::new(Dense::new(24, classes, &mut rng).unwrap()));
        model
    }

    fn small_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = SyntheticSpec {
            channels: 1,
            height: 8,
            width: 8,
            num_classes: 4,
            samples_per_class: 12,
            difficulty: 0.3,
        };
        generate_synthetic(&spec, &mut rng).unwrap()
    }

    #[test]
    fn training_improves_accuracy_well_above_chance() {
        let data = small_dataset(10);
        let (train_split, test_split) = data.split(0.75);
        let mut model = small_mlp(64, 4, 20);
        let stats = train(
            &mut model,
            &train_split,
            &TrainConfig {
                epochs: 15,
                learning_rate: 0.1,
                batch_size: 4,
            },
        )
        .unwrap();
        assert_eq!(stats.len(), 15);
        assert!(stats.last().unwrap().train_accuracy > 0.8);
        assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
        let test_acc = evaluate(&mut model, &test_split).unwrap();
        assert!(
            test_acc > 0.5,
            "test accuracy {test_acc} should beat 0.25 chance"
        );
    }

    #[test]
    fn one_bit_quantization_degrades_accuracy() {
        let data = small_dataset(30);
        let (train_split, test_split) = data.split(0.75);
        let mut model = small_mlp(64, 4, 40);
        train(&mut model, &train_split, &TrainConfig::default()).unwrap();
        let full = evaluate(&mut model, &test_split).unwrap();
        // High-precision quantization barely changes anything.
        let mut model_16 = small_mlp(64, 4, 40);
        train(&mut model_16, &train_split, &TrainConfig::default()).unwrap();
        let q16 =
            evaluate_quantized(&mut model_16, &test_split, &QuantConfig::uniform(16)).unwrap();
        assert!((q16 - full).abs() < 0.15);
        // One-bit quantization collapses towards chance.
        let mut model_1 = small_mlp(64, 4, 40);
        train(&mut model_1, &train_split, &TrainConfig::default()).unwrap();
        let q1 = evaluate_quantized(&mut model_1, &test_split, &QuantConfig::uniform(1)).unwrap();
        assert!(
            q1 <= q16,
            "1-bit accuracy {q1} should not beat 16-bit {q16}"
        );
    }

    #[test]
    fn default_train_config_is_sane() {
        let c = TrainConfig::default();
        assert!(c.epochs > 0 && c.batch_size > 0 && c.learning_rate > 0.0);
    }
}
