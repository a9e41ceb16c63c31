//! Synthetic datasets standing in for the paper's training data.
//!
//! The paper trains its four models on Sign-MNIST, CIFAR-10, STL-10 and
//! Omniglot.  Those datasets are not shipped with this repository, so the
//! Fig. 5 quantization study is run on synthetic *class-cluster* image
//! datasets instead (see `DESIGN.md`, substitution table): each class gets a
//! random prototype image, and samples are noisy copies of their class
//! prototype.  Two knobs make the stand-ins behave like their originals:
//!
//! * the **input geometry and class count** match the original dataset, and
//! * a **difficulty** level (noise relative to prototype separation) orders
//!   the datasets the same way the originals are ordered in Fig. 5 — STL-10
//!   is the hardest and the most resolution-sensitive, Sign-MNIST the
//!   easiest.

use rand::Rng;

use crate::error::{NeuralError, Result};
use crate::tensor::Tensor;

/// A labelled set of image samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Per-sample `[C, H, W]` images.
    pub samples: Vec<Tensor>,
    /// Per-sample class labels.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Shape of every sample.
    pub sample_shape: Vec<usize>,
}

impl Dataset {
    /// Returns the number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the dataset has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Splits the dataset into a training and a test partition, with
    /// `train_fraction` of the samples (rounded down) in the training split.
    #[must_use]
    pub fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        let train_len = ((self.len() as f64) * train_fraction).floor() as usize;
        let make = |range: std::ops::Range<usize>| Dataset {
            samples: self.samples[range.clone()].to_vec(),
            labels: self.labels[range].to_vec(),
            num_classes: self.num_classes,
            sample_shape: self.sample_shape.clone(),
        };
        (make(0..train_len), make(train_len..self.len()))
    }
}

/// Specification of a synthetic class-cluster dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// Number of channels of each image.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Samples generated per class.
    pub samples_per_class: usize,
    /// Noise amplitude relative to the unit prototype amplitude; larger means
    /// a harder dataset.
    pub difficulty: f64,
}

impl SyntheticSpec {
    /// Stand-in for Sign-MNIST: small grayscale images, 24 classes, easy.
    #[must_use]
    pub fn sign_mnist_like(samples_per_class: usize) -> Self {
        Self {
            channels: 1,
            height: 12,
            width: 12,
            num_classes: 8,
            samples_per_class,
            difficulty: 0.35,
        }
    }

    /// Stand-in for CIFAR-10: small RGB images, 10 classes, moderate.
    #[must_use]
    pub fn cifar10_like(samples_per_class: usize) -> Self {
        Self {
            channels: 3,
            height: 12,
            width: 12,
            num_classes: 10,
            samples_per_class,
            difficulty: 0.55,
        }
    }

    /// Stand-in for STL-10: RGB images, 10 classes, hard (the most
    /// resolution-sensitive model in Fig. 5).
    #[must_use]
    pub fn stl10_like(samples_per_class: usize) -> Self {
        Self {
            channels: 3,
            height: 14,
            width: 14,
            num_classes: 10,
            samples_per_class,
            difficulty: 0.8,
        }
    }

    /// Stand-in for Omniglot one-shot classification: grayscale characters,
    /// many classes.
    #[must_use]
    pub fn omniglot_like(samples_per_class: usize) -> Self {
        Self {
            channels: 1,
            height: 14,
            width: 14,
            num_classes: 12,
            samples_per_class,
            difficulty: 0.5,
        }
    }

    /// Shape of each generated sample.
    #[must_use]
    pub fn sample_shape(&self) -> Vec<usize> {
        vec![self.channels, self.height, self.width]
    }
}

/// Generates a synthetic class-cluster dataset.
///
/// Each class receives a random prototype image with entries in `[-1, 1]`;
/// samples are the prototype plus Gaussian-ish noise of amplitude
/// `difficulty`.  Samples are interleaved across classes so truncating or
/// splitting the dataset keeps it balanced.
///
/// # Errors
///
/// Returns [`NeuralError::InvalidDataset`] if the spec has zero classes, zero
/// samples per class or an empty image shape.
pub fn generate_synthetic<R: Rng + ?Sized>(spec: &SyntheticSpec, rng: &mut R) -> Result<Dataset> {
    if spec.num_classes == 0 || spec.samples_per_class == 0 {
        return Err(NeuralError::InvalidDataset {
            reason: "need at least one class and one sample per class".into(),
        });
    }
    if spec.channels == 0 || spec.height == 0 || spec.width == 0 {
        return Err(NeuralError::InvalidDataset {
            reason: "sample shape must be non-empty".into(),
        });
    }
    let pixel_count = spec.channels * spec.height * spec.width;
    let prototypes: Vec<Vec<f32>> = (0..spec.num_classes)
        .map(|_| {
            (0..pixel_count)
                .map(|_| rng.gen_range(-1.0..=1.0))
                .collect()
        })
        .collect();

    let mut samples = Vec::with_capacity(spec.num_classes * spec.samples_per_class);
    let mut labels = Vec::with_capacity(spec.num_classes * spec.samples_per_class);
    for s in 0..spec.samples_per_class {
        for (class, prototype) in prototypes.iter().enumerate() {
            let noise_amplitude = spec.difficulty as f32;
            let data: Vec<f32> = prototype
                .iter()
                .map(|&p| {
                    // Sum of two uniforms approximates a triangular (noise)
                    // distribution; cheap and dependency-free.
                    let noise = (rng.gen_range(-1.0f32..=1.0) + rng.gen_range(-1.0f32..=1.0)) * 0.5;
                    p + noise * noise_amplitude
                })
                .collect();
            samples.push(Tensor::from_vec(spec.sample_shape(), data)?);
            labels.push(class);
        }
        // `s` only drives the loop count.
        let _ = s;
    }
    Ok(Dataset {
        samples,
        labels,
        num_classes: spec.num_classes,
        sample_shape: spec.sample_shape(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_dataset_is_balanced_and_shaped() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = SyntheticSpec::sign_mnist_like(10);
        let data = generate_synthetic(&spec, &mut rng).unwrap();
        assert_eq!(data.len(), 8 * 10);
        assert!(!data.is_empty());
        assert_eq!(data.sample_shape, vec![1, 12, 12]);
        for class in 0..8 {
            assert_eq!(data.labels.iter().filter(|&&l| l == class).count(), 10);
        }
        for s in &data.samples {
            assert_eq!(s.shape(), &[1, 12, 12]);
        }
    }

    #[test]
    fn split_preserves_shapes_and_counts() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = generate_synthetic(&SyntheticSpec::cifar10_like(6), &mut rng).unwrap();
        let (train, test) = data.split(0.75);
        assert_eq!(train.len() + test.len(), data.len());
        assert_eq!(train.len(), (data.len() * 3) / 4);
        assert_eq!(train.num_classes, 10);
        assert_eq!(test.sample_shape, data.sample_shape);
    }

    #[test]
    fn difficulty_orders_the_standins() {
        let easy = SyntheticSpec::sign_mnist_like(1).difficulty;
        let medium = SyntheticSpec::cifar10_like(1).difficulty;
        let hard = SyntheticSpec::stl10_like(1).difficulty;
        assert!(easy < medium && medium < hard);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut spec = SyntheticSpec::sign_mnist_like(4);
        spec.num_classes = 0;
        assert!(generate_synthetic(&spec, &mut rng).is_err());
        let mut spec = SyntheticSpec::sign_mnist_like(0);
        spec.samples_per_class = 0;
        assert!(generate_synthetic(&spec, &mut rng).is_err());
        let mut spec = SyntheticSpec::sign_mnist_like(4);
        spec.channels = 0;
        assert!(generate_synthetic(&spec, &mut rng).is_err());
    }

    #[test]
    fn same_class_samples_are_closer_than_cross_class_samples() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = generate_synthetic(&SyntheticSpec::sign_mnist_like(4), &mut rng).unwrap();
        // Compare distances between two samples of class 0 and a class-0 /
        // class-1 pair.
        let class0: Vec<&Tensor> = data
            .samples
            .iter()
            .zip(&data.labels)
            .filter(|(_, &l)| l == 0)
            .map(|(s, _)| s)
            .collect();
        let class1: Vec<&Tensor> = data
            .samples
            .iter()
            .zip(&data.labels)
            .filter(|(_, &l)| l == 1)
            .map(|(s, _)| s)
            .collect();
        let dist = |a: &Tensor, b: &Tensor| {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
        };
        let within = dist(class0[0], class0[1]);
        let between = dist(class0[0], class1[0]);
        assert!(
            within < between,
            "within {within} should be < between {between}"
        );
    }
}
