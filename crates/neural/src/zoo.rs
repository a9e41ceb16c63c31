//! The paper's Table I model zoo.
//!
//! Two views of each model are provided:
//!
//! * [`ModelSpec`] — a lightweight structural description of the *full-size*
//!   architecture (layer dimensions, parameter counts, dot-product workload).
//!   This is what the accelerator simulator consumes; no weights are ever
//!   allocated, so even the 39-million-parameter Siamese network costs
//!   nothing to describe.
//! * [`ModelSpec::build_surrogate`] — a small trainable [`Sequential`] with
//!   the same layer *types* and the matching synthetic dataset, used by the
//!   Fig. 5 accuracy-vs-resolution study where actual training is required.
//!
//! The full-size parameter counts land within 1% of Table I
//! (model 4 matches exactly).

use rand::Rng;

use crate::datasets::SyntheticSpec;
use crate::error::{NeuralError, Result};
use crate::layers::{Conv2d, Dense, DotProductWorkload, Flatten, LayerKind, MaxPool2d, Relu};
use crate::model::Sequential;

/// Structural description of one layer of a full-size model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerSpec {
    /// 2-D convolution with square kernel and stride 1 (valid padding).
    Conv {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Kernel size.
        kernel: usize,
    },
    /// Max pooling with window == stride.
    MaxPool {
        /// Pooling window.
        window: usize,
    },
    /// Fully connected layer.
    Dense {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Flatten to rank 1.
    Flatten,
    /// ReLU activation.
    Relu,
}

/// Which of the paper's Table I models a spec describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperModel {
    /// Model 1: LeNet-5 on Sign-MNIST (60 k parameters).
    Lenet5SignMnist,
    /// Model 2: custom CNN on CIFAR-10 (890 k parameters).
    CnnCifar10,
    /// Model 3: custom CNN on STL-10 (3.2 M parameters).
    CnnStl10,
    /// Model 4: Siamese CNN on Omniglot (39 M parameters).
    SiameseOmniglot,
}

impl PaperModel {
    /// All four Table I models, in order.
    #[must_use]
    pub fn all() -> [PaperModel; 4] {
        [
            Self::Lenet5SignMnist,
            Self::CnnCifar10,
            Self::CnnStl10,
            Self::SiameseOmniglot,
        ]
    }

    /// Stable machine-readable name of the model, used by the
    /// `crosslight-server` wire protocol to reference a Table I workload by
    /// name instead of shipping the full per-layer job list.
    #[must_use]
    pub fn wire_name(&self) -> &'static str {
        match self {
            Self::Lenet5SignMnist => "lenet5_sign_mnist",
            Self::CnnCifar10 => "cnn_cifar10",
            Self::CnnStl10 => "cnn_stl10",
            Self::SiameseOmniglot => "siamese_omniglot",
        }
    }

    /// Parses a [`PaperModel::wire_name`] back into the model.
    #[must_use]
    pub fn from_wire_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|m| m.wire_name() == name)
    }

    /// The dataset name used in Table I.
    #[must_use]
    pub fn dataset_name(&self) -> &'static str {
        match self {
            Self::Lenet5SignMnist => "Sign MNIST",
            Self::CnnCifar10 => "CIFAR10",
            Self::CnnStl10 => "STL10",
            Self::SiameseOmniglot => "Omniglot",
        }
    }

    /// The full-size architecture of the model.
    #[must_use]
    pub fn spec(&self) -> ModelSpec {
        match self {
            Self::Lenet5SignMnist => ModelSpec::lenet5_sign_mnist(),
            Self::CnnCifar10 => ModelSpec::cnn_cifar10(),
            Self::CnnStl10 => ModelSpec::cnn_stl10(),
            Self::SiameseOmniglot => ModelSpec::siamese_omniglot(),
        }
    }
}

/// A full-size model architecture, described structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Human-readable name.
    pub name: String,
    /// Which paper model this is.
    pub model: PaperModel,
    /// Input shape `[C, H, W]`.
    pub input_shape: [usize; 3],
    /// Ordered layer descriptions.
    pub layers: Vec<LayerSpec>,
    /// How many identical towers execute per inference (2 for the Siamese
    /// network; weights are shared so parameters are counted once, but the
    /// computation happens per tower).
    pub towers: usize,
}

impl ModelSpec {
    /// Model 1: LeNet-5-style network for Sign-MNIST (2 conv + 2 FC).
    #[must_use]
    pub fn lenet5_sign_mnist() -> Self {
        Self {
            name: "LeNet-5 (Sign MNIST)".into(),
            model: PaperModel::Lenet5SignMnist,
            input_shape: [1, 28, 28],
            layers: vec![
                LayerSpec::Conv {
                    in_channels: 1,
                    out_channels: 6,
                    kernel: 5,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Conv {
                    in_channels: 6,
                    out_channels: 16,
                    kernel: 5,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Flatten,
                LayerSpec::Dense {
                    in_features: 256,
                    out_features: 205,
                },
                LayerSpec::Relu,
                LayerSpec::Dense {
                    in_features: 205,
                    out_features: 24,
                },
            ],
            towers: 1,
        }
    }

    /// Model 2: custom CNN for CIFAR-10 (4 conv + 2 FC).
    #[must_use]
    pub fn cnn_cifar10() -> Self {
        Self {
            name: "CNN-4 (CIFAR-10)".into(),
            model: PaperModel::CnnCifar10,
            input_shape: [3, 32, 32],
            layers: vec![
                LayerSpec::Conv {
                    in_channels: 3,
                    out_channels: 32,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::Conv {
                    in_channels: 32,
                    out_channels: 64,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Conv {
                    in_channels: 64,
                    out_channels: 128,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::Conv {
                    in_channels: 128,
                    out_channels: 128,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Flatten,
                LayerSpec::Dense {
                    in_features: 3200,
                    out_features: 202,
                },
                LayerSpec::Relu,
                LayerSpec::Dense {
                    in_features: 202,
                    out_features: 10,
                },
            ],
            towers: 1,
        }
    }

    /// Model 3: custom CNN for STL-10 (7 conv + 2 FC).
    #[must_use]
    pub fn cnn_stl10() -> Self {
        Self {
            name: "CNN-7 (STL-10)".into(),
            model: PaperModel::CnnStl10,
            input_shape: [3, 96, 96],
            layers: vec![
                LayerSpec::Conv {
                    in_channels: 3,
                    out_channels: 32,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::Conv {
                    in_channels: 32,
                    out_channels: 64,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Conv {
                    in_channels: 64,
                    out_channels: 128,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::Conv {
                    in_channels: 128,
                    out_channels: 128,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Conv {
                    in_channels: 128,
                    out_channels: 256,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::Conv {
                    in_channels: 256,
                    out_channels: 256,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::Conv {
                    in_channels: 256,
                    out_channels: 256,
                    kernel: 3,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Flatten,
                LayerSpec::Dense {
                    in_features: 12_544,
                    out_features: 118,
                },
                LayerSpec::Relu,
                LayerSpec::Dense {
                    in_features: 118,
                    out_features: 10,
                },
            ],
            towers: 1,
        }
    }

    /// Model 4: Siamese CNN for Omniglot one-shot learning.
    ///
    /// Described as one twin tower (4 conv + 2 FC, weights shared); Table I's
    /// "8 CONV + 4 FC" counts both towers, which is captured by `towers = 2`.
    #[must_use]
    pub fn siamese_omniglot() -> Self {
        Self {
            name: "Siamese CNN (Omniglot)".into(),
            model: PaperModel::SiameseOmniglot,
            input_shape: [1, 105, 105],
            layers: vec![
                LayerSpec::Conv {
                    in_channels: 1,
                    out_channels: 64,
                    kernel: 10,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Conv {
                    in_channels: 64,
                    out_channels: 128,
                    kernel: 7,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Conv {
                    in_channels: 128,
                    out_channels: 128,
                    kernel: 4,
                },
                LayerSpec::Relu,
                LayerSpec::MaxPool { window: 2 },
                LayerSpec::Conv {
                    in_channels: 128,
                    out_channels: 256,
                    kernel: 4,
                },
                LayerSpec::Relu,
                LayerSpec::Flatten,
                LayerSpec::Dense {
                    in_features: 9216,
                    out_features: 4096,
                },
                LayerSpec::Relu,
                LayerSpec::Dense {
                    in_features: 4096,
                    out_features: 1,
                },
            ],
            towers: 2,
        }
    }

    /// Total trainable parameters (weights shared across towers are counted
    /// once, matching Table I).
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match *l {
                LayerSpec::Conv {
                    in_channels,
                    out_channels,
                    kernel,
                } => out_channels * in_channels * kernel * kernel + out_channels,
                LayerSpec::Dense {
                    in_features,
                    out_features,
                } => out_features * in_features + out_features,
                _ => 0,
            })
            .sum()
    }

    /// Number of layers of each kind (Table I's CONV/FC columns count layers
    /// per executed tower).
    #[must_use]
    pub fn layer_counts(&self) -> (usize, usize) {
        let conv = self
            .layers
            .iter()
            .filter(|l| matches!(l, LayerSpec::Conv { .. }))
            .count();
        let fc = self
            .layers
            .iter()
            .filter(|l| matches!(l, LayerSpec::Dense { .. }))
            .count();
        (conv * self.towers, fc * self.towers)
    }

    /// Per-layer photonic dot-product workloads of one tower, walking the
    /// input shape through the network.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidParameter`] if the layer dimensions do
    /// not compose (e.g. a dense layer whose input size does not match the
    /// flattened feature map).
    pub fn layer_workloads(&self) -> Result<Vec<(LayerKind, DotProductWorkload)>> {
        let mut shape = vec![
            self.input_shape[0],
            self.input_shape[1],
            self.input_shape[2],
        ];
        let mut out = Vec::new();
        for layer in &self.layers {
            match *layer {
                LayerSpec::Conv {
                    in_channels,
                    out_channels,
                    kernel,
                } => {
                    if shape.len() != 3 || shape[0] != in_channels {
                        return Err(NeuralError::InvalidParameter {
                            name: "layers",
                            reason: format!(
                                "conv expects {in_channels} channels, feature map is {shape:?}"
                            ),
                        });
                    }
                    let oh = shape[1].saturating_sub(kernel) + 1;
                    let ow = shape[2].saturating_sub(kernel) + 1;
                    out.push((
                        LayerKind::Convolution,
                        DotProductWorkload {
                            dot_length: in_channels * kernel * kernel,
                            dot_count: out_channels * oh * ow,
                        },
                    ));
                    shape = vec![out_channels, oh, ow];
                }
                LayerSpec::MaxPool { window } => {
                    shape = vec![shape[0], shape[1] / window, shape[2] / window];
                }
                LayerSpec::Flatten => {
                    shape = vec![shape.iter().product()];
                }
                LayerSpec::Dense {
                    in_features,
                    out_features,
                } => {
                    let current: usize = shape.iter().product();
                    if current != in_features {
                        return Err(NeuralError::InvalidParameter {
                            name: "layers",
                            reason: format!(
                                "dense expects {in_features} inputs, feature map has {current}"
                            ),
                        });
                    }
                    out.push((
                        LayerKind::FullyConnected,
                        DotProductWorkload {
                            dot_length: in_features,
                            dot_count: out_features,
                        },
                    ));
                    shape = vec![out_features];
                }
                LayerSpec::Relu => {}
            }
        }
        Ok(out)
    }

    /// The synthetic dataset spec matched to this model for the Fig. 5 study.
    #[must_use]
    pub fn surrogate_dataset(&self, samples_per_class: usize) -> SyntheticSpec {
        match self.model {
            PaperModel::Lenet5SignMnist => SyntheticSpec::sign_mnist_like(samples_per_class),
            PaperModel::CnnCifar10 => SyntheticSpec::cifar10_like(samples_per_class),
            PaperModel::CnnStl10 => SyntheticSpec::stl10_like(samples_per_class),
            PaperModel::SiameseOmniglot => SyntheticSpec::omniglot_like(samples_per_class),
        }
    }

    /// Builds a small trainable surrogate with the same layer types, sized for
    /// the matching synthetic dataset.
    ///
    /// # Errors
    ///
    /// Propagates layer-construction errors (which do not occur for the
    /// built-in specs).
    pub fn build_surrogate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Sequential> {
        let dataset = self.surrogate_dataset(1);
        let classes = dataset.num_classes;
        let (c, h, w) = (dataset.channels, dataset.height, dataset.width);
        let mut model = Sequential::new(format!("{} surrogate", self.name), vec![c, h, w]);
        match self.model {
            PaperModel::Lenet5SignMnist => {
                model.push(Box::new(Conv2d::new(c, 6, 3, 1, rng)?));
                model.push(Box::new(Relu::new()));
                model.push(Box::new(MaxPool2d::new(2)?));
                model.push(Box::new(Flatten::new()));
                let features = 6 * ((h - 2) / 2) * ((w - 2) / 2);
                model.push(Box::new(Dense::new(features, 32, rng)?));
                model.push(Box::new(Relu::new()));
                model.push(Box::new(Dense::new(32, classes, rng)?));
            }
            PaperModel::CnnCifar10 => {
                model.push(Box::new(Conv2d::new(c, 8, 3, 1, rng)?));
                model.push(Box::new(Relu::new()));
                model.push(Box::new(MaxPool2d::new(2)?));
                model.push(Box::new(Flatten::new()));
                let features = 8 * ((h - 2) / 2) * ((w - 2) / 2);
                model.push(Box::new(Dense::new(features, 32, rng)?));
                model.push(Box::new(Relu::new()));
                model.push(Box::new(Dense::new(32, classes, rng)?));
            }
            PaperModel::CnnStl10 => {
                model.push(Box::new(Conv2d::new(c, 8, 3, 1, rng)?));
                model.push(Box::new(Relu::new()));
                model.push(Box::new(MaxPool2d::new(2)?));
                model.push(Box::new(Conv2d::new(8, 12, 3, 1, rng)?));
                model.push(Box::new(Relu::new()));
                model.push(Box::new(Flatten::new()));
                let after_pool = (h - 2) / 2;
                let features = 12 * (after_pool - 2) * (after_pool - 2);
                model.push(Box::new(Dense::new(features, 32, rng)?));
                model.push(Box::new(Relu::new()));
                model.push(Box::new(Dense::new(32, classes, rng)?));
            }
            PaperModel::SiameseOmniglot => {
                model.push(Box::new(Conv2d::new(c, 8, 3, 1, rng)?));
                model.push(Box::new(Relu::new()));
                model.push(Box::new(MaxPool2d::new(2)?));
                model.push(Box::new(Flatten::new()));
                let features = 8 * ((h - 2) / 2) * ((w - 2) / 2);
                model.push(Box::new(Dense::new(features, 48, rng)?));
                model.push(Box::new(Relu::new()));
                model.push(Box::new(Dense::new(48, classes, rng)?));
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Table I parameter counts.
    const TABLE_I: [(PaperModel, usize, usize, usize); 4] = [
        (PaperModel::Lenet5SignMnist, 2, 2, 60_074),
        (PaperModel::CnnCifar10, 4, 2, 890_410),
        (PaperModel::CnnStl10, 7, 2, 3_204_080),
        (PaperModel::SiameseOmniglot, 8, 4, 38_951_745),
    ];

    #[test]
    fn parameter_counts_match_table_i_within_one_percent() {
        for (model, _, _, expected) in TABLE_I {
            let spec = model.spec();
            let got = spec.parameter_count();
            let rel = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(
                rel < 0.01,
                "{}: {got} parameters vs Table I {expected} ({:.2}% off)",
                spec.name,
                rel * 100.0
            );
        }
    }

    #[test]
    fn siamese_parameter_count_matches_exactly() {
        assert_eq!(ModelSpec::siamese_omniglot().parameter_count(), 38_951_745);
    }

    #[test]
    fn layer_counts_match_table_i() {
        for (model, conv, fc, _) in TABLE_I {
            let (got_conv, got_fc) = model.spec().layer_counts();
            assert_eq!(got_conv, conv, "{model:?} conv layers");
            assert_eq!(got_fc, fc, "{model:?} fc layers");
        }
    }

    #[test]
    fn workloads_compose_for_all_models() {
        for model in PaperModel::all() {
            let spec = model.spec();
            let workloads = spec.layer_workloads().expect("layers must compose");
            let conv_layers = workloads
                .iter()
                .filter(|(k, _)| *k == LayerKind::Convolution)
                .count();
            let fc_layers = workloads
                .iter()
                .filter(|(k, _)| *k == LayerKind::FullyConnected)
                .count();
            let (expected_conv, expected_fc) = spec.layer_counts();
            assert_eq!(conv_layers * spec.towers, expected_conv);
            assert_eq!(fc_layers * spec.towers, expected_fc);
            // Every workload is non-trivial.
            for (_, w) in &workloads {
                assert!(w.dot_length > 0 && w.dot_count > 0);
            }
        }
    }

    #[test]
    fn larger_models_have_more_macs() {
        let macs = |m: PaperModel| -> usize {
            let spec = m.spec();
            spec.layer_workloads()
                .unwrap()
                .iter()
                .map(|(_, w)| w.macs())
                .sum::<usize>()
                * spec.towers
        };
        // STL-10 (96×96 inputs, 7 conv) is the heaviest compute; LeNet the
        // lightest.
        assert!(macs(PaperModel::Lenet5SignMnist) < macs(PaperModel::CnnCifar10));
        assert!(macs(PaperModel::CnnCifar10) < macs(PaperModel::CnnStl10));
        assert!(macs(PaperModel::Lenet5SignMnist) < macs(PaperModel::SiameseOmniglot));
    }

    #[test]
    fn dataset_names_match_table_i() {
        assert_eq!(PaperModel::Lenet5SignMnist.dataset_name(), "Sign MNIST");
        assert_eq!(PaperModel::CnnCifar10.dataset_name(), "CIFAR10");
        assert_eq!(PaperModel::CnnStl10.dataset_name(), "STL10");
        assert_eq!(PaperModel::SiameseOmniglot.dataset_name(), "Omniglot");
    }

    #[test]
    fn wire_names_round_trip_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for model in PaperModel::all() {
            assert_eq!(PaperModel::from_wire_name(model.wire_name()), Some(model));
            assert!(seen.insert(model.wire_name()));
        }
        assert_eq!(PaperModel::from_wire_name("resnet50"), None);
    }

    #[test]
    fn surrogates_build_and_run() {
        let mut rng = StdRng::seed_from_u64(77);
        for model in PaperModel::all() {
            let spec = model.spec();
            let mut surrogate = spec.build_surrogate(&mut rng).unwrap();
            let dataset_spec = spec.surrogate_dataset(1);
            let input = crate::tensor::Tensor::zeros(dataset_spec.sample_shape());
            let out = surrogate.forward(&input).unwrap();
            assert_eq!(out.shape(), &[dataset_spec.num_classes]);
            // Surrogates stay small enough to train quickly.
            assert!(surrogate.parameter_count() < 60_000);
        }
    }
}
