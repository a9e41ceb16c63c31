//! Benchmark-trajectory harness: runs the hot-kernel workloads and emits a
//! machine-readable `BENCH_kernels.json` so every PR can record a perf
//! datapoint and future sessions can track the trajectory.
//!
//! ```sh
//! cargo run --release -p crosslight-bench --bin bench_kernels            # full run
//! cargo run --release -p crosslight-bench --bin bench_kernels -- --quick # CI smoke
//! cargo run --release -p crosslight-bench --bin bench_kernels -- --out path.json
//! ```
//!
//! Each entry carries the pre-refactor baseline (measured at commit
//! `e4efd69`, naive kernels, default `target-cpu`) next to the current
//! number, so `speedup_vs_baseline` is the before/after record the
//! acceptance criteria ask for.  The `*_naive` entries re-measure the
//! preserved reference kernels on the *same* machine and flags, isolating
//! the algorithmic win from compiler/flag effects.

use crosslight_bench::{measure, print_speedups, render_trajectory_json};
use crosslight_neural::datasets::generate_synthetic;
use crosslight_neural::layers::{Conv2d, Layer};
use crosslight_neural::quant::QuantConfig;
use crosslight_neural::tensor::{im2col_into, reference, Im2colSpec, Tensor};
use crosslight_neural::train::{evaluate_quantized, train, TrainConfig};
use crosslight_neural::zoo::PaperModel;
use crosslight_photonics::mr::{Microring, MrGeometry};
use crosslight_photonics::thermal::ThermalCrosstalkModel;
use crosslight_photonics::units::{Micrometers, Nanometers, Radians};
use crosslight_tuning::ted::{TedSolver, TedWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pre-refactor baselines in ns/iter, measured at commit e4efd69 (the seed
/// of this PR) with the then-current naive kernels and default codegen.
const BASELINES_NS: &[(&str, f64)] = &[
    ("matmul_96x288x96", 361_468.0),
    ("im2col_3x32x32_k3", 44_469.0),
    ("conv2d_forward_3x32x32_to_16ch", 150_971.0),
    ("train_epoch_cifar10_surrogate", 5_228_967.0),
    ("fig5_cell_cifar10_8bit", 22_174_703.0),
    ("ted_solve_15_mr_bank", 991.0),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let window_ms: u64 = if quick { 60 } else { 400 };
    let mode = if quick { "quick" } else { "full" };
    let mut results = Vec::new();

    // --- blocked vs naive matmul -----------------------------------------
    let mut rng = StdRng::seed_from_u64(42);
    let a = Tensor::random_uniform(vec![96, 288], 1.0, &mut rng);
    let b = Tensor::random_uniform(vec![288, 96], 1.0, &mut rng);
    let mut out = Tensor::default();
    results.push(measure("matmul_96x288x96", window_ms, || {
        a.matmul_into(&b, &mut out).expect("valid shapes");
        out.as_slice()[0]
    }));
    results.push(measure("matmul_96x288x96_naive", window_ms, || {
        reference::matmul_naive(&a, &b).expect("valid shapes")
    }));

    // --- im2col, blocked (buffer-reusing) vs naive -----------------------
    let input = Tensor::random_uniform(vec![3, 32, 32], 1.0, &mut rng);
    let spec = Im2colSpec {
        in_channels: 3,
        height: 32,
        width: 32,
        kernel: 3,
        stride: 1,
    };
    results.push(measure("im2col_3x32x32_k3", window_ms, || {
        im2col_into(&input, &spec, &mut out).expect("valid shapes");
        out.as_slice()[0]
    }));
    results.push(measure("im2col_3x32x32_k3_naive", window_ms, || {
        reference::im2col_naive(&input, &spec).expect("valid shapes")
    }));

    // --- conv forward (allocation-free steady state) ---------------------
    let mut conv_rng = StdRng::seed_from_u64(1);
    let mut conv = Conv2d::new(3, 16, 3, 1, &mut conv_rng).expect("valid layer");
    let conv_input = Tensor::random_uniform(vec![3, 32, 32], 1.0, &mut conv_rng);
    results.push(measure("conv2d_forward_3x32x32_to_16ch", window_ms, || {
        conv.forward_into(&conv_input, &mut out)
            .expect("valid input");
        out.as_slice()[0]
    }));

    // --- one SGD epoch on the Fig. 5 CIFAR-10 surrogate ------------------
    let spec_m = PaperModel::CnnCifar10.spec();
    let mut data_rng = StdRng::seed_from_u64(7);
    let dataset =
        generate_synthetic(&spec_m.surrogate_dataset(10), &mut data_rng).expect("dataset");
    let (train_split, test_split) = dataset.split(0.75);
    let mut model_rng = StdRng::seed_from_u64(9);
    let mut model = spec_m.build_surrogate(&mut model_rng).expect("surrogate");
    let epoch_config = TrainConfig {
        epochs: 1,
        learning_rate: 0.08,
        batch_size: 8,
    };
    results.push(measure("train_epoch_cifar10_surrogate", window_ms, || {
        train(&mut model, &train_split, &epoch_config).expect("trains")
    }));

    // --- one full Fig. 5 sweep cell (train + quantized evaluate) ---------
    let cell_config = TrainConfig {
        epochs: 4,
        learning_rate: 0.08,
        batch_size: 8,
    };
    results.push(measure(
        "fig5_cell_cifar10_8bit",
        window_ms.max(200),
        || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut surrogate = spec_m.build_surrogate(&mut rng).expect("surrogate");
            train(&mut surrogate, &train_split, &cell_config).expect("trains");
            evaluate_quantized(&mut surrogate, &test_split, &QuantConfig::uniform(8))
                .expect("evaluates")
        },
    ));

    // --- TED solve with a reused workspace -------------------------------
    let matrix = ThermalCrosstalkModel::default()
        .crosstalk_matrix(15, Micrometers::new(5.0))
        .expect("valid matrix");
    let solver = TedSolver::with_table_ii_heater(&matrix).expect("valid solver");
    let targets: Vec<Radians> = (0..15)
        .map(|i| Radians::new(0.2 + 0.1 * ((i as f64) * 1.3).sin()))
        .collect();
    let mut workspace = TedWorkspace::new();
    results.push(measure("ted_solve_15_mr_bank", window_ms, || {
        solver
            .solve_with(&targets, &mut workspace)
            .expect("solvable")
            .total_power
    }));

    // --- MR through-port transmission over a 1000-point wavelength sweep ---
    let ring = Microring::new(MrGeometry::optimized(), Nanometers::new(1550.0));
    results.push(measure("mr_through_transmission_sweep", window_ms, || {
        (0..1_000)
            .map(|i| {
                let wavelength = Nanometers::new(1549.0 + 0.002 * f64::from(i));
                ring.through_transmission(std::hint::black_box(wavelength))
            })
            .sum::<f64>()
    }));

    // --- 8-bit fake quantization of a 4096-value activation tensor --------
    let activations = Tensor::random_uniform(vec![4096], 1.0, &mut StdRng::seed_from_u64(2));
    let quant = QuantConfig::uniform(8);
    results.push(measure("fake_quantize_4096_values", window_ms, || {
        quant.quantize_activations(std::hint::black_box(&activations))
    }));

    let json = render_trajectory_json(
        "crosslight-bench-kernels/v1",
        mode,
        "e4efd69 (pre blocked-kernel refactor, naive kernels, default target-cpu)",
        BASELINES_NS,
        &results,
    );
    std::fs::write(&out_path, &json).expect("writing the JSON report succeeds");
    println!("\nwrote {out_path} ({mode} mode)");
    print_speedups(BASELINES_NS, &results);
}
