//! The benchmark's input generators: seeded, repeatable and shaped as
//! configured.

use std::collections::HashSet;

use crosslight_perfbench::gen::{poisson_schedule, ColdSweep, MixStream, POINTS_PER_DIMS};

#[test]
fn same_seed_gives_the_same_request_stream() {
    let draw = |seed| {
        let mut mix = MixStream::new(seed, 64);
        (0..10_000).map(|_| mix.next_index()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    let schedule = |seed| poisson_schedule(seed, 3, 20_000.0, 500_000_000);
    assert_eq!(schedule(7), schedule(7));
    assert_ne!(schedule(7), schedule(8));
    let sweep = |seed| {
        let mut sweep = ColdSweep::new(seed);
        (0..2_000)
            .map(|_| sweep.next_request().key())
            .collect::<Vec<_>>()
    };
    assert_eq!(sweep(7), sweep(7));
    assert_ne!(sweep(7), sweep(8));
}

#[test]
fn the_mix_covers_the_pool_uniformly() {
    let mut mix = MixStream::new(1, 64);
    let mut counts = [0u32; 64];
    for _ in 0..64_000 {
        counts[mix.next_index()] += 1;
    }
    // 1000 expected per scenario; 5 standard deviations is about 160.
    assert!(
        counts.iter().all(|&c| (840..=1160).contains(&c)),
        "{counts:?}"
    );
}

#[test]
fn cold_sweep_never_repeats_a_result_cache_key_before_the_space_is_exhausted() {
    let mut sweep = ColdSweep::new(42);
    let len = sweep.len();
    assert_eq!(len, 58_500 * 4 * 2 * 4);
    // More points than any one service sees in a run, all distinct keys.
    let mut seen = HashSet::new();
    for _ in 0..400_000 {
        assert!(
            seen.insert(sweep.next_request().key()),
            "a cache key repeated"
        );
    }
}

#[test]
fn cold_sweep_is_a_permutation_of_the_design_space() {
    // The affine order must be full-period: check it index by index on the
    // whole space through the request ids and configurations it yields.
    let mut sweep = ColdSweep::new(3);
    let len = sweep.len();
    let mut seen = vec![false; len as usize];
    let dims = crosslight_experiments::fig6_design_space::dense_candidates();
    let workloads: Vec<_> = crosslight_neural::zoo::PaperModel::all()
        .iter()
        .map(|m| {
            crosslight_neural::workload::NetworkWorkload::from_spec(&m.spec())
                .expect("Table I workloads are valid")
        })
        .collect();
    let position = |request: &crosslight_runtime::request::EvalRequest| {
        let config = request
            .config()
            .expect("sweep points are CrossLight configs");
        let dim = dims
            .binary_search(&(
                config.conv_unit_size,
                config.fc_unit_size,
                config.conv_units,
                config.fc_units,
            ))
            .expect("sweep dims come from dense_candidates");
        let variant = crosslight_core::variants::CrossLightVariant::all()
            .iter()
            .position(|v| v.design() == config.design)
            .expect("sweep variants are paper variants");
        let bits = usize::from(config.resolution_bits == 16);
        let model = workloads
            .iter()
            .position(|w| *w == *request.workload)
            .expect("sweep workloads are Table I models");
        ((dim * 4 + variant) * 2 + bits) * 4 + model
    };
    for _ in 0..len {
        let slot = position(&sweep.next_request());
        assert!(!seen[slot], "point {slot} drawn twice in one pass");
        seen[slot] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn cold_sweep_by_dims_draws_every_point_of_a_dimension_tuple_in_a_row() {
    let dims_of = |request: &crosslight_runtime::request::EvalRequest| {
        let config = request
            .config()
            .expect("sweep points are CrossLight configs");
        (
            config.conv_unit_size,
            config.fc_unit_size,
            config.conv_units,
            config.fc_units,
        )
    };
    let order = |seed| {
        let mut sweep = ColdSweep::by_dims(seed);
        let mut keys = HashSet::new();
        let mut tuples = Vec::new();
        // The memory phase's 131072 points: 4096 whole tuples.
        for _ in 0..4096 {
            let block = sweep.next_batch(POINTS_PER_DIMS as usize);
            let tuple = dims_of(&block[0]);
            assert!(block.iter().all(|r| dims_of(r) == tuple));
            for request in &block {
                assert!(keys.insert(request.key()), "a cache key repeated");
            }
            tuples.push(tuple);
        }
        let distinct: HashSet<_> = tuples.iter().collect();
        assert_eq!(distinct.len(), tuples.len(), "a dimension tuple repeated");
        tuples
    };
    assert_eq!(order(5), order(5));
    assert_ne!(order(5), order(6));
}

#[test]
fn poisson_schedule_mean_rate_lands_on_the_configured_rate() {
    for (rate, seconds) in [(2_600.0, 20.0), (38_400.0, 5.0), (180_000.0 / 64.0, 30.0)] {
        let duration_ns = (seconds * 1e9) as u64;
        let schedule = poisson_schedule(11, 0, rate, duration_ns);
        let expected = rate * seconds;
        let got = schedule.len() as f64;
        // Poisson count: standard deviation sqrt(expected); allow 4 sigma.
        assert!(
            (got - expected).abs() <= 4.0 * expected.sqrt(),
            "rate {rate}: {got} arrivals, expected {expected}"
        );
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        assert!(schedule.last().is_some_and(|&t| t < duration_ns));
        // Exponential gaps: the coefficient of variation is about 1.
        let gaps: Vec<f64> = schedule.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.95..1.05).contains(&cv), "rate {rate}: gap cv {cv}");
    }
}
