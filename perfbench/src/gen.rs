//! Seeded input generators.  The program under test only ever sees what
//! these produce; the seed is the benchmark's `--seed` argument, so the same
//! seed replays the same request streams, schedules and sweep points.

use std::sync::Arc;

use crosslight_core::config::CrossLightConfig;
use crosslight_core::variants::CrossLightVariant;
use crosslight_experiments::fig6_design_space::dense_candidates;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::request::EvalRequest;

/// SplitMix64: a tiny, well-mixed generator whose stream is fixed by its
/// seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD605_0C5B_C3A1_0E2B));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias below 2^-64 * n, irrelevant at these sizes.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Stream tags, so the phases of one run draw independent sequences.
pub mod stream {
    /// Scenario draws of the warm mix.
    pub const MIX: u64 = 1;
    /// Open-loop arrival gaps (the phase's rate index is added).
    pub const ARRIVALS: u64 = 100;
    /// The cold sweep's permutation.
    pub const SWEEP: u64 = 2;
}

/// Uniform draws from a scenario pool of `len` entries.
#[derive(Debug, Clone)]
pub struct MixStream {
    rng: Rng,
    len: u64,
}

impl MixStream {
    /// The draw sequence for `seed` over a pool of `len` scenarios.
    #[must_use]
    pub fn new(seed: u64, len: usize) -> Self {
        assert!(len > 0, "the scenario pool is not empty");
        Self {
            rng: Rng::new(seed, stream::MIX),
            len: len as u64,
        }
    }

    /// The next scenario index.
    pub fn next_index(&mut self) -> usize {
        self.rng.below(self.len) as usize
    }
}

/// Seeded Poisson arrivals: send offsets from the phase start, in
/// nanoseconds, with exponential gaps of mean `1 / rate`.
#[must_use]
pub fn poisson_schedule(seed: u64, stream_tag: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "an open-loop rate is positive");
    let mut rng = Rng::new(seed, stream::ARRIVALS + stream_tag);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut out = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// The cold design-space sweep: every `dense_candidates()` point × the four
/// CrossLight variants × {8, 16} bits × the four Table I models (about
/// 1.87 M points), visited in a seeded order that draws every point once
/// before any repeats (a full-period affine permutation of the index
/// space, restarted when exhausted).  A service that sees fewer points
/// than that never sees a repeat, so every request misses its result cache.
///
/// [`ColdSweep::by_dims`] permutes whole dimension tuples instead and
/// draws the [`POINTS_PER_DIMS`] points of each in a row, so a prefix of
/// `32 * d` draws always holds exactly `d` dimension tuples with every
/// variant, resolution and model: the number of distinct model-cache keys
/// it creates is fixed, whatever the seed.
#[derive(Debug, Clone)]
pub struct ColdSweep {
    dims: Vec<(usize, usize, usize, usize)>,
    workloads: [Arc<NetworkWorkload>; 4],
    block: u64,
    multiplier: u64,
    offset: u64,
    next: u64,
}

/// Resolutions swept by [`ColdSweep`].
pub const SWEEP_BITS: [u32; 2] = [8, 16];

/// Points per dimension tuple: 4 variants × 2 resolutions × 4 models.
pub const POINTS_PER_DIMS: u64 = 4 * SWEEP_BITS.len() as u64 * 4;

impl ColdSweep {
    /// The sweep order for `seed`, point by point.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::permuted(seed, 1)
    }

    /// The sweep order for `seed`, one dimension tuple at a time.
    #[must_use]
    pub fn by_dims(seed: u64) -> Self {
        Self::permuted(seed, POINTS_PER_DIMS)
    }

    /// Permutes blocks of `block` consecutive index-space points.
    fn permuted(seed: u64, block: u64) -> Self {
        let dims = dense_candidates();
        let workloads = PaperModel::all().map(|model| {
            Arc::new(
                NetworkWorkload::from_spec(&model.spec()).expect("the Table I workloads are valid"),
            )
        });
        let mut sweep = Self {
            dims,
            workloads,
            block,
            multiplier: 1,
            offset: 0,
            next: 0,
        };
        let len = sweep.len() / block;
        let mut rng = Rng::new(seed, stream::SWEEP);
        sweep.offset = rng.below(len);
        // A multiplier coprime to the length makes i -> a*i + b a bijection.
        sweep.multiplier = loop {
            let candidate = rng.below(len - 1) + 1;
            if gcd(candidate, len) == 1 {
                break candidate;
            }
        };
        sweep
    }

    /// Size of the design space.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        (self.dims.len() * 4 * SWEEP_BITS.len() * 4) as u64
    }

    /// Points drawn so far.
    #[must_use]
    pub fn drawn(&self) -> u64 {
        self.next
    }

    /// The next point as an evaluation request; its id is its position in
    /// the sweep.
    ///
    pub fn next_request(&mut self) -> EvalRequest {
        let len = self.len() / self.block;
        let id = self.next;
        let slot = ((u128::from(self.multiplier) * u128::from(self.next / self.block % len)
            + u128::from(self.offset))
            % u128::from(len)) as u64;
        let index = slot * self.block + self.next % self.block;
        self.next += 1;
        let model = (index % 4) as usize;
        let rest = index / 4;
        let bits = SWEEP_BITS[(rest % SWEEP_BITS.len() as u64) as usize];
        let rest = rest / SWEEP_BITS.len() as u64;
        let variant = CrossLightVariant::all()[(rest % 4) as usize];
        let (n, k, conv_units, fc_units) = self.dims[(rest / 4) as usize];
        let config = CrossLightConfig::new(n, k, conv_units, fc_units, variant.design())
            .expect("dense_candidates are valid CrossLight dimensions")
            .with_resolution_bits(bits);
        EvalRequest::new(config, Arc::clone(&self.workloads[model])).with_id(id)
    }

    /// The next `count` points.
    pub fn next_batch(&mut self, count: usize) -> Vec<EvalRequest> {
        (0..count).map(|_| self.next_request()).collect()
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}
