//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by nearest rank; 0 when
/// empty.  Sorts in place.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `values`; 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of `values`; 0 when empty.
#[must_use]
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

/// Latency summary of one phase, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Latency {
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Samples behind the percentiles.
    pub samples: usize,
}

/// Fewest samples a window needs for its p99 to have ten beyond it.
pub const MIN_WINDOW_SAMPLES: usize = 1000;

impl Latency {
    /// Summarizes nanosecond samples (sorted in place).
    pub fn of(samples_ns: &mut [u64]) -> Self {
        Self {
            p50_us: quantile(samples_ns, 0.50) as f64 / 1e3,
            p99_us: quantile(samples_ns, 0.99) as f64 / 1e3,
            samples: samples_ns.len(),
        }
    }

    /// The median over windows of each window's p50 and p99, so one
    /// transient host stall moves one window, not the result.  A window
    /// too small for a p99 with ten samples beyond it is pooled with its
    /// successors; `samples` counts every sample.
    pub fn windowed(windows: &mut [Vec<u64>]) -> Self {
        let mut pooled = WindowedLatency::default();
        for window in windows.iter() {
            pooled.push(window);
        }
        pooled.finish()
    }
}

/// [`Latency::windowed`] as windows arrive: each pooled window is reduced
/// to its p50 and p99 once its successor has filled, so at most two
/// windows of samples are held however long the run.
#[derive(Debug, Clone, Default)]
pub struct WindowedLatency {
    p50: Vec<f64>,
    p99: Vec<f64>,
    held: Vec<u64>,
    filling: Vec<u64>,
    samples: usize,
}

impl WindowedLatency {
    /// Adds one window of nanosecond samples.
    pub fn push(&mut self, window: &[u64]) {
        self.samples += window.len();
        self.filling.extend_from_slice(window);
        if self.filling.len() >= MIN_WINDOW_SAMPLES {
            self.reduce_held();
            std::mem::swap(&mut self.held, &mut self.filling);
        }
    }

    fn reduce_held(&mut self) {
        if !self.held.is_empty() {
            let latency = Latency::of(&mut self.held);
            self.p50.push(latency.p50_us);
            self.p99.push(latency.p99_us);
            self.held.clear();
        }
    }

    /// The summary; a last window too small to stand alone joins the one
    /// before it.
    #[must_use]
    pub fn finish(mut self) -> Latency {
        self.held.append(&mut self.filling);
        self.reduce_held();
        Latency {
            p50_us: median(&self.p50),
            p99_us: median(&self.p99),
            samples: self.samples,
        }
    }
}
