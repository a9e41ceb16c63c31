//! End-to-end results and the output format: a human-readable table, then
//! one JSON object as the last line of standard output.

use std::fmt::Write as _;

use crate::config::{PhaseShares, WorkloadConfig};
use crate::stats::{median, Latency, WindowedLatency};

/// One rung of the sustained-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate.
    pub rate: f64,
    /// Latency at that rate.
    pub latency: Latency,
    /// Whether the in-flight count kept growing.
    pub backlog_growing: bool,
    /// Failed requests at that rate.
    pub failed: u64,
    /// p99 within the limit, no growing backlog and no failure.
    pub pass: bool,
}

/// Request accounting across every phase of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests (served) or evaluations (cold) attempted.
    pub attempted: u64,
    /// Sheds, error frames, timeouts and answer mismatches.
    pub failed: u64,
    /// Answers whose report differed from the serial reference.
    pub mismatched: u64,
}

impl Tally {
    /// Adds one phase's counts.
    pub fn add(&mut self, attempted: u64, failed: u64, mismatched: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.mismatched += mismatched;
    }

    /// Failed over attempted.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The end-to-end metrics of one untraced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EndToEnd {
    /// Closed-loop completions per second (median over windows).
    pub throughput_rps: f64,
    /// Program CPU time per closed-loop request (or evaluation), us.
    pub cpu_us_per_req: f64,
    /// Closed-loop latency of the unit the caller waits on.
    pub closed: Latency,
    /// Open-loop latency at the `low` rate.
    pub low: Latency,
    /// Open-loop latency at the `high` rate.
    pub high: Latency,
    /// Ladder rungs run, ascending.
    pub ladder: Vec<Rung>,
    /// Highest ladder rate that passed.
    pub sustained_rps: f64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Every set-up time measured, seconds.
    pub setup_samples: Vec<f64>,
    /// Peak resident memory above the resident memory before the program
    /// was set up, MiB (see [`MemoryBaseline`]): over the whole run on the
    /// served workloads, over a fixed-work phase on the cold sweep.
    pub rss_mb: f64,
    /// p99 of how late the open-loop generator sent, microseconds.
    pub lag_p99_us: f64,
    /// Request accounting.
    pub tally: Tally,
}

impl EndToEnd {
    /// The sustained rate of `ladder`: the rate at which a least-squares
    /// line through (ln rate, ln p99) of the rungs below the first one that
    /// failed requests or whose backlog grew reaches `p99_limit_us`, kept
    /// within the rates of those rungs (0 when none of them passed).  p99
    /// rises smoothly with the offered rate on every workload here, with
    /// no sharp knee inside the ladders, so reading the first failing rung
    /// lets one host stall move the rate by a rung or more; the fit
    /// spreads that stall over every rung, and a change smaller than one
    /// rung still shows.
    #[must_use]
    pub fn sustained(ladder: &[Rung], p99_limit_us: f64) -> f64 {
        let fitted: Vec<&Rung> = ladder
            .iter()
            .take_while(|r| !r.backlog_growing && r.failed == 0)
            .filter(|r| r.latency.p99_us > 0.0)
            .collect();
        if !fitted.iter().any(|r| r.pass) {
            return 0.0;
        }
        let points: Vec<(f64, f64)> = fitted
            .iter()
            .map(|r| (r.rate.ln(), r.latency.p99_us.ln()))
            .collect();
        let (Some(&(lowest, _)), Some(&(highest, _))) = (points.first(), points.last()) else {
            return 0.0;
        };
        let n = points.len() as f64;
        let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
        let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
        let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
        // With one point, or p99 not rising, the line never crosses the
        // limit: the rate is the top or the bottom of the fitted rungs.
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        let crossing = if slope > 0.0 {
            mean_x + (p99_limit_us.ln() - mean_y) / slope
        } else if mean_y <= p99_limit_us.ln() {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        crossing.clamp(lowest, highest).exp()
    }

    /// The metrics named in `BENCHMARK.json`'s `end_to_end` list, with
    /// units, in order.  The latencies are printed by [`EndToEnd::table`]
    /// only: on a shared virtual machine their run-to-run spread is wider
    /// than any regression bound could be.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("throughput_rps", self.throughput_rps, "1/s"),
            ("cpu_us_per_req", self.cpu_us_per_req, "us"),
            ("sustained_rps", self.sustained_rps, "1/s"),
            ("setup_s", self.setup_s, "s"),
            ("rss_mb", self.rss_mb, "MiB"),
        ]
    }

    /// The human-readable table: every metric with its unit, each
    /// percentile with its sample count, plus `failed_ratio`.
    #[must_use]
    pub fn table(&self, workload: &str, unit: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {workload} (latency unit: one {unit})");
        let _ = writeln!(out, "  throughput_rps   {:>12.1} 1/s", self.throughput_rps);
        let _ = writeln!(out, "  cpu_us_per_req   {:>12.3} us", self.cpu_us_per_req);
        for (name, latency) in [
            ("closed", &self.closed),
            ("low", &self.low),
            ("high", &self.high),
        ] {
            let _ = writeln!(
                out,
                "  {name}_p50_us {:>10.1} us   {name}_p99_us {:>10.1} us   (n = {})",
                latency.p50_us, latency.p99_us, latency.samples
            );
        }
        for rung in &self.ladder {
            let _ = writeln!(
                out,
                "  ladder {:>9.0}/s  p99 {:>10.1} us (n = {})  backlog_growing {}  failed {}  {}",
                rung.rate,
                rung.latency.p99_us,
                rung.latency.samples,
                rung.backlog_growing,
                rung.failed,
                if rung.pass { "pass" } else { "FAIL" }
            );
        }
        let _ = writeln!(out, "  sustained_rps    {:>12.1} 1/s", self.sustained_rps);
        let _ = writeln!(
            out,
            "  setup_s          {:>12.6} s   (median of {:?})",
            self.setup_s, self.setup_samples
        );
        let _ = writeln!(out, "  rss_mb           {:>12.1} MiB", self.rss_mb);
        let _ = writeln!(out, "  driver lag p99   {:>12.1} us", self.lag_p99_us);
        let _ = writeln!(
            out,
            "  failed_ratio     {:>12.6}     ({} failed, {} mismatched, of {} attempted)",
            self.tally.failed_ratio(),
            self.tally.failed,
            self.tally.mismatched,
            self.tally.attempted
        );
        out
    }
}

/// What one measured phase hands back to [`run_rounds`].
#[derive(Debug, Clone, Default)]
pub struct PhaseSample {
    /// Latencies in windows, ns.
    pub latency_ns: Vec<Vec<u64>>,
    /// Closed-loop completion rate per window, per second.
    pub window_rps: Vec<f64>,
    /// Open-loop send lag, ns.
    pub lag_ns: Vec<u64>,
    /// In-flight count at the quarter marks of the send window.
    pub backlog: [u64; 4],
    /// Failed requests.
    pub failed: u64,
    /// Requests (or evaluations) answered correctly.
    pub completed: u64,
    /// CPU time the program's threads spent during the phase, ns (the
    /// driver's own thread excluded).
    pub cpu_ns: u64,
}

/// The kinds of measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Closed loop at the workload's pipeline depth.
    Closed,
    /// Open loop at `rate` per second on arrival stream `tag`.
    Open {
        /// Offered rate.
        rate: f64,
        /// Arrival-stream tag, unique within the run.
        tag: u64,
    },
}

#[derive(Debug, Default)]
struct Pooled {
    latency: WindowedLatency,
    window_rps: Vec<f64>,
    growing_rounds: usize,
    failed: u64,
    completed: u64,
    cpu_ns: u64,
}

impl Pooled {
    fn add(&mut self, sample: PhaseSample, lag: &mut WindowedLatency) {
        for window in &sample.latency_ns {
            self.latency.push(window);
        }
        self.window_rps.extend(sample.window_rps);
        lag.push(&sample.lag_ns);
        let [_, half, three_quarters, end] = sample.backlog;
        if end > 8 && end > 2 * half.max(1) && end >= three_quarters {
            self.growing_rounds += 1;
        }
        self.failed += sample.failed;
        self.completed += sample.completed;
        self.cpu_ns += sample.cpu_ns;
    }
}

/// Runs `workload.rounds` rounds of closed loop, open loop at `low`, open
/// loop at `high` and every ladder rung, each for its share of
/// `seconds / rounds`, and pools every phase kind across rounds: a host
/// slowdown during part of the run then moves a minority of the windows
/// behind each median.  Set-up fields, `rss_mb` and the tally are left
/// for the caller.
///
/// # Errors
///
/// Propagates the first error of `run`.
pub fn run_rounds<E>(
    workload: &WorkloadConfig,
    shares: PhaseShares,
    seconds: f64,
    mut run: impl FnMut(Phase, f64) -> Result<PhaseSample, E>,
) -> Result<EndToEnd, E> {
    let rounds = workload.rounds.max(1);
    let round_s = seconds / rounds as f64;
    let rung_s = round_s * shares.ladder / workload.ladder_rps.len().max(1) as f64;
    let (mut closed, mut low, mut high) = (Pooled::default(), Pooled::default(), Pooled::default());
    let mut rungs: Vec<Pooled> = workload
        .ladder_rps
        .iter()
        .map(|_| Pooled::default())
        .collect();
    let mut lag = WindowedLatency::default();
    for round in 0..rounds as u64 {
        closed.add(
            run(Phase::Closed, round_s * shares.closed)?,
            &mut WindowedLatency::default(),
        );
        let tag = |phase: u64| phase * 1000 + round;
        let open = |rate: f64, phase: u64| Phase::Open {
            rate,
            tag: tag(phase),
        };
        low.add(
            run(open(workload.low_rps, 1), round_s * shares.low)?,
            &mut lag,
        );
        high.add(
            run(open(workload.high_rps, 2), round_s * shares.high)?,
            &mut lag,
        );
        for (i, (&rate, rung)) in workload.ladder_rps.iter().zip(&mut rungs).enumerate() {
            rung.add(run(open(rate, 10 + i as u64), rung_s)?, &mut lag);
        }
    }
    let ladder: Vec<Rung> = workload
        .ladder_rps
        .iter()
        .zip(rungs)
        .map(|(&rate, rung)| {
            let latency = rung.latency.finish();
            let backlog_growing = 2 * rung.growing_rounds > rounds;
            Rung {
                rate,
                latency,
                backlog_growing,
                failed: rung.failed,
                pass: latency.p99_us <= workload.p99_limit_us
                    && !backlog_growing
                    && rung.failed == 0,
            }
        })
        .collect();
    Ok(EndToEnd {
        throughput_rps: median(&closed.window_rps),
        cpu_us_per_req: closed.cpu_ns as f64 / 1e3 / closed.completed.max(1) as f64,
        closed: closed.latency.finish(),
        low: low.latency.finish(),
        high: high.latency.finish(),
        sustained_rps: EndToEnd::sustained(&ladder, workload.p99_limit_us),
        ladder,
        lag_p99_us: lag.finish().p99_us,
        ..EndToEnd::default()
    })
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
#[must_use]
pub fn result_line(correct: bool, tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// CPU time every thread of this process but the calling one has used so
/// far, ns (from `/proc`, in clock ticks of 10 ms; 0 where `/proc` is
/// unavailable).  The benchmark drives the program from its main thread,
/// so this is the program's own CPU time.
#[must_use]
pub fn program_cpu_ns() -> u64 {
    fn ticks(path: &str) -> Option<u64> {
        let stat = std::fs::read_to_string(path).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the whole line.
        let fields: Vec<&str> = stat
            .get(stat.rfind(')')? + 2..)?
            .split_whitespace()
            .collect();
        Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
    }
    let process = ticks("/proc/self/stat").unwrap_or(0);
    let own = ticks("/proc/thread-self/stat").unwrap_or(0);
    process.saturating_sub(own) * 10_000_000
}

/// A `/proc/self/status` field in MiB; 0 where `/proc` is unavailable.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hands memory the allocator holds free back to the system, so resident
/// memory counts live allocations only.
fn trim_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resident memory the program adds, measured without the benchmark's own
/// set-up residue: [`MemoryBaseline::take`] records resident memory before
/// the program is built, [`MemoryBaseline::restart_peak`] drops what the
/// benchmark freed (earlier set-ups, reference checks) and restarts the
/// kernel's peak (`VmHWM`) from the current resident size, and
/// [`MemoryBaseline::peak_mb`] is the peak since then above the baseline.
/// What the benchmark itself holds while measuring (one phase's latency
/// samples, the cold sweep's report digests) stays in the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBaseline {
    rss_mb: f64,
}

impl MemoryBaseline {
    /// Resident memory now, after trimming the allocator.
    #[must_use]
    pub fn take() -> Self {
        trim_allocator();
        Self {
            rss_mb: status_mb("VmRSS:"),
        }
    }

    /// Trims the allocator and restarts the peak from the current
    /// resident size (a no-op where `/proc/self/clear_refs` is absent).
    pub fn restart_peak() {
        trim_allocator();
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// Peak resident memory since the last restart above the baseline,
    /// MiB.
    #[must_use]
    pub fn peak_mb(&self) -> f64 {
        status_mb("VmHWM:") - self.rss_mb
    }
}
