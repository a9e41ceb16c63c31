//! The `cold_sweep` workload: Fig. 6-style design-space exploration straight
//! into an in-process [`EvalService`], every point new to the service.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crosslight_core::area::AcceleratorArea;
use crosslight_core::performance::{InferenceLatency, InferenceMetrics};
use crosslight_core::power::AcceleratorPower;
use crosslight_core::simulator::SimulationReport;
use crosslight_runtime::pool::{BatchItem, EvalService, RuntimeOptions};
use crosslight_runtime::request::EvalRequest;
use crosslight_runtime::RuntimeError;
use crosslight_telemetry::RegistrySnapshot;

use crate::config::{Config, WorkloadConfig};
use crate::driver::RATE_WINDOWS;
use crate::gen::{poisson_schedule, ColdSweep};
use crate::report::{
    program_cpu_ns, run_rounds, EndToEnd, MemoryBaseline, Phase, PhaseSample, Tally,
};
use crate::served::nproc;
use crate::stats::median;

/// Options of the service under test: `nproc` workers, defaults otherwise.
#[must_use]
pub fn runtime_options() -> RuntimeOptions {
    RuntimeOptions::default().with_workers(nproc())
}

/// What one cold phase observed.
#[derive(Debug, Default)]
pub struct ColdOutcome {
    /// Evaluations requested.
    pub sent: u64,
    /// Evaluation errors and unanswered evaluations.
    pub errors: u64,
    /// Reports that differed from the serial reference.
    pub mismatched: u64,
    /// Per-batch latency, ns (closed: from submit; open: from schedule).
    pub latency_ns: Vec<u64>,
    /// Evaluations completed per second, per window (closed loop).
    pub window_rps: Vec<f64>,
    /// How late each open-loop batch was submitted, ns.
    pub lag_ns: Vec<u64>,
    /// Batches in flight at the quarter marks of the send window.
    pub backlog: [u64; 4],
    /// The phase's service registry at the end of the phase.
    pub telemetry: RegistrySnapshot,
    /// Requests each worker of the phase's service completed.
    pub per_worker: Vec<u64>,
    /// CPU time the service's threads spent in the timed window, ns.
    pub cpu_ns: u64,
    /// Peak resident memory during the phase above `memory`'s baseline,
    /// MiB (read before the reference check).
    pub rss_mb: f64,
}

impl ColdOutcome {
    /// Failed evaluations of every kind.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatched
    }
}

/// How a cold phase offers batches.
#[derive(Debug, Clone, Copy)]
pub enum ColdLoad {
    /// Back-to-back `submit_batch` calls.
    Closed,
    /// Back-to-back `submit_batch` calls until this many evaluations
    /// were sent, however long that takes: the fixed work `rss_mb` is
    /// measured on.
    Fixed {
        /// Evaluations to send.
        points: u64,
    },
    /// Poisson batch arrivals at this many evaluations per second.
    Open {
        /// Offered evaluations per second.
        rate: f64,
        /// Arrival-stream tag.
        tag: u64,
    },
}

/// Runs one phase against a fresh service built with `options`, reads
/// its memory peak, then checks every report against serial one-worker
/// services outside the timed window and restarts the memory peak, so the
/// reference services never count towards a later phase's `rss_mb`.
#[must_use]
pub fn run_phase(
    sweep: &mut ColdSweep,
    batch: usize,
    load: ColdLoad,
    duration: Duration,
    seed: u64,
    options: RuntimeOptions,
    memory: &MemoryBaseline,
) -> ColdOutcome {
    let service = EvalService::new(options);
    let replay = sweep.clone();
    let cpu_before = program_cpu_ns();
    let (mut out, digests) = match load {
        ColdLoad::Closed => closed(&service, sweep, batch, duration, u64::MAX),
        ColdLoad::Fixed { points } => closed(&service, sweep, batch, Duration::MAX, points),
        ColdLoad::Open { rate, tag } => open(&service, sweep, batch, duration, rate, tag, seed),
    };
    out.cpu_ns = program_cpu_ns() - cpu_before;
    out.rss_mb = memory.peak_mb();
    out.telemetry = service.telemetry_snapshot();
    out.per_worker = service.stats().per_worker;
    service.shutdown();
    verify(replay, &digests, &mut out);
    MemoryBaseline::restart_peak();
    out
}

fn closed(
    service: &EvalService,
    sweep: &mut ColdSweep,
    batch: usize,
    duration: Duration,
    points: u64,
) -> (ColdOutcome, Vec<Option<u64>>) {
    let mut out = ColdOutcome::default();
    let mut digests = Vec::new();
    let window = duration / RATE_WINDOWS as u32;
    let mut window_done = [0u64; RATE_WINDOWS];
    let start = Instant::now();
    while start.elapsed() < duration && out.sent < points {
        let requests = sweep.next_batch(batch);
        out.sent += batch as u64;
        let submitted = Instant::now();
        match service.submit_batch(requests) {
            Ok(responses) => {
                let done = Instant::now();
                out.latency_ns
                    .push(done.duration_since(submitted).as_nanos() as u64);
                let slot =
                    (done.duration_since(start).as_nanos() / window.as_nanos().max(1)) as usize;
                if slot < RATE_WINDOWS {
                    window_done[slot] += batch as u64;
                }
                digests.extend(responses.iter().map(|r| Some(report_digest(&r.report))));
            }
            Err(_) => {
                out.errors += batch as u64;
                digests.extend(std::iter::repeat_n(None, batch));
            }
        }
    }
    out.window_rps = window_done
        .iter()
        .map(|&n| n as f64 / window.as_secs_f64())
        .collect();
    (out, digests)
}

type Reply = (
    u64,
    Result<crosslight_runtime::request::EvalResponse, RuntimeError>,
);

fn open(
    service: &EvalService,
    sweep: &mut ColdSweep,
    batch: usize,
    duration: Duration,
    rate: f64,
    stream_tag: u64,
    seed: u64,
) -> (ColdOutcome, Vec<Option<u64>>) {
    let mut out = ColdOutcome::default();
    let schedule = poisson_schedule(
        seed,
        stream_tag,
        rate / batch as f64,
        duration.as_nanos() as u64,
    );
    let first_id = sweep.drawn();
    let mut digests: Vec<Option<u64>> = vec![None; schedule.len() * batch];
    let mut remaining = vec![batch; schedule.len()];
    let mut in_flight = 0u64;
    let (tx, rx) = mpsc::channel::<Reply>();
    let deadline = duration + Duration::from_secs(3);
    let mut next = 0usize;
    let mut quarter = 0usize;
    let start = Instant::now();
    let ns = |at: Instant| at.duration_since(start).as_nanos() as u64;
    let duration_ns = duration.as_nanos() as u64;
    let mut handle =
        |(tag, outcome): Reply, at: u64, in_flight: &mut u64, out: &mut ColdOutcome| {
            let index = (tag - first_id) as usize;
            match outcome {
                Ok(response) => digests[index] = Some(report_digest(&response.report)),
                Err(_) => out.errors += 1,
            }
            let b = index / batch;
            remaining[b] -= 1;
            if remaining[b] == 0 {
                *in_flight -= 1;
                out.latency_ns.push(at.saturating_sub(schedule[b]));
            }
        };
    loop {
        let now = ns(Instant::now());
        while quarter < 4 && now >= duration_ns * (quarter as u64 + 1) / 4 {
            out.backlog[quarter] = in_flight;
            quarter += 1;
        }
        while next < schedule.len() && schedule[next] <= now {
            let items: Vec<BatchItem> = sweep
                .next_batch(batch)
                .into_iter()
                .map(|request: EvalRequest| BatchItem {
                    tag: request.id,
                    request,
                    trace: None,
                    cancel: None,
                })
                .collect();
            out.lag_ns.push(now - schedule[next]);
            out.sent += batch as u64;
            service.submit_detached_batch(items, &tx);
            in_flight += 1;
            next += 1;
        }
        if next == schedule.len() && in_flight == 0 {
            break;
        }
        let now = Instant::now();
        if now.duration_since(start) > deadline {
            out.errors += remaining.iter().map(|&r| r as u64).sum::<u64>();
            break;
        }
        let wait = schedule.get(next).map_or(Duration::from_millis(5), |&due| {
            Duration::from_nanos(due.saturating_sub(ns(now)))
        });
        match rx.recv_timeout(wait) {
            Ok(reply) => {
                handle(reply, ns(Instant::now()), &mut in_flight, &mut out);
                while let Ok(reply) = rx.try_recv() {
                    handle(reply, ns(Instant::now()), &mut in_flight, &mut out);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("the driver holds a sender"),
        }
    }
    while quarter < 4 {
        out.backlog[quarter] = in_flight;
        quarter += 1;
    }
    (out, digests)
}

/// Every field of a report as raw bits.  The exhaustive patterns stop
/// compiling if a field is added, so the comparison cannot silently skip
/// one.
#[must_use]
pub fn report_bits(report: &SimulationReport) -> [u64; 17] {
    let SimulationReport {
        power,
        area,
        metrics,
        resolution_bits,
    } = report;
    let AcceleratorPower {
        laser,
        tuning,
        detection,
        conversion,
        control,
    } = power;
    let AcceleratorArea {
        mr_banks,
        arm_devices,
        unit_electronics,
    } = area;
    let InferenceMetrics {
        latency,
        fps,
        energy_per_inference,
        energy_per_bit_pj,
        kfps_per_watt,
        power: watts,
    } = metrics;
    let InferenceLatency {
        conv_time,
        fc_time,
        electronic_time,
    } = latency;
    [
        laser.value(),
        tuning.value(),
        detection.value(),
        conversion.value(),
        control.value(),
        mr_banks.value(),
        arm_devices.value(),
        unit_electronics.value(),
        conv_time.value(),
        fc_time.value(),
        electronic_time.value(),
        *fps,
        energy_per_inference.value(),
        *energy_per_bit_pj,
        *kfps_per_watt,
        watts.value(),
    ]
    .map(f64::to_bits)
    .into_iter()
    .chain([u64::from(*resolution_bits)])
    .collect::<Vec<_>>()
    .try_into()
    .expect("seventeen fields")
}

/// The seventeen words of [`report_bits`] folded into 64 bits, so a
/// phase keeps a digest per answer instead of the 136-byte report.  Each word passes
/// through a bijective mix, so two reports that differ in any one word
/// always get different digests; reports that differ in several collide
/// with probability about 2^-64.
#[must_use]
pub fn report_digest(report: &SimulationReport) -> u64 {
    report_bits(report).iter().fold(0, |h, &word| {
        // The splitmix64 finalizer: xor-shifts and odd multipliers, each
        // invertible.
        let mut x = h ^ word;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    })
}

/// Re-draws the phase's points and evaluates them on one-worker services
/// (serial each; two halves side by side, a fresh pair per chunk so the
/// reference caches stay small), counting every answer whose report
/// digest differs from the reference's.
fn verify(mut replay: ColdSweep, digests: &[Option<u64>], out: &mut ColdOutcome) {
    for chunk in digests.chunks(8192) {
        let requests = replay.next_batch(chunk.len());
        let (left, right) = requests.split_at(requests.len() / 2);
        let expected: Vec<SimulationReport> = std::thread::scope(|scope| {
            let serial = |part: &[EvalRequest]| {
                let reference = EvalService::new(RuntimeOptions::default().with_workers(1));
                let reports: Vec<SimulationReport> = reference
                    .submit_batch(part.to_vec())
                    .expect("the reference service evaluates every design point")
                    .into_iter()
                    .map(|r| r.report)
                    .collect();
                reference.shutdown();
                reports
            };
            let left = scope.spawn(move || serial(left));
            let mut right = serial(right);
            let mut all = left.join().expect("the reference thread does not panic");
            all.append(&mut right);
            all
        });
        for (got, want) in chunk.iter().zip(&expected) {
            if got.is_some_and(|got| got != report_digest(want)) {
                out.mismatched += 1;
            }
        }
    }
}

/// One untraced `cold_sweep` run.
#[must_use]
pub fn run(config: &Config, workload: &WorkloadConfig, seed: u64, seconds: f64) -> EndToEnd {
    let mut setup_samples = Vec::new();
    let mut sweep = None;
    for _ in 0..config.setup_repeats.max(1) {
        let start = Instant::now();
        let service = EvalService::new(runtime_options());
        let fresh = ColdSweep::new(seed);
        setup_samples.push(start.elapsed().as_secs_f64());
        service.shutdown();
        sweep = Some(fresh);
    }
    let mut sweep = sweep.expect("at least one set-up ran");
    let mut tally = Tally::default();
    let batch = config.batch_points;
    // Memory is read on fixed work, first, in a process that has run
    // nothing else since the set-ups: a service holding `memory_points`
    // answers and the model-cache entries of exactly
    // `memory_points / POINTS_PER_DIMS` dimension tuples.
    let memory = MemoryBaseline::take();
    MemoryBaseline::restart_peak();
    let fixed = run_phase(
        &mut ColdSweep::by_dims(seed),
        batch,
        ColdLoad::Fixed {
            points: config.memory_points,
        },
        Duration::MAX,
        seed,
        runtime_options(),
        &memory,
    );
    tally.add(fixed.sent, fixed.failed(), fixed.mismatched);
    let result = run_rounds(workload, config.shares, seconds, |phase, secs| {
        let load = match phase {
            Phase::Closed => ColdLoad::Closed,
            Phase::Open { rate, tag } => ColdLoad::Open { rate, tag },
        };
        let outcome = run_phase(
            &mut sweep,
            batch,
            load,
            Duration::from_secs_f64(secs),
            seed,
            runtime_options(),
            &memory,
        );
        tally.add(outcome.sent, outcome.failed(), outcome.mismatched);
        Ok::<_, std::convert::Infallible>(PhaseSample {
            cpu_ns: outcome.cpu_ns,
            completed: outcome.latency_ns.len() as u64 * batch as u64,
            failed: outcome.failed(),
            latency_ns: vec![outcome.latency_ns],
            window_rps: outcome.window_rps,
            lag_ns: outcome.lag_ns,
            backlog: outcome.backlog,
        })
    });
    let Ok(mut e2e) = result;
    e2e.tally = tally;
    e2e.rss_mb = fixed.rss_mb;
    e2e.setup_s = median(&setup_samples);
    e2e.setup_samples = setup_samples;
    e2e
}
