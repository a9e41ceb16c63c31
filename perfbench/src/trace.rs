//! The traced run (`--trace 1`): a shortened pass of the workload's phases
//! that reads the program's counters and phase histograms, then serial
//! replays of the run's real frames and configurations through the public
//! functions of each layer under benchmark-side spans, reduced to the
//! per-layer metrics and the ledger.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crosslight_cluster::backend::rendezvous_order;
use crosslight_core::cache::ModelCache;
use crosslight_core::simulator::SimulationReport;
use crosslight_runtime::pool::{EvalService, RuntimeOptions};
use crosslight_runtime::request::EvalRequest;
use crosslight_server::wire::{self, Request, RequestBody};
use crosslight_telemetry::{RegistrySnapshot, SeriesValue};

use crate::cold;
use crate::config::{Config, WorkloadConfig};
use crate::driver::{Frames, Load};
use crate::gen::{ColdSweep, MixStream};
use crate::ledger::{spin, Attribution, Ledger, SelfTest, Tracer};
use crate::report::{MemoryBaseline, Tally};
use crate::served::{self, paper_workloads, server_options, Session, Stack};
use crate::stats::{median, quantile, Latency};

/// Every per-layer metric with its unit, in output order (the `per_layer`
/// list of `BENCHMARK.json`).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_request_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("wire.decode_response_ns", "ns"),
    ("wire.bytes_per_request", "bytes"),
    ("wire.calls_per_request", "count"),
    ("server.phase_read_ns", "ns"),
    ("server.phase_write_queue_ns", "ns"),
    ("server.phase_write_ns", "ns"),
    ("server.batch_size_mean", "count"),
    ("server.shed_total", "count"),
    ("server.unattributed_ns", "ns"),
    ("server.batcher_off_high_p99_us", "us"),
    ("runtime.queue_wait_ns", "ns"),
    ("runtime.submit_batch_per_req_ns", "ns"),
    ("runtime.worker_imbalance", "ratio"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.cache.lookup_ns", "ns"),
    ("core.cache.prepare_ns", "ns"),
    ("core.cache.prepare_calls_per_request", "count"),
    ("core.cache.model_hit_ratio", "ratio"),
    ("core.simulator.evaluate_ns", "ns"),
    ("cluster.hop_ns", "ns"),
    ("cluster.rendezvous_ns", "ns"),
    ("cluster.retries_total", "count"),
    ("cluster.hedge_useful_ratio", "ratio"),
    ("cluster.unattributed_ns", "ns"),
    ("telemetry.unsampled_overhead", "ratio"),
    ("driver.lag_p99_us", "us"),
    ("ledger.e2e_ns", "ns"),
    ("ledger.driver_ns", "ns"),
    ("ledger.wire_ns", "ns"),
    ("ledger.cluster_router_ns", "ns"),
    ("ledger.server_ns", "ns"),
    ("ledger.runtime_pool_ns", "ns"),
    ("ledger.runtime_cache_ns", "ns"),
    ("ledger.core_cache_ns", "ns"),
    ("ledger.core_simulator_ns", "ns"),
    ("ledger.unattributed_share", "ratio"),
    ("ledger.tracing_overhead_ns", "ns"),
    ("ledger.selftest_attributed_share", "ratio"),
];

/// Requests each serial replay sends.
const REPLAY: usize = 2000;
/// Requests of the self-test replay.
const SELFTEST: usize = 400;
/// The self-test's fixed delay inside one benchmark-side span.
const SELFTEST_DELAY_NS: u64 = 1_000_000;

/// Where a replay spins the self-test's fixed delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delay {
    /// No delay.
    Off,
    /// Before each request's root span: the self-test's control, which
    /// leaves the program idle exactly as long as `Inside` does.
    Outside,
    /// Inside one benchmark-side span of each request.
    Inside,
}

impl Delay {
    /// Spins the fixed delay if this replay puts it `at` the caller.
    fn spin_at(self, at: Self) {
        if self == at {
            spin(SELFTEST_DELAY_NS);
        }
    }
}

/// Frames kept from the load phases for replay.
const CAPTURE: usize = 4096;

/// What a traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Request accounting of the load phases.
    pub tally: Tally,
    /// Whether every replayed answer matched and every ledger reconciled.
    pub correct: bool,
    /// Human-readable report.
    pub text: String,
    /// Every span, as JSON lines.
    pub spans: String,
}

impl Traced {
    /// The metrics in `PER_LAYER` order, 0 for layers the workload does
    /// not pass through.
    #[must_use]
    pub fn ordered(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.metrics.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    fn put_ledger(&mut self, ledger: &Ledger) {
        let names = [
            ("driver", "ledger.driver_ns"),
            ("wire", "ledger.wire_ns"),
            ("cluster.router", "ledger.cluster_router_ns"),
            ("server", "ledger.server_ns"),
            ("runtime.pool", "ledger.runtime_pool_ns"),
            ("runtime.cache", "ledger.runtime_cache_ns"),
            ("core.cache", "ledger.core_cache_ns"),
            ("core.simulator", "ledger.core_simulator_ns"),
        ];
        for (layer, name) in names {
            self.metrics.insert(name, ledger.row(layer));
        }
        self.metrics.insert("ledger.e2e_ns", ledger.e2e_ns);
        self.metrics
            .insert("ledger.unattributed_share", ledger.unattributed_share());
    }
}

/// Change of a registry between two scrapes.
struct Delta<'a> {
    before: &'a RegistrySnapshot,
    after: &'a RegistrySnapshot,
}

fn histogram(snapshot: &RegistrySnapshot, name: &str, label: Option<&str>) -> (f64, u64) {
    let Some(family) = snapshot.family(name) else {
        return (0.0, 0);
    };
    family
        .series
        .iter()
        .filter(|s| label.is_none_or(|l| s.labels.iter().any(|(_, v)| v == l)))
        .fold((0.0, 0), |(sum, count), s| match &s.value {
            SeriesValue::Histogram(h) => (sum + h.sum() as f64, count + h.count()),
            _ => (sum, count),
        })
}

fn counter(snapshot: &RegistrySnapshot, name: &str) -> f64 {
    snapshot.family(name).map_or(0.0, |family| {
        family
            .series
            .iter()
            .map(|s| match s.value {
                SeriesValue::Counter(v) => v as f64,
                SeriesValue::Gauge(v) => v as f64,
                SeriesValue::Histogram(_) => 0.0,
            })
            .sum()
    })
}

impl Delta<'_> {
    /// Total and count of histogram `name` (optionally one label value).
    fn hist(&self, name: &str, label: Option<&str>) -> (f64, u64) {
        let (s1, c1) = histogram(self.after, name, label);
        let (s0, c0) = histogram(self.before, name, label);
        (s1 - s0, c1 - c0)
    }

    fn mean(&self, name: &str, label: Option<&str>) -> f64 {
        let (sum, count) = self.hist(name, label);
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    fn counter(&self, name: &str) -> f64 {
        counter(self.after, name) - counter(self.before, name)
    }

    fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.counter(hits), self.counter(misses));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// The runtime's phase totals as ledger attributions.
    fn runtime_attributions(&self, phase_family: &str, labelled: bool) -> Vec<Attribution> {
        let pick = |phase: &str, runtime: &str| {
            if labelled {
                self.hist(phase_family, Some(phase)).0
            } else {
                self.hist(runtime, None).0
            }
        };
        vec![
            Attribution {
                layer: "runtime.pool",
                total_ns: pick("queue", "runtime_queue_wait_ns"),
            },
            Attribution {
                layer: "runtime.cache",
                total_ns: pick("cache_lookup", "runtime_cache_lookup_ns"),
            },
            Attribution {
                layer: "core.cache",
                total_ns: pick("prepare", "runtime_prepare_ns"),
            },
            Attribution {
                layer: "core.simulator",
                total_ns: pick("evaluate", "runtime_evaluate_ns"),
            },
        ]
    }
}

fn worker_imbalance(before: &[u64], after: &[u64]) -> f64 {
    let done: Vec<f64> = after
        .iter()
        .zip(before.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
    if mean == 0.0 {
        0.0
    } else {
        done.iter().copied().fold(0.0, f64::max) / mean
    }
}

/// Replays the `(scenario, id)` requests one at a time over a blocking
/// connection, optionally under spans (with the self-test's `delay`
/// inside the response-decode span or before the root span), and checks
/// every answer.  Returns the mean end-to-end time per request, ns, and
/// the number of mismatched answers.
fn replay_wire(
    addr: SocketAddr,
    frames: &Frames,
    picks: &[(usize, u64)],
    mut tracer: Option<&mut Tracer>,
    delay: Delay,
) -> io::Result<(f64, u64)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    let mut mismatched = 0;
    let start = Instant::now();
    for &(scenario, id) in picks {
        let request = Request {
            id,
            body: RequestBody::Eval(frames.specs[scenario].clone()),
        };
        let mut exchange = || -> io::Result<()> {
            line.clear();
            writer.write_all(frames.request_line(scenario, id).as_bytes())?;
            writer.write_all(b"\n")?;
            reader.read_line(&mut line)?;
            Ok(())
        };
        match tracer.as_deref_mut() {
            Some(t) => {
                delay.spin_at(Delay::Outside);
                let root = t.open("e2e", "driver", id, None);
                let mut encoded = t.time("encode_request", "wire", id, Some(root), || {
                    wire::encode_request(&request)
                });
                encoded.push('\n');
                std::hint::black_box(&encoded);
                t.time("exchange", "unattributed", id, Some(root), &mut exchange)?;
                let decoded = t.time("decode_response", "wire", id, Some(root), || {
                    delay.spin_at(Delay::Inside);
                    wire::decode_response(line.trim_end())
                });
                t.close(root);
                std::hint::black_box(decoded.is_ok());
            }
            None => {
                let encoded = wire::encode_request(&request);
                std::hint::black_box(&encoded);
                exchange()?;
                std::hint::black_box(wire::decode_response(line.trim_end()).is_ok());
            }
        }
        if !frames.matches(scenario, line.trim_end()) {
            mismatched += 1;
        }
    }
    Ok((
        start.elapsed().as_nanos() as f64 / picks.len().max(1) as f64,
        mismatched,
    ))
}

/// Per-call means of the four codec functions on captured frames, and the
/// bytes a request and its answer put on the wire.  Also checks that the
/// codec round-trips each captured frame byte for byte.
fn replay_codec(
    tracer: &mut Tracer,
    frames: &Frames,
    captured: &[(usize, u64, String)],
) -> (bool, f64) {
    let mut exact = true;
    let mut bytes = 0usize;
    for (scenario, id, response_line) in captured {
        let request_line = frames.request_line(*scenario, *id);
        bytes += request_line.len() + response_line.len() + 2;
        let request = tracer
            .time("decode_request", "wire", *id, None, || {
                wire::decode_request(&request_line)
            })
            .expect("captured request frames decode");
        let encoded = tracer.time("encode_request", "wire", *id, None, || {
            wire::encode_request(&request)
        });
        let response = tracer
            .time("decode_response", "wire", *id, None, || {
                wire::decode_response(response_line)
            })
            .expect("captured response frames decode");
        let reencoded = tracer.time("encode_response", "wire", *id, None, || {
            wire::encode_response(&response)
        });
        exact &= encoded == request_line && reencoded == *response_line;
    }
    (exact, bytes as f64 / captured.len().max(1) as f64)
}

/// `ModelCache::prepare` and `PreparedSimulator::evaluate` on `requests`
/// against a fresh model cache: per-call means and the model hit ratio.
fn replay_core(tracer: &mut Tracer, requests: &[EvalRequest]) -> (f64, f64, f64) {
    let cache = ModelCache::new();
    for request in requests {
        let config = request.config().expect("benchmark requests are CrossLight");
        let prepared = tracer
            .time("prepare", "core.cache", request.id, None, || {
                cache.prepare(&config)
            })
            .expect("benchmark configurations prepare");
        let report = tracer.time("evaluate", "core.simulator", request.id, None, || {
            prepared.evaluate(&request.workload)
        });
        std::hint::black_box(report.is_ok());
    }
    let stats = cache.stats();
    let lookups = (stats.hits + stats.misses).max(1) as f64;
    (
        tracer.mean_ns("prepare"),
        tracer.mean_ns("evaluate"),
        stats.hits as f64 / lookups,
    )
}

/// `rendezvous_order` over the requests' fingerprints for two backends.
fn replay_rendezvous(tracer: &mut Tracer, requests: &[EvalRequest]) -> f64 {
    for request in requests {
        let fingerprint = request.key().fingerprint();
        let order = tracer.time(
            "rendezvous_order",
            "cluster.router",
            request.id,
            None,
            || rendezvous_order(fingerprint, 2),
        );
        std::hint::black_box(order);
    }
    tracer.mean_ns("rendezvous_order")
}

/// Median per-request time of `submit_batch` over `batches`, ns.
fn submit_batch_per_req(service: &EvalService, batches: &[Vec<EvalRequest>]) -> f64 {
    let per_req: Vec<f64> = batches
        .iter()
        .map(|batch| {
            let start = Instant::now();
            let responses = service
                .submit_batch(batch.clone())
                .expect("benchmark requests evaluate");
            std::hint::black_box(responses.len());
            start.elapsed().as_nanos() as f64 / batch.len().max(1) as f64
        })
        .collect();
    median(&per_req)
}

/// Enabled-but-unsampled tracing (period `u64::MAX`) over tracing off:
/// alternating blocks of the same batches, median of per-block ratios.
fn unsampled_overhead(make_batches: &mut dyn FnMut() -> Vec<Vec<EvalRequest>>, warm: bool) -> f64 {
    let workers = served::nproc();
    let off = EvalService::new(RuntimeOptions::default().with_workers(workers));
    let unsampled = EvalService::new(
        RuntimeOptions::default()
            .with_workers(workers)
            .with_trace_sampling(u64::MAX),
    );
    let mut ratios = Vec::new();
    for round in 0..100 {
        let batches = make_batches();
        if warm {
            for service in [&off, &unsampled] {
                submit_batch_per_req(service, &batches);
            }
        }
        // Cold batches must be new to each service: give each its own.
        let other = if warm {
            batches.clone()
        } else {
            make_batches()
        };
        // Alternate which runs first, so neither always meets a warmer CPU.
        let (a, b) = if round % 2 == 0 {
            let a = submit_batch_per_req(&off, &batches);
            (a, submit_batch_per_req(&unsampled, &other))
        } else {
            let b = submit_batch_per_req(&unsampled, &other);
            (submit_batch_per_req(&off, &batches), b)
        };
        ratios.push(b / a);
    }
    off.shutdown();
    unsampled.shutdown();
    median(&ratios)
}

/// The traced run of a served workload.
///
/// # Errors
///
/// Propagates bind, warm-up and driver errors.
#[allow(clippy::too_many_lines)]
pub fn served(
    config: &Config,
    workload: &WorkloadConfig,
    routed: bool,
    seed: u64,
    seconds: f64,
) -> io::Result<Traced> {
    let mut out = Traced::default();
    let frames = served::paper_frames();
    let stack = Stack::bind(routed, &frames, server_options())?;
    let mut session = Session::new(config, &frames, stack.addr(), seed, 1 << 20)?;
    session.closed(workload.depth(), config.warmup_s)?;

    // Load phases: the program's counters and histograms under load.
    let scrape = |stack: &Stack| {
        (
            stack.backend_metrics(),
            stack
                .router
                .as_ref()
                .map(crosslight_cluster::Router::metrics_snapshot),
            stack
                .backends
                .iter()
                .flat_map(|s| s.stats().runtime.per_worker)
                .collect::<Vec<u64>>(),
        )
    };
    let (m0, r0, w0) = scrape(&stack);
    let mut captured: Vec<(usize, u64, String)> = Vec::with_capacity(CAPTURE);
    let closed_load = Load::Closed {
        depth: workload.depth(),
        duration: Duration::from_secs_f64(seconds * 0.2),
    };
    session.phase(&closed_load, |id, scenario, line| {
        if captured.len() < CAPTURE {
            captured.push((scenario, id, line.to_string()));
        }
    })?;
    let mut lag = Vec::new();
    for (tag, rate) in [(1, workload.low_rps), (2, workload.high_rps)] {
        let outcome = session.open(tag * 1000, rate, seconds * 0.1)?;
        lag.extend(outcome.lag_ns);
    }
    let (m1, r1, w1) = scrape(&stack);
    let load = Delta {
        before: &m0,
        after: &m1,
    };
    let load_requests = load.counter("server_requests_total").max(1.0);
    let m = &mut out.metrics;
    m.insert(
        "server.phase_read_ns",
        load.mean("server_phase_ns", Some("read")),
    );
    m.insert(
        "server.phase_write_queue_ns",
        load.mean("server_phase_ns", Some("write_queue")),
    );
    m.insert(
        "server.phase_write_ns",
        load.mean("server_phase_ns", Some("write")),
    );
    m.insert(
        "server.batch_size_mean",
        load.mean("server_batch_size", None),
    );
    m.insert("server.shed_total", load.counter("server_shed_total"));
    m.insert(
        "runtime.queue_wait_ns",
        load.mean("runtime_queue_wait_ns", None),
    );
    m.insert("runtime.worker_imbalance", worker_imbalance(&w0, &w1));
    m.insert(
        "runtime.cache.hit_ratio",
        load.ratio(
            "runtime_result_cache_hits_total",
            "runtime_result_cache_misses_total",
        ),
    );
    m.insert(
        "runtime.cache.lookup_ns",
        load.mean("runtime_cache_lookup_ns", None),
    );
    m.insert(
        "core.cache.prepare_calls_per_request",
        load.hist("runtime_prepare_ns", None).1 as f64 / load_requests,
    );
    m.insert("driver.lag_p99_us", quantile(&mut lag, 0.99) as f64 / 1e3);
    if let (Some(r0), Some(r1)) = (&r0, &r1) {
        let router = Delta {
            before: r0,
            after: r1,
        };
        m.insert("cluster.hop_ns", router.mean("cluster_hop_ns", None));
        m.insert(
            "cluster.retries_total",
            router.counter("cluster_retries_total"),
        );
        let launched = router.counter("cluster_hedges_launched_total");
        m.insert(
            "cluster.hedge_useful_ratio",
            if launched == 0.0 {
                0.0
            } else {
                router.counter("cluster_hedges_won_total") / launched
            },
        );
    }
    out.tally = session.tally;
    drop(session);

    // Serial replays of captured frames: untraced and traced alternate in
    // blocks so a host slowdown hits both alike.
    let mut picks_rng = MixStream::new(seed ^ 0x5EED, captured.len().max(1));
    let picks: Vec<(usize, u64)> = (0..REPLAY)
        .map(|i| (captured[picks_rng.next_index()].0, (2 << 40) + i as u64))
        .collect();
    let mut tracer = Tracer::new();
    let (before, router_before, _) = scrape(&stack);
    let (mut traced_ns, mut untraced_ns, mut mismatched) = (Vec::new(), Vec::new(), 0);
    for (i, block) in picks.chunks(REPLAY / 8).enumerate() {
        // Alternate which goes first, so warming a fresh connection costs
        // both alike.
        for traced in [i % 2 == 0, i % 2 == 1] {
            let tracer = traced.then_some(&mut tracer);
            let (ns, bad) = replay_wire(stack.addr(), &frames, block, tracer, Delay::Off)?;
            if traced {
                &mut traced_ns
            } else {
                &mut untraced_ns
            }
            .push(ns);
            mismatched += bad;
        }
    }
    let (after, router_after, _) = scrape(&stack);
    let replay = Delta {
        before: &before,
        after: &after,
    };
    // Both replays send the same frames, so the server's per-request means
    // over both apply to the traced half.
    let served_requests = replay.hist("server_request_ns", None).1.max(1) as f64;
    let per_request = |total: f64| total / served_requests * REPLAY as f64;
    let phase = |name: &str| per_request(replay.hist("server_phase_ns", Some(name)).0);
    let server_total = per_request(replay.hist("server_request_ns", None).0);
    let server_phases: f64 = crosslight_telemetry::Phase::ALL
        .iter()
        .map(|p| phase(p.as_str()))
        .sum();
    let mut attributions = vec![
        Attribution {
            layer: "wire",
            total_ns: phase("decode") + phase("serialize"),
        },
        Attribution {
            layer: "server",
            total_ns: phase("read")
                + phase("admission")
                + phase("write_queue")
                + phase("write")
                + (server_total - server_phases),
        },
    ];
    attributions.extend(
        replay
            .runtime_attributions("server_phase_ns", true)
            .into_iter()
            .map(|a| Attribution {
                total_ns: per_request(a.total_ns),
                ..a
            }),
    );
    let untraced_replay_ns = median(&untraced_ns);
    let overheads: Vec<f64> = traced_ns
        .iter()
        .zip(&untraced_ns)
        .map(|(t, u)| t - u)
        .collect();
    if let (Some(r0), Some(r1)) = (&router_before, &router_after) {
        // The router's share: the exchange minus its hop to the backend;
        // the hop's own time outside the backend's trace stays
        // unattributed.
        let hops = Delta {
            before: r0,
            after: r1,
        };
        let hop_total = hops.mean("cluster_hop_ns", None) * REPLAY as f64;
        let e2e_total: f64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "exchange")
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum();
        attributions.push(Attribution {
            layer: "cluster.router",
            total_ns: (e2e_total - hop_total).max(0.0),
        });
        // Same frames straight to one backend: what the router adds.
        let (direct_ns, bad) = replay_wire(
            stack.backends[0].local_addr(),
            &frames,
            &picks[..REPLAY / 2],
            None,
            Delay::Off,
        )?;
        mismatched += bad;
        out.metrics
            .insert("cluster.unattributed_ns", untraced_replay_ns - direct_ns);
    }
    let ledger = Ledger::build(&tracer, "e2e", REPLAY as u64, &attributions);
    out.metrics
        .insert("server.unattributed_ns", ledger.row("unattributed"));
    out.metrics
        .insert("ledger.tracing_overhead_ns", median(&overheads));
    out.put_ledger(&ledger);

    // Self-test: a fixed delay inside one benchmark-side wire span, against
    // the same delay outside every span, must land on the wire row alone.
    // The two replays alternate in blocks, so a host slowdown hits both.
    let mut delayed = Tracer::new();
    let mut baseline = Tracer::new();
    for block in picks[..SELFTEST].chunks(SELFTEST / 8) {
        for (tracer, delay) in [
            (&mut baseline, Delay::Outside),
            (&mut delayed, Delay::Inside),
        ] {
            mismatched += replay_wire(stack.addr(), &frames, block, Some(tracer), delay)?.1;
        }
    }
    let scale = |a: &Attribution| Attribution {
        total_ns: a.total_ns * SELFTEST as f64 / REPLAY as f64,
        ..*a
    };
    let scaled: Vec<Attribution> = attributions.iter().map(scale).collect();
    let base = Ledger::build(&baseline, "e2e", SELFTEST as u64, &scaled);
    let with_delay = Ledger::build(&delayed, "e2e", SELFTEST as u64, &scaled);
    let selftest = SelfTest::compare(&base, &with_delay, "wire", SELFTEST_DELAY_NS as f64);
    out.metrics
        .insert("ledger.selftest_attributed_share", selftest.share);

    // Same-run micro-batcher comparison: the `high` phase with batching off.
    let batcher_off = {
        let stack_off = Stack::bind(routed, &frames, server_options().with_batch_max(1))?;
        let mut session = Session::new(config, &frames, stack_off.addr(), seed, 3 << 40)?;
        session.closed(workload.depth(), config.warmup_s)?;
        let mut outcome = session.open(2000, workload.high_rps, seconds * 0.1)?;
        out.tally.add(
            session.tally.attempted,
            session.tally.failed,
            session.tally.mismatched,
        );
        drop(session);
        stack_off.shutdown();
        Latency::windowed(&mut outcome.latency_ns).p99_us
    };
    out.metrics
        .insert("server.batcher_off_high_p99_us", batcher_off);
    stack.shutdown();

    // In-process layers on the run's own requests.
    let table = paper_workloads();
    let to_request = |&(scenario, id): &(usize, u64)| {
        frames.specs[scenario]
            .to_eval_request(id, &table)
            .expect("paper scenarios are valid")
    };
    let requests: Vec<EvalRequest> = picks.iter().map(to_request).collect();
    let mut codec = Tracer::new();
    let (exact, bytes) = replay_codec(&mut codec, &frames, &captured);
    for name in [
        "encode_request",
        "decode_request",
        "encode_response",
        "decode_response",
    ] {
        let key = match name {
            "encode_request" => "wire.encode_request_ns",
            "decode_request" => "wire.decode_request_ns",
            "encode_response" => "wire.encode_response_ns",
            _ => "wire.decode_response_ns",
        };
        out.metrics.insert(key, codec.mean_ns(name));
    }
    out.metrics.insert("wire.bytes_per_request", bytes);
    let codec_calls = load.hist("server_phase_ns", Some("decode")).1
        + load.hist("server_phase_ns", Some("serialize")).1;
    out.metrics.insert(
        "wire.calls_per_request",
        2.0 + codec_calls as f64 / load_requests,
    );
    let mut core = Tracer::new();
    let (prepare_ns, evaluate_ns, model_hits) = replay_core(&mut core, &requests);
    out.metrics.insert("core.cache.prepare_ns", prepare_ns);
    out.metrics
        .insert("core.simulator.evaluate_ns", evaluate_ns);
    out.metrics.insert("core.cache.model_hit_ratio", model_hits);
    if routed {
        let mut rendezvous = Tracer::new();
        out.metrics.insert(
            "cluster.rendezvous_ns",
            replay_rendezvous(&mut rendezvous, &requests),
        );
        out.spans += &rendezvous.to_json_lines("rendezvous");
    }
    let warm_batches: Vec<Vec<EvalRequest>> =
        requests.chunks(64).map(<[EvalRequest]>::to_vec).collect();
    let service = EvalService::new(cold::runtime_options());
    for batch in &warm_batches {
        service
            .submit_batch(batch.clone())
            .map_err(io::Error::other)?;
    }
    out.metrics.insert(
        "runtime.submit_batch_per_req_ns",
        submit_batch_per_req(&service, &warm_batches),
    );
    service.shutdown();
    let mut cycle = warm_batches.iter().cycle();
    out.metrics.insert(
        "telemetry.unsampled_overhead",
        unsampled_overhead(&mut || cycle.by_ref().take(8).cloned().collect(), true),
    );

    out.correct = mismatched == 0 && exact && ledger_holds(&ledger, &selftest);
    let replayed = 2 * REPLAY + 2 * SELFTEST + if routed { REPLAY / 2 } else { 0 };
    out.tally.add(replayed as u64, mismatched, mismatched);
    out.text = format!(
        "{}{}{}  codec round-trips captured frames exactly: {exact}\n",
        ledger.table(&workload.name),
        selftest_line(&ledger, &selftest, "wire"),
        with_delay.table("self-test (delayed)"),
    );
    out.spans += &tracer.to_json_lines("replay");
    out.spans += &baseline.to_json_lines("selftest-baseline");
    out.spans += &delayed.to_json_lines("selftest-delayed");
    out.spans += &codec.to_json_lines("codec");
    out.spans += &core.to_json_lines("core");
    Ok(out)
}

/// Whether a ledger may be trusted: its rows sum to the end-to-end time,
/// none is negative, and the self-test's delay landed on its layer alone.
fn ledger_holds(ledger: &Ledger, selftest: &SelfTest) -> bool {
    ledger.reconciles() && ledger.rows_nonnegative() && selftest.passes()
}

/// The ledger checks, as printed under the table.
fn selftest_line(ledger: &Ledger, selftest: &SelfTest, layer: &str) -> String {
    format!(
        "  rows non-negative: {}\n  self-test: {:.0} ns added inside a {layer} span moved the \
         {layer} row by {:.3} of it and no other row by more than {:.3} of it (passes: {})\n",
        ledger.rows_nonnegative(),
        SELFTEST_DELAY_NS as f64,
        selftest.share,
        selftest.max_other_share,
        selftest.passes()
    )
}

/// The traced run of `cold_sweep`.
#[must_use]
pub fn cold_sweep(config: &Config, workload: &WorkloadConfig, seed: u64, seconds: f64) -> Traced {
    let mut out = Traced::default();
    let mut sweep = ColdSweep::new(seed);
    let batch = config.batch_points;
    let traced_options = cold::runtime_options().with_trace_sampling(1);
    let memory = MemoryBaseline::take();
    let mut lag = Vec::new();
    let mut closed = cold::run_phase(
        &mut sweep,
        batch,
        cold::ColdLoad::Closed,
        Duration::from_secs_f64(seconds * 0.2),
        seed,
        traced_options,
        &memory,
    );
    for (tag, rate) in [(1000, workload.low_rps), (2000, workload.high_rps)] {
        let load = cold::ColdLoad::Open { rate, tag };
        let outcome = cold::run_phase(
            &mut sweep,
            batch,
            load,
            Duration::from_secs_f64(seconds * 0.1),
            seed,
            traced_options,
            &memory,
        );
        out.tally
            .add(outcome.sent, outcome.failed(), outcome.mismatched);
        lag.extend(outcome.lag_ns);
    }
    out.tally
        .add(closed.sent, closed.failed(), closed.mismatched);
    let empty = RegistrySnapshot::default();
    let load = Delta {
        before: &empty,
        after: &closed.telemetry,
    };
    let requests = closed.sent.max(1) as f64;
    let m = &mut out.metrics;
    m.insert(
        "runtime.queue_wait_ns",
        load.mean("runtime_queue_wait_ns", None),
    );
    m.insert(
        "runtime.worker_imbalance",
        worker_imbalance(&[], &closed.per_worker),
    );
    m.insert(
        "runtime.cache.hit_ratio",
        load.ratio(
            "runtime_result_cache_hits_total",
            "runtime_result_cache_misses_total",
        ),
    );
    m.insert(
        "runtime.cache.lookup_ns",
        load.mean("runtime_cache_lookup_ns", None),
    );
    m.insert(
        "core.cache.prepare_calls_per_request",
        load.hist("runtime_prepare_ns", None).1 as f64 / requests,
    );
    m.insert(
        "runtime.submit_batch_per_req_ns",
        crate::stats::mean(&closed.latency_ns) / batch as f64,
    );
    m.insert("driver.lag_p99_us", quantile(&mut lag, 0.99) as f64 / 1e3);
    closed.latency_ns.clear();

    // Serial replay of fresh sweep points: the submit call is the only
    // benchmark span below the root; the runtime's histograms split it.
    let service = EvalService::new(traced_options);
    let mut tracer = Tracer::new();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let mut mismatched = 0;
    // Every replayed request with the report it got back, for the check.
    type Kept = Vec<(EvalRequest, Option<SimulationReport>)>;
    let submit = |service: &EvalService,
                  tracer: Option<&mut Tracer>,
                  sweep: &mut ColdSweep,
                  count: usize,
                  delay: Delay,
                  keep: &mut Kept| {
        let start = Instant::now();
        let mut tracer = tracer;
        for _ in 0..count {
            let (request, response) = match tracer.as_deref_mut() {
                Some(t) => {
                    delay.spin_at(Delay::Outside);
                    let root = t.open("e2e", "driver", sweep.drawn(), None);
                    let request =
                        t.time("next_request", "driver", sweep.drawn(), Some(root), || {
                            delay.spin_at(Delay::Inside);
                            sweep.next_request()
                        });
                    let sent = request.clone();
                    let response = t.time("submit", "unattributed", request.id, Some(root), || {
                        service.submit(sent)
                    });
                    t.close(root);
                    (request, response)
                }
                None => {
                    let request = sweep.next_request();
                    let response = service.submit(request.clone());
                    (request, response)
                }
            };
            keep.push((request, response.ok().map(|r| r.report)));
        }
        start.elapsed().as_nanos() as f64 / count.max(1) as f64
    };
    let mut replayed: Kept = Vec::with_capacity(REPLAY);
    let before = service.telemetry_snapshot();
    let mut untraced_keep: Kept = Vec::new();
    for i in 0..8 {
        for traced in [i % 2 == 0, i % 2 == 1] {
            if traced {
                traced_ns.push(submit(
                    &service,
                    Some(&mut tracer),
                    &mut sweep,
                    REPLAY / 8,
                    Delay::Off,
                    &mut replayed,
                ));
            } else {
                untraced_ns.push(submit(
                    &service,
                    None,
                    &mut sweep,
                    REPLAY / 8,
                    Delay::Off,
                    &mut untraced_keep,
                ));
            }
        }
    }
    let after = service.telemetry_snapshot();
    let replay = Delta {
        before: &before,
        after: &after,
    };
    let served_requests = replay.hist("runtime_evaluate_ns", None).1.max(1) as f64;
    let attributions: Vec<Attribution> = replay
        .runtime_attributions("", false)
        .into_iter()
        .map(|a| Attribution {
            total_ns: a.total_ns / served_requests * REPLAY as f64,
            ..a
        })
        .collect();
    let ledger = Ledger::build(&tracer, "e2e", REPLAY as u64, &attributions);
    let overheads: Vec<f64> = traced_ns
        .iter()
        .zip(&untraced_ns)
        .map(|(t, u)| t - u)
        .collect();
    out.metrics
        .insert("ledger.tracing_overhead_ns", median(&overheads));
    out.put_ledger(&ledger);

    // Self-test: the fixed delay goes into the driver-side generation span,
    // against the same delay outside every span, alternating in blocks.
    let scaled: Vec<Attribution> = attributions
        .iter()
        .map(|a| Attribution {
            total_ns: a.total_ns * SELFTEST as f64 / REPLAY as f64,
            ..*a
        })
        .collect();
    let (mut baseline, mut delayed) = (Tracer::new(), Tracer::new());
    let mut scratch = Vec::new();
    for _ in 0..8 {
        for (tracer, delay) in [
            (&mut baseline, Delay::Outside),
            (&mut delayed, Delay::Inside),
        ] {
            submit(
                &service,
                Some(tracer),
                &mut sweep,
                SELFTEST / 8,
                delay,
                &mut scratch,
            );
        }
    }
    service.shutdown();
    let base = Ledger::build(&baseline, "e2e", SELFTEST as u64, &scaled);
    let with_delay = Ledger::build(&delayed, "e2e", SELFTEST as u64, &scaled);
    let selftest = SelfTest::compare(&base, &with_delay, "driver", SELFTEST_DELAY_NS as f64);
    out.metrics
        .insert("ledger.selftest_attributed_share", selftest.share);

    // Check every replayed answer against a serial one-worker service.
    let reference = EvalService::new(RuntimeOptions::default().with_workers(1));
    for chunk in replayed
        .chunks(256)
        .chain(untraced_keep.chunks(256))
        .chain(scratch.chunks(256))
    {
        let requests: Vec<EvalRequest> = chunk.iter().map(|(r, _)| r.clone()).collect();
        let want = reference
            .submit_batch(requests)
            .expect("design points evaluate");
        mismatched += want
            .iter()
            .zip(chunk)
            .filter(|(w, (_, got))| {
                got.is_none_or(|got| cold::report_bits(&w.report) != cold::report_bits(&got))
            })
            .count() as u64;
    }
    reference.shutdown();
    let replayed: Vec<EvalRequest> = replayed.into_iter().map(|(r, _)| r).collect();

    let mut core = Tracer::new();
    let (prepare_ns, evaluate_ns, model_hits) = replay_core(&mut core, &replayed);
    out.metrics.insert("core.cache.prepare_ns", prepare_ns);
    out.metrics
        .insert("core.simulator.evaluate_ns", evaluate_ns);
    out.metrics.insert("core.cache.model_hit_ratio", model_hits);
    out.metrics.insert(
        "telemetry.unsampled_overhead",
        unsampled_overhead(
            &mut || (0..4).map(|_| sweep.next_batch(batch)).collect(),
            false,
        ),
    );

    out.correct = mismatched == 0 && ledger_holds(&ledger, &selftest);
    out.tally
        .add((2 * REPLAY + 2 * SELFTEST) as u64, mismatched, mismatched);
    out.text = format!(
        "{}{}",
        ledger.table(&workload.name),
        selftest_line(&ledger, &selftest, "driver"),
    );
    out.spans += &tracer.to_json_lines("replay");
    out.spans += &baseline.to_json_lines("selftest-baseline");
    out.spans += &delayed.to_json_lines("selftest-delayed");
    out.spans += &core.to_json_lines("core");
    out
}
