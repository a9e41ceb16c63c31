//! The served workloads, `warm_served` and `routed_warm`: the warm paper
//! mix over the wire, against one server or through a router over two.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crosslight_cluster::{Router, RouterOptions};
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::pool::{EvalService, RuntimeOptions};
use crosslight_server::wire::ResponseBody;
use crosslight_server::{Client, LoadGenOptions, Server, ServerOptions};
use crosslight_telemetry::RegistrySnapshot;

use crate::config::{Config, WorkloadConfig};
use crate::driver::{run_phase, Conn, Frames, Load, PhaseOutcome};
use crate::gen::{poisson_schedule, MixStream};
use crate::report::{
    program_cpu_ns, run_rounds, EndToEnd, MemoryBaseline, Phase, PhaseSample, Tally,
};
use crate::stats::median;

/// Cores of this host: the server worker count and the driver's
/// connection cap.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The four Table I workloads, indexed as [`PaperModel::all`].
#[must_use]
pub fn paper_workloads() -> [Arc<NetworkWorkload>; 4] {
    PaperModel::all().map(|model| {
        Arc::new(
            NetworkWorkload::from_spec(&model.spec()).expect("the Table I workloads are valid"),
        )
    })
}

/// The 64-scenario paper mix with reference reports from a serial
/// one-worker [`EvalService`], computed before anything is timed.
///
/// # Panics
///
/// Panics if a paper scenario fails to evaluate in-process.
#[must_use]
pub fn paper_frames() -> Frames {
    let specs = LoadGenOptions::paper_mix(1, 1, 0).scenarios;
    let table = paper_workloads();
    let reference = EvalService::new(RuntimeOptions::default().with_workers(1));
    let reports: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(id, spec)| {
            let request = spec
                .to_eval_request(id as u64, &table)
                .expect("paper scenarios are valid");
            reference
                .submit(request)
                .expect("paper scenarios evaluate")
                .report
        })
        .collect();
    reference.shutdown();
    Frames::new(specs, &reports)
}

/// Options of every server the benchmark binds: `nproc` workers, every
/// other field at its default.
#[must_use]
pub fn server_options() -> ServerOptions {
    ServerOptions::default().with_workers(nproc())
}

/// The program under test for a served workload.
#[derive(Debug)]
pub struct Stack {
    /// The servers: one direct, or the router's two backends.
    pub backends: Vec<Server>,
    /// The router, for `routed_warm`.
    pub router: Option<Router>,
}

/// Sends every scenario once to `addr`, pipelined on one connection, so
/// the result cache behind it holds the whole mix; every answer must be an
/// eval report.
fn warm(addr: SocketAddr, frames: &Frames) -> io::Result<()> {
    let mut client = Client::connect(addr)?;
    for scenario in 0..frames.len() {
        client.send_raw(&frames.request_line(scenario, scenario as u64))?;
    }
    for _ in 0..frames.len() {
        let response = client.recv()?;
        let ResponseBody::Eval(_) = response.body else {
            return Err(io::Error::other(format!("warm-up answer {response:?}")));
        };
    }
    Ok(())
}

impl Stack {
    /// Binds the servers (and router) and warms every backend's result
    /// cache with the whole mix: what `setup_s` times.
    ///
    /// # Errors
    ///
    /// Propagates bind and warm-up errors.
    pub fn bind(routed: bool, frames: &Frames, options: ServerOptions) -> io::Result<Self> {
        let count = if routed { 2 } else { 1 };
        let mut backends = Vec::with_capacity(count);
        for _ in 0..count {
            let server = Server::bind("127.0.0.1:0", options)?;
            warm(server.local_addr(), frames)?;
            backends.push(server);
        }
        let router = if routed {
            let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
            let router = Router::bind("127.0.0.1:0", &addrs, RouterOptions::default())?;
            warm(router.local_addr(), frames)?;
            Some(router)
        } else {
            None
        };
        Ok(Self { backends, router })
    }

    /// Where the driver connects.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.backends[0].local_addr(), Router::local_addr)
    }

    /// The backends' merged server + runtime scrapes, summed.
    #[must_use]
    pub fn backend_metrics(&self) -> RegistrySnapshot {
        RegistrySnapshot::aggregated(self.backends.iter().map(Server::metrics_snapshot).collect())
    }

    /// Stops the router, then the servers, joining every thread.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.backends {
            server.shutdown();
        }
    }
}

/// Binds `repeats` stacks, timing each; keeps the last.  Each stack is
/// shut down before the next is timed, so no earlier stack's threads run
/// during a timed set-up.
///
/// # Errors
///
/// Propagates bind and warm-up errors.
pub fn timed_setups(
    repeats: usize,
    routed: bool,
    frames: &Frames,
    options: ServerOptions,
) -> io::Result<(Stack, Vec<f64>)> {
    let mut samples = Vec::with_capacity(repeats);
    let mut kept: Option<Stack> = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = kept.take() {
            previous.shutdown();
        }
        let start = Instant::now();
        let stack = Stack::bind(routed, frames, options)?;
        samples.push(start.elapsed().as_secs_f64());
        kept = Some(stack);
    }
    Ok((kept.expect("at least one set-up ran"), samples))
}

/// The driver state shared by the phases of one run.
#[derive(Debug)]
pub struct Session<'a> {
    /// Driver connections.
    pub conns: Vec<Conn>,
    /// The mix and its references.
    pub frames: &'a Frames,
    /// The seeded scenario stream.
    pub mix: MixStream,
    /// Next request id.
    pub next_id: u64,
    /// Seed of the arrival schedules.
    pub seed: u64,
    /// Straggler wait after each phase.
    pub drain: Duration,
    /// Accounting across phases.
    pub tally: Tally,
}

impl<'a> Session<'a> {
    /// Opens the driver's connections to `addr` (the configured count, at
    /// most `nproc`); ids start at `first_id`.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn new(
        config: &Config,
        frames: &'a Frames,
        addr: SocketAddr,
        seed: u64,
        first_id: u64,
    ) -> io::Result<Self> {
        Ok(Self {
            conns: (0..config.connections.min(nproc()).max(1))
                .map(|_| Conn::connect(addr))
                .collect::<io::Result<_>>()?,
            frames,
            mix: MixStream::new(seed, frames.len()),
            next_id: first_id,
            seed,
            drain: Duration::from_secs_f64(config.drain_timeout_s),
            tally: Tally::default(),
        })
    }

    /// Runs one phase, adding its counts to the tally.
    ///
    /// # Errors
    ///
    /// Propagates driver socket errors.
    pub fn phase(
        &mut self,
        load: &Load,
        capture: impl FnMut(u64, usize, &str),
    ) -> io::Result<PhaseOutcome> {
        let outcome = run_phase(
            &mut self.conns,
            self.frames,
            &mut self.mix,
            &mut self.next_id,
            load,
            self.drain,
            capture,
        )?;
        self.tally
            .add(outcome.sent, outcome.failed(), outcome.mismatched);
        if outcome.failed() > 0 {
            eprintln!(
                "warning: {} of {} requests failed in a phase ({} shed, {} error frames, \
                 {} mismatched, {} timed out)",
                outcome.failed(),
                outcome.sent,
                outcome.shed,
                outcome.errors,
                outcome.mismatched,
                outcome.timed_out
            );
        }
        Ok(outcome)
    }

    /// A closed-loop phase of `seconds`.
    ///
    /// # Errors
    ///
    /// Propagates driver socket errors.
    pub fn closed(&mut self, depth: usize, seconds: f64) -> io::Result<PhaseOutcome> {
        self.phase(
            &Load::Closed {
                depth,
                duration: Duration::from_secs_f64(seconds),
            },
            |_, _, _| {},
        )
    }

    /// An open-loop phase at `rate` for `seconds`; `tag` picks the
    /// arrival stream.
    ///
    /// # Errors
    ///
    /// Propagates driver socket errors.
    pub fn open(&mut self, tag: u64, rate: f64, seconds: f64) -> io::Result<PhaseOutcome> {
        let duration = Duration::from_secs_f64(seconds);
        let schedule = poisson_schedule(self.seed, tag, rate, duration.as_nanos() as u64);
        // The connections together hold at most three quarters of the
        // requests the server admits, so a burst after a host stall, or a
        // rung above the knee, queues at the client (and is timed) instead
        // of being shed.  The margin covers the server returning a
        // request's admission permit only after its answer is queued, so
        // the answer can reach the client before the permit is free.
        let window =
            (ServerOptions::default().queue_capacity * 3 / 4 / self.conns.len().max(1)).max(1);
        self.phase(
            &Load::Open {
                schedule,
                window,
                duration,
            },
            |_, _, _| {},
        )
    }
}

/// One untraced run of a served workload: timed set-ups, an unmeasured
/// closed-loop warm-up, then the measured rounds.
///
/// # Errors
///
/// Propagates bind, warm-up and driver errors.
pub fn run(
    config: &Config,
    workload: &WorkloadConfig,
    routed: bool,
    seed: u64,
    seconds: f64,
) -> io::Result<EndToEnd> {
    let frames = paper_frames();
    let memory = MemoryBaseline::take();
    let (stack, setup_samples) =
        timed_setups(config.setup_repeats, routed, &frames, server_options())?;
    MemoryBaseline::restart_peak();
    let depth = workload.depth();
    let measured =
        Session::new(config, &frames, stack.addr(), seed, 1 << 20).and_then(|mut session| {
            session.closed(depth, config.warmup_s)?;
            let mut e2e = run_rounds(workload, config.shares, seconds, |phase, secs| {
                let cpu_before = program_cpu_ns();
                let outcome = match phase {
                    Phase::Closed => session.closed(depth, secs)?,
                    Phase::Open { rate, tag } => session.open(tag, rate, secs)?,
                };
                Ok::<_, io::Error>(PhaseSample {
                    cpu_ns: program_cpu_ns() - cpu_before,
                    completed: outcome.latency_ns.iter().map(|w| w.len() as u64).sum(),
                    failed: outcome.failed(),
                    latency_ns: outcome.latency_ns,
                    window_rps: outcome.window_rps,
                    lag_ns: outcome.lag_ns,
                    backlog: outcome.backlog,
                })
            })?;
            e2e.tally = session.tally;
            e2e.rss_mb = memory.peak_mb();
            Ok(e2e)
        });
    stack.shutdown();
    let mut e2e = measured?;
    e2e.setup_s = median(&setup_samples);
    e2e.setup_samples = setup_samples;
    Ok(e2e)
}
