//! The wire load driver: one thread multiplexing at most `nproc`
//! connections over [`PollSet`] + [`LineScanner`].
//!
//! Closed loop keeps a fixed number of requests in flight per connection
//! and times each from its send.  Open loop sends on a seeded Poisson
//! schedule regardless of replies and times each request from its
//! *scheduled* send, so a stall is charged to every request it delays
//! (no coordinated omission); how late the driver itself ran is recorded
//! separately as lag.  Every response is correlated by its `id` and its
//! report is compared byte-for-byte with the reference encoding.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crosslight_server::poller::{fd_of, LineScanner, PollSet, ScanEvent};
use crosslight_server::wire::EvalFrame;
use crosslight_server::wire::{self, EvalSpec, Request, RequestBody, Response, ResponseBody};

use crate::gen::MixStream;

/// Longest line the driver accepts (the server's default limit).
const MAX_LINE: usize = wire::DEFAULT_MAX_LINE_BYTES;

/// The request/response vocabulary of a warm mix, prepared outside the
/// timed window: each scenario's request line split around its id, and the
/// reference encoding every response for it must end with.
#[derive(Debug, Clone)]
pub struct Frames {
    /// Per scenario: the request line's bytes after the id.
    suffixes: Vec<Vec<u8>>,
    /// Per scenario: `,"report":<reference report>}}`.
    expected: Vec<Vec<u8>>,
    /// The scenarios themselves, for replay.
    pub specs: Vec<EvalSpec>,
}

const REQUEST_PREFIX: &[u8] = b"{\"v\":1,\"id\":";
const RESPONSE_PREFIX: &[u8] = b"{\"v\":1,\"id\":";

impl Frames {
    /// Builds the frames of `specs`, whose reference reports are `reports`
    /// (computed by a serial in-process service).
    ///
    /// # Panics
    ///
    /// Panics if the wire encoding no longer starts with the version and id
    /// fields, which the driver's splicing relies on.
    #[must_use]
    pub fn new(
        specs: Vec<EvalSpec>,
        reports: &[crosslight_core::simulator::SimulationReport],
    ) -> Self {
        assert_eq!(specs.len(), reports.len());
        let suffixes = specs
            .iter()
            .map(|spec| {
                let line = wire::encode_request(&Request {
                    id: 0,
                    body: RequestBody::Eval(spec.clone()),
                });
                let head = [REQUEST_PREFIX, b"0"].concat();
                assert!(
                    line.as_bytes().starts_with(&head),
                    "request frames lead with v and id"
                );
                line.as_bytes()[head.len()..].to_vec()
            })
            .collect();
        let expected = reports
            .iter()
            .map(|report| {
                let line = wire::encode_response(&Response {
                    id: Some(0),
                    body: ResponseBody::Eval(EvalFrame {
                        report: *report,
                        cache_hit: true,
                        worker: 0,
                    }),
                });
                let at = line
                    .find(",\"report\":")
                    .expect("eval frames carry a report");
                line.as_bytes()[at..].to_vec()
            })
            .collect();
        Self {
            suffixes,
            expected,
            specs,
        }
    }

    /// Number of scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether there are no scenarios.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Appends request `id` for `scenario`, newline-terminated, to `out`.
    pub fn push_request(&self, scenario: usize, id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(REQUEST_PREFIX);
        push_u64(id, out);
        out.extend_from_slice(&self.suffixes[scenario]);
        out.push(b'\n');
    }

    /// The full request line for `scenario` (no newline).
    #[must_use]
    pub fn request_line(&self, scenario: usize, id: u64) -> String {
        let mut out = Vec::new();
        self.push_request(scenario, id, &mut out);
        out.pop();
        String::from_utf8(out).expect("request frames are UTF-8")
    }

    /// Whether `line` is a successful eval answer whose report is
    /// byte-identical to the reference for `scenario`.
    #[must_use]
    pub fn matches(&self, scenario: usize, line: &str) -> bool {
        line.as_bytes().ends_with(&self.expected[scenario])
            && line.contains("\"ok\":{\"type\":\"eval\"")
    }
}

fn push_u64(mut value: u64, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The id of a response line, read from its fixed `{"v":1,"id":` head.
#[must_use]
pub fn response_id(line: &str) -> Option<u64> {
    let rest = line.as_bytes().strip_prefix(RESPONSE_PREFIX)?;
    let mut id: u64 = 0;
    let mut digits = 0;
    for &b in rest {
        if !b.is_ascii_digit() {
            break;
        }
        id = id.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        digits += 1;
    }
    (digits > 0).then_some(id)
}

/// One nonblocking driver connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    scanner: LineScanner,
    out: Vec<u8>,
    written: usize,
    in_flight: usize,
}

impl Conn {
    /// Connects to `addr` with Nagle off.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            scanner: LineScanner::new(),
            out: Vec::with_capacity(64 * 1024),
            written: 0,
            in_flight: 0,
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(())
    }

    fn pending_write(&self) -> bool {
        self.written < self.out.len()
    }

    /// Reads what is available, handing each complete line to `on_line`.
    /// Returns `false` on EOF.
    fn read_lines(&mut self, buf: &mut [u8], mut on_line: impl FnMut(&str)) -> io::Result<bool> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.scanner.push(&buf[..n], MAX_LINE, |event| {
                        match event {
                            ScanEvent::Line(line) => on_line(&line),
                            ScanEvent::Oversized | ScanEvent::InvalidUtf8 => on_line(""),
                        }
                        true
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// How a phase offers load.
#[derive(Debug, Clone)]
pub enum Load {
    /// `depth` requests in flight per connection, for `duration`.
    Closed {
        /// Requests kept in flight on each connection.
        depth: usize,
        /// How long new requests are sent.
        duration: Duration,
    },
    /// Send at these offsets (ns from the phase start), round-robin over
    /// the connections, holding a request back while its connection has
    /// `window` in flight (a client's bounded request window; a held-back
    /// request is still timed from its scheduled send).
    Open {
        /// Scheduled send offsets, ascending.
        schedule: Vec<u64>,
        /// Most requests in flight per connection.
        window: usize,
        /// Length of the send window the schedule covers.
        duration: Duration,
    },
}

impl Load {
    fn duration(&self) -> Duration {
        match self {
            Self::Closed { duration, .. } | Self::Open { duration, .. } => *duration,
        }
    }
}

/// What one phase observed.
#[derive(Debug, Clone, Default)]
pub struct PhaseOutcome {
    /// Requests sent.
    pub sent: u64,
    /// Error frames with kind `overloaded`.
    pub shed: u64,
    /// Other error frames, undecodable lines and unknown ids.
    pub errors: u64,
    /// Answers whose report differed from the reference.
    pub mismatched: u64,
    /// Requests unanswered when the drain deadline passed.
    pub timed_out: u64,
    /// Latency of each matched answer, ns (closed: from its send; open:
    /// from its scheduled send), split into [`LATENCY_WINDOWS`] windows by
    /// that start time.
    pub latency_ns: Vec<Vec<u64>>,
    /// Completions per window of the send interval (closed loop), per s.
    pub window_rps: Vec<f64>,
    /// How late each open-loop send left, ns (including any wait for the
    /// request window).
    pub lag_ns: Vec<u64>,
    /// Requests due but unanswered at the quarter marks of the send window.
    pub backlog: [u64; 4],
}

impl PhaseOutcome {
    /// Failed requests of every kind.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.mismatched + self.timed_out
    }
}

/// Windows the closed-loop send interval is cut into for its rate median.
pub const RATE_WINDOWS: usize = 10;

/// Windows a phase's latencies are cut into for their percentile medians.
pub const LATENCY_WINDOWS: usize = 8;

/// Drives one phase over `conns`, drawing scenarios from `mix` and ids from
/// `next_id`.  Every matched answer is handed to `capture` as `(id,
/// scenario, line)` (the traced run keeps a sample for replay).
///
/// # Errors
///
/// Propagates socket errors; a peer closing its connection is an error.
pub fn run_phase(
    conns: &mut [Conn],
    frames: &Frames,
    mix: &mut MixStream,
    next_id: &mut u64,
    load: &Load,
    drain_timeout: Duration,
    mut capture: impl FnMut(u64, usize, &str),
) -> io::Result<PhaseOutcome> {
    let mut out = PhaseOutcome {
        latency_ns: vec![Vec::new(); LATENCY_WINDOWS],
        ..PhaseOutcome::default()
    };
    let duration_ns = load.duration().as_nanos() as u64;
    let latency_window_ns = (duration_ns / LATENCY_WINDOWS as u64).max(1);
    let window_ns = (duration_ns / RATE_WINDOWS as u64).max(1);
    let mut window_done = [0u64; RATE_WINDOWS];
    // id -> (time the latency is measured from, scenario).
    let mut pending: HashMap<u64, (u64, u32)> = HashMap::with_capacity(4096);
    let mut buf = vec![0u8; 64 * 1024];
    let mut set = PollSet::new();
    let mut next_slot = 0usize;
    let mut quarter = 0usize;
    let start = Instant::now();
    let ns = |at: Instant| at.duration_since(start).as_nanos() as u64;
    loop {
        let now = ns(Instant::now());
        while quarter < 4 && now >= duration_ns * (quarter as u64 + 1) / 4 {
            // Due but unanswered: in flight plus any held back by the window.
            let due = match load {
                Load::Closed { .. } => out.sent,
                Load::Open { schedule, .. } => schedule.partition_point(|&t| t <= now) as u64,
            };
            out.backlog[quarter] = due - (out.sent - pending.len() as u64);
            quarter += 1;
        }
        match load {
            Load::Closed { depth, .. } if now < duration_ns => {
                for conn in conns.iter_mut() {
                    while conn.in_flight < *depth {
                        let scenario = mix.next_index();
                        frames.push_request(scenario, *next_id, &mut conn.out);
                        pending.insert(*next_id, (ns(Instant::now()), scenario as u32));
                        *next_id += 1;
                        conn.in_flight += 1;
                        out.sent += 1;
                    }
                }
            }
            Load::Open {
                schedule, window, ..
            } => {
                while next_slot < schedule.len()
                    && schedule[next_slot] <= now
                    && conns[next_slot % conns.len()].in_flight < *window
                {
                    let scenario = mix.next_index();
                    let conn = &mut conns[next_slot % conns.len()];
                    frames.push_request(scenario, *next_id, &mut conn.out);
                    pending.insert(*next_id, (schedule[next_slot], scenario as u32));
                    out.lag_ns.push(now - schedule[next_slot]);
                    *next_id += 1;
                    conn.in_flight += 1;
                    out.sent += 1;
                    next_slot += 1;
                }
            }
            Load::Closed { .. } => {}
        }
        for conn in conns.iter_mut() {
            conn.flush()?;
        }
        let sending_done = match load {
            Load::Closed { .. } => now >= duration_ns,
            Load::Open { schedule, .. } => next_slot == schedule.len(),
        };
        if sending_done && pending.is_empty() {
            break;
        }
        if sending_done && now > duration_ns + drain_timeout.as_nanos() as u64 {
            out.timed_out = pending.len() as u64;
            break;
        }

        set.clear();
        for conn in conns.iter() {
            set.push(fd_of(&conn.stream), true, conn.pending_write());
        }
        let ready = match load {
            Load::Open { schedule, .. } if next_slot < schedule.len() => {
                let wait = schedule[next_slot].saturating_sub(ns(Instant::now()));
                if wait >= 1_000_000 {
                    set.poll(Some(Duration::from_nanos(wait)))?
                } else if pending.is_empty() && wait > 200_000 {
                    // Nothing can arrive: sleep most of the gap, leaving
                    // room for the timer's slack.
                    std::thread::sleep(Duration::from_nanos(wait - 100_000));
                    0
                } else {
                    let ready = set.poll(Some(Duration::ZERO))?;
                    if ready == 0 {
                        std::thread::yield_now();
                    }
                    ready
                }
            }
            _ => set.poll(Some(Duration::from_millis(5)))?,
        };
        if ready == 0 {
            continue;
        }
        for (slot, conn) in conns.iter_mut().enumerate() {
            if !set.readiness(slot).readable {
                continue;
            }
            let at = ns(Instant::now());
            let mut answered = 0usize;
            let open = conn.read_lines(&mut buf, |line| {
                let Some((id, (from, scenario))) =
                    response_id(line).and_then(|id| Some((id, pending.remove(&id)?)))
                else {
                    out.errors += 1;
                    return;
                };
                answered += 1;
                if frames.matches(scenario as usize, line) {
                    capture(id, scenario as usize, line);
                    let window = ((from / latency_window_ns) as usize).min(LATENCY_WINDOWS - 1);
                    out.latency_ns[window].push(at.saturating_sub(from));
                    if at < duration_ns {
                        window_done[(at / window_ns) as usize % RATE_WINDOWS] += 1;
                    }
                } else if line.contains("\"kind\":\"overloaded\"") {
                    out.shed += 1;
                } else if line.contains("\"err\":") {
                    out.errors += 1;
                } else {
                    out.mismatched += 1;
                }
            })?;
            conn.in_flight -= answered.min(conn.in_flight);
            if !open {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "the server closed a driver connection",
                ));
            }
        }
    }
    while quarter < 4 {
        out.backlog[quarter] = pending.len() as u64;
        quarter += 1;
    }
    let window_s = window_ns as f64 / 1e9;
    out.window_rps = window_done.iter().map(|&n| n as f64 / window_s).collect();
    Ok(out)
}
