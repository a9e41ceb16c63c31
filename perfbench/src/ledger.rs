//! Benchmark-side spans and the per-layer ledger.
//!
//! The traced run wraps each call the benchmark makes into a layer in a
//! span (name, layer, request, parent, start, end), keeps every span in
//! memory and writes them out when the run ends.  A layer's self time is
//! its spans' durations minus the part their child spans cover.  Work the
//! program does behind one call (inside the server, say) has no benchmark
//! span; the ledger moves that share out of the call's self time into the
//! program's layers using the program's own phase histograms, and whatever
//! no histogram explains stays `unattributed`.  The rows therefore always
//! sum to the traced end-to-end time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The ledger's rows, in pipeline order.
pub const LAYERS: [&str; 9] = [
    "driver",
    "wire",
    "cluster.router",
    "server",
    "runtime.pool",
    "runtime.cache",
    "core.cache",
    "core.simulator",
    "unattributed",
];

/// One benchmark-side span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call enters.
    pub layer: &'static str,
    /// The request the span belongs to.
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Tracer::close`] and as a
    /// parent.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: Option<usize>,
    ) -> usize {
        let now = self.now();
        self.push(Span {
            name,
            layer,
            request,
            parent,
            start_ns: now,
            end_ns: now,
        })
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, layer, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished span.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer, ns.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            *out.entry(span.layer).or_insert(0) +=
                (span.end_ns - span.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Mean duration of the spans called `name`, ns (0 when none).
    #[must_use]
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (sum, count) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, count), s| {
                (sum + s.end_ns - s.start_ns, count + 1)
            });
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_json_lines(&self, run: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{run}\",\"span\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"request\":{},\
                 \"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.layer, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Time the program reports for one of its layers across the traced
/// requests, moved out of the self time of the benchmark span that
/// enclosed the call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// The program layer the time belongs to.
    pub layer: &'static str,
    /// Total over the traced requests, ns.
    pub total_ns: f64,
}

/// The per-request ledger of one traced replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Requests replayed.
    pub requests: u64,
    /// Mean traced end-to-end time per request, ns.
    pub e2e_ns: f64,
    /// Mean ns per request for each of [`LAYERS`].
    pub rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Builds the ledger of `requests` requests whose root spans are called
    /// `root`: span self times per layer, with each attribution moved out
    /// of the `unattributed` self time into its layer.
    #[must_use]
    pub fn build(tracer: &Tracer, root: &str, requests: u64, attributions: &[Attribution]) -> Self {
        let n = requests.max(1) as f64;
        let self_times = tracer.self_times();
        let e2e_total: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name == root)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let mut rows: Vec<(&'static str, f64)> = LAYERS
            .iter()
            .map(|&layer| {
                (
                    layer,
                    self_times.get(layer).copied().unwrap_or(0) as f64 / n,
                )
            })
            .collect();
        for attribution in attributions {
            let share = attribution.total_ns / n;
            for row in &mut rows {
                if row.0 == attribution.layer {
                    row.1 += share;
                } else if row.0 == "unattributed" {
                    row.1 -= share;
                }
            }
        }
        Self {
            requests,
            e2e_ns: e2e_total as f64 / n,
            rows,
        }
    }

    /// The row for `layer` (0 when absent).
    #[must_use]
    pub fn row(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(0.0, |(_, ns)| *ns)
    }

    /// Whether the rows sum to the end-to-end time (to 0.1 %).
    #[must_use]
    pub fn reconciles(&self) -> bool {
        let sum: f64 = self.rows.iter().map(|(_, ns)| ns).sum();
        (sum - self.e2e_ns).abs() <= 1e-3 * self.e2e_ns.max(1.0)
    }

    /// Whether every row is at least -0.1 % of the end-to-end time.  A
    /// program histogram that claims more time than the client observed
    /// around the call drives `unattributed` below zero.
    #[must_use]
    pub fn rows_nonnegative(&self) -> bool {
        let floor = -1e-3 * self.e2e_ns.max(1.0);
        self.rows.iter().all(|(_, ns)| *ns >= floor)
    }

    /// Share of the end-to-end time nothing explains.
    #[must_use]
    pub fn unattributed_share(&self) -> f64 {
        self.row("unattributed") / self.e2e_ns.max(1.0)
    }

    /// The ledger as a text table.
    #[must_use]
    pub fn table(&self, title: &str) -> String {
        let mut out = format!(
            "  ledger {title}: {} requests, traced end-to-end {:.0} ns/request\n",
            self.requests, self.e2e_ns
        );
        for (layer, ns) in &self.rows {
            let _ = writeln!(
                out,
                "    {layer:<16} {ns:>12.0} ns  {:>6.1} %",
                100.0 * ns / self.e2e_ns.max(1.0)
            );
        }
        let sum: f64 = self.rows.iter().map(|(_, ns)| ns).sum();
        let _ = writeln!(
            out,
            "    {:<16} {sum:>12.0} ns  (reconciles with end-to-end: {})",
            "sum",
            self.reconciles()
        );
        out
    }
}

/// How a fixed delay added inside one layer's spans moved the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTest {
    /// The delayed layer's row change as a share of the delay.
    pub share: f64,
    /// The largest change of any other row, as a share of the delay.
    pub max_other_share: f64,
}

impl SelfTest {
    /// Compares the ledger of a run with `delay_ns` added inside `layer`'s
    /// spans against one without.
    #[must_use]
    pub fn compare(base: &Ledger, delayed: &Ledger, layer: &str, delay_ns: f64) -> Self {
        let shift = |row: &str| (delayed.row(row) - base.row(row)) / delay_ns;
        Self {
            share: shift(layer),
            max_other_share: LAYERS
                .iter()
                .filter(|&&row| row != layer)
                .map(|row| shift(row).abs())
                .fold(0.0, f64::max),
        }
    }

    /// Whether the delay landed on its layer (0.9 to 1.1 of it) and moved
    /// no other row by 0.15 of it.  A misplaced delay moves some row by
    /// all of it; the slack absorbs host stalls during the replay.
    #[must_use]
    pub fn passes(&self) -> bool {
        (0.9..=1.1).contains(&self.share) && self.max_other_share < 0.15
    }
}

/// Busy-waits `ns` nanoseconds (the self-test's fixed delay).
pub fn spin(ns: u64) {
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}
