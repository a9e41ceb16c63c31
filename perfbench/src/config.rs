//! The benchmark's fixed constants, read from `perfbench/config.json`
//! (compiled in, so a run cannot pick up a different file).  Rates are
//! absolute constants calibrated once against the parent commit, never
//! derived per run, so two commits are offered exactly the same load.

use crosslight_server::json::Json;

/// The committed configuration text.
pub const CONFIG_JSON: &str = include_str!("../config.json");

/// Shares of `--seconds` given to each measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseShares {
    /// Closed loop.
    pub closed: f64,
    /// Open loop at the `low` rate.
    pub low: f64,
    /// Open loop at the `high` rate.
    pub high: f64,
    /// The whole sustained-rate ladder.
    pub ladder: f64,
}

/// Constants of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Workload name.
    pub name: String,
    /// Requests in flight per connection in the closed loop (served
    /// workloads; the cold sweep keeps one `submit_batch` in flight).
    pub pipeline_depth: Option<usize>,
    /// Fixed open-loop `low` rate, requests (or evaluations) per second.
    pub low_rps: f64,
    /// Fixed open-loop `high` rate.
    pub high_rps: f64,
    /// Ascending rates of the sustained-rate ladder.
    pub ladder_rps: Vec<f64>,
    /// The p99 latency limit a ladder rung must meet, microseconds.
    pub p99_limit_us: f64,
    /// Rounds the phases are repeated in, each for its share of
    /// `--seconds / rounds`; the cold sweep gives every phase of every
    /// round a fresh service, which also bounds its cache's memory.
    pub rounds: usize,
}

impl WorkloadConfig {
    /// The closed-loop pipeline depth of a served workload.
    ///
    /// # Panics
    ///
    /// Panics if `config.json` gives this workload none.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.pipeline_depth
            .unwrap_or_else(|| panic!("config.json: `{}` has no `pipeline_depth`", self.name))
    }
}

/// The whole configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Seed used when `--seed` is absent.
    pub default_seed: u64,
    /// Driver connections (at most the host's core count is used).
    pub connections: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Unmeasured closed-loop warm-up before the first phase, seconds.
    pub warmup_s: f64,
    /// How long a phase waits for stragglers after its send window.
    pub drain_timeout_s: f64,
    /// Evaluations per cold-sweep batch.
    pub batch_points: usize,
    /// Evaluations of the fixed-work phase the cold sweep reads `rss_mb`
    /// on.
    pub memory_points: u64,
    /// Shares of `--seconds` given to each phase kind, in every workload.
    pub shares: PhaseShares,
    /// Every workload, in run order.
    pub workloads: Vec<WorkloadConfig>,
}

impl Config {
    /// Parses the committed configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.json` is malformed: it is part of the benchmark's
    /// source, so that is a build defect, not a runtime condition.
    #[must_use]
    pub fn load() -> Self {
        let root = Json::parse(CONFIG_JSON).expect("config.json is valid JSON");
        let num = |value: &Json, key: &str| -> f64 {
            value
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("config.json: `{key}` is a number"))
        };
        let workloads = root
            .get("workloads")
            .and_then(Json::as_array)
            .expect("config.json: `workloads` is an array")
            .iter()
            .map(|w| WorkloadConfig {
                name: w
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("config.json: workload `name`")
                    .to_string(),
                pipeline_depth: w
                    .get("pipeline_depth")
                    .and_then(Json::as_f64)
                    .map(|depth| depth as usize),
                low_rps: num(w, "low_rps"),
                high_rps: num(w, "high_rps"),
                ladder_rps: w
                    .get("ladder_rps")
                    .and_then(Json::as_array)
                    .expect("config.json: `ladder_rps` is an array")
                    .iter()
                    .map(|r| r.as_f64().expect("config.json: ladder rates are numbers"))
                    .collect(),
                p99_limit_us: num(w, "p99_limit_us"),
                rounds: num(w, "rounds") as usize,
            })
            .collect();
        let shares = root
            .get("phase_shares")
            .expect("config.json: `phase_shares`");
        Self {
            default_seed: num(&root, "default_seed") as u64,
            connections: num(&root, "connections") as usize,
            setup_repeats: num(&root, "setup_repeats") as usize,
            warmup_s: num(&root, "warmup_s"),
            drain_timeout_s: num(&root, "drain_timeout_s"),
            batch_points: num(&root, "batch_points") as usize,
            memory_points: num(&root, "memory_points") as u64,
            shares: PhaseShares {
                closed: num(shares, "closed"),
                low: num(shares, "low"),
                high: num(shares, "high"),
                ladder: num(shares, "ladder"),
            },
            workloads,
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn workload(&self, name: &str) -> Option<&WorkloadConfig> {
        self.workloads.iter().find(|w| w.name == name)
    }
}
