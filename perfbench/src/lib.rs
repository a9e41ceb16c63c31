//! Layered serving benchmark for the CrossLight evaluation stack.
//!
//! Three seeded workloads drive the program from outside through its
//! public API only: `warm_served` (the warm paper mix against one
//! `Server`), `cold_sweep` (Fig. 6 design points, each new to the fresh
//! `EvalService` it is sent to) and `routed_warm` (the warm mix through a
//! `Router` over two servers).  An untraced run prints the end-to-end
//! metrics; a traced run prints the per-layer ledger.  The constants every
//! run uses are in `config.json`.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_served --seed 1 --seconds 30 --trace 0
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a traced run also writes its spans
//! to `perfbench/out/`.

pub mod cold;
pub mod config;
pub mod driver;
pub mod gen;
pub mod ledger;
pub mod report;
pub mod served;
pub mod stats;
pub mod trace;
