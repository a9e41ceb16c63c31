//! `crosslight-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable table, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  Exits non-zero
//! on any answer mismatch or driver error.

use std::process::ExitCode;

use crosslight_perfbench::config::{Config, WorkloadConfig};
use crosslight_perfbench::report::{result_line, EndToEnd};
use crosslight_perfbench::{cold, served, trace};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(config: &Config) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: config.default_seed,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let config = Config::load();
    let args = match parse_args(&config) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = config.workload(&args.workload) else {
        eprintln!(
            "error: unknown --workload `{}` (one of: {})",
            args.workload,
            config
                .workloads
                .iter()
                .map(|w| w.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    };
    if args.trace {
        return traced(&config, workload, &args);
    }
    let outcome: std::io::Result<EndToEnd> = match workload.name.as_str() {
        "cold_sweep" => Ok(cold::run(&config, workload, args.seed, args.seconds)),
        name => served::run(
            &config,
            workload,
            name == "routed_warm",
            args.seed,
            args.seconds,
        ),
    };
    let e2e = match outcome {
        Ok(e2e) => e2e,
        Err(err) => {
            eprintln!("error: {} failed: {err}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let unit = if workload.name == "cold_sweep" {
        "64-point batch"
    } else {
        "request"
    };
    print!("{}", e2e.table(&workload.name, unit));
    let correct = e2e.tally.mismatched == 0;
    println!("{}", result_line(correct, &e2e.tally, &e2e.metrics()));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} answers differed from the serial reference",
            e2e.tally.mismatched
        );
        ExitCode::FAILURE
    }
}

/// The traced run: per-layer metrics and the ledger; spans are written to
/// `perfbench/out/` when the run ends.
fn traced(config: &Config, workload: &WorkloadConfig, args: &Args) -> ExitCode {
    let outcome = match workload.name.as_str() {
        "cold_sweep" => Ok(trace::cold_sweep(config, workload, args.seed, args.seconds)),
        name => trace::served(
            config,
            workload,
            name == "routed_warm",
            args.seed,
            args.seconds,
        ),
    };
    let traced = match outcome {
        Ok(traced) => traced,
        Err(err) => {
            eprintln!("error: traced {} failed: {err}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", workload.name, args.seed));
    if let Err(err) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &traced.spans))
    {
        eprintln!("warning: could not write {}: {err}", path.display());
    }
    println!("== {} (traced)", workload.name);
    print!("{}", traced.text);
    for (name, value, unit) in traced.ordered() {
        println!("  {name:<40} {value:>14.3} {unit}");
    }
    println!(
        "{}",
        result_line(traced.correct, &traced.tally, &traced.ordered())
    );
    if traced.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a replayed answer differed or a ledger check failed");
        ExitCode::FAILURE
    }
}
