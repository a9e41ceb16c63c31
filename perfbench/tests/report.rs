//! The end-to-end summaries: the sustained rate over a ladder and the
//! windowed latency percentiles.

use crosslight_perfbench::cold::{report_digest, runtime_options};
use crosslight_perfbench::gen::ColdSweep;
use crosslight_perfbench::report::{EndToEnd, Rung};
use crosslight_perfbench::stats::{Latency, WindowedLatency};
use crosslight_runtime::pool::EvalService;

/// Rungs at 1000, 2000, ... per second with the given p99 (us); a rung
/// passes when its p99 is within the 1000 us limit.
fn ladder(p99_us: &[f64]) -> Vec<Rung> {
    let rates: Vec<f64> = (1..=p99_us.len()).map(|i| 1000.0 * i as f64).collect();
    let mut next = p99_us.iter();
    ladder_at(&rates, |_| *next.next().expect("one p99 per rung"))
}

/// Rungs at `rates` with p99 `p99_us(rate)` (us).
fn ladder_at(rates: &[f64], mut p99_us: impl FnMut(f64) -> f64) -> Vec<Rung> {
    rates
        .iter()
        .map(|&rate| (rate, p99_us(rate)))
        .map(|(rate, p99_us)| Rung {
            rate,
            latency: Latency {
                p50_us: p99_us / 2.0,
                p99_us,
                samples: 1000,
            },
            backlog_growing: false,
            failed: 0,
            pass: p99_us <= LIMIT,
        })
        .collect()
}

const LIMIT: f64 = 1000.0;

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() < 1e-6 * want
}

#[test]
fn sustained_is_where_the_fitted_power_law_reaches_the_limit() {
    // p99 = 250 us * (rate / 1000/s)^2 reaches 1000 us at 2000/s exactly,
    // between rungs as well as on one.
    let law = |rates: &[f64]| ladder_at(rates, |rate| 250.0 * (rate / 1000.0).powi(2));
    let rate = EndToEnd::sustained(&law(&[1000.0, 2000.0, 3000.0, 4000.0]), LIMIT);
    assert!(close(rate, 2000.0), "{rate}");
    let rate = EndToEnd::sustained(&law(&[1000.0, 1500.0, 2500.0, 3000.0]), LIMIT);
    assert!(close(rate, 2000.0), "{rate}");
}

#[test]
fn stalled_rungs_move_sustained_by_less_than_a_rung() {
    // p99 = 1000 us * (rate / 4500/s)^2 on rungs 1000/s apart.
    let rates: Vec<f64> = (1..=8).map(|i| 1000.0 * f64::from(i)).collect();
    let mut rungs = ladder_at(&rates, |rate| 1000.0 * (rate / 4500.0).powi(2));
    assert!(close(EndToEnd::sustained(&rungs, LIMIT), 4500.0));
    // Stalls triple the p99 of the two rungs below the limit, so they fail
    // in a row.
    for rung in &mut rungs[2..4] {
        rung.latency.p99_us *= 3.0;
        rung.pass = false;
    }
    let rate = EndToEnd::sustained(&rungs, LIMIT);
    assert!(rate > 3500.0 && rate < 4500.0, "{rate}");
}

#[test]
fn sustained_is_kept_within_the_fitted_rungs() {
    // Every rung within the limit: the top rung.
    let rate = EndToEnd::sustained(&ladder(&[100.0, 200.0, 400.0]), LIMIT);
    assert!(close(rate, 3000.0), "{rate}");
    // Only the lowest rung within the limit, far below the fitted line.
    let rate = EndToEnd::sustained(&ladder(&[900.0, 40_000.0, 80_000.0]), LIMIT);
    assert!(close(rate, 1000.0), "{rate}");
    // p99 not rising with the rate: the top or the bottom.
    let rate = EndToEnd::sustained(&ladder(&[500.0, 400.0, 300.0]), LIMIT);
    assert!(close(rate, 3000.0), "{rate}");
    let rate = EndToEnd::sustained(&ladder(&[3000.0, 5000.0, 900.0]), LIMIT);
    assert!(close(rate, 1000.0), "{rate}");
}

#[test]
fn the_fit_stops_below_a_rung_that_failed_requests_or_grew_a_backlog() {
    let mut rungs = ladder(&[250.0, 1000.0, 2250.0, 4000.0]);
    // A failed rung with a low p99 would drag the line down if fitted.
    rungs[2].latency.p99_us = 100.0;
    rungs[2].failed = 1;
    rungs[2].pass = false;
    let rate = EndToEnd::sustained(&rungs, LIMIT);
    assert!(close(rate, 2000.0), "{rate}");
    // A pass above a growing backlog does not count.
    let mut rungs = ladder(&[250.0, 4000.0, 500.0]);
    rungs[1].backlog_growing = true;
    let rate = EndToEnd::sustained(&rungs, LIMIT);
    assert!(close(rate, 1000.0), "{rate}");
    // Nothing passed below it: 0.
    let mut rungs = ladder(&[2000.0, 4000.0]);
    assert_eq!(EndToEnd::sustained(&rungs, LIMIT), 0.0);
    rungs[0].latency.p99_us = 500.0;
    rungs[0].failed = 1;
    rungs[1].latency.p99_us = 500.0;
    rungs[1].pass = true;
    assert_eq!(EndToEnd::sustained(&rungs, LIMIT), 0.0);
    assert_eq!(EndToEnd::sustained(&[], LIMIT), 0.0);
}

#[test]
fn streamed_windows_match_the_batch_summary_and_keep_every_sample() {
    // Windows of uneven size, some too small to stand alone.
    let sizes = [300, 900, 1500, 40, 2200, 700, 10];
    let windows: Vec<Vec<u64>> = sizes
        .iter()
        .enumerate()
        .map(|(w, &n)| {
            (0..n as u64)
                .map(|i| (i * 7919 + w as u64 * 131) % 5000)
                .collect()
        })
        .collect();
    let mut streamed = WindowedLatency::default();
    for window in &windows {
        streamed.push(window);
    }
    let streamed = streamed.finish();
    let batch = Latency::windowed(&mut windows.clone());
    assert_eq!(streamed, batch);
    assert_eq!(streamed.samples, sizes.iter().sum::<usize>());
    // Pooled windows: 300+900 -> 1200, 1500, 40+2200 -> 2240, and the
    // 710-sample tail joins the last.
    let mut pooled: Vec<u64> = windows[3..].concat();
    let last = Latency::of(&mut pooled);
    let mut first: Vec<u64> = windows[..2].concat();
    let first = Latency::of(&mut first);
    let middle = Latency::of(&mut windows[2].clone());
    let mut p99 = [first.p99_us, middle.p99_us, last.p99_us];
    p99.sort_by(f64::total_cmp);
    assert_eq!(streamed.p99_us, p99[1]);
}

#[test]
fn an_empty_stream_summarizes_to_zero() {
    assert_eq!(WindowedLatency::default().finish(), Latency::default());
}

#[test]
fn a_report_that_differs_in_one_bit_gets_another_digest() {
    let service = EvalService::new(runtime_options());
    let report = service
        .submit(ColdSweep::new(3).next_request())
        .expect("a design point evaluates")
        .report;
    service.shutdown();
    let mut changed = report;
    changed.metrics.fps = f64::from_bits(report.metrics.fps.to_bits() ^ 1);
    assert_ne!(report_digest(&changed), report_digest(&report));
    let mut changed = report;
    changed.resolution_bits ^= 1;
    assert_ne!(report_digest(&changed), report_digest(&report));
}
