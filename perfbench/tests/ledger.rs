//! The ledger's arithmetic: self times, attribution and reconciliation.

use crosslight_perfbench::ledger::{Attribution, Ledger, SelfTest, Span, Tracer};

/// One request: a root span with a wire child, an exchange child and a
/// second wire child, laid out back to back from `at`; `delay` lengthens
/// the second wire span and everything after it.
fn request(tracer: &mut Tracer, id: u64, at: u64, delay: u64) -> u64 {
    let root = tracer.push(Span {
        name: "e2e",
        layer: "driver",
        request: id,
        parent: None,
        start_ns: at,
        end_ns: at + 1_000 + delay,
    });
    let mut child = |name, layer, start, end| {
        tracer.push(Span {
            name,
            layer,
            request: id,
            parent: Some(root),
            start_ns: at + start,
            end_ns: at + end,
        });
    };
    child("encode_request", "wire", 10, 110);
    child("exchange", "unattributed", 120, 820);
    child("decode_response", "wire", 830, 930 + delay);
    at + 2_000 + delay
}

fn ledger(delay: u64) -> Ledger {
    let mut tracer = Tracer::new();
    let mut at = 0;
    for id in 0..10 {
        at = request(&mut tracer, id, at, delay);
    }
    // The program reports 300 ns of server time and 100 ns of evaluation
    // per request inside the 700 ns exchange.
    let attributions = [
        Attribution {
            layer: "server",
            total_ns: 3_000.0,
        },
        Attribution {
            layer: "core.simulator",
            total_ns: 1_000.0,
        },
    ];
    Ledger::build(&tracer, "e2e", 10, &attributions)
}

#[test]
fn rows_are_self_times_with_attributions_moved_out_of_the_enclosing_span() {
    let ledger = ledger(0);
    assert_eq!(ledger.e2e_ns, 1_000.0);
    assert_eq!(ledger.row("wire"), 200.0);
    assert_eq!(ledger.row("server"), 300.0);
    assert_eq!(ledger.row("core.simulator"), 100.0);
    assert_eq!(ledger.row("unattributed"), 300.0);
    // The root's own gaps between its children.
    assert_eq!(ledger.row("driver"), 100.0);
    assert!(ledger.reconciles());
    assert!((ledger.unattributed_share() - 0.3).abs() < 1e-12);
}

#[test]
fn a_fixed_delay_in_one_span_lands_on_that_layer_alone() {
    let base = ledger(0);
    let delayed = ledger(250);
    assert!(delayed.reconciles());
    assert_eq!(delayed.e2e_ns - base.e2e_ns, 250.0);
    for ((layer, before), (_, after)) in base.rows.iter().zip(&delayed.rows) {
        let expected = if *layer == "wire" { 250.0 } else { 0.0 };
        assert_eq!(after - before, expected, "layer {layer}");
    }
}

#[test]
fn live_spans_nest_and_reconcile() {
    let mut tracer = Tracer::new();
    for id in 0..50 {
        let root = tracer.open("e2e", "driver", id, None);
        tracer.time("encode_request", "wire", id, Some(root), || {
            crosslight_perfbench::ledger::spin(2_000)
        });
        tracer.time("exchange", "unattributed", id, Some(root), || {
            crosslight_perfbench::ledger::spin(5_000)
        });
        tracer.close(root);
    }
    let ledger = Ledger::build(&tracer, "e2e", 50, &[]);
    assert!(ledger.reconciles());
    assert!(ledger.row("wire") >= 2_000.0);
    assert!(ledger.row("unattributed") >= 5_000.0);
    assert!(tracer.to_json_lines("test").lines().count() == 150);
}

#[test]
fn the_self_test_passes_only_when_the_delay_lands_on_one_row() {
    let base = ledger(0);
    let delayed = ledger(250);
    let selftest = SelfTest::compare(&base, &delayed, "wire", 250.0);
    assert_eq!(selftest.share, 1.0);
    assert_eq!(selftest.max_other_share, 0.0);
    assert!(selftest.passes());
    // Blamed on the wrong layer: the wire row does not move.
    let wrong = SelfTest::compare(&base, &delayed, "server", 250.0);
    assert!(!wrong.passes());
    // Counted twice: the right row moves, and so does another.
    let mut doubled = delayed.clone();
    for row in &mut doubled.rows {
        if row.0 == "server" {
            row.1 += 250.0;
        }
    }
    assert!(!SelfTest::compare(&base, &doubled, "wire", 250.0).passes());
}

#[test]
fn a_program_histogram_larger_than_the_exchange_is_caught() {
    let mut tracer = Tracer::new();
    request(&mut tracer, 0, 0, 0);
    // 900 ns of server time claimed inside a 700 ns exchange.
    let attributions = [Attribution {
        layer: "server",
        total_ns: 900.0,
    }];
    let ledger = Ledger::build(&tracer, "e2e", 1, &attributions);
    assert!(ledger.reconciles(), "the sum still matches by construction");
    assert!(ledger.row("unattributed") < 0.0);
    assert!(!ledger.rows_nonnegative());
    assert!(self::ledger(0).rows_nonnegative());
}
