//! Cancellation of an index-fed twig join, end to end through the
//! engine. The join runs on the query's own thread and polls the guard
//! every few kernel advances, so cancelling a running query must
//! surface `err:XQRL0003` promptly, from inside the join: the join
//! stops before it hands a single node to the evaluator.

use std::time::{Duration, Instant};
use xqr::{context_with_doc, Engine};
use xqr_xdm::{ErrorCode, Limits, QueryGuard};

/// Deep recursive nesting makes `//t[t]//t` quadratic in the nesting
/// depth: plenty of kernel advances for the cancel to land mid-join.
fn deep_doc(depth: usize) -> String {
    let mut xml = String::with_capacity(depth * 7 + 16);
    for _ in 0..depth {
        xml.push_str("<t>");
    }
    xml.push('x');
    for _ in 0..depth {
        xml.push_str("</t>");
    }
    format!("<r>{xml}</r>")
}

/// How long a cancelled join may keep running. The guard is polled
/// every 16 advances, so the real figure is microseconds; the bound is
/// loose for loaded test hosts.
const CANCEL_BOUND: Duration = Duration::from_secs(1);

#[test]
fn cancelling_a_running_index_twig_stops_the_join() {
    let engine = Engine::new();
    let xml = deep_doc(1200);
    let ctx = context_with_doc(&engine, "cancel.xml", &xml).unwrap();
    // A branching twig: linear paths are answered from the path
    // dictionary without a join.
    let prepared = engine.compile("count(//t[t]//t)").unwrap();
    assert!(
        prepared.explain().contains("index-scan"),
        "{}",
        prepared.explain()
    );

    let guard = QueryGuard::new(Limits::unlimited());
    let usage = guard.clone();
    let handle = guard.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        handle.cancel();
        Instant::now()
    });

    let err = prepared
        .execute_guarded(&engine, &ctx, guard)
        .expect_err("a cancelled quadratic join must not complete");
    let returned = Instant::now();
    let cancelled = canceller.join().unwrap();
    assert_eq!(err.code, ErrorCode::Cancelled, "{err}");
    assert!(
        returned.saturating_duration_since(cancelled) < CANCEL_BOUND,
        "the join ran on for {:?} after the cancel",
        returned.saturating_duration_since(cancelled)
    );
    // The evaluator charges one item per operator it enters (`fn:count`,
    // the scan) and one per node the scan emits. A join that noticed the
    // cancel only after finishing would have emitted, and charged, one.
    assert!(
        usage.usage().items <= 2,
        "the join ran to completion: {:?}",
        usage.usage()
    );
}

#[test]
fn a_pre_cancelled_guard_never_starts_the_join() {
    let engine = Engine::new();
    let xml = deep_doc(64);
    let ctx = context_with_doc(&engine, "pre.xml", &xml).unwrap();
    let prepared = engine.compile("count(//t[t]//t)").unwrap();

    let guard = QueryGuard::new(Limits::unlimited());
    let usage = guard.clone();
    guard.cancel_handle().cancel();
    let err = prepared
        .execute_guarded(&engine, &ctx, guard)
        .expect_err("cancelled before start");
    assert_eq!(err.code, ErrorCode::Cancelled, "{err}");
    assert_eq!(
        usage.usage().items,
        0,
        "a pre-cancelled query must fail at startup, before the join"
    );
}
