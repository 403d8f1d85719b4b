//! Resource governance: every budget in [`xqr::Limits`] is enforced with
//! a stable error code, cancellation works from another thread, and
//! panics on the evaluation thread are contained at the engine boundary.

use std::time::{Duration, Instant};
use xqr::{DynamicContext, Engine, EngineOptions, ErrorCode, Limits, QueryGuard, RuntimeOptions};

fn engine_with_limits(limits: Limits) -> Engine {
    Engine::with_options(EngineOptions {
        runtime: RuntimeOptions {
            limits,
            ..Default::default()
        },
        ..Default::default()
    })
}

fn run_err(engine: &Engine, query: &str) -> xqr::Error {
    let q = engine.compile(query).unwrap();
    q.execute(engine, &DynamicContext::new())
        .map(|_| ())
        .expect_err(&format!("{query:?} should trip a limit"))
}

#[test]
fn deadline_stops_unbounded_query_mid_stream() {
    // The acceptance query: effectively infinite work, bounded only by
    // the wall-clock deadline.
    let engine = engine_with_limits(Limits::unlimited().with_deadline(Duration::from_millis(100)));
    let start = Instant::now();
    let err = run_err(&engine, "for $x in 1 to 100000000 return <r/>");
    let elapsed = start.elapsed();
    assert_eq!(err.code, ErrorCode::Timeout);
    assert_eq!(err.code.as_str(), "XQRL0002");
    // Generous bound: the deadline is 100ms and the stride-amortized
    // clock check observes it promptly.
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
}

#[test]
fn cancellation_from_a_second_thread() {
    let engine = Engine::new();
    let q = engine
        .compile("count(for $x in 1 to 100000000 return $x)")
        .unwrap();
    let guard = QueryGuard::new(Limits::unlimited());
    let handle = guard.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        handle.cancel();
    });
    let err = q
        .execute_guarded(&engine, &DynamicContext::new(), guard)
        .unwrap_err();
    canceller.join().unwrap();
    assert_eq!(err.code, ErrorCode::Cancelled);
    assert_eq!(err.code.as_str(), "XQRL0003");
}

#[test]
fn cancelling_before_execution_trips_immediately() {
    let engine = Engine::new();
    let q = engine
        .compile("for $x in 1 to 100000000 return $x")
        .unwrap();
    let guard = QueryGuard::new(Limits::unlimited());
    guard.cancel_handle().cancel();
    let err = q
        .execute_guarded(&engine, &DynamicContext::new(), guard)
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::Cancelled);
}

#[test]
fn materialization_budget_bounds_item_count() {
    let engine = engine_with_limits(Limits::unlimited().with_max_items(10_000));
    let err = run_err(&engine, "for $x in 1 to 100000000 return $x");
    assert_eq!(err.code, ErrorCode::Limit);
    assert_eq!(err.code.as_str(), "XQRL0001");
    // Well under the budget: fine.
    let small = engine.query("count(for $x in 1 to 100 return $x)").unwrap();
    assert_eq!(small, "100");
}

#[test]
fn output_byte_cap_applies_to_serialization() {
    let engine = engine_with_limits(Limits::unlimited().with_max_output_bytes(64));
    let q = engine
        .compile("for $x in 1 to 40 return <r>{$x}</r>")
        .unwrap();
    let result = q.execute(&engine, &DynamicContext::new()).unwrap();
    // The items materialized fine; the cap trips at serialization time.
    let err = result.serialize_guarded().unwrap_err();
    assert_eq!(err.code, ErrorCode::Limit);
    // Under the cap, serialization succeeds.
    let q = engine.compile("<ok/>").unwrap();
    let result = q.execute(&engine, &DynamicContext::new()).unwrap();
    assert_eq!(result.serialize_guarded().unwrap(), "<ok/>");
}

#[test]
fn parser_depth_limit_prevents_stack_overflow() {
    // 100k nested opens: the reader's depth cap must reject this long
    // before any stack is at risk.
    let deep = "<a>".repeat(100_000);
    let engine = Engine::new();
    let err = engine.load_document("deep.xml", &deep).unwrap_err();
    assert_eq!(err.code, ErrorCode::Limit);
}

#[test]
fn guarded_depth_limit_is_configurable_below_hard_cap() {
    let engine = engine_with_limits(Limits::unlimited().with_max_xml_depth(50));
    // fn:doc parses through the execution's guard.
    let xml = format!("{}{}", "<a>".repeat(100), "</a>".repeat(100));
    let q = engine.compile("doc(\"deep.xml\")").unwrap();
    let mut ctx = DynamicContext::new();
    ctx.add_document("deep.xml", xml);
    let err = q.execute(&engine, &ctx).unwrap_err();
    assert_eq!(err.code, ErrorCode::Limit);
}

#[test]
fn document_size_cap_applies_to_fn_doc() {
    let engine = engine_with_limits(Limits::unlimited().with_max_document_bytes(128));
    let big = format!("<r>{}</r>", "x".repeat(1000));
    let q = engine.compile("doc(\"big.xml\")").unwrap();
    let mut ctx = DynamicContext::new();
    ctx.add_document("big.xml", big);
    let err = q.execute(&engine, &ctx).unwrap_err();
    assert_eq!(err.code, ErrorCode::Limit);
}

#[test]
fn deadline_applies_to_streaming_execution() {
    let engine = engine_with_limits(Limits::unlimited().with_deadline(Duration::from_millis(0)));
    let q = engine.compile("/list/item").unwrap();
    let mut xml = String::from("<list>");
    for i in 0..5000 {
        xml.push_str(&format!("<item>{i}</item>"));
    }
    xml.push_str("</list>");
    std::thread::sleep(Duration::from_millis(5));
    let err = q.execute_streaming(&engine, &xml, |_| {}).unwrap_err();
    assert_eq!(err.code, ErrorCode::Timeout);
}

#[test]
fn token_budget_applies_to_streaming_execution() {
    let engine = engine_with_limits(Limits::unlimited().with_max_tokens(100));
    let q = engine.compile("/list/item").unwrap();
    let mut xml = String::from("<list>");
    for i in 0..5000 {
        xml.push_str(&format!("<item>{i}</item>"));
    }
    xml.push_str("</list>");
    let err = q.execute_streaming(&engine, &xml, |_| {}).unwrap_err();
    assert_eq!(err.code, ErrorCode::Limit);
}

#[test]
fn panic_on_eval_thread_is_contained() {
    use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
    let engine = Engine::new();
    let err = {
        let _faults = xqr_faults::install(
            FaultSchedule::new(1).rule(FaultRule::new("eval.next", FaultKind::Panic)),
        );
        engine.query("1 + 1").unwrap_err()
    };
    assert_eq!(err.code, ErrorCode::Internal);
    assert_eq!(err.code.as_str(), "XQRL0000");
    // The same engine answers once the schedule is gone.
    assert_eq!(engine.query("1 + 1").unwrap(), "2");
    // The process is intact: a fresh engine still evaluates.
    assert_eq!(Engine::new().query("6 * 7").unwrap(), "42");
}

#[test]
fn budget_gauges_surface_in_counters() {
    let engine = engine_with_limits(Limits::unlimited().with_max_items(1_000_000));
    let q = engine
        .compile("count(for $x in 1 to 500 return $x)")
        .unwrap();
    let r = q.execute(&engine, &DynamicContext::new()).unwrap();
    assert!(
        r.counters.budget_items.get() >= 500,
        "items gauge: {}",
        r.counters.budget_items.get()
    );
}

#[test]
fn unlimited_defaults_change_nothing() {
    // Default engines have no budgets: a moderately large query runs.
    let engine = Engine::new();
    assert_eq!(engine.query("count(1 to 200000)").unwrap(), "200000");
    assert!(RuntimeOptions::default().limits.is_unlimited());
}
