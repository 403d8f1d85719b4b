//! Per-subscription isolation under injected faults: a failing or
//! panicking delivery degrades only its own subscription, and a panic
//! mid-removal parks the transient document instead of leaking it.
//!
//! Every test here arms the process (see "Armed tests get a binary of
//! their own" in the `xqr-faults` crate docs).

use std::sync::{Arc, Mutex, MutexGuard};
use xqr_core::Engine;
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_subscribe::{CollectingSink, SubscriptionRegistry};
use xqr_xdm::{ErrorCode, Limits};

/// One armed test at a time, for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn delivery_fault_degrades_one_subscriber_never_the_pass() {
    let _serial = serial();
    assert!(
        xqr_faults::compiled_with_failpoints(),
        "test build must arm failpoints"
    );
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let plan = engine.compile_shared("/a/b").unwrap();
    let sinks: Vec<Arc<CollectingSink>> = (0..3).map(|_| CollectingSink::new()).collect();
    let ids: Vec<_> = sinks
        .iter()
        .map(|s| reg.register("/a/b", plan.clone(), Limits::unlimited(), Some(s.clone())))
        .collect();
    // Exactly the second delivery of the publish fails.
    let schedule = FaultSchedule::new(7).rule(
        FaultRule::new("subscribe.deliver", FaultKind::ErrorReturn)
            .skip_first(1)
            .max_fires(1),
    );
    let (report, fired) = {
        let _guard = xqr_faults::install(schedule);
        let r = reg
            .publish(&engine, "d", "<a><b>x</b></a>", Limits::unlimited())
            .unwrap();
        (r, xqr_faults::fires())
    };
    assert_eq!(fired, 1, "the delivery fault must actually fire");
    assert_eq!(report.delivery_failures, 1);
    let outcomes: Vec<_> = ids
        .iter()
        .map(|id| report.result_for(*id).unwrap())
        .collect();
    assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
    let failed = outcomes[1].as_ref().unwrap_err();
    assert_ne!(failed.code, ErrorCode::Internal, "coded, not a panic leak");
    // The healthy subscribers actually received their deliveries.
    assert_eq!(sinks[0].take().len(), 1);
    assert_eq!(sinks[1].take().len(), 0, "faulted delivery never arrived");
    assert_eq!(sinks[2].take().len(), 1);
}

#[test]
fn panicked_transient_removal_is_reaped_not_leaked() {
    let _serial = serial();
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    // A non-streamable query forces the fallback materialization —
    // an owned transient document the publish removes afterwards.
    let plan = engine.compile_shared("count(//b)").unwrap();
    reg.register("count(//b)", plan, Limits::unlimited(), None);
    let schedule =
        FaultSchedule::new(11).rule(FaultRule::new("store.remove", FaultKind::Panic).max_fires(1));
    {
        let _guard = xqr_faults::install(schedule);
        reg.publish(&engine, "d", "<a><b/></a>", Limits::unlimited())
            .unwrap();
    }
    // The contained panic stranded the transient in the store...
    assert_eq!(engine.store().doc_count(), 1, "orphaned by the panic");
    assert_eq!(engine.store().orphan_count(), 1);
    // ...parked on the orphan list; an un-faulted reap reclaims it.
    assert_eq!(engine.store().reap_orphans(), 1);
    assert_eq!(engine.store().doc_count(), 0);
    assert_eq!(engine.store().reap_orphans(), 0, "orphan list drained");
    // A later publish cleans up after itself again.
    reg.publish(&engine, "d", "<a><b/></a>", Limits::unlimited())
        .unwrap();
    assert_eq!(engine.store().doc_count(), 0);
}

#[test]
fn delivery_panic_fault_is_contained_per_subscription() {
    let _serial = serial();
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let sink = CollectingSink::new();
    let plan = engine.compile_shared("/a/b").unwrap();
    let victim = reg.register(
        "/a/b",
        plan.clone(),
        Limits::unlimited(),
        Some(sink.clone()),
    );
    let silent = reg.register("/a/b", plan, Limits::unlimited(), None);
    let schedule = FaultSchedule::new(9)
        .rule(FaultRule::new("subscribe.deliver", FaultKind::Panic).max_fires(1));
    let report = {
        let _guard = xqr_faults::install(schedule);
        reg.publish(&engine, "d", "<a><b>x</b></a>", Limits::unlimited())
            .unwrap()
    };
    assert_eq!(
        report
            .result_for(victim)
            .unwrap()
            .as_ref()
            .unwrap_err()
            .code,
        ErrorCode::Internal,
        "a contained panic is XQRL0000 for the victim"
    );
    assert_eq!(
        report.result_for(silent).unwrap().as_ref().unwrap(),
        "<b>x</b>"
    );
}
