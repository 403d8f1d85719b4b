//! End-to-end registry tests: registration lifecycle, shared-pass vs
//! fallback equivalence with one-shot evaluation, and per-subscription
//! fault isolation (budgets, panicking sinks, injected delivery faults:
//! a failing or panicking delivery degrades only its own subscription,
//! and a panic mid-removal parks the transient document instead of
//! leaking it).

use std::sync::Arc;
use xqr_core::Engine;
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_subscribe::{CollectingSink, Delivery, SubscriptionRegistry, SubscriptionSink};
use xqr_xdm::{ErrorCode, Limits};

fn register(reg: &SubscriptionRegistry, engine: &Engine, query: &str) -> xqr_subscribe::SubId {
    let plan = engine.compile_shared(query).expect("compiles");
    reg.register(query, plan, Limits::unlimited(), None)
}

#[test]
fn publish_matches_one_shot_evaluation_for_mixed_sets() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let xml = r#"<bib><book year="1994"><title>TCP/IP</title><price>65.95</price></book><book><title>Data on the Web</title></book><note>text</note></bib>"#;
    // Streamable, streamable-with-descendant (nested matters), and two
    // non-streamable queries share one publish.
    let queries = [
        "/bib/book/title",
        "//title",
        "count(//book)",
        "for $b in /bib/book where $b/@year return $b/title",
    ];
    let ids: Vec<_> = queries.iter().map(|q| register(&reg, &engine, q)).collect();
    let report = reg
        .publish(&engine, "bib.xml", xml, Limits::unlimited())
        .expect("publish");
    assert_eq!(report.shared_pass, 2);
    assert_eq!(report.fallback, 2);
    for (id, query) in ids.iter().zip(queries) {
        let want = engine.query_xml(xml, query).expect("one-shot");
        let got = report
            .result_for(*id)
            .expect("result present")
            .as_ref()
            .expect("ok");
        assert_eq!(got, &want, "subscription {query:?} diverged from one-shot");
    }
    // The document must not leak from the fallback materialization.
    assert_eq!(engine.store().doc_count(), 0);
}

#[test]
fn nested_descendant_matches_equal_materialized_results() {
    // The combined pass must emit ALL matches, nested ones included, to
    // equal one-shot results.
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let id = register(&reg, &engine, "//b");
    let xml = "<a><b>outer<b>inner</b></b><b/></a>";
    let report = reg.publish(&engine, "d", xml, Limits::unlimited()).unwrap();
    let want = engine.query_xml(xml, "//b").unwrap();
    assert_eq!(report.result_for(id).unwrap().as_ref().unwrap(), &want);
    assert_eq!(report.shared_pass, 1);
}

#[test]
fn stale_ids_never_touch_reused_slots() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let a = register(&reg, &engine, "/a/b");
    assert!(reg.unregister(a));
    assert!(!reg.unregister(a), "double unsubscribe must be a no-op");
    let b = register(&reg, &engine, "/a/c");
    assert_ne!(a, b, "reused slot must carry a new generation");
    assert!(!reg.unregister(a), "stale id must not evict the new tenant");
    assert_eq!(reg.active(), 1);
    assert_eq!(reg.query_of(b).as_deref(), Some("/a/c"));
    assert_eq!(reg.query_of(a), None);
    assert!(reg.unregister(b));
    assert_eq!(reg.active(), 0);
}

#[test]
fn unsubscribed_queries_stop_receiving() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let keep = register(&reg, &engine, "/a/b");
    let drop_ = register(&reg, &engine, "/a/b");
    reg.unregister(drop_);
    let report = reg
        .publish(&engine, "d", "<a><b>x</b></a>", Limits::unlimited())
        .unwrap();
    assert!(report.result_for(keep).is_some());
    assert!(report.result_for(drop_).is_none());
    assert_eq!(report.results.len(), 1);
}

#[test]
fn per_subscription_budget_trips_do_not_cross_contaminate() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let plan = engine.compile_shared("/a/b").unwrap();
    let tiny = reg.register(
        "/a/b",
        plan.clone(),
        Limits::unlimited().with_max_output_bytes(4),
        None,
    );
    let roomy = reg.register("/a/b", plan, Limits::unlimited(), None);
    let report = reg
        .publish(&engine, "d", "<a><b>12345678</b></a>", Limits::unlimited())
        .unwrap();
    assert_eq!(
        report.result_for(tiny).unwrap().as_ref().unwrap_err().code,
        ErrorCode::Limit
    );
    assert_eq!(
        report.result_for(roomy).unwrap().as_ref().unwrap(),
        "<b>12345678</b>"
    );
}

#[test]
fn fallback_evaluation_errors_are_isolated_too() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    // Non-streamable and guaranteed to fail at runtime: division by zero.
    let failing = register(&reg, &engine, "1 div 0");
    let fine = register(&reg, &engine, "count(//b)");
    let report = reg
        .publish(&engine, "d", "<a><b/><b/></a>", Limits::unlimited())
        .unwrap();
    assert!(report.result_for(failing).unwrap().is_err());
    assert_eq!(report.result_for(fine).unwrap().as_ref().unwrap(), "2");
}

struct PanickingSink;
impl SubscriptionSink for PanickingSink {
    fn deliver(&self, _d: &Delivery<'_>) -> xqr_xdm::Result<()> {
        panic!("subscriber exploded");
    }
}

#[test]
fn panicking_sink_degrades_only_itself() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let plan = engine.compile_shared("/a/b").unwrap();
    let bad = reg.register(
        "/a/b",
        plan.clone(),
        Limits::unlimited(),
        Some(Arc::new(PanickingSink)),
    );
    let good_sink = CollectingSink::new();
    let good = reg.register("/a/b", plan, Limits::unlimited(), Some(good_sink.clone()));
    let report = reg
        .publish(&engine, "d", "<a><b>x</b></a>", Limits::unlimited())
        .unwrap();
    // The panic is contained as this subscription's XQRL0000.
    assert_eq!(
        report.result_for(bad).unwrap().as_ref().unwrap_err().code,
        ErrorCode::Internal
    );
    assert_eq!(
        report.result_for(good).unwrap().as_ref().unwrap(),
        "<b>x</b>"
    );
    let received = good_sink.take();
    assert_eq!(received.len(), 1);
    assert_eq!(received[0].1.as_ref().unwrap(), "<b>x</b>");
    assert_eq!(report.delivery_failures, 1);
}

#[test]
fn sinks_see_error_outcomes_for_their_own_subscription() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let sink = CollectingSink::new();
    let id = reg.register(
        "/a/b",
        engine.compile_shared("/a/b").unwrap(),
        Limits::unlimited().with_max_output_bytes(1),
        Some(sink.clone()),
    );
    let report = reg
        .publish(&engine, "d", "<a><b>wide</b></a>", Limits::unlimited())
        .unwrap();
    assert!(report.result_for(id).unwrap().is_err());
    let received = sink.take();
    assert_eq!(received.len(), 1);
    assert_eq!(received[0].1.as_ref().unwrap_err().code, ErrorCode::Limit);
}

#[test]
fn publish_with_no_subscriptions_is_cheap_and_clean() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let report = reg
        .publish(&engine, "d", "<a><b/></a>", Limits::unlimited())
        .unwrap();
    assert!(report.results.is_empty());
    assert_eq!(report.stats.tokens_seen, 0, "no pass should run");
    assert_eq!(engine.store().doc_count(), 0);
}

#[test]
fn stats_accumulate_across_publishes() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    register(&reg, &engine, "/a/b");
    register(&reg, &engine, "count(//b)");
    for _ in 0..3 {
        reg.publish(&engine, "d", "<a><b>x</b></a>", Limits::unlimited())
            .unwrap();
    }
    let s = reg.stats();
    assert_eq!(s.active, 2);
    assert_eq!(s.documents_published, 3);
    assert_eq!(s.shared_pass_evals, 3);
    assert_eq!(s.fallback_evals, 3);
    assert_eq!(s.matches_delivered, 6); // 3 streamed matches + 3 fallback
    assert!(s.stream_tokens_seen > 0);
}

// --- chunked publish: byte-for-byte equivalence with the whole path ---

/// Compare two publish reports result-for-result (values and error
/// codes) — the chunked-vs-whole contract.
fn assert_reports_equal(
    whole: &xqr_subscribe::PublishReport,
    chunked: &xqr_subscribe::PublishReport,
) {
    assert_eq!(whole.results.len(), chunked.results.len());
    for ((wid, wr), (cid, cr)) in whole.results.iter().zip(chunked.results.iter()) {
        assert_eq!(wid, cid);
        match (wr, cr) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "sub {wid} diverged"),
            (Err(a), Err(b)) => assert_eq!(a.code, b.code, "sub {wid} error diverged"),
            (a, b) => panic!("sub {wid}: whole={a:?} chunked={b:?}"),
        }
    }
    assert_eq!(whole.stats.tokens_seen, chunked.stats.tokens_seen);
    assert_eq!(whole.stats.tokens_skipped, chunked.stats.tokens_skipped);
    assert_eq!(whole.stats.matches, chunked.stats.matches);
    assert_eq!(whole.matches, chunked.matches);
    assert_eq!(whole.shared_pass, chunked.shared_pass);
    assert_eq!(whole.fallback, chunked.fallback);
}

#[test]
fn publish_chunked_equals_publish_for_mixed_sets_at_any_chunk_size() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let xml = r#"<bib><book year="1994"><title>TCP/IP</title><price>65.95</price></book><book><title>Data on the Web</title></book><note>caf&#233; ☕</note></bib>"#;
    for q in [
        "/bib/book/title",
        "//title",
        "count(//book)",
        "for $b in /bib/book where $b/@year return $b/title",
    ] {
        register(&reg, &engine, q);
    }
    let whole = reg
        .publish(&engine, "bib.xml", xml, Limits::unlimited())
        .unwrap();
    for chunk in [1usize, 3, 7, 64, xml.len()] {
        let chunks: Vec<&[u8]> = xml.as_bytes().chunks(chunk).collect();
        let chunked = reg
            .publish_chunked(&engine, "bib.xml", chunks, Limits::unlimited())
            .unwrap();
        assert_reports_equal(&whole, &chunked);
    }
    // Neither path may leak the fallback materialization.
    assert_eq!(engine.store().doc_count(), 0);
}

#[test]
fn chunked_session_matches_while_bytes_still_arrive() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    register(&reg, &engine, "//item");
    let head = "<list><item>first</item>";
    let tail = "<item>second</item></list>";
    let mut session = reg.begin_publish(&engine, "live", Limits::unlimited());
    session.feed(head.as_bytes()).unwrap();
    // The first match is visible before the document is complete.
    assert_eq!(session.matches_so_far(), 1);
    session.feed(tail.as_bytes()).unwrap();
    let report = session
        .finish(&reg, &engine, |_| unreachable!("no fallback subs"))
        .unwrap();
    assert_eq!(report.matches, 2);
}

#[test]
fn publish_chunked_reports_the_same_error_as_publish() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    register(&reg, &engine, "//a");
    for bad in ["<a><b></a>", "<a>&bogus;</a>", "<a/><b/>", "<unclosed>"] {
        let whole = reg
            .publish(&engine, "bad", bad, Limits::unlimited())
            .unwrap_err();
        for chunk in [1usize, 2, bad.len()] {
            let chunks: Vec<&[u8]> = bad.as_bytes().chunks(chunk).collect();
            let chunked = reg
                .publish_chunked(&engine, "bad", chunks, Limits::unlimited())
                .unwrap_err();
            assert_eq!(whole.code, chunked.code, "{bad:?} chunk {chunk}");
        }
    }
}

#[test]
fn chunked_fallback_only_set_never_tokenizes_incrementally() {
    // With no streamable subscription, a malformed document must become
    // the fallback subscriptions' per-subscription error — not a
    // top-level failure — exactly like the whole-document path.
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let id = register(&reg, &engine, "count(//b)");
    let bad = "<a><b></a>";
    let whole = reg
        .publish(&engine, "bad", bad, Limits::unlimited())
        .unwrap();
    let chunks: Vec<&[u8]> = bad.as_bytes().chunks(3).collect();
    let chunked = reg
        .publish_chunked(&engine, "bad", chunks, Limits::unlimited())
        .unwrap();
    let w = whole.result_for(id).unwrap().as_ref().unwrap_err();
    let c = chunked.result_for(id).unwrap().as_ref().unwrap_err();
    assert_eq!(w.code, c.code);
    assert_eq!(engine.store().doc_count(), 0);
}

#[test]
fn chunked_feed_errors_are_sticky_and_poison_finish() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    register(&reg, &engine, "//a");
    let mut session = reg.begin_publish(&engine, "bad", Limits::unlimited());
    session.feed(b"<a><b>x</b>").unwrap();
    let e1 = session.feed(b"</nope>").unwrap_err();
    assert_eq!(e1.code, ErrorCode::Syntax);
    let e2 = session.feed(b"<ignored/>").unwrap_err();
    assert_eq!(e1.code, e2.code);
    let e3 = session
        .finish(&reg, &engine, |_| unreachable!())
        .unwrap_err();
    assert_eq!(e1.code, e3.code);
    // No sink deliveries happened for the poisoned publish.
    assert_eq!(reg.stats().documents_published, 0);
}

#[test]
fn chunked_publish_respects_per_subscription_budgets() {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let plan = engine.compile_shared("//b").unwrap();
    let tight = reg.register(
        "//b",
        plan.clone(),
        Limits::unlimited().with_max_output_bytes(4),
        None,
    );
    let roomy = reg.register("//b", plan, Limits::unlimited(), None);
    let xml = "<a><b>12345678</b></a>";
    let whole = reg.publish(&engine, "d", xml, Limits::unlimited()).unwrap();
    let chunks: Vec<&[u8]> = xml.as_bytes().chunks(2).collect();
    let chunked = reg
        .publish_chunked(&engine, "d", chunks, Limits::unlimited())
        .unwrap();
    for report in [&whole, &chunked] {
        assert_eq!(
            report.result_for(tight).unwrap().as_ref().unwrap_err().code,
            ErrorCode::Limit
        );
        assert!(report.result_for(roomy).unwrap().is_ok());
    }
}

#[test]
fn delivery_fault_degrades_one_subscriber_never_the_pass() {
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
