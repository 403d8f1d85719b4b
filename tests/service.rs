//! Integration tests for the `xqr-service` subsystem: plan cache,
//! document catalog eviction, admission control, and stats consistency
//! under concurrency — the acceptance criteria of the service PR.
//! Nothing here arms a failpoint; the tests that do are in
//! `tests/service_faults.rs`, a binary of their own.

use std::sync::mpsc;
use std::time::Duration;
use xqr::xqr_service::{QueryService, ServiceConfig};
use xqr::{DynamicContext, Engine, ErrorCode, Limits};

#[test]
fn repeated_queries_hit_the_plan_cache_with_identical_results() {
    let service = QueryService::new(ServiceConfig::default());
    service
        .load_document(
            "bib.xml",
            "<bib><book><price>7</price></book><book><price>35</price></book></bib>",
        )
        .unwrap();
    let q = r#"sum(for $p in doc("bib.xml")//price return xs:integer($p))"#;

    // Uncached reference: a plain engine compiling from scratch.
    let engine = Engine::new();
    engine
        .load_document(
            "bib.xml",
            "<bib><book><price>7</price></book><book><price>35</price></book></bib>",
        )
        .unwrap();
    let uncached = engine.query(q).unwrap();

    let first = service.run(q).unwrap();
    let mut results = vec![first];
    for _ in 0..9 {
        results.push(service.run(q).unwrap());
    }
    for r in &results {
        assert_eq!(r, &uncached, "cached and uncached plans must agree");
    }

    let s = service.stats();
    assert!(
        s.plan_hit_rate() > 0.0,
        "repeated queries must hit the cache: {s}"
    );
    assert_eq!(s.plan_misses, 1, "one compile for ten executions: {s}");
    assert_eq!(s.plan_hits, 9, "{s}");
    assert_eq!(s.served, 10, "{s}");
}

#[test]
fn catalog_evicts_under_its_byte_budget() {
    // Size one representative document, then budget for two of them.
    let doc = |i: usize| format!("<d><pad>{}</pad><n>{i}</n></d>", "x".repeat(50_000));
    let one_doc = {
        let probe = Engine::new();
        let id = probe.store().load_xml(&doc(0), None).unwrap();
        probe.store().document(id).memory_bytes() as u64
    };
    let service = QueryService::new(ServiceConfig {
        catalog_max_bytes: Some(one_doc * 2 + one_doc / 2),
        ..Default::default()
    });
    for i in 0..10 {
        service
            .load_document(&format!("doc{i}.xml"), &doc(i))
            .unwrap();
    }
    let s = service.stats();
    assert!(
        s.catalog_docs <= 2,
        "byte budget admits at most two docs: {s}"
    );
    assert!(s.catalog_bytes <= one_doc * 2 + one_doc / 2, "{s}");
    assert_eq!(s.catalog_evictions, 8, "{s}");
    // The newest documents survived; the store itself shrank too.
    assert_eq!(service.run(r#"string(doc("doc9.xml")/d/n)"#).unwrap(), "9");
    let err = service.run(r#"doc("doc0.xml")"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::DocumentNotFound);
    assert_eq!(
        service.engine().store().doc_count(),
        s.catalog_docs as usize
    );
}

#[test]
fn saturating_the_pool_rejects_with_xqrl0004() {
    let service = QueryService::new(ServiceConfig {
        max_concurrent: 1,
        max_queued: 1,
        ..Default::default()
    });
    // Occupy the single worker with a long query, cancellable so the
    // test always terminates.
    let blocker = service
        .submit("sum(1 to 10000000000)", DynamicContext::new())
        .unwrap();
    let cancel = blocker.cancel_handle();
    // Wait until it is actually running, not just queued.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while service.stats().active == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "blocker never started"
        );
        std::thread::yield_now();
    }
    // Fill the one queue slot.
    let queued = service.submit("1 + 1", DynamicContext::new()).unwrap();
    // The next submission is shed immediately with the stable code.
    let err = service.submit("2 + 2", DynamicContext::new()).unwrap_err();
    assert_eq!(err.code, ErrorCode::Overloaded);
    assert_eq!(err.code.as_str(), "XQRL0004");
    assert_eq!(service.stats().rejected, 1);

    // Release the worker: the queued query still completes.
    cancel.cancel();
    assert_eq!(blocker.wait().unwrap_err().code, ErrorCode::Cancelled);
    assert_eq!(queued.wait().unwrap(), "2");
    // Capacity returned: new work is admitted again.
    assert_eq!(service.run("3 + 3").unwrap(), "6");
}

#[test]
fn eight_threads_share_one_cached_plan() {
    let service = std::sync::Arc::new(QueryService::new(ServiceConfig {
        max_concurrent: 8,
        max_queued: 256,
        ..Default::default()
    }));
    service
        .load_document(
            "bib.xml",
            "<bib><book><price>7</price></book><book><price>35</price></book></bib>",
        )
        .unwrap();
    let q = r#"sum(for $p in doc("bib.xml")//price return xs:integer($p))"#;
    service.prepare(q).unwrap(); // warm the cache: every lookup below is a hit

    let (tx, rx) = mpsc::channel();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let service = service.clone();
            let tx = tx.clone();
            let q = q.to_string();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    tx.send(service.run(&q)).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let results: Vec<_> = rx.into_iter().collect();
    for t in threads {
        t.join().expect("no panics under concurrency");
    }
    assert_eq!(results.len(), 160);
    for r in results {
        assert_eq!(r.unwrap(), "42", "every thread sees the same answer");
    }
    let s = service.stats();
    assert_eq!(s.served, 160, "{s}");
    assert_eq!(s.plan_misses, 1, "one compile served all 160 runs: {s}");
    // A worker delivers the result before it decrements `active`, so the
    // gauge can lag a just-returned run() by a few microseconds — wait for
    // the pool to drain before asserting quiescence.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.stats().active != 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let s = service.stats();
    assert_eq!(s.active, 0, "{s}");
    assert_eq!(s.queued, 0, "{s}");
}

#[test]
fn stats_counters_are_consistent() {
    let service = QueryService::new(ServiceConfig::default());
    for i in 0..5 {
        service.run(&format!("{i} + {i}")).unwrap();
    }
    for _ in 0..5 {
        service.run("0 + 0").unwrap();
    }
    assert!(service.run("1 idiv 0").is_err());
    let s = service.stats();
    assert_eq!(
        s.plan_hits + s.plan_misses,
        s.plan_lookups,
        "hits + misses must equal lookups: {s}"
    );
    assert_eq!(s.served + s.failed, 11, "{s}");
    assert_eq!(
        s.latency_count,
        s.served + s.failed,
        "every finished query is timed: {s}"
    );
    assert_eq!(
        s.plan_entries, 6,
        "five distinct sums + the failing query: {s}"
    );
}

#[test]
fn service_level_deadlines_include_queue_wait() {
    let service = QueryService::new(ServiceConfig {
        max_concurrent: 1,
        max_queued: 8,
        per_query_limits: Limits::unlimited().with_deadline(Duration::from_millis(100)),
        ..Default::default()
    });
    // Both queries carry a 100 ms deadline from *submission*; the first
    // burns its own budget, and the second times out mostly in queue.
    let a = service
        .submit("sum(1 to 10000000000)", DynamicContext::new())
        .unwrap();
    let b = service
        .submit("sum(1 to 10000000000)", DynamicContext::new())
        .unwrap();
    assert_eq!(a.wait().unwrap_err().code, ErrorCode::Timeout);
    assert_eq!(b.wait().unwrap_err().code, ErrorCode::Timeout);
    assert_eq!(service.stats().failed, 2);
}

/// Dropping the service is a shutdown: queued-but-unstarted queries fail
/// with a stable coded error (never a hang), while the in-flight query
/// runs to its own deadline and reports normally.
#[test]
fn dropping_the_service_fails_queued_queries_with_a_stable_code() {
    let service = QueryService::new(ServiceConfig {
        max_concurrent: 1,
        max_queued: 8,
        per_query_limits: Limits::unlimited().with_deadline(Duration::from_millis(200)),
        ..Default::default()
    });
    // Occupy the single worker — waiting until the query is actually
    // running, not just queued — then queue a second query behind it.
    let slow = service
        .submit("sum(1 to 10000000000)", DynamicContext::new())
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.stats().active == 0 {
        assert!(std::time::Instant::now() < deadline, "worker never started");
        std::thread::yield_now();
    }
    let queued = service.submit("1 + 1", DynamicContext::new()).unwrap();
    // Shutdown drops the queued job immediately and waits out the
    // in-flight one (bounded by its 200 ms deadline).
    drop(service);
    assert_eq!(queued.wait().unwrap_err().code, ErrorCode::Cancelled);
    assert_eq!(slow.wait().unwrap_err().code, ErrorCode::Timeout);
}
