//! Integration tests for the `xqr-service` subsystem: plan cache,
//! document catalog eviction, admission control, and stats consistency
//! under concurrency — the acceptance criteria of the service PR — and
//! the same service under armed failpoints, whose schedules are scoped
//! to the client thread that installed them.

use std::sync::mpsc;
use std::time::Duration;
use xqr::xqr_service::{QueryService, ServiceConfig};
use xqr::{DynamicContext, Engine, ErrorCode, Limits};
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};

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
    let one_doc = doc_bytes(&doc(0));
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

/// What `xml` charges as a document, index aside.
fn doc_bytes(xml: &str) -> u64 {
    let probe = Engine::new().store().lease_xml(xml, None).unwrap();
    probe.doc.memory_bytes() as u64
}

/// `fn:doc` resolves through the catalog, so a read refreshes the
/// document's LRU position: with room for two documents, the one read
/// since it was put outlives a later put.
#[test]
fn a_read_refreshes_the_catalog_lru_position() {
    let doc = |i: usize| format!("<d><pad>{}</pad><n>{i}</n></d>", "x".repeat(50_000));
    let one_doc = doc_bytes(&doc(0));
    let service = QueryService::new(ServiceConfig {
        catalog_max_bytes: Some(one_doc * 2 + one_doc / 2),
        ..Default::default()
    });
    service.load_document("a.xml", &doc(0)).unwrap();
    service.load_document("b.xml", &doc(1)).unwrap();
    assert_eq!(service.run(r#"string(doc("a.xml")/d/n)"#).unwrap(), "0");
    service.load_document("c.xml", &doc(2)).unwrap();
    assert_eq!(service.stats().catalog_evictions, 1);
    assert!(service.catalog().contains("a.xml"), "read since its put");
    assert!(!service.catalog().contains("b.xml"), "least recently used");
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

/// Satellite of the chaos PR: a worker panic mid-evaluation (injected
/// through the failpoint framework) must surface as the stable internal
/// error code and leave the service fully healthy — stats readable,
/// plan cache serving, later queries correct. Poisoned-lock recovery at
/// the structure level is covered by the pool and plan-cache unit tests.
#[test]
fn an_injected_worker_panic_leaves_the_service_healthy() {
    assert!(xqr_faults::compiled_with_failpoints());
    xqr_faults::silence_injected_panics();

    let service = QueryService::new(ServiceConfig::default());
    assert_eq!(service.run("1 + 1").unwrap(), "2"); // warm the plan cache
    let err = {
        let _faults = xqr_faults::install(
            FaultSchedule::new(11).rule(
                FaultRule::new("eval.next", FaultKind::Panic)
                    .one_in(1)
                    .max_fires(1),
            ),
        );
        service.run("2 + 3").unwrap_err()
    };
    // The panic is contained into the deterministic internal code — it
    // neither unwinds into the waiter nor triggers a retry.
    assert_eq!(err.code, ErrorCode::Internal);
    // The service keeps serving: the same query now answers, the cached
    // plan still hits, and the stats snapshot is consistent.
    assert_eq!(service.run("2 + 3").unwrap(), "5");
    assert_eq!(service.run("1 + 1").unwrap(), "2");
    let s = service.stats();
    assert_eq!(s.failed, 1, "{s}");
    assert!(s.plan_hits >= 1, "{s}");
    assert_eq!(s.served, 3, "{s}");
}

/// A worker evaluates in place, so an injected panic unwinds through
/// the worker's own stack: it must come back as `XQRL0000` from one
/// `submit`, free the documents the query had constructed, and leave
/// every worker serving.
#[test]
fn an_in_place_evaluation_panic_spares_the_worker_and_the_store() {
    xqr_faults::silence_injected_panics();
    let config = ServiceConfig::default();
    let workers = config.max_concurrent;
    let service = QueryService::new(config);
    let query = "let $x := <a><b/><b/></a> return count($x//b)";
    assert_eq!(service.run(query).unwrap(), "2");
    let docs = service.engine().store().doc_count();
    let err = {
        let _faults = xqr_faults::install(
            FaultSchedule::new(5).rule(
                FaultRule::new("eval.next", FaultKind::Panic)
                    .skip_first(2)
                    .max_fires(1),
            ),
        );
        let err = service
            .submit(query, DynamicContext::new())
            .and_then(|t| t.wait())
            .unwrap_err();
        assert_eq!(xqr_faults::fires_at("eval.next"), 1);
        err
    };
    assert_eq!(err.code.as_str(), "XQRL0000", "{err}");
    assert!(err.to_string().contains("evaluation panicked"), "{err}");
    let tickets: Vec<_> = (0..workers * 4)
        .map(|_| loop {
            match service.submit(query, DynamicContext::new()) {
                Err(e) if e.code == ErrorCode::Overloaded => std::thread::yield_now(),
                other => break other.unwrap(),
            }
        })
        .collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap(), "2");
    }
    assert_eq!(service.engine().store().doc_count(), docs);
}

/// The uncached-compile rung of the ladder: while the plan cache's
/// insert side fails, every query compiles for its own execution and still answers; nothing is
/// cached, nothing is retried, and caching resumes with the fault gone.
#[test]
fn a_failing_plan_cache_insert_compiles_uncached() {
    let service = QueryService::new(ServiceConfig::default());
    {
        let _faults = xqr_faults::install(
            FaultSchedule::new(5).rule(FaultRule::new("plans.insert", FaultKind::ErrorReturn)),
        );
        for i in 0..20 {
            assert_eq!(
                service.run(&format!("{i} + 1")).unwrap(),
                (i + 1).to_string()
            );
        }
        assert_eq!(xqr_faults::fires_at("plans.insert"), 20);
    }
    let s = service.stats();
    assert_eq!(s.uncached_compiles, 20, "{s}");
    assert_eq!((s.plan_entries, s.plan_hits, s.retries), (0, 0, 0), "{s}");
    assert_eq!((s.served, s.failed), (20, 0), "{s}");

    assert_eq!(service.run("0 + 1").unwrap(), "1");
    assert_eq!(service.run("0 + 1").unwrap(), "1");
    let s = service.stats();
    assert_eq!((s.plan_entries, s.plan_hits), (1, 1), "{s}");
    assert_eq!(s.uncached_compiles, 20, "{s}");
}

/// A schedule belongs to the thread that installed it — and to the work
/// that thread hands off, nothing else. One service, one worker pool:
/// thread A's queries panic on the evaluation thread every time, thread
/// B's 200 queries, interleaved with them on the same workers, never see
/// an injection.
#[test]
fn an_armed_client_and_an_unarmed_client_share_the_workers() {
    xqr_faults::silence_injected_panics();
    let service = QueryService::new(ServiceConfig::default());
    let b_done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let armed = s.spawn(|| {
            let _faults = xqr_faults::install(
                FaultSchedule::new(1).rule(FaultRule::new("eval.next", FaultKind::Panic)),
            );
            let mut runs = 0;
            while runs == 0 || !b_done.load(std::sync::atomic::Ordering::Acquire) {
                match service.run("1 + 1") {
                    Err(e) => assert!(
                        matches!(e.code, ErrorCode::Internal | ErrorCode::Overloaded),
                        "{e}"
                    ),
                    Ok(v) => panic!("an always-panicking evaluation answered {v}"),
                }
                runs += 1;
            }
            assert!(xqr_faults::fires() > 0);
            assert_eq!(xqr_faults::fires(), xqr_faults::fires_at("eval.next"));
        });
        for i in 0..200 {
            // (Shed under load is not an injection; ask again.)
            let answer = loop {
                match service.run(&format!("{i} + 1")) {
                    Err(e) if e.code == ErrorCode::Overloaded => std::thread::yield_now(),
                    other => break other,
                }
            };
            assert_eq!(answer.unwrap(), (i + 1).to_string());
        }
        assert!(!xqr_faults::armed());
        assert_eq!(xqr_faults::fires(), 0);
        b_done.store(true, std::sync::atomic::Ordering::Release);
        armed.join().unwrap();
    });
    let s = service.stats();
    assert!(s.failed > 0 && s.served >= 200, "{s}");
}

/// The thread change a service query makes carries the schedule: one
/// installed here, on the client thread, is consulted at `pool.dispatch`
/// (the submit below) and at `eval.next` (on the worker itself, which
/// evaluates in place, index twig join included).
#[test]
fn a_client_threads_schedule_reaches_the_worker_and_its_evaluation() {
    let service = QueryService::new(ServiceConfig::default());
    let mut xml = String::from("<r>");
    for i in 0..30 {
        xml.push_str(&format!("<a><d>{i}</d></a><a/>"));
    }
    xml.push_str("</r>");
    service.load_document("r.xml", &xml).unwrap();
    let query = r#"count(doc("r.xml")//a[d]/d)"#;
    assert_eq!(service.run(query).unwrap(), "30");

    // Delays of no length: every consulted site counts a fire, nothing
    // fails, so the answer proves the query ran to the end.
    let nothing = FaultKind::Delay(Duration::ZERO);
    let _faults = xqr_faults::install(
        FaultSchedule::new(3)
            .rule(FaultRule::new("pool.dispatch", nothing))
            .rule(FaultRule::new("eval.next", nothing)),
    );
    assert_eq!(service.run(query).unwrap(), "30");
    assert_eq!(xqr_faults::fires_at("pool.dispatch"), 1);
    assert!(xqr_faults::fires_at("eval.next") > 0);
}

/// Two armed clients, different seeds, one service, at the same time:
/// each sees exactly the failures and the `fires_at` it sees when it
/// runs alone, because each schedule counts its own hits.
#[test]
fn concurrent_armed_clients_each_read_only_their_own_schedule() {
    let service = QueryService::new(ServiceConfig {
        retry: xqr::xqr_service::RetryPolicy::none(),
        ..Default::default()
    });
    let client = |seed: u64| -> (Vec<bool>, u64) {
        let _faults = xqr_faults::install(
            FaultSchedule::new(seed)
                .rule(FaultRule::new("eval.next", FaultKind::ErrorReturn).one_in(4)),
        );
        let failed: Vec<bool> = (0..60)
            .map(|i| loop {
                match service.run(&format!("({i}, {seed}, 3)[2]")) {
                    Err(e) if e.code == ErrorCode::Overloaded => std::thread::yield_now(),
                    Err(e) => {
                        assert_eq!(e.code, ErrorCode::Unavailable, "{e}");
                        break true;
                    }
                    Ok(v) => {
                        assert_eq!(v, seed.to_string());
                        break false;
                    }
                }
            })
            .collect();
        let fires = xqr_faults::fires_at("eval.next");
        assert_eq!(fires, failed.iter().filter(|f| **f).count() as u64);
        assert_eq!(fires, xqr_faults::fires());
        (failed, fires)
    };
    let alone = [client(11), client(12)];
    assert_ne!(alone[0].0, alone[1].0, "different seeds, different faults");
    let together = std::thread::scope(|s| {
        let (a, b) = (s.spawn(|| client(11)), s.spawn(|| client(12)));
        [a.join().unwrap(), b.join().unwrap()]
    });
    assert_eq!(together, alone);
}

/// Version `v` of a catalog document: its stamp and its entry count
/// (`v + 2`) tell it apart from every other version.
fn catalog_version(v: usize) -> String {
    let entries: String = (0..v + 2)
        .map(|i| format!("<entry><price>{i}</price></entry>"))
        .collect();
    format!(r#"<catalog version="{v}">{entries}</catalog>"#)
}

/// One reader against one writer on a catalog that holds one document.
/// The reader's query reads `n` twice: its version stamp, then its
/// entry count. Between the two its evaluation sleeps, and meanwhile the
/// writer replaces `n`, then evicts the replacement by loading another
/// name. The reply must be one version's, whole.
fn read_while_replaced_and_evicted(indexed: bool, batch: bool) {
    let dir =
        std::env::temp_dir().join(format!("xqr-race-{}-{indexed}-{batch}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = QueryService::open(ServiceConfig {
        engine: xqr::EngineOptions {
            index_documents: indexed,
            ..Default::default()
        },
        // Every load evicts every other document; persistence demotes
        // the victim, so a late reader reloads it instead of missing it.
        catalog_max_bytes: Some(1),
        persist_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    service.load_document("n", &catalog_version(1)).unwrap();
    let (stamp, count) = if batch {
        ("string(/catalog/@version)", "count(//entry)")
    } else {
        (
            r#"string(doc("n")/catalog/@version)"#,
            r#"count(doc("n")//entry)"#,
        )
    };
    let run = |query: &str| {
        if batch {
            service
                .run_batch("n", &[query])
                .and_then(|mut r| r.remove(0))
        } else {
            service.run(query)
        }
    };
    // Evaluation steps up to the stamp: the sequence, then the stamp's.
    let steps = {
        let _faults = xqr_faults::install(FaultSchedule::new(1).rule(FaultRule::new(
            "eval.next",
            FaultKind::Delay(Duration::ZERO),
        )));
        run(stamp).unwrap();
        xqr_faults::hits_at("eval.next")
    };
    // One long sleep right after the stamp. The schedule is shared with
    // the reader, so this thread sees the moment the sleep begins.
    let _faults = xqr_faults::install(
        FaultSchedule::new(1).rule(
            FaultRule::new("eval.next", FaultKind::Delay(Duration::from_millis(500)))
                .skip_first(1 + steps)
                .max_fires(1),
        ),
    );
    let schedule = xqr_faults::current();
    let reply = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let _faults = schedule.enter();
            run(&format!("({stamp}, {count})"))
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while xqr_faults::fires_at("eval.next") == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the reader never slept"
            );
            std::thread::yield_now();
        }
        service.load_document("n", &catalog_version(2)).unwrap();
        service.load_document("other", &catalog_version(7)).unwrap();
        reader.join().unwrap()
    });
    let _ = std::fs::remove_dir_all(&dir);
    let reply = reply.unwrap_or_else(|e| panic!("indexed {indexed}, batch {batch}: {e}"));
    assert!(
        reply == "1 3" || reply == "2 4",
        "indexed {indexed}, batch {batch}: {reply:?} mixes versions"
    );
}

/// A reader holds what it reads: replacing or evicting a catalog
/// document under a running query never fails it and never shows it
/// two versions.
#[test]
fn a_document_replaced_and_evicted_mid_query_is_read_whole() {
    for indexed in [true, false] {
        for batch in [false, true] {
            read_while_replaced_and_evicted(indexed, batch);
        }
    }
}
