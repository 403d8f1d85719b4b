//! Overload-governance integration tests: the memory ledger's pressure
//! states driving the brownout ladder through the service facade, Red
//! admission sheds with stable coded errors, deadline-aware queue drops,
//! and the `dropped_expired + completed == admitted` accounting
//! invariant at the service level. The open-loop overload leg
//! (`harness overload`) sweeps the same ground at 10×
//! capacity; these tests pin the individual contracts.

use std::time::Duration;

use xqr_pressure::{Category, PressureConfig, PressureState};
use xqr_service::{QueryService, ServiceConfig};
use xqr_xdm::{ErrorCode, Limits};

/// A service governed by a small ceiling so tests can push the ledger
/// through its states with explicit charges.
fn governed(ceiling: u64) -> QueryService {
    QueryService::new(ServiceConfig {
        pressure: PressureConfig::with_ceiling(ceiling),
        ..Default::default()
    })
}

#[test]
fn red_sheds_publishes_batches_and_sessions_with_coded_errors() {
    let svc = governed(10_000);
    svc.load_document("d.xml", "<d><x/></d>").unwrap();
    svc.subscribe("/d/x").unwrap();

    svc.ledger().charge(Category::QueryOutput, 9_500);
    assert_eq!(svc.ledger().state(), PressureState::Red);

    for err in [
        svc.publish("p", "<d/>").unwrap_err(),
        svc.publish_retained("p", "<d/>").unwrap_err(),
        svc.run_batch("d.xml", &["1"]).unwrap_err(),
        svc.open_chunk_session("s").unwrap_err(),
        svc.open_stream_query("/d/x").err().expect("shed"),
    ] {
        assert_eq!(err.code, ErrorCode::Overloaded, "{err}");
        assert!(err.is_retryable(), "pressure sheds are retryable: {err}");
        assert!(
            err.to_string().contains("memory pressure is red"),
            "diagnosable: {err}"
        );
    }
    assert!(svc.stats().pressure_sheds >= 5);

    // Load stops: the ledger walks back to Green and everything admits
    // again — brownout is a mode, not a ratchet.
    svc.ledger().release(Category::QueryOutput, 9_500);
    assert_eq!(svc.ledger().state(), PressureState::Green);
    svc.publish("p", "<d><x/></d>").unwrap();
    let id = svc.open_chunk_session("s").unwrap();
    svc.feed_chunk(id, b"<d/>").unwrap();
    svc.finish_chunk_session(id).unwrap();
    assert!(svc.run_batch("d.xml", &["1"]).is_ok());
}

#[test]
fn yellow_skips_index_builds_and_shrinks_the_plan_cache() {
    let svc = QueryService::new(ServiceConfig {
        plan_cache_capacity: 32,
        plan_cache_shards: 1,
        // Ceiling sized so the primed plan cache (~31 KB of estimated
        // charges) keeps the ledger Green, and the explicit charge below
        // lands it in Yellow — and keeps it there even after the shrink
        // rung releases plan bytes.
        pressure: PressureConfig::with_ceiling(100_000),
        ..Default::default()
    });
    // Prime the plan cache well past half capacity while Green.
    for i in 0..30 {
        svc.prepare(&format!("{i} + {i}")).unwrap();
    }
    assert!(svc.stats().plan_entries >= 30);
    assert_eq!(svc.ledger().state(), PressureState::Green);

    svc.ledger().charge(Category::QueryOutput, 55_000);
    assert_eq!(svc.ledger().state(), PressureState::Yellow);

    // Documents still load under Yellow — just without index builds.
    svc.load_document("y.xml", "<y><a/><a/></y>").unwrap();
    assert_eq!(svc.run(r#"count(doc("y.xml")//a)"#).unwrap(), "2");
    let s = svc.stats();
    assert!(s.pressure_no_index >= 1, "{s}");
    // The first submit after the transition shrank the cache to half
    // (plus the just-submitted query's own fresh entry).
    assert!(s.plan_entries <= 17, "plan cache shrank: {s}");
    assert_eq!(s.pressure_state, PressureState::Yellow);
    assert!(s.pressure_to_yellow >= 1);
    assert!(svc.stats_text().contains("pressure: state: yellow"));
    let plan_text = svc.explain("1 + 1").unwrap();
    assert!(plan_text.contains("pressure: yellow"), "{plan_text}");
    assert!(plan_text.contains("memory plans:"), "{plan_text}");

    svc.ledger().release(Category::QueryOutput, 55_000);
    assert_eq!(svc.stats().pressure_state, PressureState::Green);
}

#[test]
fn expired_deadlines_are_dropped_from_the_queue_not_executed() {
    // One worker, a deep queue, and a deadline shorter than the head
    // job: everything behind the head expires in the queue.
    let svc = QueryService::new(ServiceConfig {
        max_concurrent: 1,
        max_queued: 16,
        per_query_limits: Limits::unlimited().with_deadline(Duration::from_millis(40)),
        ..Default::default()
    });
    let slow = svc
        .submit("sum(1 to 40000000)", Default::default())
        .unwrap();
    let mut tickets = Vec::new();
    for _ in 0..8 {
        tickets.push(svc.submit("1 + 1", Default::default()).unwrap());
    }
    let mut dropped = 0;
    for t in tickets {
        match t.wait() {
            Err(e) if e.code == ErrorCode::Timeout => {
                assert!(
                    e.to_string().contains("never executed"),
                    "queue drops say so: {e}"
                );
                dropped += 1;
            }
            // A fast machine may still run early entries before the
            // deadline; the slow head may also time out mid-run.
            other => drop(other),
        }
    }
    let _ = slow.wait();
    let s = svc.stats();
    assert!(dropped >= 1, "at least one queued query expired: {s}");
    assert!(s.dropped_expired >= 1, "{s}");
    // The service-level accounting invariant, drained.
    assert_eq!(s.dropped_expired + s.latency_count, s.admitted, "{s}");
    assert_eq!(s.queue_wait_count, s.admitted, "every dequeue recorded");
}

#[test]
fn query_output_and_session_bytes_flow_through_the_ledger() {
    let svc = governed(1 << 30);
    // A chunk session's fed bytes are charged while it lives...
    let id = svc.open_chunk_session("s").unwrap();
    svc.feed_chunk(id, b"<d>payload payload payload</d>")
        .unwrap();
    let live = svc.ledger().snapshot();
    assert!(
        live.category(Category::ChunkSessions).current > 0,
        "{live:?}"
    );
    svc.finish_chunk_session(id).unwrap();
    // ...and released when it ends.
    let after = svc.ledger().snapshot();
    assert_eq!(after.category(Category::ChunkSessions).current, 0);
    assert!(after.category(Category::ChunkSessions).peak > 0);

    // Query output peaks through the ledger even though it is released
    // by the time the waiter has the string.
    svc.run("string-join(for $i in 1 to 200 return 'x', '')")
        .unwrap();
    let snap = svc.ledger().snapshot();
    assert!(snap.category(Category::QueryOutput).peak >= 200, "{snap:?}");
    assert_eq!(snap.category(Category::QueryOutput).current, 0);

    // Stream queries hold a charge for their lifetime; in streamed mode
    // it grows with the matches collected, not with the bytes fed.
    let ingest = || {
        svc.ledger()
            .snapshot()
            .category(Category::IngestChannels)
            .current
    };
    let mut q = svc.open_stream_query("/a/b").unwrap();
    let base = ingest();
    assert!(base > 0);
    q.feed(b"<a><skipped>0123456789</skipped><b>x</b>").unwrap();
    assert_eq!(ingest() - base, "<b>x</b>".len() as u64);
    q.feed(b"</a>").unwrap();
    q.finish().unwrap();
    assert_eq!(
        svc.ledger()
            .snapshot()
            .category(Category::IngestChannels)
            .current,
        0
    );
}

#[test]
fn catalog_bytes_are_charged_to_the_ledger_through_the_service() {
    let svc = governed(1 << 30);
    svc.load_document("a.xml", &format!("<a>{}</a>", "x".repeat(5_000)))
        .unwrap();
    let snap = svc.ledger().snapshot();
    assert!(
        snap.category(Category::CatalogResident).current > 5_000,
        "{snap:?}"
    );
    svc.remove_document("a.xml");
    assert_eq!(
        svc.ledger()
            .snapshot()
            .category(Category::CatalogResident)
            .current,
        0
    );
}
