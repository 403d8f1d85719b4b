//! Integration tests for chunked ingestion: the resumable lexer, the
//! service chunk sessions, and the streaming query front-end.
//!
//! The invariant under test everywhere: **a document fed in chunks —
//! split at any byte boundary, including mid-tag, mid-entity, mid-CDATA,
//! and mid-UTF-8 — is indistinguishable from the same document handed
//! over whole.** Same events, same results, same error codes, same
//! absolute error offsets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xqr::xqr_service::{QueryService, ServiceConfig};
use xqr::xqr_xmlparse::{XmlEvent, XmlReader};
use xqr::{Engine, ErrorCode};

/// Documents chosen so that *some* split point lands inside every
/// construct the lexer has to resume across.
const ADVERSARIAL: &[&str] = &[
    // Multi-byte UTF-8 in text and attribute values: 2-byte (é), 3-byte
    // (日), and 4-byte (𝄞) sequences a 1-byte split always severs.
    "<a t=\"caf\u{e9}\"><b>\u{65e5}\u{672c}\u{8a9e} \u{1d11e}</b>caf\u{e9}</a>",
    // CDATA with markup-looking content and bracket runs near the end.
    "<r><a><![CDATA[<not>&a tag;]]></a><a><![CDATA[x]]]]></a></r>",
    // Character and entity references, adjacent and back-to-back.
    "<a>&amp;&lt;&gt;&#65;&#x42;</a>",
    // Attributes with both quote styles and references inside values.
    "<a one=\"x&amp;y\" two='&#x41;'><b empty=\"\"/></a>",
    // Comments and processing instructions with hyphens and '?'.
    "<a><!-- a - b - ok --><?pi some ? data?><b/></a>",
    // Deep nesting and empty-element tags mixed with text.
    "<r><a><b><c><d>x</d></c></b></a><a/>tail<a></a></r>",
    // Whitespace-heavy prolog-ish spacing inside tags.
    "<a  one = \"1\"\n\ttwo='2' ><b\n/></a>",
];

fn whole_document_events(xml: &str) -> Vec<XmlEvent> {
    let mut reader = XmlReader::new(xml);
    let mut events = Vec::new();
    loop {
        let ev = reader.next_event().expect("whole-document parse");
        let end = ev == XmlEvent::EndDocument;
        events.push(ev);
        if end {
            return events;
        }
    }
}

fn chunked_events(chunks: &[&[u8]]) -> xqr::xqr_xdm::Result<Vec<XmlEvent>> {
    let mut reader = XmlReader::incremental();
    let mut events = Vec::new();
    for chunk in chunks {
        reader.feed(chunk)?;
        while let Some(ev) = reader.poll_event()? {
            events.push(ev);
        }
    }
    reader.finish()?;
    while let Some(ev) = reader.poll_event()? {
        events.push(ev);
    }
    Ok(events)
}

/// Every two-chunk split of every adversarial document — the exhaustive
/// boundary sweep — plus the degenerate 1-byte-per-chunk feed, must
/// produce the whole-document event sequence exactly.
#[test]
fn every_chunk_boundary_parses_identically() {
    for xml in ADVERSARIAL {
        let bytes = xml.as_bytes();
        let reference = whole_document_events(xml);

        for split in 0..=bytes.len() {
            let events = chunked_events(&[&bytes[..split], &bytes[split..]])
                .unwrap_or_else(|e| panic!("split {split} of {xml:?}: {e}"));
            assert_eq!(events, reference, "split {split} of {xml:?}");
        }

        let one_byte: Vec<&[u8]> = bytes.chunks(1).collect();
        let events =
            chunked_events(&one_byte).unwrap_or_else(|e| panic!("1-byte feed of {xml:?}: {e}"));
        assert_eq!(events, reference, "1-byte feed of {xml:?}");
    }
}

/// Malformed documents must fail the same way chunked as whole: the
/// same error code and the same *absolute* byte offset, no matter how
/// many chunk boundaries the bytes crossed first.
#[test]
fn chunked_errors_match_whole_document_errors_with_absolute_offsets() {
    let malformed: &[&str] = &[
        "<a><b></a>",                   // mismatched end tag
        "<a>&unknown;</a>",             // unknown entity
        "<a attr=oops></a>",            // unquoted attribute value
        "<a>x</a><a>trailing</a>junk<", // content past the root, then EOF mid-tag
        "<a>\u{65e5}<b></a>",           // error after multi-byte text
    ];
    for xml in malformed {
        let whole = {
            let mut reader = XmlReader::new(xml);
            loop {
                match reader.next_event() {
                    Ok(XmlEvent::EndDocument) => panic!("{xml:?} parsed whole"),
                    Ok(_) => continue,
                    Err(e) => break e,
                }
            }
        };
        let one_byte: Vec<&[u8]> = xml.as_bytes().chunks(1).collect();
        let chunked = chunked_events(&one_byte)
            .err()
            .unwrap_or_else(|| panic!("{xml:?} parsed chunked"));

        assert_eq!(chunked.code, whole.code, "{xml:?}");
        assert_eq!(
            chunked.position, whole.position,
            "offsets must be absolute, not chunk-relative: {xml:?}"
        );
        assert!(
            chunked.position.is_some(),
            "lexer errors carry a byte offset: {xml:?} -> {chunked}"
        );
        assert!(
            chunked.to_string().contains("at offset"),
            "rendered error names the offset: {chunked}"
        );
    }
}

const BIB: &str = r#"<bib><book year="1994"><title>TCP/IP Illustrated</title><price>65.95</price></book><book year="2000"><title>Data on the Web</title><price>39.95</price></book></bib>"#;

/// Service chunk sessions against the whole-document publish: same
/// per-subscription results for a streamed path and a fallback query,
/// at chunk sizes from 1 byte up.
#[test]
fn chunk_sessions_match_whole_document_publishes() {
    let service = QueryService::new(ServiceConfig::default());
    let streamed = service.subscribe("/bib/book").unwrap();
    let fallback = service.subscribe("count(//price)").unwrap();

    let whole = service.publish("bib.xml", BIB).unwrap();

    for chunk_len in [1usize, 3, 16, BIB.len()] {
        let sid = service.open_chunk_session("bib.xml").unwrap();
        for chunk in BIB.as_bytes().chunks(chunk_len) {
            service.feed_chunk(sid, chunk).unwrap();
        }
        let report = service.finish_chunk_session(sid).unwrap();
        for sub in [streamed, fallback] {
            assert_eq!(
                report.result_for(sub),
                whole.result_for(sub),
                "chunk_len={chunk_len}"
            );
        }
    }

    // Nothing was retained: publishes are transient either way.
    assert_eq!(service.engine().store().doc_count(), 0);
    let stats = service.stats();
    assert_eq!(stats.ingest_sessions_opened, 4, "{stats}");
    assert_eq!(stats.ingest_sessions_finished, 4, "{stats}");
    assert_eq!(stats.ingest_sessions_active, 0, "{stats}");
    assert!(format!("{stats}").contains("ingest:"), "{stats}");
}

/// Streamed subscriptions deliver while bytes are still arriving —
/// time-to-first-match does not wait for the document to end.
#[test]
fn matches_arrive_before_the_document_ends() {
    let service = QueryService::new(ServiceConfig::default());
    let sub = service.subscribe("/log/hit").unwrap();

    let head = "<log><hit>first</hit>";
    let tail = "<pad>x</pad><hit>second</hit></log>";
    let sid = service.open_chunk_session("log.xml").unwrap();
    service.feed_chunk(sid, head.as_bytes()).unwrap();
    assert_eq!(
        service.chunk_session_matches(sid).unwrap(),
        1,
        "the first match is visible before the tail is fed"
    );
    service.feed_chunk(sid, tail.as_bytes()).unwrap();
    let report = service.finish_chunk_session(sid).unwrap();
    assert_eq!(
        report.result_for(sub).unwrap().as_deref(),
        Ok("<hit>first</hit><hit>second</hit>")
    );
    service.unsubscribe(sub);
}

/// Sixteen slow clients drip-feeding chunk sessions must not starve a
/// fast interactive query: session feeding happens on the callers'
/// threads, never on the service's worker pool.
#[test]
fn slow_clients_do_not_starve_fast_queries() {
    let service = QueryService::new(ServiceConfig {
        max_chunk_sessions: 16,
        ..Default::default()
    });
    let sub = service.subscribe("/doc/item").unwrap();
    let delivered = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for client in 0..16 {
            let service = &service;
            let delivered = &delivered;
            scope.spawn(move || {
                let xml = format!("<doc><item>{client}</item><item>x</item></doc>");
                let sid = service
                    .open_chunk_session(&format!("drip-{client}.xml"))
                    .unwrap();
                for chunk in xml.as_bytes().chunks(3) {
                    service.feed_chunk(sid, chunk).unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                }
                let report = service.finish_chunk_session(sid).unwrap();
                assert!(report.result_for(sub).unwrap().is_ok());
                delivered.fetch_add(1, Ordering::Relaxed);
            });
        }

        // While every slot drips, interactive queries stay fast.
        let started = Instant::now();
        for _ in 0..10 {
            assert_eq!(service.run("1 + 1").unwrap(), "2");
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "fast queries must not queue behind drip-feeding clients: {:?}",
            started.elapsed()
        );
    });

    assert_eq!(delivered.load(Ordering::Relaxed), 16);
    let stats = service.stats();
    assert_eq!(stats.ingest_sessions_finished, 16, "{stats}");
    assert_eq!(stats.ingest_sessions_active, 0, "{stats}");
}

/// Admission control: a full slot table rejects with the overload code
/// rather than queueing unboundedly, and aborted sessions free slots.
#[test]
fn session_admission_is_bounded_and_aborts_free_slots() {
    let service = QueryService::new(ServiceConfig {
        max_chunk_sessions: 2,
        ..Default::default()
    });
    let a = service.open_chunk_session("a.xml").unwrap();
    let b = service.open_chunk_session("b.xml").unwrap();
    let err = service.open_chunk_session("c.xml").unwrap_err();
    assert_eq!(err.code, ErrorCode::Overloaded);

    assert!(service.abort_chunk_session(a));
    let c = service.open_chunk_session("c.xml").unwrap();

    // Stale ids never touch the slot's new tenant.
    let stale = service.feed_chunk(a, b"<x/>").unwrap_err();
    assert_eq!(stale.code, ErrorCode::Cancelled);
    assert!(!service.abort_chunk_session(a));

    assert!(service.abort_chunk_session(b));
    assert!(service.abort_chunk_session(c));
    assert_eq!(service.chunk_sessions(), 0);
}

/// A large document pushed through a stream query is never buffered:
/// after every feed the query holds at most one chunk plus the largest
/// syntactic unit (in fact only the unit the chunk boundary cut) —
/// memory is bounded by the feed granularity, not the document.
#[test]
fn stream_queries_buffer_no_more_than_a_chunk() {
    let service = QueryService::new(ServiceConfig::default());

    // ~1.4 MiB, tens of thousands of tokens.
    let mut xml = String::from("<log><first>0</first>");
    for i in 0..40_000 {
        xml.push_str(&format!("<hit>{i}</hit>"));
    }
    xml.push_str("</log>");
    let largest_unit = "</first>".len();

    let mut q = service.open_stream_query("/log/first").unwrap();
    assert!(q.is_streamed(), "a path query streams");
    for chunk in xml.as_bytes().chunks(64 * 1024) {
        q.feed(chunk).unwrap();
        assert!(
            q.buffered_bytes() <= chunk.len() + largest_unit,
            "{} bytes parked after a {}-byte chunk",
            q.buffered_bytes(),
            chunk.len()
        );
    }
    let out = q.finish().unwrap();
    assert_eq!(out, "<first>0</first>");

    // And the answer matches materialized evaluation exactly.
    let engine = Engine::new();
    assert_eq!(engine.query_xml(&xml, "/log/first").unwrap(), out);
}

/// Non-streamable queries take the buffering path through the same
/// front-end and still agree with materialized evaluation — including
/// on errors.
#[test]
fn stream_query_front_end_is_total() {
    let service = QueryService::new(ServiceConfig::default());

    let mut q = service.open_stream_query("count(//hit) * 2").unwrap();
    assert!(!q.is_streamed(), "aggregates buffer");
    q.feed(b"<log><hit/><hi").unwrap();
    q.feed(b"t/></log>").unwrap();
    assert_eq!(q.finish().unwrap(), "4");

    // Malformed input: the chunked error is the whole-document error.
    let whole = Engine::new()
        .query_xml("<a><b></a>", "count(//b)")
        .unwrap_err();
    let mut q = service.open_stream_query("count(//b)").unwrap();
    q.feed(b"<a><b><").unwrap();
    q.feed(b"/a>").unwrap();
    let chunked = q.finish().unwrap_err();
    assert_eq!(chunked.code, whole.code);
}
