//! Integration tests for chunked ingestion: the resumable lexer, the
//! service chunk sessions, and the streaming query front-end.
//!
//! The invariant under test everywhere: **a document fed in chunks —
//! split at any byte boundary, including mid-tag, mid-entity, mid-CDATA,
//! and mid-UTF-8 — is indistinguishable from the same document handed
//! over whole.** Same events, same results, same error codes, same
//! absolute error offsets.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xqr::xqr_service::{QueryService, ServiceConfig};
use xqr::xqr_xmlparse::{XmlEvent, XmlReader};
use xqr::{Engine, ErrorCode};
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};

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

/// Each event's `Debug` form: every name part, namespace number and
/// string it carries, kept past the next pull.
fn whole_document_events(xml: &str) -> Vec<String> {
    let mut reader = XmlReader::new(xml);
    let mut events = Vec::new();
    loop {
        let ev = reader.next_event().expect("whole-document parse");
        events.push(format!("{ev:?}"));
        if ev == XmlEvent::EndDocument {
            return events;
        }
    }
}

fn chunked_events(chunks: &[&[u8]]) -> xqr::xqr_xdm::Result<Vec<String>> {
    let mut reader = XmlReader::incremental();
    let mut events = Vec::new();
    for chunk in chunks {
        reader.feed(chunk)?;
        while let Some(ev) = reader.poll_event()? {
            events.push(format!("{ev:?}"));
        }
    }
    reader.finish()?;
    while let Some(ev) = reader.poll_event()? {
        events.push(format!("{ev:?}"));
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

/// Opening a session never waits out another session's feed: a feed
/// holds its slot for the whole chunk, and a slot being fed is live, so
/// the open skips it. Client A's feed sleeps 400 ms inside its slot;
/// client B's open (and a stats read) must return before A's feed does.
#[test]
fn opening_a_session_does_not_wait_behind_another_sessions_feed() {
    assert!(xqr_faults::compiled_with_failpoints());
    let service = QueryService::new(ServiceConfig {
        max_chunk_sessions: 2,
        ..Default::default()
    });
    let a = service.open_chunk_session("a.xml").unwrap();
    let feeding = AtomicBool::new(false);
    let fed = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let _faults = xqr_faults::install(
                FaultSchedule::new(3).rule(
                    FaultRule::new("ingest.chunk", FaultKind::Delay(Duration::from_millis(400)))
                        .max_fires(1),
                ),
            );
            feeding.store(true, Ordering::SeqCst);
            service.feed_chunk(a, b"<doc>").unwrap();
            fed.store(true, Ordering::SeqCst);
        });
        while !feeding.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // A head start to reach the delay inside its slot. Were A still
        // short of its slot, B would pass at the parent too; it cannot
        // fail here, since B's open takes microseconds of A's 400 ms.
        std::thread::sleep(Duration::from_millis(50));
        let b = service.open_chunk_session("b.xml").unwrap();
        let stats = service.stats();
        assert!(
            !fed.load(Ordering::SeqCst),
            "open and stats waited for another session's feed"
        );
        assert!(b.to_string().starts_with("s1g"), "A's slot is live: {b}");
        assert_eq!(
            stats.ingest_sessions_active, 2,
            "a held slot counts as live"
        );
        assert!(service.abort_chunk_session(b));
    });
    assert!(fed.load(Ordering::SeqCst));
    assert!(service.abort_chunk_session(a));
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

/// Every way the one pass runs `xml` through `automaton`: borrowed
/// whole, in 1-byte and in 4 KiB chunks, each with and without a
/// builder, each over a pool from `names`; and `run_document` over the
/// materialized tokens, the one driver that skips. Each mode's name and
/// its first pattern's matches. A built document must serialize as the
/// text reserializes.
fn every_pass(
    automaton: &xqr::xqr_runtime::CombinedAutomaton,
    xml: &str,
    names: impl Fn() -> std::sync::Arc<xqr::xqr_xdm::NamePool>,
) -> Vec<(String, String)> {
    use xqr::xqr_runtime::{run_document, StreamingPass};
    use xqr::xqr_store::DocumentBuilder;
    use xqr::xqr_tokenstream::{TokenStream, Tokenizer};
    use xqr::xqr_xdm::QueryGuard;

    let unlimited = QueryGuard::unlimited;
    let stream = TokenStream::from_xml(xml, names()).unwrap();
    let skipped = run_document(automaton, &mut stream.iter(), |_, _| Ok(())).unwrap();
    let mut out = vec![(
        "run_document".to_string(),
        skipped.per_pattern[0].clone().unwrap(),
    )];
    for chunk in [None, Some(1), Some(4096)] {
        for build in [false, true] {
            let pool = names();
            let builder = build.then(|| DocumentBuilder::new(pool.clone()));
            let (outcome, doc) = match chunk {
                None => {
                    let tokenizer = Tokenizer::new(xml, pool);
                    let mut pass = StreamingPass::new(automaton, tokenizer, vec![unlimited()]);
                    if let Some(b) = builder {
                        pass = pass.building(b);
                    }
                    pass.finish(automaton, |_| Ok(()))
                }
                Some(n) => {
                    let tokenizer = Tokenizer::incremental(pool);
                    let mut pass = StreamingPass::new(automaton, tokenizer, vec![unlimited()]);
                    if let Some(b) = builder {
                        pass = pass.building(b);
                    }
                    for bytes in xml.as_bytes().chunks(n) {
                        pass.feed(automaton, bytes).unwrap();
                    }
                    pass.finish(automaton, |_| Ok(()))
                }
            }
            .unwrap();
            let how = format!("chunk {chunk:?}, build {build}");
            assert_eq!(doc.is_some(), build, "{how}");
            if let Some(doc) = doc {
                assert_eq!(
                    doc.serialize_node(doc.root()),
                    xqr::xqr_xmlparse::reserialize(xml).unwrap(),
                    "{how}"
                );
            }
            out.push((how, outcome.per_pattern[0].clone().unwrap()));
        }
    }
    out
}

/// The streamable pattern of `query`, alone in an automaton.
fn automaton_of(engine: &Engine, query: &str) -> xqr::xqr_runtime::CombinedAutomaton {
    let pattern = engine
        .compile(query)
        .unwrap()
        .stream_pattern()
        .cloned()
        .unwrap_or_else(|| panic!("{query} is streamable"));
    xqr::xqr_runtime::CombinedAutomaton::build(&[pattern])
}

/// Nested captures share the run's one writer: each match is a slice of
/// its outermost ancestor's serialization. Every mode of the pass must
/// produce what materialized evaluation does, over the constructs whose
/// bytes a shared writer could get wrong: namespace declarations
/// (prefixed, default and undeclared), attributes, empty elements,
/// comments, processing instructions and escaped entities.
#[test]
fn nested_captures_serialize_as_materialized_evaluation_does() {
    let docs = [
        "<a><a x=\"1\"><a/><b>t</b></a><a><!--c--><a>&amp;&lt;</a></a></a>",
        r#"<p:a xmlns:p="urn:p" p:k="v"><p:a xmlns="urn:d"><a xmlns=""><p:a/><a k="1"><a/></a></a><e/></p:a></p:a>"#,
        r#"<a k="&quot;x&quot;"><?pi data?><a><a xmlns="urn:d"><a xmlns="">x&gt;y</a></a><?t?></a><e k='1'/></a>"#,
    ];
    let engine = Engine::new();
    for query in ["//*", "//a//a"] {
        let automaton = automaton_of(&engine, query);
        for xml in docs {
            let want = engine.query_xml(xml, query).unwrap();
            assert!(!want.is_empty(), "{query} over {xml}");
            for (how, got) in every_pass(&automaton, xml, || engine.names().clone()) {
                assert_eq!(got, want, "{how}: {query} {xml}");
            }
        }
    }
}

/// Names reach the automaton as ids through each tokenizer's memo, keyed
/// by the reader's namespace numbers: a prefix rebound to another URI in
/// a sibling subtree, an undeclared default namespace and the `xml`
/// prefix must name what they name on every path. Each path runs over a
/// pool that has never seen the document's names, so a step name is
/// interned first by the edge table or by the document, after the
/// automaton was built: every mode of the pass equals `Engine::query_xml`.
#[test]
fn names_match_by_id_on_every_path() {
    use std::sync::Arc;
    use xqr::xqr_xdm::NamePool;

    let rebound = r#"<r><s xmlns:p="urn:one"><p:x k="1">1</p:x></s><s xmlns:p="urn:two"><p:x>2</p:x><p:late/></s></r>"#;
    let undeclared = r#"<r xmlns="urn:d"><x>1</x><s xmlns=""><x>2</x><late/></s><x>3</x></r>"#;
    let xml_prefix = r#"<r><x xml:lang="en">1</x><xml:late>2</xml:late></r>"#;
    let cases = [
        (rebound, r#"declare namespace q = "urn:two"; //q:x"#),
        (rebound, r#"declare namespace q = "urn:one"; /r/s/q:x"#),
        (rebound, r#"declare namespace q = "urn:two"; //q:late"#),
        (undeclared, "//x"),
        (undeclared, r#"declare namespace d = "urn:d"; /d:r/s/late"#),
        (undeclared, r#"declare namespace d = "urn:d"; /d:r/d:x"#),
        (xml_prefix, "//x"),
        (xml_prefix, "//xml:late"),
    ];
    let engine = Engine::new();
    for (xml, query) in cases {
        let want = engine.query_xml(xml, query).unwrap();
        assert!(!want.is_empty(), "{query} over {xml}");
        let automaton = automaton_of(&engine, query);
        for (how, got) in every_pass(&automaton, xml, || Arc::new(NamePool::new())) {
            assert_eq!(got, want, "{how}: {query}");
        }
    }
}

/// A whole-document publish is a session over the borrowed text; a
/// chunked publish of the same text in one owned chunk must report the
/// same: every subscription's result or coded error, and the stats.
#[test]
fn one_owned_chunk_publishes_as_the_borrowed_whole() {
    use xqr::xqr_subscribe::SubscriptionRegistry;
    use xqr::xqr_xdm::Limits;

    let engine = Engine::new();
    let registry = SubscriptionRegistry::new();
    for query in ["/bib/book/title", "//price", "count(//book)"] {
        let plan = std::sync::Arc::new(engine.compile(query).unwrap());
        registry.register(query, plan, Limits::unlimited(), None);
    }
    let docs = [
        BIB,
        "<bib><book><title>x</title></bib>",
        "<bib>&bad;</bib>",
        "",
    ];
    for xml in docs.into_iter().chain(ADVERSARIAL.iter().copied()) {
        let whole = registry.publish(&engine, "d", xml, Limits::unlimited());
        let chunked = registry.publish_chunked(&engine, "d", [xml.as_bytes()], Limits::unlimited());
        match (whole, chunked) {
            (Ok(w), Ok(c)) => {
                assert_eq!(w.results, c.results, "{xml}");
                assert_eq!(w.stats, c.stats, "{xml}");
                assert_eq!(w.matches, c.matches, "{xml}");
            }
            (Err(w), Err(c)) => assert_eq!(w, c, "{xml}"),
            (w, c) => panic!("{xml}: whole {w:?}, chunked {c:?}"),
        }
    }
}

/// An end tag must spell its start tag's name, prefix included (XML
/// 1.0's Element Type Match), even when both prefixes bind one URI. The
/// tokenizer over the whole string and fed 1-byte and 4 KiB chunks
/// reports the same error at the same offset.
#[test]
fn an_end_tag_with_another_prefix_for_the_same_uri_is_an_error_on_every_path() {
    use std::sync::Arc;
    use xqr::xqr_tokenstream::Tokenizer;
    use xqr::xqr_xdm::NamePool;

    let mut xml = String::from(r#"<feed xmlns:a="urn:u" xmlns:b="urn:u">"#);
    for i in 0..400 {
        xml.push_str(&format!("<a:item n=\"{i}\">text {i}</a:item>"));
    }
    xml.push_str("<a:x>late</b:x></feed>");
    assert!(xml.len() > 8192);

    let mut it = Tokenizer::new(&xml, Arc::new(NamePool::new()));
    let whole = loop {
        match it.poll_token() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("parsed whole"),
            Err(e) => break e,
        }
    };
    assert_eq!(whole.code, ErrorCode::Syntax, "{whole}");
    assert!(
        whole.message.contains("expected </a:x>, found </b:x>"),
        "{whole}"
    );
    assert_eq!(whole.position, Some(xml.len() - "</feed>".len()));

    for chunk in [1, 4096] {
        let mut tok = Tokenizer::incremental(Arc::new(NamePool::new()));
        let pushed = (|| -> xqr::xqr_xdm::Result<()> {
            for bytes in xml.as_bytes().chunks(chunk) {
                tok.feed(bytes)?;
                while tok.poll_token()?.is_some() {}
            }
            tok.finish()?;
            while tok.poll_token()?.is_some() {}
            Ok(())
        })()
        .expect_err("the mismatched end tag fails the push");
        assert_eq!(pushed, whole, "{chunk}-byte push");
    }
}
