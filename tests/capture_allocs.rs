//! Allocation bounds of the shared pass, under a counting global
//! allocator (its own test binary, so no other test's allocations land
//! in the count). The capture run: the automaton serializes every match
//! through the run's one writer into one buffer per pattern, so heap
//! allocations grow with buffer doublings, not with matches or tokens —
//! a run over a document of 1,000 matching elements, nested matches
//! included, makes at most 0.2 allocations per token. The tokenizer: at
//! most 0.05 allocations per token, whole or chunked. A whole-document
//! publish lexes the text in place: no allocation as large as half of
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use xqr::xqr_runtime::{run_document, CombinedAutomaton};
use xqr::xqr_tokenstream::TokenStream;
use xqr::Engine;

struct CountingAlloc;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The largest of them, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

#[allow(unsafe_code)] // a counting allocator is an unsafe trait impl
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_capture_run_allocates_per_buffer_growth_not_per_match() {
    // 500 items, each matched by `//item` and `/feed/item` (one shared
    // capture) with a nested `//name` match inside: 1,000 matching
    // elements, 1,500 matches.
    let mut xml = String::from("<feed>");
    for i in 0..500 {
        xml.push_str(&format!(
            "<item id=\"{i}\"><name>n{i}</name><v>text &amp; more</v><!--c--></item>"
        ));
    }
    xml.push_str("</feed>");
    let engine = Engine::new();
    let patterns: Vec<_> = ["//item", "/feed/item", "//name"]
        .iter()
        .map(|q| {
            engine
                .compile(q)
                .unwrap()
                .stream_pattern()
                .cloned()
                .unwrap()
        })
        .collect();
    let automaton = CombinedAutomaton::build(&patterns);
    let stream = TokenStream::from_xml(&xml, Arc::clone(engine.names())).unwrap();

    let before = allocs();
    let outcome = run_document(&automaton, &mut stream.iter(), |_, _| Ok(())).unwrap();
    let spent = allocs() - before;

    assert_eq!(outcome.stats.matches, 1500);
    let tokens = outcome.stats.tokens_seen + outcome.stats.tokens_skipped;
    let per_token = spent as f64 / tokens as f64;
    assert!(
        per_token <= 0.2,
        "{spent} allocations over {tokens} tokens ({per_token:.3} per token)"
    );
    // The matches themselves are intact.
    let items = outcome.per_pattern[0].as_ref().unwrap();
    assert_eq!(items, outcome.per_pattern[1].as_ref().unwrap());
    assert!(
        items.starts_with("<item id=\"0\"><name>n0</name><v>text &amp; more</v><!--c--></item>")
    );
    assert!(outcome.per_pattern[2]
        .as_ref()
        .unwrap()
        .starts_with("<name>n0</name><name>n1</name>"));
}

/// A feed of `items` items, each with attributes, a prefixed name from
/// the root's namespace declaration, an entity and a comment.
fn feed_document(items: usize) -> String {
    let mut xml = String::from("<feed xmlns:m=\"urn:meta\" version=\"2\">");
    for i in 0..items {
        xml.push_str(&format!(
            "<item id=\"{i}\" kind=\"k{}\"><m:tag>t{i}</m:tag><title>title {i} &amp; more</title>\
             <!--c--><body>body text of item {i}</body></item>",
            i % 7
        ));
    }
    xml.push_str("</feed>");
    xml
}

/// The tokenizer's allocation bound: events borrow the lexer's buffer,
/// names map to ids through a per-tokenizer memo, and token strings land
/// in one growing window, so the tokenizer allocates with buffer growth
/// and new names, not with tokens. Whole and fed in 4 KiB chunks, it
/// reads at most 0.05 allocations per token (0.009 and 0.010 measured);
/// before names were memoized and events borrowed, both read 2.65 on
/// this document.
#[test]
fn the_tokenizers_allocate_per_buffer_growth_not_per_token() {
    use xqr::xqr_tokenstream::Tokenizer;
    let xml = feed_document(500);
    let engine = Engine::new();
    let names = Arc::clone(engine.names());

    let before = allocs();
    let mut it = Tokenizer::new(&xml, Arc::clone(&names));
    let mut pulled = 0u64;
    while it.poll_token().unwrap().is_some() {
        pulled += 1;
    }
    drop(it);
    let pull = (allocs() - before) as f64 / pulled as f64;

    let before = allocs();
    let mut tok = Tokenizer::incremental(Arc::clone(&names));
    let mut pushed = 0u64;
    for chunk in xml.as_bytes().chunks(4096) {
        tok.feed(chunk).unwrap();
        while tok.poll_token().unwrap().is_some() {
            pushed += 1;
        }
    }
    tok.finish().unwrap();
    while tok.poll_token().unwrap().is_some() {
        pushed += 1;
    }
    drop(tok);
    let push = (allocs() - before) as f64 / pushed as f64;

    assert_eq!(pulled, pushed);
    assert!(pulled > 6000, "{pulled} tokens");
    assert!(pull <= 0.05, "pull: {pull:.3} allocations per token");
    assert!(push <= 0.05, "push: {push:.3} allocations per token");
}

/// A whole-document publish is a session over the borrowed text: the
/// lexer reads it in place, so no allocation is as large as half of a
/// 32 KiB document. Feeding it to an incremental tokenizer instead
/// copies it into one buffer at least its size.
#[test]
fn a_whole_document_publish_copies_no_input() {
    use xqr::xqr_subscribe::SubscriptionRegistry;
    use xqr::xqr_xdm::Limits;

    let xml = feed_document(270);
    assert!((32 * 1024..40 * 1024).contains(&xml.len()), "{}", xml.len());
    let engine = Engine::new();
    let registry = SubscriptionRegistry::new();
    for query in ["/feed/item/m:tag", "//body", "/feed/item/title"] {
        let query = format!("declare namespace m = \"urn:meta\"; {query}");
        let plan = Arc::new(engine.compile(&query).unwrap());
        assert!(plan.is_streamable(), "{query}");
        registry.register(&query, plan, Limits::unlimited(), None);
    }
    // The first publish builds the publish plan and interns the names.
    registry
        .publish(&engine, "feed", &xml, Limits::unlimited())
        .unwrap();

    LARGEST.with(|n| n.set(0));
    let report = registry
        .publish(&engine, "feed", &xml, Limits::unlimited())
        .unwrap();
    let largest = LARGEST.with(Cell::get);

    assert!(report.results.iter().all(|(_, r)| r.is_ok()));
    assert_eq!(report.fallback, 0);
    assert!(
        largest < xml.len() / 2,
        "an allocation of {largest} bytes publishing {} bytes",
        xml.len()
    );
}
