//! The capture run's allocation bound: the automaton serializes every
//! match through the run's one writer into one buffer per pattern, so
//! heap allocations grow with buffer doublings, not with matches or
//! tokens. A counting global allocator (its own test binary, so no other
//! test's allocations land in the count) holds a run over a document of
//! 1,000 matching elements, nested matches included, to at most 0.2
//! allocations per token.

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
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

#[allow(unsafe_code)] // a counting allocator is an unsafe trait impl
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
