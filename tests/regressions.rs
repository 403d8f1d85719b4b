//! Named regression tests promoted from the checked-in proptest
//! regression seed files (`tests/*.proptest-regressions`).
//!
//! The seed files replay only when the owning proptest runs, are easy
//! to lose in refactors (they key on the *strategy*, so a changed
//! strategy silently orphans them), and say nothing about *why* the
//! case once failed. These tests pin the shrunken counterexamples as
//! plain `#[test]`s that always run, with the failing inputs inlined.

use std::sync::Arc;
use xqr::xqr_tokenstream::{decode, encode, tokens_to_xml, TokenStream};
use xqr::{Engine, EngineOptions, NodeId};
use xqr_xdm::NamePool;

/// From `proptest_roundtrip.proptest-regressions`
/// (`wire_encoding_roundtrips`, `pooled = true`): nested repeated tags
/// with empty and single-char attribute values. The pooled wire
/// encoding dedupes text through the buffer pool; this shape once broke
/// the decode side's pool reconstruction.
#[test]
fn wire_encoding_pooled_nested_repeats() {
    let xml = "<r><a>a</a><r><a>A</a><a>B</a><r a=\"\"><a>5</a></r><a>b</a></r>\
               <r><a> </a><r a=\"0\"><a>c</a></r><a>C</a></r></r>";
    let names = Arc::new(NamePool::new());
    let stream = TokenStream::from_xml(xml, names).unwrap();
    for pooled in [true, false] {
        let bytes = encode(&stream, pooled);
        let decoded = decode(bytes, Arc::new(NamePool::new())).unwrap();
        let a = tokens_to_xml(&mut stream.iter(), Default::default()).unwrap();
        let b = tokens_to_xml(&mut decoded.iter(), Default::default()).unwrap();
        assert_eq!(a, b, "pooled = {pooled}");
    }
}

/// From `proptest_semantics.proptest-regressions` (`pattern = "//d"`):
/// a document with `d` elements at several depths including
/// immediately-nested `d/d` — the shape that distinguishes "all
/// matches" from "outermost matches only".
const SEMANTICS_SEED_DOC: &str = "<root><t1></t1><d></d><d><d></d></d><a><t0>x</t0></a>\
     <t2><d></d></t2><a></a><a>x<d></d></a><d></d>\
     <t2><a></a><t1></t1><t0></t0></t2><a></a><t2><d></d><d></d></t2></root>";

/// The twig-join side of the pinned case: `//d` through the structural
/// join machinery must agree with exhaustive navigation.
#[test]
fn semantics_seed_doc_joins_agree_on_slash_slash_d() {
    use xqr::xqr_joins::{element_list, enumerate_matches, path_stack, twig_stack, TwigPattern};
    use xqr::Document;

    let names = Arc::new(NamePool::new());
    let doc = Document::parse(SEMANTICS_SEED_DOC, names.clone()).unwrap();
    let twig = TwigPattern::parse("//d", &names).unwrap();
    let lists: Vec<_> = twig
        .nodes
        .iter()
        .map(|n| element_list(&doc, n.name))
        .collect();
    let mut want = enumerate_matches(&doc, &twig);
    want.sort();
    want.dedup();
    assert_eq!(path_stack(&twig, &lists), want);
    let (got, _) = twig_stack(&twig, &lists);
    assert_eq!(got, want);
    // 8 `d` elements in the document, one nested inside another `d`.
    assert_eq!(want.len(), 8);
}

/// The engine side of the pinned case: streaming `//d` emits all 8 `d`
/// elements — the nested `d/d` one included — and the streamed count
/// says 8, both exactly as materialized evaluation does. (The former
/// single-pattern matcher emitted outermost matches only: 7 here, and
/// 2 of 3 on the second document.)
#[test]
fn semantics_seed_doc_streaming_equals_materialized() {
    let engine = Engine::new();
    for (doc, want) in [
        (SEMANTICS_SEED_DOC, 8),
        ("<a><d>1<d>2</d></d><d>3</d></a>", 3),
    ] {
        let q = engine.compile("//d").unwrap();
        assert!(q.is_streamable());
        let mut streamed = String::new();
        let stats = q
            .execute_streaming(&engine, doc, |m| streamed.push_str(m))
            .unwrap();
        assert_eq!(stats.matches, want);
        assert_eq!(streamed, engine.query_xml(doc, "//d").unwrap());

        let counted = engine.compile("count(//d)").unwrap();
        assert!(counted.is_streamable_count());
        let (n, _) = counted.execute_streaming_count(&engine, doc).unwrap();
        assert_eq!(n, want);
        assert_eq!(n.to_string(), engine.query_xml(doc, "count(//d)").unwrap());
    }
}

#[test]
fn semantics_seed_doc_optimizer_agrees() {
    for q in [
        "count(//d)",
        "(//d)[2]",
        "for $x in //a return count($x/d)",
        "string((//a)[1])",
    ] {
        let optimized = Engine::new().query_xml(SEMANTICS_SEED_DOC, q).unwrap();
        let baseline = Engine::with_options(EngineOptions::unoptimized())
            .query_xml(SEMANTICS_SEED_DOC, q)
            .unwrap();
        assert_eq!(optimized, baseline, "query {q}");
    }
}

/// The streaming extractor once capped patterns at 31 steps (the
/// former matcher kept per-element state in a `u32` prefix bitmask, so
/// step 32 shifted out of it). The automaton's trie has no cap: a
/// 40-step child path streams, byte-identical to materialized
/// evaluation.
#[test]
fn forty_step_child_paths_stream_identically_to_materialized() {
    let depth = 40;
    let xml = format!("{}x{}", "<s>".repeat(depth), "</s>".repeat(depth));
    let path = "/s".repeat(depth);
    let engine = Engine::new();
    let plan = engine.compile(&path).unwrap();
    assert!(plan.is_streamable());
    assert_eq!(plan.stream_pattern().unwrap().steps.len(), depth);
    let mut streamed = String::new();
    plan.execute_streaming(&engine, &xml, |m| streamed.push_str(m))
        .unwrap();
    assert_eq!(streamed, "<s>x</s>");
    assert_eq!(streamed, engine.query_xml(&xml, &path).unwrap());
}

/// Guard against the root-cause class of the roundtrip seed: documents
/// whose store form and wire form must agree node-for-node.
#[test]
fn roundtrip_seed_doc_store_form_is_stable() {
    let xml = "<r><a>a</a><r><a>A</a><a>B</a><r a=\"\"><a>5</a></r><a>b</a></r>\
               <r><a> </a><r a=\"0\"><a>c</a></r><a>C</a></r></r>";
    let names = Arc::new(NamePool::new());
    let doc = xqr::Document::parse(xml, names).unwrap();
    let once = doc.serialize_node(NodeId(0));
    let names2 = Arc::new(NamePool::new());
    let doc2 = xqr::Document::parse(&once, names2).unwrap();
    assert_eq!(doc2.serialize_node(NodeId(0)), once);
}

// ---------------------------------------------------------------------
// Morsel-boundary regressions for the parallel twig executor. The
// partition puts each root-list chunk in exactly one morsel and slices
// the other lists to the chunk's label window; these pin the seam cases
// where that slicing has to replicate, dedupe, or degenerate.

/// Serial vs parallel comparison over an explicit document and twig, at
/// an explicit morsel count.
fn assert_parallel_matches_serial(xml: &str, pattern: &str, morsels: usize) {
    use xqr::xqr_joins::{element_list, twig_stack, TwigPattern};
    use xqr::xqr_parallel::{parallel_twig_stack, ParallelConfig};
    use xqr::Document;
    use xqr_xdm::{Limits, QueryGuard};

    let names = Arc::new(NamePool::new());
    let doc = Document::parse(xml, names.clone()).unwrap();
    let twig = TwigPattern::parse(pattern, &names).unwrap();
    let lists: Vec<Vec<_>> = twig
        .nodes
        .iter()
        .map(|n| element_list(&doc, n.name))
        .collect();
    let (want, _) = twig_stack(&twig, &lists);
    let shared: Vec<_> = lists.into_iter().map(Arc::new).collect();
    let guard = QueryGuard::new(Limits::unlimited());
    let (got, run) =
        parallel_twig_stack(&twig, shared, &ParallelConfig::forced(morsels), &guard).unwrap();
    assert_eq!(
        got, want,
        "morsels={morsels} diverged on {pattern:?} over {xml:?} \
         (ran {} morsels)",
        run.morsels
    );
}

/// A deep chain of `a` elements whose only `b` witness sits at the
/// bottom: every chunk's ancestors *straddle* later chunks, so each
/// morsel's descendant window must extend to the chunk's maximum `end`,
/// not its last `start`.
#[test]
fn morsel_seam_straddling_ancestors_keep_their_deep_witness() {
    let mut xml = String::new();
    for _ in 0..7 {
        xml.push_str("<a>");
    }
    xml.push_str("<b/>");
    for _ in 0..7 {
        xml.push_str("</a>");
    }
    for morsels in [2, 3, 5, 7, 16] {
        assert_parallel_matches_serial(&xml, "//a//b", morsels);
        assert_parallel_matches_serial(&xml, "//a[b]", morsels);
    }
}

/// Witness lists replicated into adjacent morsel windows must not
/// produce duplicate tuples after the merge: sibling `a` subtrees share
/// `b`/`c` names right at the chunk seams.
#[test]
fn morsel_seam_replicated_witnesses_do_not_duplicate_tuples() {
    let xml = "<r>\
        <a><b/><c/></a><a><b/><b/><c/></a><a><c/></a>\
        <a><a><b/><c/></a><c/></a><a><b/><c/></a>\
        </r>";
    for morsels in [2, 3, 4, 5, 8] {
        assert_parallel_matches_serial(xml, "//a[b]/c", morsels);
        assert_parallel_matches_serial(xml, "//a[b][c]", morsels);
        assert_parallel_matches_serial(xml, "//a//c", morsels);
    }
}

/// More morsels than root-list entries: the tail chunks are empty and
/// must contribute nothing (and not panic on empty ranges).
#[test]
fn morsel_count_beyond_root_list_yields_empty_morsels() {
    let xml = "<r><a><b/></a><a/><a><b/></a></r>";
    for morsels in [4, 8, 64] {
        assert_parallel_matches_serial(xml, "//a//b", morsels);
    }
}

/// The degenerate single-node document: one root-list entry, every
/// forced split collapses to one non-empty morsel.
#[test]
fn morsel_split_of_a_single_node_document() {
    assert_parallel_matches_serial("<a/>", "//a", 4);
    assert_parallel_matches_serial("<a><b/></a>", "//a//b", 4);

    // And end to end through the engine: forced parallel on a one-node
    // document must still answer.
    use xqr::xqr_runtime::ParallelConfig;
    let engine =
        Engine::with_options(EngineOptions::default().with_parallel(ParallelConfig::forced(4)));
    assert_eq!(engine.query_xml("<a/>", "count(//a)").unwrap(), "1");
}

/// From `fuzz --seed 7` (case 1021) and `chaos --seed 99 --cases 1000`
/// (case 929), which only diverged on the long-lived service store:
/// document ids used to order by *slot index*, and slots are reused, so
/// once earlier documents had come and gone a node constructed by the
/// query could land in a lower slot than the input document and sort
/// before it in a union. Ids order by creation now: the input, loaded
/// first, comes first — whatever the slot history.
#[test]
fn constructed_nodes_follow_the_input_document_on_a_reused_store() {
    let engine = Engine::new();
    let store = engine.store();
    // Two documents come and go; the free list hands their slots back
    // highest first, so the input lands above the next free slot.
    let a = store.load_xml("<gone/>", None).unwrap();
    let b = store.load_xml("<gone/>", None).unwrap();
    assert!(store.remove_document(a) && store.remove_document(b));
    let input = store.load_xml("<in/>", Some("in.xml")).unwrap();
    let query = r#"doc("in.xml")/in | <made/>"#;
    let prepared = engine.compile(query).unwrap();
    let result = prepared.execute(&engine, &Default::default()).unwrap();
    let made = result
        .items
        .iter()
        .find_map(|item| match item {
            xqr::Item::Node(n) if n.doc != input => Some(n.doc),
            _ => None,
        })
        .expect("the union holds a constructed node");
    assert!(
        made.index() < input.index(),
        "the scenario needs the constructed document in the lower slot"
    );
    assert_eq!(result.serialize_guarded().unwrap(), "<in/><made/>");
    // And on a fresh store, where slot order and creation order agree.
    let fresh = Engine::new();
    fresh.store().load_xml("<in/>", Some("in.xml")).unwrap();
    assert_eq!(fresh.query(query).unwrap(), "<in/><made/>");
}
