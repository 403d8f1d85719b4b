//! Cross-crate pipeline tests: behaviours that only show up when the
//! whole stack runs together.

mod common;

use common::both_legs;
use std::sync::Arc;
use xqr::{bind, DynamicContext, Engine, EngineOptions, Item, QueryGuard};
use xqr_xmlgen::{auction_site, bibliography, trading_partners, XmarkConfig, XMARK_QUERIES};

#[test]
fn generated_workloads_parse_and_query() {
    let engine = Engine::new();
    let xmark = auction_site(&XmarkConfig::scaled(400));
    engine.load_document("auction.xml", &xmark).unwrap();
    let people: usize = engine
        .query(r#"count(doc("auction.xml")/site/people/person)"#)
        .unwrap()
        .parse()
        .unwrap();
    assert!(people > 50);
    // Every person has a name.
    assert_eq!(
        engine
            .query(r#"count(doc("auction.xml")//person[empty(name)])"#)
            .unwrap(),
        "0"
    );
    // Bidder increases are numeric and non-negative.
    assert_eq!(
        engine
            .query(r#"every $i in doc("auction.xml")//bidder/increase satisfies number($i) ge 0"#)
            .unwrap(),
        "true"
    );
}

#[test]
fn xmark_join_query() {
    // Join closed auctions to buyers — the XMark Q8/Q9 shape.
    let engine = Engine::new();
    engine
        .load_document("a.xml", &auction_site(&XmarkConfig::scaled(300)))
        .unwrap();
    let q = engine
        .compile(
            r#"
            let $d := doc("a.xml")
            for $p in $d/site/people/person
            let $bought := $d/site/closed_auctions/closed_auction[buyer/@person = $p/@id]
            where count($bought) ge 2
            order by count($bought) descending, $p/@id
            return <big-buyer id="{$p/@id}" n="{count($bought)}"/>
            "#,
        )
        .unwrap();
    let r = q.execute(&engine, &DynamicContext::new()).unwrap();
    // Deterministic workload → deterministic result; sanity: descending.
    let counts: Vec<i64> = r
        .items
        .iter()
        .filter_map(|i| i.as_node())
        .map(|n| {
            let doc = r.store.document(n.doc);
            let attr = doc.attribute(n.node, &xqr::QName::local("n")).unwrap();
            doc.value(attr).unwrap().parse().unwrap()
        })
        .collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    assert!(counts.iter().all(|&c| c >= 2));
}

#[test]
fn bibliography_report_roundtrips_through_reparse() {
    // Query output is well-formed XML that can be re-loaded and queried.
    let engine = Engine::new();
    engine
        .load_document("bib.xml", &bibliography(7, 40))
        .unwrap();
    let report = engine
        .query(
            r#"<report>{
                for $b in doc("bib.xml")//book
                where $b/price > 100
                return <expensive year="{$b/@year}">{string($b/title)}</expensive>
            }</report>"#,
        )
        .unwrap();
    let engine2 = Engine::new();
    let n = engine2
        .query_xml(&report, "count(/report/expensive)")
        .unwrap();
    let m = engine
        .query(r#"count(doc("bib.xml")//book[price > 100])"#)
        .unwrap();
    assert_eq!(n, m);
}

#[test]
fn trading_partner_doc_queryable_by_customer_shapes() {
    let engine = Engine::new();
    engine
        .load_document("eb.xml", &trading_partners(4, 25))
        .unwrap();
    // The dc/de/tr names triple-join completely: every delivery channel
    // resolves to exactly one document exchange and transport.
    assert_eq!(
        engine
            .query(
                r#"every $dc in doc("eb.xml")//delivery-channel satisfies
                   count(doc("eb.xml")//document-exchange[@name = $dc/@document-exchange-name]) eq 1"#
            )
            .unwrap(),
        "true"
    );
}

#[test]
fn external_variables_flow_through_engine() {
    let engine = Engine::new();
    let q = engine
        .compile(
            "declare variable $xs external;
             declare variable $k as xs:integer external;
             for $x in $xs where $x ge $k return $x * 10",
        )
        .unwrap();
    let mut ctx = DynamicContext::new();
    bind(
        &mut ctx,
        "xs",
        vec![Item::integer(1), Item::integer(5), Item::integer(9)],
    );
    bind(&mut ctx, "k", vec![Item::integer(5)]);
    assert_eq!(
        q.execute(&engine, &ctx)
            .unwrap()
            .serialize_guarded()
            .unwrap(),
        "50 90"
    );
}

#[test]
fn unoptimized_engine_runs_everything_the_optimized_does() {
    let queries = [
        "count(doc(\"g.xml\")//person)",
        "for $p in doc(\"g.xml\")//person[address] return string($p/name)",
        "<x>{sum(doc(\"g.xml\")//increase)}</x>",
    ];
    let xml = auction_site(&XmarkConfig::scaled(200));
    let run = |opts: EngineOptions| -> Vec<String> {
        let engine = Engine::with_options(opts);
        engine.load_document("g.xml", &xml).unwrap();
        queries.iter().map(|q| engine.query(q).unwrap()).collect()
    };
    assert_eq!(
        run(EngineOptions::default()),
        run(EngineOptions::unoptimized())
    );
}

#[test]
fn constructed_documents_live_exactly_as_long_as_their_result() {
    let engine = Engine::new();
    engine.load_document("b.xml", &bibliography(1, 5)).unwrap();
    let before = engine.store().doc_count();
    engine.query(r#"count(doc("b.xml")//book)"#).unwrap();
    assert_eq!(
        engine.store().doc_count(),
        before,
        "pure query adds no documents"
    );
    // Constructors allocate fresh documents in the shared store; the
    // result leases them, and dropping it frees them again — a long-lived
    // engine (the query service) must not accumulate result garbage.
    let prepared = engine.compile("<a><b/></a>").unwrap();
    let result = prepared.execute(&engine, &DynamicContext::new()).unwrap();
    assert!(
        engine.store().doc_count() > before,
        "construction adds documents while the result is alive"
    );
    let made = Arc::downgrade(
        &result
            .store
            .document(result.items[0].as_node().unwrap().doc),
    );
    assert_eq!(result.serialize_guarded().unwrap(), "<a><b/></a>");
    drop(result);
    assert!(
        made.upgrade().is_none(),
        "the document died with its result"
    );
    assert_eq!(engine.store().doc_count(), before);
}

/// Nothing frees a bound constructor's document by hand: it dies with
/// its execution's lease, and the store reuses its slot, so ten thousand
/// executions leave the store where it was, in a handful of slots.
#[test]
fn constructed_documents_recycle_their_slots_without_removal() {
    let engine = Engine::new();
    engine.load_document("b.xml", &bibliography(1, 5)).unwrap();
    let (docs, bytes) = (engine.store().doc_count(), engine.store().live_bytes());
    let plan = engine.compile("let $x := <a/> return $x is $x").unwrap();
    for _ in 0..10_000 {
        let (out, _) = plan
            .execute_serialized(
                &engine,
                &DynamicContext::new(),
                QueryGuard::unlimited(),
                None,
            )
            .unwrap();
        assert_eq!(out, "true");
    }
    assert_eq!(engine.store().doc_count(), docs);
    assert_eq!(engine.store().live_bytes(), bytes);
    let fresh = engine.store().lease_xml("<fresh/>", None).unwrap();
    assert!(fresh.id.index() < 64, "slot {}", fresh.id.index());
}

/// Loading a URI again un-names the version it had: a result still
/// reading the old version keeps it, and dropping the result frees it.
#[test]
fn a_superseded_version_dies_with_its_last_reader() {
    let engine = Engine::new();
    engine.load_document("a.xml", "<v1/>").unwrap();
    let reader = engine.compile(r#"doc("a.xml")/*"#).unwrap();
    let held = reader.execute(&engine, &DynamicContext::new()).unwrap();
    engine.load_document("a.xml", "<v2/>").unwrap();
    assert_eq!(held.serialize_guarded().unwrap(), "<v1/>");
    drop(held);
    assert_eq!(engine.store().doc_count(), 1, "v1 died with its reader");
    assert_eq!(engine.query(r#"doc("a.xml")"#).unwrap(), "<v2/>");
}

/// How many documents `f` registers in `engine`'s store: creation
/// numbers are consecutive, so two probes bracket everything between.
fn documents_registered_by(engine: &Engine, f: impl FnOnce()) -> u64 {
    let probe = || {
        engine
            .store()
            .lease_xml("<probe/>", None)
            .unwrap()
            .id
            .created()
    };
    let first = probe();
    f();
    probe() - first - 1
}

#[test]
fn xmark_suite_is_byte_identical_serialized_and_materialized() {
    let xml = auction_site(&XmarkConfig::scaled(400));
    for options in [EngineOptions::default(), EngineOptions::unoptimized()] {
        let engine = Engine::with_options(options);
        engine.load_document("auction.xml", &xml).unwrap();
        for (id, _, query) in XMARK_QUERIES {
            let plan = engine.compile(query).unwrap();
            let out = both_legs(&engine, &plan, &DynamicContext::new())
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(!out.is_empty(), "{id}");
        }
    }
}

/// Constructors whose nodes go straight into the reply never become
/// store documents — not the element, not its attribute, not the
/// nested element — yet each evaluation still counts.
#[test]
fn constructors_in_result_position_write_straight_into_the_reply() {
    let engine = Engine::new();
    let before = engine.store().doc_count();
    let plan = engine
        .compile(r#"for $i in 1 to 1000 return <a n="{$i}"><b/></a>"#)
        .unwrap();
    let mut run = None;
    let minted = documents_registered_by(&engine, || {
        run = Some(
            plan.execute_serialized(
                &engine,
                &DynamicContext::new(),
                QueryGuard::unlimited(),
                None,
            )
            .unwrap(),
        )
    });
    let (out, counters) = run.unwrap();
    assert!(
        out.starts_with(r#"<a n="1"><b/></a><a n="2"><b/></a>"#),
        "{out}"
    );
    assert!(out.ends_with(r#"<a n="1000"><b/></a>"#));
    assert_eq!(engine.store().doc_count(), before);
    assert_eq!(minted, 0);
    assert_eq!(counters.nodes_constructed.get(), 3000);
}

/// Where a constructed node is bound or navigated it still needs an
/// identity, so it is stored — once per outermost constructor: the
/// nested `<b/>` is written into `<a>`'s document, not one of its own.
#[test]
fn bound_and_navigated_constructors_still_get_node_identity() {
    let engine = Engine::new();
    let before = engine.store().doc_count();
    for (query, want) in [
        ("let $x := <a/> return ($x, $x, $x is $x)", "<a/><a/>true"),
        ("(<a><b/></a>)/b", "<b/>"),
    ] {
        let plan = engine.compile(query).unwrap();
        let mut result = None;
        let minted = documents_registered_by(&engine, || {
            result = Some(plan.execute(&engine, &DynamicContext::new()).unwrap())
        });
        assert_eq!(minted, 1, "{query}");
        let result = result.unwrap();
        let made = Arc::downgrade(
            &result
                .store
                .document(result.items[0].as_node().unwrap().doc),
        );
        assert_eq!(result.serialize_guarded().unwrap(), want);
        drop(result);
        assert!(made.upgrade().is_none(), "{query}: dies with its result");
        assert_eq!(
            both_legs(&engine, &plan, &DynamicContext::new()).unwrap(),
            want
        );
        assert_eq!(engine.store().doc_count(), before, "{query}");
    }
}

#[test]
fn nodes_constructed_counts_all_six_kinds_on_both_paths() {
    let engine = Engine::new();
    let plan = engine
        .compile(
            r#"(<e a="1">{attribute b {2}, text {"t"}, comment {"c"},
                          processing-instruction p {"d"}}</e>,
                document {<f/>})"#,
        )
        .unwrap();
    let want = r#"<e a="1" b="2">t<!--c--><?p d?></e><f/>"#;
    let result = plan.execute(&engine, &DynamicContext::new()).unwrap();
    assert_eq!(result.serialize_guarded().unwrap(), want);
    let (out, counters) = plan
        .execute_serialized(
            &engine,
            &DynamicContext::new(),
            QueryGuard::unlimited(),
            None,
        )
        .unwrap();
    assert_eq!(out, want);
    // e, @a, @b, text, comment, PI, document, f.
    assert_eq!(result.counters.nodes_constructed.get(), 8);
    assert_eq!(counters.nodes_constructed.get(), 8);
}

#[test]
fn error_positions_point_into_the_query() {
    let engine = Engine::new();
    let err = engine.compile("1 +\n+ $undefined").map(|_| ()).unwrap_err();
    assert!(err.position.is_some());
    let err = engine
        .compile("for $x in (1,2) return $y")
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err.code, xqr::ErrorCode::UndefinedName);
}

#[test]
fn explain_mentions_the_right_operators() {
    let engine = Engine::new();
    engine.load_document("b.xml", &bibliography(1, 5)).unwrap();
    let q = engine
        .compile(
            "for $a in doc(\"b.xml\")//book
             return for $b in doc(\"b.xml\")//book
                    return if ($a/publisher = $b/publisher) then 1 else ()",
        )
        .unwrap();
    let plan = q.explain();
    assert!(plan.contains("hash-join"), "{plan}");
    let q2 = engine.compile("(doc(\"b.xml\")//book)[2]").unwrap();
    assert!(q2.explain().contains("skip-enabled"));
}

#[test]
fn big_document_count_is_stable() {
    // A moderately large end-to-end run as a smoke test for the store.
    let xml = auction_site(&XmarkConfig::scaled(5_000));
    let engine = Engine::new();
    let out = engine.query_xml(&xml, "count(//*)").unwrap();
    let n: usize = out.parse().unwrap();
    assert!(n > 10_000, "{n}");
    // Name index agrees with navigation.
    let via_index = engine.query_xml(&xml, "count(//person)").unwrap();
    let via_nav = engine.query_xml(&xml, "count(/site/people/*)").unwrap();
    assert_eq!(via_index, via_nav);
}

#[test]
fn pretty_serialization() {
    let engine = Engine::new();
    let q = engine.compile("<a><b><c/></b><d>t</d></a>").unwrap();
    let r = q.execute(&engine, &DynamicContext::new()).unwrap();
    assert_eq!(
        r.serialize_pretty().unwrap(),
        "<a>\n  <b>\n    <c/>\n  </b>\n  <d>t</d>\n</a>"
    );
    // Mixed atomic + node results.
    let q = engine.compile("(1, 2, <x/>)").unwrap();
    let r = q.execute(&engine, &DynamicContext::new()).unwrap();
    assert_eq!(r.serialize_pretty().unwrap(), "1 2\n<x/>");
}

#[test]
fn group_join_preserves_results_and_accelerates_q8() {
    // XMark Q8 on a small document: optimized (group join) and
    // unoptimized must agree exactly.
    let xml = auction_site(&XmarkConfig::scaled(400));
    let q = r#"
        for $p in doc("a.xml")/site/people/person
        let $a := for $t in doc("a.xml")/site/closed_auctions/closed_auction
                  where $t/buyer/@person = $p/@id
                  return $t
        where count($a) ge 2
        order by count($a) descending, $p/@id
        return <buyer id="{$p/@id}" n="{count($a)}"/>
    "#;
    let run = |opts: EngineOptions| {
        let engine = Engine::with_options(opts);
        engine.load_document("a.xml", &xml).unwrap();
        let prepared = engine.compile(q).unwrap();
        let plan = prepared.explain();
        let r = prepared.execute(&engine, &DynamicContext::new()).unwrap();
        (r.serialize_guarded().unwrap(), plan)
    };
    let (opt, plan) = run(EngineOptions::default());
    let (unopt, _) = run(EngineOptions::unoptimized());
    assert_eq!(opt, unopt);
    // Note: the order-by keeps this query in the tupled FLWOR form,
    // where group-join detection does not apply; the plain-FLWOR variant
    // exercises it below.
    let _ = plan;
    let q2 = r#"
        count(for $p in doc("a.xml")/site/people/person
              let $a := for $t in doc("a.xml")/site/closed_auctions/closed_auction
                        where $t/buyer/@person = $p/@id
                        return $t
              return count($a))
    "#;
    let engine = Engine::new();
    engine.load_document("a.xml", &xml).unwrap();
    let prepared = engine.compile(q2).unwrap();
    assert!(
        prepared.explain().contains("hash-group-join"),
        "{}",
        prepared.explain()
    );
    let opt2 = prepared
        .execute(&engine, &DynamicContext::new())
        .unwrap()
        .serialize_guarded()
        .unwrap();
    let engine2 = Engine::with_options(EngineOptions::unoptimized());
    engine2.load_document("a.xml", &xml).unwrap();
    let unopt2 = engine2.query(q2).unwrap();
    assert_eq!(opt2, unopt2);
}

#[test]
fn q8_and_q8b_formulations_agree() {
    // The quadratic (order-by-tupled) and group-joined formulations of
    // XMark Q8 must produce the same buyers and counts.
    let xml = auction_site(&XmarkConfig::scaled(600));
    let engine = Engine::new();
    engine.load_document("a.xml", &xml).unwrap();
    let q8 = engine
        .query(
            r#"for $p in doc("a.xml")/site/people/person
               let $a := for $t in doc("a.xml")/site/closed_auctions/closed_auction
                         where $t/buyer/@person = $p/@id
                         return $t
               where count($a) ge 2
               order by count($a) descending, $p/@id
               return <b id="{$p/@id}" n="{count($a)}"/>"#,
        )
        .unwrap();
    let q8b = engine
        .query(
            r#"for $r in (for $p in doc("a.xml")/site/people/person
                          let $a := for $t in doc("a.xml")/site/closed_auctions/closed_auction
                                    return if ($t/buyer/@person = $p/@id) then $t else ()
                          return if (count($a) ge 2)
                                 then <b id="{$p/@id}" n="{count($a)}"/>
                                 else ())
               order by number($r/@n) descending, $r/@id
               return $r"#,
        )
        .unwrap();
    assert_eq!(q8, q8b);
    assert!(q8.contains("<b id="));
}

#[test]
fn context_with_doc_helper() {
    let engine = Engine::new();
    let ctx = xqr::context_with_doc(&engine, "inv.xml", "<inv><item/><item/></inv>").unwrap();
    // Context item is bound to the document…
    let q = engine.compile("count(.//item)").unwrap();
    assert_eq!(
        q.execute(&engine, &ctx)
            .unwrap()
            .serialize_guarded()
            .unwrap(),
        "2"
    );
    // …and the document is also reachable via fn:doc.
    let q2 = engine.compile(r#"count(doc("inv.xml")//item)"#).unwrap();
    assert_eq!(
        q2.execute(&engine, &ctx)
            .unwrap()
            .serialize_guarded()
            .unwrap(),
        "2"
    );
}

#[test]
fn streaming_count_agrees_with_materialized() {
    let engine = Engine::new();
    let xml = auction_site(&XmarkConfig::scaled(500));
    // Child-only pattern: exact agreement guaranteed.
    let q = engine.compile("count(/site/people/person)").unwrap();
    assert!(q.is_streamable_count());
    let (n, stats) = q.execute_streaming_count(&engine, &xml).unwrap();
    let materialized = engine
        .query_xml(&xml, "count(/site/people/person)")
        .unwrap();
    assert_eq!(n.to_string(), materialized);
    assert!(
        stats.tokens_skipped > 0,
        "match subtrees should be skipped: {stats:?}"
    );
    // Non-count queries refuse.
    let q2 = engine.compile("/site/people/person").unwrap();
    assert!(!q2.is_streamable_count());
    assert!(q2.execute_streaming_count(&engine, &xml).is_err());
}

/// An execution resolves each document it reads through the store once,
/// then reads every node through its own leases: one resolution per
/// XMark query over its one document, on both result paths.
#[test]
fn each_document_is_resolved_through_the_store_once() {
    let engine = Engine::new();
    engine
        .load_document("auction.xml", &auction_site(&XmarkConfig::scaled(200)))
        .unwrap();
    for (id, _, query) in XMARK_QUERIES {
        let plan = engine.compile(query).unwrap();
        let ctx = DynamicContext::new();
        let result = plan.execute(&engine, &ctx).unwrap();
        assert_eq!(result.counters.store_resolutions.get(), 1, "{id}");
        let (_, counters) = plan
            .execute_serialized(&engine, &ctx, QueryGuard::unlimited(), None)
            .unwrap();
        assert_eq!(counters.store_resolutions.get(), 1, "{id} serialized");
    }
    // A context document and a `fn:doc` document are resolved; a
    // constructed one is held, not resolved.
    engine.load_document("b.xml", "<b>2</b>").unwrap();
    let ctx = xqr::context_with_doc(&engine, "c.xml", "<c>1</c>").unwrap();
    let plan = engine
        .compile(r#"let $n := <n>3</n> return (string(/c), string(doc("b.xml")/b), string($n))"#)
        .unwrap();
    let result = plan.execute(&engine, &ctx).unwrap();
    assert_eq!(result.serialize_guarded().unwrap(), "1 2 3");
    assert_eq!(result.counters.store_resolutions.get(), 2);
}
