//! End-to-end evaluator tests: query text → serialized result.

use crate::env::DynamicContext;
use crate::eval::RuntimeOptions;
use crate::reply::serialize_sequence;
use crate::value::Item;
use std::sync::Arc;
use xqr_compiler::{compile, CompileOptions, RewriteConfig};
use xqr_store::{NodeRef, Store};
use xqr_xdm::ErrorCode;

/// Run a query and serialize the result.
fn run(query: &str) -> String {
    run_with(query, |_ctx, _store| {})
}

fn run_with(query: &str, setup: impl FnOnce(&mut DynamicContext, &Arc<Store>)) -> String {
    try_run_with(query, setup).unwrap_or_else(|e| panic!("{query}: {e}"))
}

fn try_run(query: &str) -> xqr_xdm::Result<String> {
    try_run_with(query, |_, _| {})
}

/// Every query runs twice: materialized then serialized, and streamed
/// into a [`crate::Reply`]. The two must agree on the bytes or on the
/// error code.
fn try_run_with(
    query: &str,
    setup: impl FnOnce(&mut DynamicContext, &Arc<Store>),
) -> xqr_xdm::Result<String> {
    let compiled = compile(query, &CompileOptions::default())?;
    let store = Store::new();
    let mut ctx = DynamicContext::new();
    setup(&mut ctx, &store);
    let materialized = crate::execute(&compiled, &store, &ctx, RuntimeOptions::default())
        .map(|(result, _, _leases)| serialize_sequence(&result, &store));
    let mut st = crate::ExecState::with_guard(
        store.clone(),
        compiled.module.var_count,
        xqr_xdm::QueryGuard::unlimited(),
    );
    let mut reply = crate::Reply::new();
    let streamed = crate::evaluate(
        &compiled,
        &ctx,
        RuntimeOptions::default(),
        &mut st,
        &mut reply,
    )
    .map(|_| reply.into_string());
    match (&materialized, &streamed) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{query}: streamed reply differs"),
        (Err(a), Err(b)) => assert_eq!(a.code, b.code, "{query}: streamed error differs"),
        _ => panic!("{query}: materialized {materialized:?}, streamed {streamed:?}"),
    }
    materialized
}

/// Run both optimized and unoptimized; assert they agree, return result.
fn run_both(query: &str) -> String {
    let optimized = run(query);
    let compiled = compile(
        query,
        &CompileOptions {
            rewrite: RewriteConfig::none(),
            ..Default::default()
        },
    )
    .unwrap();
    let store = Store::new();
    let ctx = DynamicContext::new();
    let (result, _, _leases) = crate::execute(&compiled, &store, &ctx, RuntimeOptions::default())
        .unwrap_or_else(|e| panic!("{query} (unoptimized): {e}"));
    let unoptimized = serialize_sequence(&result, &store);
    assert_eq!(
        optimized, unoptimized,
        "optimizer changed semantics of {query}"
    );
    optimized
}

mod basics {
    use super::*;

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(run("1 + 4"), "5");
        assert_eq!(run("7 idiv 2"), "3");
        assert_eq!(run("7 mod 2"), "1");
        assert_eq!(run("1 - 4 * 8.5"), "-33");
        assert_eq!(run("-55.5"), "-55.5");
        assert_eq!(run("2 * 3 + 4"), "10");
        assert_eq!(run("5 div 2"), "2.5");
    }

    #[test]
    fn sequences() {
        assert_eq!(run("(1, 2, 2, 3)"), "1 2 2 3");
        assert_eq!(run("(1, 2, (3, 4))"), "1 2 3 4"); // auto-flattening
        assert_eq!(run("()"), "");
        assert_eq!(run("1 to 5"), "1 2 3 4 5");
        assert_eq!(run("5 to 1"), "");
        assert_eq!(run("(1 to 3, 7)"), "1 2 3 7");
    }

    #[test]
    fn strings() {
        assert_eq!(run(r#""hello""#), "hello");
        assert_eq!(run(r#"concat("a", "b", "c")"#), "abc");
        assert_eq!(run(r#"upper-case("mixed")"#), "MIXED");
        assert_eq!(run(r#"substring("12345", 2, 3)"#), "234");
        assert_eq!(run(r#"string-length("héllo")"#), "5");
        assert_eq!(run(r#"contains("haystack", "stack")"#), "true");
        assert_eq!(run(r#"normalize-space("  a   b ")"#), "a b");
        assert_eq!(run(r#"translate("bar", "abc", "ABC")"#), "BAr");
        assert_eq!(run(r#"string-join(("a", "b"), "-")"#), "a-b");
        assert_eq!(run(r#"substring-before("a=b", "=")"#), "a");
        assert_eq!(run(r#"substring-after("a=b", "=")"#), "b");
    }

    #[test]
    fn regex_functions() {
        assert_eq!(run(r#"tokenize("a b  c", "\s+")"#), "a b c");
        assert_eq!(run(r##"replace("a1b22", "\d+", "#")"##), "a#b#");
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(run("abs(-3)"), "3");
        assert_eq!(run("floor(2.7)"), "2");
        assert_eq!(run("ceiling(2.1)"), "3");
        assert_eq!(run("round(2.5)"), "3");
        assert_eq!(run("round(-2.5)"), "-2");
        assert_eq!(run("round-half-to-even(2.5)"), "2");
        assert_eq!(run("sum((1, 2, 3))"), "6");
        assert_eq!(run("sum(())"), "0");
        assert_eq!(run("avg((1, 2, 3))"), "2");
        assert_eq!(run("min((3, 1, 2))"), "1");
        assert_eq!(run("max((3, 1, 2))"), "3");
        assert_eq!(run("count((1, 2, 3))"), "3");
    }

    #[test]
    fn casts_and_types() {
        assert_eq!(run(r#"xs:integer("42")"#), "42");
        assert_eq!(run(r#""42" cast as xs:integer"#), "42");
        assert_eq!(run("5 instance of xs:integer"), "true");
        assert_eq!(run("5 instance of xs:string"), "false");
        assert_eq!(run(r#""5" castable as xs:integer"#), "true");
        assert_eq!(run(r#""x" castable as xs:integer"#), "false");
        assert_eq!(run(r#"xs:date("2002-05-20")"#), "2002-05-20");
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(
            run(r#"xs:date("2002-05-20") + xs:yearMonthDuration("P1M")"#),
            "2002-06-20"
        );
        assert_eq!(
            run(r#"xs:dateTime("2004-01-02T00:00:00Z") - xs:dateTime("2004-01-01T00:00:00Z")"#),
            "P1D"
        );
        assert_eq!(run(r#"year-from-date(xs:date("1967-05-20"))"#), "1967");
    }

    #[test]
    fn errors_propagate() {
        assert_eq!(
            try_run("1 idiv 0").unwrap_err().code,
            ErrorCode::DivisionByZero
        );
        assert_eq!(try_run(r#""a" + 1"#).unwrap_err().code, ErrorCode::Type);
        assert_eq!(try_run("error()").unwrap_err().code, ErrorCode::UserError);
        assert_eq!(
            try_run("exactly-one(())").unwrap_err().code,
            ErrorCode::Cardinality
        );
    }
}

mod comparisons {
    use super::*;

    #[test]
    fn talk_comparison_table() {
        // From the "value and general comparisons" slide.
        assert_eq!(run("(1, 2) = (2, 3)"), "true");
        assert_eq!(run("() = 42"), "false");
        assert_eq!(run("2 eq 2.0"), "true");
        assert_eq!(run("1 lt 2"), "true");
        // () eq 42 → () which serializes empty
        assert_eq!(run("() eq 42"), "");
    }

    #[test]
    fn two_value_logic() {
        // The talk: "() is converted into false before use".
        assert_eq!(run("() and 1"), "false");
        assert_eq!(run("1 and 1"), "true");
        assert_eq!(run("0 or ()"), "false");
        assert_eq!(run(r#""" or "x""#), "true");
        assert_eq!(run("not(())"), "true");
        // false and error → false (short-circuit allowed)
        assert_eq!(run("1 eq 2 and (1 idiv 0 gt 0)"), "false");
    }

    #[test]
    fn node_identity() {
        // Two constructions are distinct nodes.
        assert_eq!(run("let $x := <a/> return $x is $x"), "true");
        assert_eq!(run("<a/> is <a/>"), "false");
        assert_eq!(
            run("let $x := <a/> return let $y := <b/> return $x << $y"),
            "true"
        );
    }
}

mod flwor {
    use super::*;

    #[test]
    fn basic_iteration() {
        assert_eq!(run_both("for $x in (1, 2, 3) return $x * 2"), "2 4 6");
        assert_eq!(
            run_both("for $x in (1, 2, 3) where $x ge 2 return $x"),
            "2 3"
        );
        assert_eq!(run_both("let $x := (1, 2, 3) return count($x)"), "3");
    }

    #[test]
    fn nested_loops_and_dependencies() {
        assert_eq!(
            run_both("for $x in (1, 2) for $y in (10, 20) return $x + $y"),
            "11 21 12 22"
        );
        assert_eq!(
            run_both("for $x in (1, 2) return for $y in ($x, $x * 10) return $y"),
            "1 10 2 20"
        );
    }

    #[test]
    fn positional_variables() {
        assert_eq!(
            run_both(r#"for $x at $i in ("a", "b", "c") return $i"#),
            "1 2 3"
        );
    }

    #[test]
    fn order_by() {
        assert_eq!(
            run_both("for $x in (3, 1, 2) order by $x return $x"),
            "1 2 3"
        );
        assert_eq!(
            run_both("for $x in (3, 1, 2) order by $x descending return $x"),
            "3 2 1"
        );
        assert_eq!(
            run_both(r#"for $s in ("bb", "a", "ccc") order by string-length($s) return $s"#),
            "a bb ccc"
        );
        // multiple keys
        assert_eq!(
            run_both(
                "for $x in (3, 1) for $y in (2, 1) order by $x, $y descending return ($x * 10 + $y)"
            ),
            "12 11 32 31"
        );
        // empty handling
        assert_eq!(
            run_both(
                "for $x in ((2, 3)[. lt 3], (99)[. lt 3], 1) order by $x empty greatest return $x"
            ),
            "1 2"
        );
    }

    #[test]
    fn quantifiers() {
        assert_eq!(run_both("some $x in (1, 2, 3) satisfies $x eq 2"), "true");
        assert_eq!(run_both("every $x in (1, 2, 3) satisfies $x gt 0"), "true");
        assert_eq!(run_both("every $x in (1, 2, 3) satisfies $x gt 1"), "false");
        assert_eq!(run_both("some $x in () satisfies $x eq 1"), "false");
        assert_eq!(run_both("every $x in () satisfies 1 eq 2"), "true");
        assert_eq!(
            run_both("some $x in (1, 2), $y in (2, 3) satisfies $x eq $y"),
            "true"
        );
    }

    #[test]
    fn lazy_quantifier_stops_at_witness() {
        // A quantifier over an erroring tail must not evaluate it once a
        // witness is found — the talk's lazy-evaluation requirement.
        assert_eq!(run("some $x in (1, 2, 1 idiv 0) satisfies $x eq 1"), "true");
        assert_eq!(run("every $x in (0, 1 idiv 0) satisfies $x eq 1"), "false");
    }

    #[test]
    fn conditionals_and_typeswitch() {
        assert_eq!(run_both("if (1 lt 2) then \"y\" else \"n\""), "y");
        assert_eq!(
            run_both(
                "typeswitch (5) case xs:string return \"s\" case xs:integer return \"i\" default return \"d\""
            ),
            "i"
        );
        assert_eq!(
            run_both("typeswitch (<a/>) case element() return \"e\" default return \"d\""),
            "e"
        );
        assert_eq!(
            run_both(
                "typeswitch ((1,2)) case $v as xs:integer return \"one\" default $v return count($v)"
            ),
            "2"
        );
    }

    #[test]
    fn user_functions() {
        assert_eq!(
            run_both(
                "declare function local:fact($n as xs:integer) as xs:integer {
                   if ($n le 1) then 1 else $n * local:fact($n - 1)
                 };
                 local:fact(5)"
            ),
            "120"
        );
        assert_eq!(
            run_both("declare function local:add($a, $b) { $a + $b }; local:add(40, 2)"),
            "42"
        );
    }

    #[test]
    fn recursion_depth_limited() {
        let e = try_run("declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)")
            .unwrap_err();
        assert_eq!(e.code, ErrorCode::Limit);
    }

    #[test]
    fn globals_and_externals() {
        assert_eq!(run_both("declare variable $x := 40; $x + 2"), "42");
        let out = run_with("declare variable $n external; $n * 2", |ctx, _| {
            ctx.bind_variable(xqr_xdm::QName::local("n"), vec![Item::integer(21)]);
        });
        assert_eq!(out, "42");
        let e = try_run("declare variable $n external; $n").unwrap_err();
        assert_eq!(e.code, ErrorCode::MissingContext);
    }
}

mod paths {
    use super::*;

    const BIB: &str = r#"<bib><book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last></author><publisher>Addison-Wesley</publisher><price>65.95</price></book><book year="2000"><title>Data on the Web</title><author><last>Abiteboul</last></author><author><last>Buneman</last></author><publisher>Morgan Kaufmann</publisher><price>39.95</price></book><book year="1999"><title>Economics of Tech</title><author><last>Shapiro</last></author><publisher>MIT Press</publisher><price>129.95</price></book></bib>"#;

    fn run_bib(query: &str) -> String {
        run_with(
            &format!(r#"declare variable $doc := doc("bib.xml"); {query}"#),
            |ctx, _| {
                ctx.add_document("bib.xml", BIB);
            },
        )
    }

    #[test]
    fn child_steps() {
        assert_eq!(
            run_bib("$doc/bib/book/title/text()"),
            "TCP/IP IllustratedData on the WebEconomics of Tech"
        );
        assert_eq!(run_bib("count($doc/bib/book)"), "3");
    }

    #[test]
    fn descendant_steps() {
        assert_eq!(run_bib("count($doc//book)"), "3");
        assert_eq!(run_bib("count($doc//last)"), "4");
        assert_eq!(run_bib("count($doc//book//last)"), "4");
    }

    #[test]
    fn attributes() {
        assert_eq!(run_bib("string($doc/bib/book[1]/@year)"), "1994");
        assert_eq!(run_bib("count($doc//@year)"), "3");
        assert_eq!(
            run_bib("$doc//book[@year = 2000]/title/text()"),
            "Data on the Web"
        );
    }

    #[test]
    fn predicates() {
        assert_eq!(
            run_bib(r#"$doc//book[price < 50]/title/text()"#),
            "Data on the Web"
        );
        assert_eq!(
            run_bib("$doc//book[count(author) gt 1]/title/text()"),
            "Data on the Web"
        );
        assert_eq!(run_bib("$doc//book[2]/title/text()"), "Data on the Web");
        // The classic mistake slide: //book/author[1] ≠ (//book/author)[1]
        assert_eq!(run_bib("count($doc//book/author[1])"), "3");
        assert_eq!(run_bib("count(($doc//book/author)[1])"), "1");
        assert_eq!(
            run_bib("$doc//book[position() eq 3]/@year/string()"),
            "1999"
        );
        assert_eq!(run_bib("$doc//book[last()]/@year/string()"), "1999");
    }

    #[test]
    fn parent_and_ancestors() {
        assert_eq!(run_bib("count($doc//last/..)"), "4");
        assert_eq!(
            run_bib("$doc//last[. = \"Stevens\"]/ancestor::book/@year/string()"),
            "1994"
        );
        assert_eq!(run_bib("count($doc//price/parent::book)"), "3");
    }

    #[test]
    fn path_results_are_sorted_and_deduped() {
        // parent of multiple authors of the same book must dedup.
        assert_eq!(run_bib("count($doc//author/..)"), "3");
        assert_eq!(run_bib("count(($doc//book[1] , $doc//book[1]))"), "2");
        assert_eq!(run_bib("count($doc//book[1] | $doc//book[1])"), "1");
    }

    #[test]
    fn set_operators() {
        assert_eq!(run_bib("count($doc//book union $doc//book[2])"), "3");
        assert_eq!(run_bib("count($doc//book intersect $doc//book[2])"), "1");
        assert_eq!(run_bib("count($doc//book except $doc//book[2])"), "2");
    }

    #[test]
    fn wildcards_and_kind_tests() {
        assert_eq!(run_bib("count($doc/bib/*)"), "3");
        assert_eq!(run_bib("count($doc//text())"), "13");
        assert_eq!(run_bib("count($doc//book/*:title)"), "3");
    }

    #[test]
    fn joins_in_flwor() {
        let q = r#"
            for $b in $doc//book, $p in $doc//book
            where $b/publisher = $p/publisher and $b/@year = "1994"
            return $p/title/text()
        "#;
        assert_eq!(run_bib(q), "TCP/IP Illustrated");
    }

    #[test]
    fn context_item_paths() {
        let out = run_with("count(.//book)", |ctx, store| {
            let id = store.load_xml(super::paths::BIB, None).unwrap();
            ctx.context_item = Some(Item::Node(NodeRef::new(id, xqr_store::NodeId(0))));
        });
        assert_eq!(out, "3");
    }

    #[test]
    fn atomic_context_for_path_errors() {
        let e = try_run("(1)/a").unwrap_err();
        assert!(
            matches!(e.code, ErrorCode::PathOnAtomic | ErrorCode::AxisOnAtomic),
            "{e}"
        );
    }
}

mod constructors {
    use super::*;

    #[test]
    fn direct_elements() {
        assert_eq!(run("<a/>"), "<a/>");
        assert_eq!(run("<a>text</a>"), "<a>text</a>");
        assert_eq!(run("<a b=\"1\">x</a>"), "<a b=\"1\">x</a>");
        assert_eq!(run("<a>{1 + 1}</a>"), "<a>2</a>");
        assert_eq!(run("<a>{1, 2, 3}</a>"), "<a>1 2 3</a>");
        assert_eq!(run("<a><b/><c/></a>"), "<a><b/><c/></a>");
        assert_eq!(run("<a>x{1}y</a>"), "<a>x1y</a>");
    }

    #[test]
    fn attribute_value_templates() {
        assert_eq!(run(r#"<a b="{1+1}"/>"#), r#"<a b="2"/>"#);
        assert_eq!(run(r#"<a b="x{1}y"/>"#), r#"<a b="x1y"/>"#);
        assert_eq!(
            run(r#"let $v := (1,2) return <a b="{$v}"/>"#),
            r#"<a b="1 2"/>"#
        );
    }

    #[test]
    fn computed_constructors() {
        assert_eq!(run("element foo { 1 + 1 }"), "<foo>2</foo>");
        assert_eq!(run(r#"element { concat("a", "b") } { "x" }"#), "<ab>x</ab>");
        assert_eq!(
            run(r#"<e>{ attribute year { 1967 } }</e>"#),
            r#"<e year="1967"/>"#
        );
        assert_eq!(run(r#"string(text { "hi" })"#), "hi");
        assert_eq!(run("document { <a/> }"), "<a/>");
    }

    #[test]
    fn copied_content() {
        assert_eq!(
            run("let $x := <b>inner</b> return <a>{$x}</a>"),
            "<a><b>inner</b></a>"
        );
        assert_eq!(
            run("let $x := <b/> return <a>{$x, $x}</a>"),
            "<a><b/><b/></a>"
        );
    }

    #[test]
    fn namespaced_constructors() {
        assert_eq!(
            run(r#"<a xmlns:p="urn:p"><p:b/></a>"#),
            r#"<a xmlns:p="urn:p"><p:b/></a>"#
        );
        // A namespace bound to two prefixes: the store spells the name
        // with the prefix it interned first, and a streamed constructor
        // spells it the same way.
        assert_eq!(
            run(r#"(<p:a xmlns:p="urn:p"/>, <q:a xmlns:q="urn:p"/>)"#),
            r#"<p:a xmlns:p="urn:p"/><p:a xmlns:q="urn:p"/>"#
        );
        // A copied namespace node lands in the start tag only while no
        // attribute precedes it; the store keeps it but never shows it.
        assert_eq!(
            run(r#"let $ns := (<r xmlns:p="urn:p"/>)/namespace::*
                   return (<a>{$ns}</a>, <a x="1">{$ns}</a>)"#),
            r#"<a xmlns:p="urn:p"/><a x="1"/>"#
        );
    }

    #[test]
    fn content_rules_hold_for_streamed_and_stored_nodes() {
        for query in [
            r#"<a>{"text", attribute x {1}}</a>"#,
            r#"<a>{<b/>, attribute x {1}}</a>"#,
            r#"document {attribute x {1}}"#,
            r#"comment {"bad -- comment"}"#,
            r#"comment {"ends with -"}"#,
            r#"processing-instruction xml {"x"}"#,
            r#"processing-instruction t {"has ?> inside"}"#,
        ] {
            for q in [query.to_string(), format!("let $n := {query} return $n")] {
                let e = try_run(&q).unwrap_err();
                assert_eq!(e.code, ErrorCode::InvalidConstructor, "{q}: {e}");
            }
        }
        for query in [
            r#"<a>{attribute x {1}, attribute x {2}}</a>"#,
            r#"<a x="1">{attribute x {2}}</a>"#,
        ] {
            for q in [query.to_string(), format!("let $n := {query} return $n")] {
                let e = try_run(&q).unwrap_err();
                assert_eq!(e.code, ErrorCode::DuplicateAttribute, "{q}: {e}");
            }
        }
    }

    #[test]
    fn copies_and_edge_content() {
        assert_eq!(
            run("let $b := <b>x</b> let $o := <out>{$b}</out> return ($o, $o/b is $b)"),
            "<out><b>x</b></out>false"
        );
        assert_eq!(
            run("<wrap>{document {<r><a/></r>}}</wrap>"),
            "<wrap><r><a/></r></wrap>"
        );
        // An empty text node is still a child: no `<a/>` collapse.
        assert_eq!(run(r#"<a>{text {""}}</a>"#), "<a></a>");
        assert_eq!(run(r#"<a>{text {()}}</a>"#), "<a/>");
        assert_eq!(run(r#"<a>{"x", text {"y"}, 1}</a>"#), "<a>xy1</a>");
        // A standalone attribute serializes as its bare value, a text
        // node escaped.
        assert_eq!(
            run(r#"(attribute x {"&lt;&amp;"}, text {"&lt;&amp;"})"#),
            "<&&lt;&amp;"
        );
        assert_eq!(
            run(r#"<a>{processing-instruction t {}, comment {"c"}}</a>"#),
            "<a><?t?><!--c--></a>"
        );
    }

    #[test]
    fn querying_constructed_nodes() {
        assert_eq!(
            run("let $d := <r><x>1</x><x>2</x></r> return count($d/x)"),
            "2"
        );
        assert_eq!(run("<r><x>5</x></r>/x/text()"), "5");
    }
}

mod laziness {
    use super::*;

    #[test]
    fn positional_early_exit() {
        assert_eq!(run("(1 to 1000000000)[3]"), "3");
        assert_eq!(run("(for $x in 1 to 1000000000 return $x * 2)[2]"), "4");
    }

    #[test]
    fn exists_stops_early() {
        assert_eq!(run("exists(1 to 1000000000)"), "true");
        assert_eq!(run("empty(1 to 1000000000)"), "false");
    }

    #[test]
    fn quantifier_over_huge_range() {
        assert_eq!(
            run("some $x in (1 to 1000000000) satisfies $x eq 5"),
            "true"
        );
    }

    #[test]
    fn ebv_of_huge_sequence() {
        assert_eq!(run("if ((1 to 1000000000)[1]) then \"t\" else \"f\""), "t");
    }
}

mod talk_examples {
    use super::*;

    #[test]
    fn flwr_equivalence_slide() {
        let doc = r#"<bib><book><title>Ulysses</title><author>J</author><author>K</author></book><book><title>Other</title><author>X</author></book></bib>"#;
        let sugar = run_with(
            r#"declare variable $d := doc("d.xml");
               for $x in $d/bib/book
               let $y := $x/author
               where $x/title = "Ulysses"
               return count($y)"#,
            |ctx, _| {
                ctx.add_document("d.xml", doc);
            },
        );
        let expanded = run_with(
            r#"declare variable $d := doc("d.xml");
               for $x in $d/bib/book
               return (let $y := $x/author
                       return if ($x/title = "Ulysses") then count($y) else ())"#,
            |ctx, _| {
                ctx.add_document("d.xml", doc);
            },
        );
        assert_eq!(sugar, expanded);
        assert_eq!(sugar, "2");
    }

    #[test]
    fn conditional_constructor_slide() {
        let q = r#"
            declare variable $book := <book year="1967"><title>T</title></book>;
            if ($book/@year < 1980)
            then <old>{$book/title/text()}</old>
            else <new>{$book/title/text()}</new>
        "#;
        assert_eq!(run(q), "<old>T</old>");
    }

    #[test]
    fn selection_and_join_slides() {
        let bib = r#"<world><bib><book><title>B1</title><publisher>Springer Verlag</publisher><year>1998</year></book><book><title>B2</title><publisher>Elsevier</publisher><year>1998</year></book></bib><publishers><publisher><name>Springer Verlag</name><address>Berlin</address></publisher><publisher><name>Elsevier</name><address>Amsterdam</address></publisher></publishers></world>"#;
        let q = r#"
            declare variable $w := doc("w.xml");
            for $b in $w//book, $p in $w//publishers/publisher
            where $b/publisher = $p/name
            return ($b/title/text(), $p/address/text())
        "#;
        let out = run_with(q, |ctx, _| {
            ctx.add_document("w.xml", bib);
        });
        assert_eq!(out, "B1BerlinB2Amsterdam");
    }

    #[test]
    fn module_slide_add_function() {
        assert_eq!(
            run("declare function local:add($x as xs:integer, $y as xs:integer) as xs:integer { $x + $y };
                 declare variable $zero as xs:integer := 0;
                 local:add(2, $zero)"),
            "2"
        );
    }
}

mod memoization {
    use super::*;
    use xqr_compiler::{compile, CompileOptions};

    #[test]
    fn memoized_fibonacci_does_fewer_calls() {
        let q = "declare function local:fib($n as xs:integer) as xs:integer {
                   if ($n lt 2) then $n else local:fib($n - 1) + local:fib($n - 2)
                 };
                 local:fib(18)";
        let compiled = compile(q, &CompileOptions::default()).unwrap();
        let store = Store::new();
        let ctx = DynamicContext::new();
        let (r1, c1, _) = crate::execute(
            &compiled,
            &store,
            &ctx,
            RuntimeOptions {
                memoize_functions: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (r2, c2, _) = crate::execute(
            &compiled,
            &store,
            &ctx,
            RuntimeOptions {
                memoize_functions: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(serialize_sequence(&r1, &store), "2584");
        assert!(
            c2.function_calls.get() * 10 < c1.function_calls.get(),
            "memoization should collapse the call tree: {} vs {}",
            c2.function_calls.get(),
            c1.function_calls.get()
        );
        assert!(c2.memo_hits.get() > 0);
    }
}

mod counters {
    use super::*;
    use xqr_compiler::{compile, CompileOptions};

    #[test]
    fn early_exit_counter_ticks() {
        let compiled = compile("(1 to 100000)[2]", &CompileOptions::default()).unwrap();
        let store = Store::new();
        let ctx = DynamicContext::new();
        let (r, c, _) = crate::execute(&compiled, &store, &ctx, RuntimeOptions::default()).unwrap();
        assert_eq!(serialize_sequence(&r, &store), "2");
        assert!(c.early_exits.get() >= 1);
        assert!(c.items_produced.get() < 1000, "{}", c.items_produced.get());
    }

    #[test]
    fn ddo_elimination_reduces_sorts() {
        let doc = "<a><b><c/><c/></b><b><c/></b></a>";
        let q = r#"declare variable $d := doc("d.xml"); count($d/a/b/c)"#;
        let run_counting = |cfg: RewriteConfig| {
            let compiled = compile(
                q,
                &CompileOptions {
                    rewrite: cfg,
                    ..Default::default()
                },
            )
            .unwrap();
            let store = Store::new();
            let mut ctx = DynamicContext::new();
            ctx.add_document("d.xml", doc);
            let (r, c, _leases) =
                crate::execute(&compiled, &store, &ctx, RuntimeOptions::default()).unwrap();
            (serialize_sequence(&r, &store), c.ddo_sorts.get())
        };
        let (r_on, sorts_on) = run_counting(RewriteConfig::all());
        let (r_off, sorts_off) = run_counting(RewriteConfig::none());
        assert_eq!(r_on, r_off);
        assert_eq!(r_on, "3");
        assert!(sorts_on < sorts_off, "ddo-elim: {sorts_on} vs {sorts_off}");
    }
}
