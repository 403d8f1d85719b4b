//! Conformance-style integration suite: query text → expected serialized
//! result, end to end through the engine, grouped by language feature.
//! Every case also runs with the optimizer disabled and must agree.

mod common;

use common::{both_legs, query_both, query_xml_both};
#[allow(unused_imports)]
use xqr::Result;
use xqr::{DynamicContext, Engine, EngineOptions};

const BIB: &str = r#"<bib><book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last><first>W.</first></author><publisher>Addison-Wesley</publisher><price>65.95</price></book><book year="2000"><title>Data on the Web</title><author><last>Abiteboul</last><first>Serge</first></author><author><last>Buneman</last><first>Peter</first></author><author><last>Suciu</last><first>Dan</first></author><publisher>Morgan Kaufmann</publisher><price>39.95</price></book><book year="1999"><title>Economics of Tech</title><author><last>Shapiro</last><first>Carl</first></author><publisher>MIT Press</publisher><price>129.95</price></book><book year="1994"><title>Unix Programming</title><author><last>Stevens</last><first>W.</first></author><publisher>Addison-Wesley</publisher><price>65.95</price></book></bib>"#;

fn check_all(cases: &[(&str, &str)]) {
    check_all_over(&[("bib.xml", BIB)], cases);
}

/// [`check_all`] with `docs` (uri, text) loaded instead of the bibliography.
fn check_all_over(docs: &[(&str, &str)], cases: &[(&str, &str)]) {
    for (query, expected) in cases {
        for optimize in [true, false] {
            let opts = if optimize {
                EngineOptions::default()
            } else {
                // No rewrites, no access-path selection, no indexes.
                EngineOptions::unoptimized()
            };
            let engine = Engine::with_options(opts);
            for (uri, xml) in docs {
                engine.load_document(uri, xml).unwrap();
            }
            let q = engine
                .compile(query)
                .unwrap_or_else(|e| panic!("compile {query:?} (opt={optimize}): {e}"));
            let out = both_legs(&engine, &q, &DynamicContext::new())
                .unwrap_or_else(|e| panic!("run {query:?} (opt={optimize}): {e}"));
            assert_eq!(&out, expected, "query {query:?} (optimize={optimize})");
        }
    }
}

#[test]
fn arithmetic_and_literals() {
    check_all(&[
        ("1 + 4 * 2", "9"),
        ("(1 + 4) * 2", "10"),
        ("10 idiv 3", "3"),
        ("10 mod 3", "1"),
        ("10 div 4", "2.5"),
        ("-(3 - 5)", "2"),
        ("1.5 + 1.5", "3"),
        ("2.0e1 + 5", "25"),
        ("7 - -7", "14"),
    ]);
}

#[test]
fn sequence_operations() {
    check_all(&[
        ("count(())", "0"),
        ("count((1, 2, 3))", "3"),
        ("count((1, (2, 3), ()))", "3"),
        ("reverse((1, 2, 3))", "3 2 1"),
        ("subsequence((1, 2, 3, 4, 5), 2, 3)", "2 3 4"),
        ("insert-before((1, 3), 2, 2)", "1 2 3"),
        ("remove((1, 2, 3), 2)", "1 3"),
        ("index-of((10, 20, 10), 10)", "1 3"),
        ("distinct-values((1, 2, 1, 3, 2))", "1 2 3"),
        ("empty(())", "true"),
        ("exists(())", "false"),
        ("1 to 4", "1 2 3 4"),
        ("(1 to 3)[2]", "2"),
        ("string-join((\"a\", \"b\", \"c\"), \",\")", "a,b,c"),
    ]);
}

#[test]
fn string_functions() {
    check_all(&[
        ("upper-case(\"abc\")", "ABC"),
        ("lower-case(\"ABC\")", "abc"),
        ("concat(\"a\", 1, \"b\")", "a1b"),
        ("substring(\"hello\", 2)", "ello"),
        ("substring(\"hello\", 2, 2)", "el"),
        ("string-length(\"hello\")", "5"),
        ("contains(\"hello\", \"ell\")", "true"),
        ("starts-with(\"hello\", \"he\")", "true"),
        ("ends-with(\"hello\", \"lo\")", "true"),
        ("substring-before(\"k=v\", \"=\")", "k"),
        ("substring-after(\"k=v\", \"=\")", "v"),
        ("normalize-space(\" a  b \")", "a b"),
        ("translate(\"abcabc\", \"ab\", \"AB\")", "ABcABc"),
        ("tokenize(\"a,b,,c\", \",\")", "a b  c"),
        ("replace(\"banana\", \"a\", \"o\")", "bonono"),
        ("string-to-codepoints(\"AB\")", "65 66"),
        ("codepoints-to-string((72, 105))", "Hi"),
        ("compare(\"a\", \"b\")", "-1"),
    ]);
}

#[test]
fn numeric_functions() {
    check_all(&[
        ("abs(-2.5)", "2.5"),
        ("floor(-1.5)", "-2"),
        ("ceiling(-1.5)", "-1"),
        ("round(1.5)", "2"),
        ("round(-1.5)", "-1"),
        ("round-half-to-even(1.5)", "2"),
        ("round-half-to-even(0.5)", "0"),
        ("round-half-to-even(3.14159, 2)", "3.14"),
        ("sum((1, 2, 3, 4))", "10"),
        ("sum(())", "0"),
        ("avg((2, 4))", "3"),
        ("min((2.5, 1, 3))", "1"),
        ("max((2.5, 1, 3))", "3"),
        ("number(\"12\")", "12"),
        ("string(number(\"nope\"))", "NaN"),
    ]);
}

#[test]
fn comparisons_and_logic() {
    check_all(&[
        ("1 eq 1", "true"),
        ("1 ne 2", "true"),
        ("2 gt 1 and 1 lt 2", "true"),
        ("1 gt 2 or 2 gt 1", "true"),
        ("(1, 2, 3) = 2", "true"),
        ("(1, 2, 3) != 2", "true"),
        ("() = ()", "false"),
        ("not(0)", "true"),
        ("not(\"x\")", "false"),
        ("true() and false()", "false"),
        ("\"abc\" lt \"abd\"", "true"),
        ("1 eq 1.0", "true"),
    ]);
}

#[test]
fn conditionals_and_flwor() {
    check_all(&[
        ("if (2 gt 1) then \"a\" else \"b\"", "a"),
        ("for $x in (1, 2, 3) return $x * $x", "1 4 9"),
        ("for $x in (1, 2, 3) where $x mod 2 eq 1 return $x", "1 3"),
        ("let $s := (1, 2, 3) return sum($s)", "6"),
        ("for $x at $i in (\"a\", \"b\") return concat($i, $x)", "1a 2b"),
        ("for $x in (3, 1, 2) order by $x return $x", "1 2 3"),
        ("for $x in (1, 2) for $y in (3, 4) return $x * $y", "3 4 6 8"),
        ("some $x in (1, 2) satisfies $x eq 2", "true"),
        ("every $x in (1, 2) satisfies $x lt 3", "true"),
        (
            "typeswitch (3.5) case xs:integer return \"int\" case xs:decimal return \"dec\" default return \"other\"",
            "dec",
        ),
    ]);
}

#[test]
fn types_and_casts() {
    check_all(&[
        ("5 instance of xs:integer", "true"),
        ("5 instance of xs:decimal", "true"), // integer ⊆ decimal
        ("(1, 2) instance of xs:integer+", "true"),
        ("() instance of xs:integer?", "true"),
        ("\"x\" castable as xs:double", "false"),
        ("\"1e3\" cast as xs:double", "1000"),
        ("xs:string(12)", "12"),
        ("xs:boolean(\"true\")", "true"),
        ("xs:integer(\" 7 \")", "7"),
        ("(5 treat as xs:integer) + 1", "6"),
    ]);
}

#[test]
fn paths_over_bib() {
    check_all(&[
        ("count(doc(\"bib.xml\")//book)", "4"),
        ("count(doc(\"bib.xml\")/bib/book/author)", "6"),
        ("string(doc(\"bib.xml\")//book[2]/title)", "Data on the Web"),
        ("count(doc(\"bib.xml\")//book[@year = 1994])", "2"),
        ("count(doc(\"bib.xml\")//book[price > 60])", "3"),
        (
            "string(doc(\"bib.xml\")//book[count(author) eq 3]/title)",
            "Data on the Web",
        ),
        ("count(doc(\"bib.xml\")//author[last = \"Stevens\"])", "2"),
        ("count(doc(\"bib.xml\")//book/author[1])", "4"),
        ("count((doc(\"bib.xml\")//book/author)[1])", "1"),
        ("count(doc(\"bib.xml\")//book/@year)", "4"),
        ("count(distinct-values(doc(\"bib.xml\")//@year))", "3"),
        ("count(doc(\"bib.xml\")//last/ancestor::book)", "4"),
        ("count(doc(\"bib.xml\")//book/../book)", "4"),
        ("count(doc(\"bib.xml\")//*)", "35"),
        ("count(doc(\"bib.xml\")//text())", "24"),
        (
            "string(doc(\"bib.xml\")//book[last()]/title)",
            "Unix Programming",
        ),
        (
            "string((doc(\"bib.xml\")//book[price < 50]/title)[1])",
            "Data on the Web",
        ),
        (
            "count(doc(\"bib.xml\")//book[author/last = \"Suciu\"])",
            "1",
        ),
    ]);
}

#[test]
fn flwor_over_documents() {
    check_all(&[
        (
            "for $b in doc(\"bib.xml\")//book where $b/price < 50 return string($b/title)",
            "Data on the Web",
        ),
        (
            "for $b in doc(\"bib.xml\")//book order by number($b/price) descending return string($b/@year)",
            "1999 1994 1994 2000",
        ),
        (
            "for $y in distinct-values(doc(\"bib.xml\")//@year) order by $y return <year v=\"{$y}\">{count(doc(\"bib.xml\")//book[@year = $y])}</year>",
            "<year v=\"1994\">2</year><year v=\"1999\">1</year><year v=\"2000\">1</year>",
        ),
        (
            "sum(for $b in doc(\"bib.xml\")//book return $b/price)",
            "301.8",
        ),
        (
            "for $a in distinct-values(doc(\"bib.xml\")//last) order by $a return $a",
            "Abiteboul Buneman Shapiro Stevens Suciu",
        ),
    ]);
}

#[test]
fn constructors() {
    check_all(&[
        ("<a/>", "<a/>"),
        ("<a b=\"{1 + 1}\"/>", "<a b=\"2\"/>"),
        ("<a>{\"x\"}{\"y\"}</a>", "<a>x y</a>"),
        ("<a>x{\"y\"}</a>", "<a>xy</a>"),
        (
            "element e { attribute x { 1 }, \"body\" }",
            "<e x=\"1\">body</e>",
        ),
        (
            "<out>{doc(\"bib.xml\")//book[1]/title}</out>",
            "<out><title>TCP/IP Illustrated</title></out>",
        ),
        ("string(<a>one <b>two</b> three</a>)", "one two three"),
        ("document { <r/> }", "<r/>"),
        ("<a>{comment { \"note\" }}</a>", "<a><!--note--></a>"),
        ("count(<a><b/><c/></a>/*)", "2"),
    ]);
}

#[test]
fn node_operations() {
    check_all(&[
        (
            "let $d := doc(\"bib.xml\") return $d//book[1] is $d//book[1]",
            "true",
        ),
        (
            "let $d := doc(\"bib.xml\") return $d//book[1] is $d//book[2]",
            "false",
        ),
        (
            "let $d := doc(\"bib.xml\") return $d//book[1] << $d//book[2]",
            "true",
        ),
        (
            "count(doc(\"bib.xml\")//book union doc(\"bib.xml\")//book)",
            "4",
        ),
        (
            "count(doc(\"bib.xml\")//book intersect doc(\"bib.xml\")//book[@year = 1994])",
            "2",
        ),
        (
            "count(doc(\"bib.xml\")//book except doc(\"bib.xml\")//book[1])",
            "3",
        ),
        ("name(doc(\"bib.xml\")//book[1])", "book"),
        ("local-name(doc(\"bib.xml\")/*)", "bib"),
        ("count(root((doc(\"bib.xml\")//last)[1])//book)", "4"),
        ("deep-equal(<a><b/></a>, <a><b/></a>)", "true"),
        ("deep-equal(<a><b/></a>, <a><c/></a>)", "false"),
    ]);
}

#[test]
fn user_functions_and_variables() {
    check_all(&[
        (
            "declare function local:double($x as xs:integer) as xs:integer { $x * 2 }; local:double(21)",
            "42",
        ),
        (
            "declare function local:deep($n as xs:integer) as xs:integer {
               if ($n le 0) then 0 else 1 + local:deep($n - 1)
             }; local:deep(100)",
            "100",
        ),
        (
            "declare variable $base := 10;
             declare function local:scale($x) { $x * $base };
             local:scale(5)",
            "50",
        ),
        (
            "declare function local:titles($d) { $d//title };
             count(local:titles(doc(\"bib.xml\")))",
            "4",
        ),
    ]);
}

#[test]
fn namespaces() {
    check_all(&[
        (r#"declare namespace x = "urn:x"; name(<x:a/>)"#, "x:a"),
        (
            r#"declare namespace x = "urn:x"; namespace-uri(<x:a/>)"#,
            "urn:x",
        ),
        (
            // Constructor xmlns scopes end at the constructor; the path
            // prefix must come from the prolog.
            r#"declare namespace p = "urn:p"; count(<r xmlns:p="urn:p"><p:a/><a/></r>/p:a)"#,
            "1",
        ),
        (
            r#"declare default element namespace "urn:d"; local-name(<a/>)"#,
            "a",
        ),
    ]);
}

/// Name tests compare expanded names — namespace and local part, never
/// the prefix — on stored and on constructed documents, for name tests,
/// wildcards, kind tests with a name, `instance of` and PI targets.
#[test]
fn name_tests_compare_expanded_names() {
    const NAMES: &str = r#"<r xmlns:a="urn:x" xmlns:b="urn:y"><a:item a:k="1" b:k="2" k="3"/><b:item/><item/><?target data?><?other more?></r>"#;
    let x = r#"declare namespace z = "urn:x"; declare namespace y = "urn:y"; declare variable $r := doc("names.xml")/r; "#;
    let case = |q: &str| format!("{x}{q}");
    let cases = [
        // A different prefix over the same namespace matches.
        (case("count($r/z:item)"), "1"),
        (case("name($r/z:item)"), "a:item"),
        (case("string($r/z:item/@z:k)"), "1"),
        // The same local name in another namespace, or none, does not.
        (case("name($r/y:item)"), "b:item"),
        (case("count($r/item)"), "1"),
        (case("string($r/*/@k)"), "3"),
        (case("string($r/*/@y:k)"), "2"),
        // Wildcards on either half.
        (case("count($r/*:item)"), "3"),
        (case("count($r/z:*)"), "1"),
        (case("count($r/*/@*:k)"), "3"),
        (case("count($r/*/@z:*)"), "1"),
        (case("count($r//*)"), "3"),
        // Names in no document: empty, not an error.
        (case("count($r/never_seen_name)"), "0"),
        (
            r#"declare namespace n = "urn:nowhere"; count(doc("names.xml")//n:item)"#.to_string(),
            "0",
        ),
        (case("count($r/*/@never_seen_name)"), "0"),
        // Kind tests with a name, and `instance of`.
        (case("count($r/element(z:item))"), "1"),
        (case("count($r/element(item))"), "1"),
        (case("count($r/element())"), "3"),
        (case("count($r/*/attribute(z:k))"), "1"),
        (case("count($r/*/attribute(k))"), "1"),
        (case("count($r/*/attribute())"), "3"),
        (case("$r/z:item instance of element(z:item)"), "true"),
        (case("$r/y:item instance of element(z:item)"), "false"),
        (case("$r/item instance of element(z:item)"), "false"),
        (case("$r/z:item/@z:k instance of attribute(z:k)"), "true"),
        (case("$r/z:item/@k instance of attribute(z:k)"), "false"),
        (
            case("$r/z:item instance of element(never_seen_name)"),
            "false",
        ),
        // Processing-instruction targets.
        (case("count($r/processing-instruction(target))"), "1"),
        (case("count($r/processing-instruction('other'))"), "1"),
        (case("count($r/processing-instruction(never))"), "0"),
        (case("count($r/processing-instruction())"), "2"),
        // Steps over a constructed document.
        (
            case(
                r#"let $d := <c xmlns:q="urn:x"><q:item/><item/><y:item xmlns:y="urn:y"/></c> return (count($d/z:item), count($d/item), count($d/element(z:item)), count($d/*:item), namespace-uri($d/z:item))"#,
            ),
            "1 1 1 3 urn:x",
        ),
        (
            case(
                r#"let $d := document { <c xmlns:q="urn:x" q:k="1"><?target x?></c> } return (count($d/c/@z:k), count($d/c/processing-instruction(target)), $d/c instance of element(c))"#,
            ),
            "1 1 true",
        ),
        // Copying a stored node into a constructor keeps its names.
        (
            case("let $o := <out>{$r/z:item}</out> return (count($o/z:item), count($o/z:item/@y:k), count($o/item))"),
            "1 1 0",
        ),
    ];
    let cases: Vec<(&str, &str)> = cases.iter().map(|(q, e)| (q.as_str(), *e)).collect();
    check_all_over(&[("names.xml", NAMES)], &cases);
}

#[test]
fn dates_and_durations() {
    check_all(&[
        (r#"xs:date("2004-09-14") > xs:date("2004-01-01")"#, "true"),
        (
            r#"string(xs:date("2004-01-31") + xs:yearMonthDuration("P1M"))"#,
            "2004-02-29",
        ),
        (
            r#"string(xs:dateTime("2004-09-14T10:00:00Z") - xs:dayTimeDuration("PT90M"))"#,
            "2004-09-14T08:30:00Z",
        ),
        (r#"year-from-date(xs:date("1967-05-20"))"#, "1967"),
        (
            r#"month-from-dateTime(xs:dateTime("2004-09-14T10:11:12"))"#,
            "9",
        ),
        (r#"string(xs:dayTimeDuration("PT2H") * 2)"#, "PT4H"),
        (
            r#"string(add-date(xs:date("2002-05-20"), xs:yearMonthDuration("P1Y")))"#,
            "2003-05-20",
        ),
    ]);
}

#[test]
fn regex_matches_function() {
    check_all(&[
        (r#"matches("abracadabra", "bra")"#, "true"),
        (r#"matches("abracadabra", "a.*a")"#, "true"),
        (r#"matches("banana", "b[ae]n")"#, "true"),
        (r#"matches("banana", "q")"#, "false"),
        (r#"matches("a1", "\d")"#, "true"),
    ]);
}

#[test]
fn unsupported_features_have_clear_errors() {
    let engine = Engine::new();
    let e = engine.compile("validate { <a/> }").map(|_| ()).unwrap_err();
    assert!(e.message.contains("schema validation"), "{e}");
    let e = engine
        .compile(r#"import module namespace m = "urn:m"; 1"#)
        .map(|_| ())
        .unwrap_err();
    assert!(e.message.contains("module feature"), "{e}");
}

#[test]
fn sibling_and_order_axes() {
    check_all(&[
        (
            "string(doc(\"bib.xml\")//book[1]/following-sibling::book[1]/title)",
            "Data on the Web",
        ),
        (
            "string(doc(\"bib.xml\")//book[2]/preceding-sibling::book[1]/title)",
            "TCP/IP Illustrated",
        ),
        ("count(doc(\"bib.xml\")//book[1]/following-sibling::*)", "3"),
        ("count(doc(\"bib.xml\")//book[4]/following-sibling::*)", "0"),
        // `following` crosses subtree boundaries; `following-sibling` not.
        ("count(doc(\"bib.xml\")//author[1]/following::price)", "4"),
        ("count(doc(\"bib.xml\")//book[2]/preceding::title)", "1"),
        (
            "count((doc(\"bib.xml\")//price)[1]/ancestor-or-self::*)",
            "3",
        ),
        ("count(doc(\"bib.xml\")//book[self::book])", "4"),
        (
            "count(doc(\"bib.xml\")//book/descendant-or-self::book)",
            "4",
        ),
        ("count(doc(\"bib.xml\")//book/descendant::last)", "6"),
    ]);
}

#[test]
fn whitespace_and_text_handling() {
    check_all(&[
        // Boundary whitespace in constructors is stripped…
        ("<a>  <b/>  </a>", "<a><b/></a>"),
        // …but whitespace inside text runs survives.
        ("<a>x y</a>", "<a>x y</a>"),
        ("string(<a> padded </a>)", " padded "),
        // Entity refs in constructor content.
        ("<a>&lt;tag&gt;</a>", "<a>&lt;tag&gt;</a>"),
        ("string(<a>&amp;</a>)", "&"),
        // CDATA in queried documents becomes plain text.
        ("string(<a><![CDATA[<raw>]]></a>)", "<raw>"),
    ]);
}

#[test]
fn positional_semantics() {
    check_all(&[
        // position() in predicates counts per filter pass.
        ("(10, 20, 30)[position() gt 1]", "20 30"),
        ("(10, 20, 30)[position() lt last()]", "10 20"),
        ("(10, 20, 30)[2]", "20"),
        // predicates on predicates
        ("((1 to 10)[. mod 2 eq 0])[2]", "4"),
        // numeric non-integer positions select nothing
        ("(10, 20, 30)[1.5]", ""),
        // boolean-valued numeric comparisons still filter
        ("(1 to 5)[. gt 3]", "4 5"),
        // positional over path steps is per context node
        ("for $i in 1 to 3 return (string($i), \"|\")", "1 | 2 | 3 |"),
        // `at $p` counts over the whole nested source, not per inner item
        (
            "for $x at $p in (for $y in (1, 2) return ($y, $y)) return $p",
            "1 2 3 4",
        ),
        (
            "for $x at $p in (for $y in (1, 2) return (<a>{$y}</a>, <b/>)) return <i n=\"{$p}\">{$x}</i>",
            "<i n=\"1\"><a>1</a></i><i n=\"2\"><b/></i><i n=\"3\"><a>2</a></i><i n=\"4\"><b/></i>",
        ),
    ]);
}

#[test]
fn duration_component_accessors() {
    check_all(&[
        (
            r#"years-from-duration(xs:yearMonthDuration("P20Y15M"))"#,
            "21",
        ),
        (
            r#"months-from-duration(xs:yearMonthDuration("P20Y15M"))"#,
            "3",
        ),
        (r#"days-from-duration(xs:dayTimeDuration("P3DT10H"))"#, "3"),
        (
            r#"hours-from-duration(xs:dayTimeDuration("P3DT10H"))"#,
            "10",
        ),
        (
            r#"minutes-from-duration(xs:dayTimeDuration("PT90M"))"#,
            "30",
        ),
        (
            r#"seconds-from-duration(xs:dayTimeDuration("PT90.5S"))"#,
            "30.5",
        ),
        (
            r#"years-from-duration(xs:yearMonthDuration("-P15M"))"#,
            "-1",
        ),
        (
            r#"months-from-duration(xs:yearMonthDuration("-P15M"))"#,
            "-3",
        ),
    ]);
}

#[test]
fn order_by_edge_cases() {
    check_all(&[
        // Stable sort preserves input order for equal keys.
        (
            "for $x in (\"b1\", \"a1\", \"b2\", \"a2\") stable order by substring($x, 1, 1) return $x",
            "a1 a2 b1 b2",
        ),
        // Untyped keys order as strings.
        (
            "for $x in (<v>10</v>, <v>9</v>, <v>1</v>) order by $x return string($x)",
            "1 10 9",
        ),
        // Numeric keys order numerically.
        (
            "for $x in (<v>10</v>, <v>9</v>, <v>1</v>) order by number($x) return string($x)",
            "1 9 10",
        ),
        // Secondary keys break ties.
        (
            "for $x in (21, 12, 11, 22) order by $x mod 10, $x idiv 10 return $x",
            "11 21 12 22",
        ),
        // Descending with an empty key (via a child lookup that may
        // not exist).
        (
            "for $x in (<v><k>1</k></v>, <v/>, <v><k>2</k></v>) order by number($x/k) descending empty greatest return count($x/k)",
            "1 0 1",
        ),
    ]);
}

#[test]
fn collection_function() {
    let engine = Engine::with_options(EngineOptions::default());
    let d1 = engine.load_document("a.xml", "<a><x/></a>").unwrap();
    let d2 = engine.load_document("b.xml", "<b><x/><x/></b>").unwrap();
    let q = engine.compile("count(collection()//x)").unwrap();
    let mut ctx = DynamicContext::new();
    ctx.default_collection = vec![
        xqr::NodeRef::new(d1, xqr::NodeId(0)),
        xqr::NodeRef::new(d2, xqr::NodeId(0)),
    ];
    assert_eq!(both_legs(&engine, &q, &ctx).unwrap(), "3");
    // collection(uri) behaves like doc(uri).
    assert_eq!(
        query_both(&engine, r#"count(collection("b.xml")//x)"#).unwrap(),
        "2"
    );
}

#[test]
fn aggregates_on_non_numeric_types() {
    check_all(&[
        (r#"min(("banana", "apple", "cherry"))"#, "apple"),
        (r#"max(("banana", "apple", "cherry"))"#, "cherry"),
        (
            r#"string(min((xs:date("2004-01-01"), xs:date("1999-12-31"))))"#,
            "1999-12-31",
        ),
        (
            r#"string(max((xs:dayTimeDuration("PT1H"), xs:dayTimeDuration("PT90M"))))"#,
            "PT1H30M",
        ),
        // Untyped values in min/max coerce to double.
        ("min((<v>3</v>, <v>1</v>, <v>2</v>))", "1"),
    ]);
}

#[test]
fn deep_nesting_documents() {
    // A 300-deep document queried end to end (store, axes, string-value).
    let mut xml = String::new();
    for _ in 0..300 {
        xml.push_str("<n>");
    }
    xml.push('x');
    for _ in 0..300 {
        xml.push_str("</n>");
    }
    let engine = Engine::new();
    assert_eq!(query_xml_both(&engine, &xml, "count(//n)").unwrap(), "300");
    assert_eq!(query_xml_both(&engine, &xml, "string(/n)").unwrap(), "x");
    assert_eq!(
        query_xml_both(&engine, &xml, "count((//n)[last()]/ancestor::n)").unwrap(),
        "299"
    );
}

#[test]
fn mixed_document_features_together() {
    // One query exercising constructors + joins + order + aggregates.
    let out = run_once(
        r#"
        let $data := <sales>
            <sale region="east" amount="100"/>
            <sale region="west" amount="250"/>
            <sale region="east" amount="50"/>
            <sale region="west" amount="25"/>
            <sale region="north" amount="70"/>
        </sales>
        for $r in distinct-values($data/sale/@region)
        let $sales := $data/sale[@region = $r]
        order by sum(for $s in $sales return number($s/@amount)) descending
        return <region name="{$r}" total="{sum(for $s in $sales return number($s/@amount))}"/>
        "#,
    );
    assert_eq!(
        out,
        r#"<region name="west" total="275"/><region name="east" total="150"/><region name="north" total="70"/>"#
    );
}

fn run_once(q: &str) -> String {
    let engine = Engine::new();
    engine.load_document("bib.xml", BIB).unwrap();
    query_both(&engine, q).unwrap()
}

#[test]
fn boundary_space_declaration() {
    let engine = Engine::new();
    // Default: strip.
    assert_eq!(query_both(&engine, "<a> <b/> </a>").unwrap(), "<a><b/></a>");
    // Preserve keeps the whitespace text nodes.
    assert_eq!(
        query_both(&engine, "declare boundary-space preserve; <a> <b/> </a>").unwrap(),
        "<a> <b/> </a>"
    );
    assert_eq!(
        query_both(&engine, "declare boundary-space strip; <a> <b/> </a>").unwrap(),
        "<a><b/></a>"
    );
}

#[test]
fn comments_and_pis_as_nodes() {
    check_all(&[
        // Direct comment/PI constructors inside elements.
        ("<a><!--note--></a>", "<a><!--note--></a>"),
        ("<a><?target data?></a>", "<a><?target data?></a>"),
        // Kind tests select them.
        ("count(<a><!--x--><b/><!--y--></a>/comment())", "2"),
        ("string((<a><!--note--></a>/comment())[1])", "note"),
        ("count(<a><?p d?><?q e?></a>/processing-instruction())", "2"),
        (
            "count(<a><?p d?><?q e?></a>/processing-instruction(\"p\"))",
            "1",
        ),
        (
            "name((<a><?tgt d?></a>/processing-instruction())[1])",
            "tgt",
        ),
        (
            "string((<a><?tgt some data?></a>/processing-instruction())[1])",
            "some data",
        ),
        // Comments/PIs are not elements or text.
        ("count(<a><!--x--></a>/*)", "0"),
        ("count(<a><!--x--></a>/text())", "0"),
        // node() sees all child kinds.
        ("count(<a>t<!--c--><?p d?><b/></a>/node())", "4"),
        // typed-value of comments is xs:string (not untyped).
        ("(<a><!--5--></a>/comment()) instance of comment()", "true"),
    ]);
}

#[test]
fn static_typing_strict_engine_mode() {
    use xqr::CompileOptions;
    let strict = Engine::with_options(EngineOptions {
        compile: CompileOptions {
            static_typing: true,
            ..Default::default()
        },
        ..Default::default()
    });
    // Provable type errors are rejected at compile time.
    assert!(strict.compile("\"a\" + 1").map(|_| ()).is_err());
    // Untyped data stays fine (dynamic typing).
    assert_eq!(query_both(&strict, "<a>3</a> + 1").unwrap(), "4");
    // Declared function types are checked statically.
    assert!(strict
        .compile("declare function local:f() as xs:integer { \"s\" }; local:f()")
        .map(|_| ())
        .is_err());
}

#[test]
fn positional_predicates_on_axis_steps() {
    check_all(&[
        // Positional predicates bind per context node on an axis step…
        ("count(doc(\"bib.xml\")//book/author[1])", "4"),
        ("count(doc(\"bib.xml\")//book/author[2])", "1"),
        // …but once per whole sequence on a parenthesized filter.
        ("count((doc(\"bib.xml\")//book/author)[2])", "1"),
        (
            "string(doc(\"bib.xml\")//book[2]/author[2]/last)",
            "Buneman",
        ),
        (
            "string(doc(\"bib.xml\")//book[position() = 3]/title)",
            "Economics of Tech",
        ),
        (
            "string-join(doc(\"bib.xml\")//book[position() gt 2]/title, \";\")",
            "Economics of Tech;Unix Programming",
        ),
        // last() relative to the step's own context sequence.
        (
            "string-join(doc(\"bib.xml\")//book/author[last()]/last, \" \")",
            "Stevens Suciu Shapiro Stevens",
        ),
        (
            "string(doc(\"bib.xml\")//book[last() - 1]/title)",
            "Economics of Tech",
        ),
        // Positional predicate after a non-positional one.
        (
            "string(doc(\"bib.xml\")//book[price > 40][2]/title)",
            "Economics of Tech",
        ),
        // Reverse axes number positions in reverse document order.
        (
            "string(doc(\"bib.xml\")//book[4]/preceding-sibling::book[1]/title)",
            "Economics of Tech",
        ),
        (
            "string(doc(\"bib.xml\")//book[4]/preceding-sibling::book[3]/title)",
            "TCP/IP Illustrated",
        ),
        ("string((doc(\"bib.xml\")//last)[last()])", "Stevens"),
    ]);
}

#[test]
fn backward_axes() {
    check_all(&[
        // ancestor / ancestor-or-self (step results deduplicate: the six
        // `last` elements share `bib` and the four `book`/`author`
        // chains, leaving 11 distinct ancestors).
        ("count(doc(\"bib.xml\")//last/ancestor::*)", "11"),
        ("count(doc(\"bib.xml\")//last/ancestor-or-self::*)", "17"),
        ("count(doc(\"bib.xml\")//first/ancestor::bib)", "1"),
        (
            "string((doc(\"bib.xml\")//last[. = \"Suciu\"]/ancestor::book/title)[1])",
            "Data on the Web",
        ),
        // parent
        ("count(doc(\"bib.xml\")//author/parent::book)", "4"),
        ("count(doc(\"bib.xml\")//title/..)", "4"),
        // preceding covers everything strictly before the context node
        // (ancestors excluded; the earlier books are siblings).
        ("count(doc(\"bib.xml\")//book[3]/preceding::book)", "2"),
        (
            "count(doc(\"bib.xml\")//book[3]/preceding-sibling::book)",
            "2",
        ),
        ("count(doc(\"bib.xml\")//book[3]/preceding::author)", "4"),
        // Results come back in document order regardless of axis
        // direction.
        (
            "string-join(doc(\"bib.xml\")//book[3]/preceding-sibling::book/title, \";\")",
            "TCP/IP Illustrated;Data on the Web",
        ),
        // A backward axis composed after a forward one.
        (
            "count(doc(\"bib.xml\")//price/preceding-sibling::author/last)",
            "6",
        ),
        ("count(doc(\"bib.xml\")//price/ancestor::book/author)", "6"),
    ]);
}

/// The structural-join execution path (element lists + stack joins) must
/// agree with exhaustive navigation on the same conformance document the
/// engine-level sections above use.
#[test]
fn twig_joins_agree_with_navigation_on_bib() {
    use std::sync::Arc;
    use xqr::xqr_joins::{element_list, enumerate_matches, path_stack, twig_stack, TwigPattern};
    use xqr::Document;
    use xqr_xdm::NamePool;

    let names = Arc::new(NamePool::new());
    let doc = Document::parse(BIB, names.clone()).unwrap();
    for pattern in [
        "//book//last",
        "//book/author",
        "//book/author/last",
        "//bib//author//first",
        "//book[author]/title",
        "//book[author/last]/price",
    ] {
        let twig = TwigPattern::parse(pattern, &names).unwrap();
        let lists: Vec<_> = twig
            .nodes
            .iter()
            .map(|n| element_list(&doc, n.name))
            .collect();
        let mut want = enumerate_matches(&doc, &twig);
        want.sort();
        want.dedup();
        if twig.is_path() {
            assert_eq!(path_stack(&twig, &lists), want, "path_stack {pattern}");
        }
        let (got, _) = twig_stack(&twig, &lists);
        assert_eq!(got, want, "twig_stack {pattern}");
    }
}
