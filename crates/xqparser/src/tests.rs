//! Parser unit tests, organized by language area.

use crate::ast::*;
use crate::parser::{parse_query, FN_NS, XS_NS};
use xqr_xdm::{AtomicValue, ErrorCode, ItemType, Occurrence, QName, SequenceType};

/// Parse a standalone expression (no prolog).
fn parse_expr(src: &str) -> xqr_xdm::Result<Expr> {
    Ok(parse_query(src)?.body)
}

fn p(src: &str) -> Expr {
    parse_expr(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"))
}

fn perr(src: &str) -> xqr_xdm::Error {
    parse_expr(src).expect_err(&format!("expected parse failure for {src:?}"))
}

mod literals {
    use super::*;

    #[test]
    fn numeric_literals() {
        assert!(matches!(
            p("150"),
            Expr::Literal(AtomicValue::Integer(150), _)
        ));
        assert!(matches!(
            p("125.0"),
            Expr::Literal(AtomicValue::Decimal(_), _)
        ));
        assert!(matches!(
            p("125.e2"),
            Expr::Literal(AtomicValue::Double(_), _)
        ));
        assert!(matches!(
            p("1.5E-2"),
            Expr::Literal(AtomicValue::Double(_), _)
        ));
        assert!(matches!(p(".5"), Expr::Literal(AtomicValue::Decimal(_), _)));
    }

    #[test]
    fn string_literals() {
        match p(r#""hello""#) {
            Expr::Literal(AtomicValue::String(s), _) => assert_eq!(&*s, "hello"),
            other => panic!("{other:?}"),
        }
        match p(r#"'it''s'"#) {
            Expr::Literal(AtomicValue::String(s), _) => assert_eq!(&*s, "it's"),
            other => panic!("{other:?}"),
        }
        match p(r#""a""b""#) {
            Expr::Literal(AtomicValue::String(s), _) => assert_eq!(&*s, "a\"b"),
            other => panic!("{other:?}"),
        }
        match p(r#""x &amp; y""#) {
            Expr::Literal(AtomicValue::String(s), _) => assert_eq!(&*s, "x & y"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_sequence_and_parens() {
        assert!(matches!(p("()"), Expr::Sequence(v, _) if v.is_empty()));
        assert!(matches!(
            p("(1)"),
            Expr::Literal(AtomicValue::Integer(1), _)
        ));
        assert!(matches!(p("(1, 2, 3)"), Expr::Sequence(v, _) if v.len() == 3));
    }

    #[test]
    fn comments_are_skipped() {
        assert!(matches!(
            p("(: c :) 1"),
            Expr::Literal(AtomicValue::Integer(1), _)
        ));
        assert!(matches!(
            p("1 (: nested (: inner :) outer :) + 2"),
            Expr::Arith(ArithOp::Add, _, _, _)
        ));
    }
}

mod operators {
    use super::*;

    #[test]
    fn arithmetic_precedence() {
        // 1 - (4 * 8.5) shape: Sub at top
        match p("1 - 4 * 8.5") {
            Expr::Arith(ArithOp::Sub, _, rhs, _) => {
                assert!(matches!(*rhs, Expr::Arith(ArithOp::Mul, _, _, _)));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(p("5 div 6"), Expr::Arith(ArithOp::Div, _, _, _)));
        assert!(matches!(p("7 idiv 2"), Expr::Arith(ArithOp::IDiv, _, _, _)));
        assert!(matches!(p("b mod 10"), Expr::Arith(ArithOp::Mod, _, _, _)));
    }

    #[test]
    fn unary_minus() {
        assert!(matches!(p("-55.5"), Expr::Neg(_, _)));
        assert!(matches!(
            p("--1"),
            Expr::Literal(AtomicValue::Integer(1), _)
        ));
        assert!(matches!(p("+1"), Expr::Literal(AtomicValue::Integer(1), _)));
    }

    #[test]
    fn comparisons_all_families() {
        assert!(matches!(
            p("1 eq 2"),
            Expr::Comparison(CompOp::ValEq, _, _, _)
        ));
        assert!(matches!(
            p("1 = 2"),
            Expr::Comparison(CompOp::GenEq, _, _, _)
        ));
        assert!(matches!(
            p("1 != 2"),
            Expr::Comparison(CompOp::GenNe, _, _, _)
        ));
        assert!(matches!(
            p("1 <= 2"),
            Expr::Comparison(CompOp::GenLe, _, _, _)
        ));
        assert!(matches!(
            p("$a is $b"),
            Expr::Comparison(CompOp::Is, _, _, _)
        ));
        assert!(matches!(
            p("$a << $b"),
            Expr::Comparison(CompOp::Before, _, _, _)
        ));
        assert!(matches!(
            p("$a >> $b"),
            Expr::Comparison(CompOp::After, _, _, _)
        ));
    }

    #[test]
    fn logic_and_ranges() {
        assert!(matches!(p("1 and 2"), Expr::And(_, _, _)));
        assert!(matches!(p("1 or 2 and 3"), Expr::Or(_, _, _)));
        assert!(matches!(p("1 to 3"), Expr::Range(_, _, _)));
    }

    #[test]
    fn set_operators() {
        assert!(matches!(p("$x union $y"), Expr::Union(_, _, _)));
        assert!(matches!(p("($x, $y) | $z"), Expr::Union(_, _, _)));
        assert!(matches!(p("$x intersect $y"), Expr::Intersect(_, _, _)));
        assert!(matches!(p("$x except $y"), Expr::Except(_, _, _)));
    }

    #[test]
    fn type_operators() {
        assert!(matches!(
            p("5 instance of xs:integer"),
            Expr::InstanceOf(_, _, _)
        ));
        assert!(matches!(p("5 cast as xs:string"), Expr::CastAs(_, _, _)));
        assert!(matches!(
            p("$x castable as xs:integer"),
            Expr::CastableAs(_, _, _)
        ));
        assert!(matches!(p("$x treat as node()+"), Expr::TreatAs(_, _, _)));
        match p("5 instance of xs:integer?") {
            Expr::InstanceOf(_, SequenceType::Of(_, Occurrence::Optional), _) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_is_operator_after_operand_wildcard_at_operand() {
        assert!(matches!(p("2 * 3"), Expr::Arith(ArithOp::Mul, _, _, _)));
        // In a path step position, * is a wildcard.
        match p("$x/*") {
            Expr::Path(_, step, _) => match *step {
                Expr::AxisStep {
                    test: NodeTest::AnyName,
                    ..
                } => {}
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }
}

mod paths {
    use super::*;

    #[test]
    fn abbreviated_and_full_axes() {
        // $x/child::person == $x/person
        let a = p("$x/child::person");
        let b = p("$x/person");
        match (&a, &b) {
            (Expr::Path(_, s1, _), Expr::Path(_, s2, _)) => {
                let ax1 = match &**s1 {
                    Expr::AxisStep { axis, .. } => *axis,
                    other => panic!("{other:?}"),
                };
                let ax2 = match &**s2 {
                    Expr::AxisStep { axis, .. } => *axis,
                    other => panic!("{other:?}"),
                };
                assert_eq!(ax1, ax2);
                assert_eq!(ax1, AxisName::Child);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attribute_abbreviation() {
        match p("$x/@year") {
            Expr::Path(_, step, _) => match *step {
                Expr::AxisStep {
                    axis: AxisName::Attribute,
                    test: NodeTest::Name(q),
                    ..
                } => {
                    assert_eq!(q, QName::local("year"));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn double_slash_desugars() {
        // $x//b == $x/descendant-or-self::node()/b
        match p("$x//b") {
            Expr::Path(lhs, _, _) => match *lhs {
                Expr::Path(_, dos, _) => match *dos {
                    Expr::AxisStep {
                        axis: AxisName::DescendantOrSelf,
                        test: NodeTest::AnyKind,
                        ..
                    } => {}
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rooted_paths() {
        assert!(matches!(p("/"), Expr::Root(_)));
        match p("/bib") {
            Expr::Path(root, _, _) => assert!(matches!(*root, Expr::Root(_))),
            other => panic!("{other:?}"),
        }
        assert!(matches!(p("//book"), Expr::Path(_, _, _)));
    }

    #[test]
    fn parent_abbreviation() {
        match p("$x/..") {
            Expr::Path(_, step, _) => {
                assert!(matches!(
                    *step,
                    Expr::AxisStep {
                        axis: AxisName::Parent,
                        test: NodeTest::AnyKind,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicates_on_steps_and_primaries() {
        match p("//book[3]") {
            Expr::Path(_, step, _) => match *step {
                Expr::AxisStep { predicates, .. } => assert_eq!(predicates.len(), 1),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        assert!(matches!(p("$x[1]"), Expr::Filter(_, _, _)));
        assert!(matches!(p("(1, 2, 3)[2]"), Expr::Filter(_, _, _)));
        // The classical mistake slide: $x/a/b[1] is $x/a/(b[1])
        match p("$x/a/b[1]") {
            Expr::Path(_, step, _) => {
                assert!(
                    matches!(*step, Expr::AxisStep { ref predicates, .. } if predicates.len() == 1)
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn kind_tests() {
        match p("$x/text()") {
            Expr::Path(_, step, _) => {
                assert!(matches!(
                    *step,
                    Expr::AxisStep {
                        test: NodeTest::Text,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
        match p("$x/comment()") {
            Expr::Path(_, step, _) => {
                assert!(matches!(
                    *step,
                    Expr::AxisStep {
                        test: NodeTest::Comment,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
        match p("$x/child::element(book)") {
            Expr::Path(_, step, _) => match *step {
                Expr::AxisStep {
                    test: NodeTest::Element(Some(q)),
                    ..
                } => {
                    assert_eq!(q.local_name(), "book");
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        match p("$x/attribute::attribute(*, xs:integer)") {
            Expr::Path(_, step, _) => {
                assert!(matches!(
                    *step,
                    Expr::AxisStep {
                        test: NodeTest::Attribute(None),
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcards() {
        match p("$x/*:publisher") {
            Expr::Path(_, step, _) => match *step {
                Expr::AxisStep {
                    test: NodeTest::LocalWildcard(l),
                    ..
                } => {
                    assert_eq!(l, "publisher")
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        let q = parse_query("declare namespace myNS = \"urn:m\"; $x/myNS:*").unwrap();
        match q.body {
            Expr::Path(_, step, _) => match *step {
                Expr::AxisStep {
                    test: NodeTest::NamespaceWildcard(ns),
                    ..
                } => {
                    assert_eq!(ns, "urn:m")
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reverse_axes() {
        let e = p("$x/ancestor::*");
        match e {
            Expr::Path(_, step, _) => {
                assert!(matches!(
                    *step,
                    Expr::AxisStep {
                        axis: AxisName::Ancestor,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_as_step() {
        // $x/f(.) — any expression can be a step.
        match p("$x/f(.)") {
            Expr::Path(_, step, _) => {
                assert!(matches!(*step, Expr::FunctionCall(_, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbound_prefix_in_path_errors() {
        let e = perr("$x/zz:name");
        assert_eq!(e.code, ErrorCode::UnboundPrefix);
    }
}

mod flwor {
    use super::*;

    #[test]
    fn basic_for_let_where_return() {
        let e =
            p(r#"for $x in //bib/book let $y := $x/author where $x/title = "U" return count($y)"#);
        match e {
            Expr::Flwor {
                clauses,
                where_clause,
                order_by,
                return_clause,
                ..
            } => {
                assert_eq!(clauses.len(), 2);
                assert!(matches!(clauses[0], FlworClause::For { .. }));
                assert!(matches!(clauses[1], FlworClause::Let { .. }));
                assert!(where_clause.is_some());
                assert!(order_by.is_empty());
                assert!(matches!(*return_clause, Expr::FunctionCall(_, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiple_for_bindings() {
        let e = p("for $b in //book, $p in //publisher return ($b, $p)");
        match e {
            Expr::Flwor { clauses, .. } => assert_eq!(clauses.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn positional_variable() {
        let e = p("for $x at $i in (1 to 10) return $i");
        match e {
            Expr::Flwor { clauses, .. } => match &clauses[0] {
                FlworClause::For { position, .. } => {
                    assert_eq!(position.as_ref().unwrap(), &QName::local("i"))
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn typed_bindings() {
        let e = p("for $x as xs:integer in (1,2) return $x");
        match e {
            Expr::Flwor { clauses, .. } => match &clauses[0] {
                FlworClause::For { ty, .. } => assert_eq!(
                    ty.clone().unwrap(),
                    SequenceType::atomic(xqr_xdm::AtomicType::Integer)
                ),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_variants() {
        let e = p("for $x in //a order by $x/b descending empty least, $x/c return $x");
        match e {
            Expr::Flwor {
                order_by, stable, ..
            } => {
                assert_eq!(order_by.len(), 2);
                assert!(order_by[0].descending);
                assert_eq!(order_by[0].empty_least, Some(true));
                assert!(!order_by[1].descending);
                assert!(!stable);
            }
            other => panic!("{other:?}"),
        }
        let e = p("for $x in //a stable order by $x return $x");
        assert!(matches!(e, Expr::Flwor { stable: true, .. }));
    }

    #[test]
    fn quantified_expressions() {
        let e = p("some $x in (1, 2, 3) satisfies $x eq 1");
        assert!(matches!(e, Expr::Quantified { every: false, .. }));
        let e = p("every $x in //a, $y in //b satisfies $x eq $y");
        match e {
            Expr::Quantified {
                every: true,
                bindings,
                ..
            } => assert_eq!(bindings.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn conditional() {
        let e = p("if ($book/@year < 1980) then <old/> else <new/>");
        assert!(matches!(e, Expr::If { .. }));
    }

    #[test]
    fn typeswitch_expression() {
        let e = p(
            "typeswitch ($x) case $a as xs:integer return 1 case xs:string return 2 default $d return 3",
        );
        match e {
            Expr::Typeswitch {
                cases, default_var, ..
            } => {
                assert_eq!(cases.len(), 2);
                assert!(cases[0].var.is_some());
                assert!(cases[1].var.is_none());
                assert_eq!(default_var.unwrap(), QName::local("d"));
            }
            other => panic!("{other:?}"),
        }
    }
}

mod constructors {
    use super::*;

    #[test]
    fn direct_element_literal_content() {
        let e = p("<result>literal text</result>");
        match e {
            Expr::DirectElement {
                name,
                attributes,
                content,
                ..
            } => {
                assert_eq!(name, QName::local("result"));
                assert!(attributes.is_empty());
                assert_eq!(content.len(), 1);
                assert!(matches!(&content[0], DirContent::Text(t) if t == "literal text"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn enclosed_expressions() {
        let e = p("<result>{$x/name}</result>");
        match e {
            Expr::DirectElement { content, .. } => {
                assert_eq!(content.len(), 1);
                assert!(matches!(&content[0], DirContent::Enclosed(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mixed_content_and_escapes() {
        let e = p("<r>a {{not expr}} b {1+1} c</r>");
        match e {
            Expr::DirectElement { content, .. } => {
                assert_eq!(content.len(), 3);
                assert!(matches!(&content[0], DirContent::Text(t) if t == "a {not expr} b "));
                assert!(matches!(&content[1], DirContent::Enclosed(_)));
                assert!(matches!(&content[2], DirContent::Text(t) if t == " c"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attribute_value_templates() {
        let e = p(r#"<tp name="{$tp/@name}" fixed="yes"/>"#);
        match e {
            Expr::DirectElement { attributes, .. } => {
                assert_eq!(attributes.len(), 2);
                assert!(matches!(&attributes[0].1[0], AttrPart::Enclosed(_)));
                assert!(matches!(&attributes[1].1[0], AttrPart::Text(t) if t == "yes"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_elements() {
        let e = p("<a><b>x</b><c/></a>");
        match e {
            Expr::DirectElement { content, .. } => {
                assert_eq!(content.len(), 2);
                assert!(matches!(
                    &content[0],
                    DirContent::Child(Expr::DirectElement { .. })
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn boundary_whitespace_stripped() {
        let e = p("<a>\n  <b/>\n  <c/>\n</a>");
        match e {
            Expr::DirectElement { content, .. } => {
                assert_eq!(content.len(), 2, "{content:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constructor_namespace_scoping() {
        // The talk's nested-scopes example: xmlns on the constructor
        // affects names inside, including enclosed query expressions.
        let q = parse_query(
            r#"declare namespace ns = "uri1";
               <b xmlns:ns="uri2">{ $x/ns:b }</b>"#,
        )
        .unwrap();
        match q.body {
            Expr::DirectElement {
                content,
                namespaces,
                ..
            } => {
                assert_eq!(namespaces.len(), 1);
                match &content[0] {
                    DirContent::Enclosed(Expr::Path(_, step, _)) => match &**step {
                        Expr::AxisStep {
                            test: NodeTest::Name(q),
                            ..
                        } => {
                            assert_eq!(q.namespace(), Some("uri2"));
                        }
                        other => panic!("{other:?}"),
                    },
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        // And outside the constructor, ns still means uri1.
        let q2 = parse_query(
            r#"declare namespace ns = "uri1";
               (<b xmlns:ns="uri2">x</b>, $x/ns:b)"#,
        )
        .unwrap();
        match q2.body {
            Expr::Sequence(items, _) => match &items[1] {
                Expr::Path(_, step, _) => match &**step {
                    Expr::AxisStep {
                        test: NodeTest::Name(q),
                        ..
                    } => {
                        assert_eq!(q.namespace(), Some("uri1"));
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn default_namespace_on_constructor() {
        let e = p(r#"<a xmlns="urn:d"><b/></a>"#);
        match e {
            Expr::DirectElement { name, content, .. } => {
                assert_eq!(name.namespace(), Some("urn:d"));
                match &content[0] {
                    DirContent::Child(Expr::DirectElement { name, .. }) => {
                        assert_eq!(name.namespace(), Some("urn:d"));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn computed_constructors() {
        assert!(matches!(
            p("element foo { 1 }"),
            Expr::ComputedElement { .. }
        ));
        assert!(matches!(
            p("element { $n } { 1 }"),
            Expr::ComputedElement { .. }
        ));
        assert!(matches!(
            p("attribute year { 1967 }"),
            Expr::ComputedAttribute { .. }
        ));
        assert!(matches!(p("text { \"x\" }"), Expr::ComputedText(_, _)));
        assert!(matches!(
            p("comment { \"x\" }"),
            Expr::ComputedComment(_, _)
        ));
        assert!(matches!(
            p("document { <a/> }"),
            Expr::ComputedDocument(_, _)
        ));
    }

    #[test]
    fn element_as_path_step_still_works() {
        // `element` not followed by `{` must stay a name test.
        match p("$x/element") {
            Expr::Path(_, step, _) => match *step {
                Expr::AxisStep {
                    test: NodeTest::Name(q),
                    ..
                } => {
                    assert_eq!(q.local_name(), "element")
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn talk_style_comment_in_constructor() {
        let e = p("<a>{-- a note --}<b/></a>");
        match e {
            Expr::DirectElement { content, .. } => assert_eq!(content.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn entity_refs_in_content() {
        let e = p("<a>&lt;tag&gt; &amp; more</a>");
        match e {
            Expr::DirectElement { content, .. } => {
                assert!(matches!(&content[0], DirContent::Text(t) if t == "<tag> & more"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constructor_errors() {
        assert!(parse_expr("<a><b></a></b>").is_err());
        assert!(parse_expr("<a>").is_err());
        let e = perr(r#"<a x="1" x="2"/>"#);
        assert_eq!(e.code, ErrorCode::DuplicateAttribute);
        assert!(parse_expr("<a>}</a>").is_err());
    }
}

mod prolog {
    use super::*;

    #[test]
    fn namespace_declarations() {
        let m = parse_query(r#"declare namespace foo = "urn:foo"; <foo:a/>"#).unwrap();
        assert_eq!(m.prolog.namespaces.len(), 1);
        match m.body {
            Expr::DirectElement { name, .. } => assert_eq!(name.namespace(), Some("urn:foo")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn default_element_namespace() {
        let m = parse_query(r#"declare default element namespace "urn:d"; $x/book"#).unwrap();
        match m.body {
            Expr::Path(_, step, _) => match *step {
                Expr::AxisStep {
                    test: NodeTest::Name(q),
                    ..
                } => {
                    assert_eq!(q.namespace(), Some("urn:d"))
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn variable_declarations() {
        let m = parse_query(
            r#"declare variable $x as xs:integer external;
               declare variable $y := 42;
               $x + $y"#,
        )
        .unwrap();
        assert_eq!(m.prolog.variables.len(), 2);
        assert!(m.prolog.variables[0].value.is_none());
        assert!(m.prolog.variables[1].value.is_some());
    }

    #[test]
    fn function_declarations() {
        let m = parse_query(
            r#"declare function ns:foo($x as xs:integer) as element() { <a>{$x + 1}</a> };
               declare namespace ns = "urn:n";
               1"#,
        );
        // ns declared after use → unbound prefix error is acceptable;
        // declare ns first instead:
        assert!(m.is_err() || m.is_ok());
        let m = parse_query(
            r#"declare namespace ns = "urn:n";
               declare function ns:foo($x as xs:integer) as element() { <a>{$x + 1}</a> };
               ns:foo(2)"#,
        )
        .unwrap();
        assert_eq!(m.prolog.functions.len(), 1);
        let f = &m.prolog.functions[0];
        assert_eq!(f.name.namespace(), Some("urn:n"));
        assert_eq!(f.params.len(), 1);
        assert!(f.body.is_some());
        assert!(matches!(m.body, Expr::FunctionCall(_, _, _)));
    }

    #[test]
    fn unprefixed_function_goes_to_local() {
        let m = parse_query("declare function add($a, $b) { $a + $b }; add(1, 2)").unwrap();
        assert_eq!(
            m.prolog.functions[0].name.namespace(),
            Some(crate::parser::LOCAL_NS)
        );
    }

    #[test]
    fn old_style_define_variable() {
        let m = parse_query("define variable $zero as xs:integer {0} $zero").unwrap();
        assert_eq!(m.prolog.variables.len(), 1);
    }

    #[test]
    fn external_functions() {
        let m = parse_query(
            r#"declare namespace bea = "urn:bea";
               declare function bea:foo() as node()* external;
               bea:foo()"#,
        )
        .unwrap();
        assert!(m.prolog.functions[0].body.is_none());
    }
}

mod functions {
    use super::*;

    #[test]
    fn function_calls_resolve_to_default_fn_namespace() {
        match p("count($x)") {
            Expr::FunctionCall(name, args, _) => {
                assert_eq!(name.namespace(), Some(FN_NS));
                assert_eq!(args.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn xs_constructor_functions() {
        match p(r#"xs:date("2002-05-20")"#) {
            Expr::FunctionCall(name, _, _) => {
                assert_eq!(name.namespace(), Some(XS_NS));
                assert_eq!(name.local_name(), "date");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_calls_and_sequences() {
        match p("concat(\"a\", \"b\", string(1))") {
            Expr::FunctionCall(_, args, _) => assert_eq!(args.len(), 3),
            other => panic!("{other:?}"),
        }
        assert!(matches!(p("true()"), Expr::FunctionCall(_, _, _)));
    }
}

mod types {
    use super::*;

    #[test]
    fn sequence_types() {
        match p("$x instance of element(book)*") {
            Expr::InstanceOf(
                _,
                SequenceType::Of(ItemType::Kind(_, _), Occurrence::ZeroOrMore),
                _,
            ) => {}
            other => panic!("{other:?}"),
        }
        match p("$x instance of empty()") {
            Expr::InstanceOf(_, SequenceType::Empty, _) => {}
            other => panic!("{other:?}"),
        }
        match p("$x instance of item()+") {
            Expr::InstanceOf(_, SequenceType::Of(ItemType::AnyItem, Occurrence::OneOrMore), _) => {}
            other => panic!("{other:?}"),
        }
        match p("$x instance of document-node()") {
            Expr::InstanceOf(_, SequenceType::Of(ItemType::Kind(_, _), Occurrence::One), _) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_type_errors() {
        assert!(parse_expr("$x instance of xs:nothing").is_err());
        assert!(parse_expr("$x cast as xs:nope").is_err());
    }
}

mod errors {
    use super::*;

    #[test]
    fn syntax_errors_have_positions() {
        let e = perr("1 +");
        assert!(e.position.is_some());
        assert_eq!(e.code, ErrorCode::Syntax);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_expr("1 1").is_err());
        // Note: "1 )" — the ')' is trailing garbage too.
        assert!(parse_expr("1 )").is_err());
    }

    #[test]
    fn unterminated_things() {
        assert!(parse_expr("\"abc").is_err());
        assert!(parse_expr("(1, 2").is_err());
        assert!(parse_expr("for $x in (1,2) where 1").is_err());
    }
}

mod big_queries {
    use super::*;

    /// A condensed version of the talk's 60%-of-a-real-customer
    /// trading-partner query — the parser must handle the nesting depth
    /// and constructor/FLWOR interleaving.
    #[test]
    fn trading_partner_query_parses() {
        let q = r#"
            let $wlc := doc("tests/ebsample/data/ebSample.xml")
            let $tp-list :=
              for $tp in $wlc/wlc/trading-partner
              return
                <trading-partner
                  name="{$tp/@name}"
                  business-id="{$tp/party-identifier/@business-id}"
                  type="{$tp/@type}">
                  { for $tp-ad in $tp/address return $tp-ad }
                  { for $eps in $wlc/extended-property-set
                    where $tp/@extended-property-set-name eq $eps/@name
                    return $eps }
                  { for $client-cert in $tp/client-certificate
                    return <client-certificate name="{$client-cert/@name}"></client-certificate> }
                  {
                    for $eb-dc in $tp/delivery-channel
                    for $eb-de in $tp/document-exchange
                    for $eb-tp in $tp/transport
                    where $eb-dc/@document-exchange-name eq $eb-de/@name
                      and $eb-dc/@transport-name eq $eb-tp/@name
                      and $eb-de/@business-protocol-name eq "ebXML"
                    return
                      <ebxml-binding name="{$eb-dc/@name}">
                        {
                          if (empty($eb-de/EBXML-binding/@retries))
                          then ()
                          else $eb-de/EBXML-binding/@retries
                        }
                        <transport protocol="{$eb-tp/@protocol}"
                                   endpoint="{$eb-tp/endpoint[1]/@uri}">
                          {
                            for $ca in $wlc/wlc/collaboration-agreement
                            for $p1 in $ca/party[1]
                            for $p2 in $ca/party[2]
                            where $p1/@delivery-channel-name eq $eb-dc/@name
                            return
                              if ($p1/@trading-partner-name = $tp/@name)
                              then <authentication client-partner-name="{$p2/@name}"/>
                              else <authentication client-partner-name="{$p1/@name}"/>
                          }
                        </transport>
                      </ebxml-binding>
                  }
                </trading-partner>
            return <result>{ $tp-list }</result>
        "#;
        let m = parse_query(q).unwrap();
        assert!(matches!(m.body, Expr::Flwor { .. }));
    }

    #[test]
    fn deeply_nested_expressions() {
        let mut q = String::new();
        for _ in 0..150 {
            q.push('(');
        }
        q.push('1');
        for _ in 0..150 {
            q.push(')');
        }
        assert!(matches!(p(&q), Expr::Literal(AtomicValue::Integer(1), _)));
    }

    #[test]
    fn pathological_nesting_fails_gracefully() {
        // Past the guard: a limit error, not a stack overflow.
        let mut q = String::new();
        for _ in 0..500 {
            q.push('(');
        }
        q.push('1');
        for _ in 0..500 {
            q.push(')');
        }
        let e = super::parse_expr(&q).unwrap_err();
        assert_eq!(e.code, ErrorCode::Limit);
    }
}
