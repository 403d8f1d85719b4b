//! AST → query text. The inverse of the parser, used for plan debugging
//! ("lineage through all those representations", per the talk) and for
//! the print→parse→print fixpoint property test.
//!
//! Output favours explicitness over beauty: every operand is
//! parenthesized where precedence could bite, string literals use
//! doubled-quote escaping, and constructor content escapes `{`/`}`/`<`.

use crate::ast::*;
use xqr_xdm::AtomicValue;

/// Render a whole module (prolog + body).
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    if m.prolog.boundary_space_preserve {
        out.push_str("declare boundary-space preserve;\n");
    }
    for (prefix, uri) in &m.prolog.namespaces {
        out.push_str(&format!(
            "declare namespace {prefix} = \"{}\";\n",
            escape_str(uri)
        ));
    }
    if let Some(uri) = &m.prolog.default_element_ns {
        out.push_str(&format!(
            "declare default element namespace \"{}\";\n",
            escape_str(uri)
        ));
    }
    if let Some(uri) = &m.prolog.default_function_ns {
        out.push_str(&format!(
            "declare default function namespace \"{}\";\n",
            escape_str(uri)
        ));
    }
    for v in &m.prolog.variables {
        out.push_str("declare variable $");
        out.push_str(&v.name.lexical());
        if let Some(ty) = &v.ty {
            out.push_str(&format!(" as {ty}"));
        }
        match &v.value {
            Some(e) => out.push_str(&format!(" := {}", print_expr(e))),
            None => out.push_str(" external"),
        }
        out.push_str(";\n");
    }
    for f in &m.prolog.functions {
        out.push_str("declare function ");
        out.push_str(&f.name.lexical());
        out.push('(');
        for (i, (p, ty)) in f.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('$');
            out.push_str(&p.lexical());
            if let Some(t) = ty {
                out.push_str(&format!(" as {t}"));
            }
        }
        out.push(')');
        if let Some(t) = &f.return_type {
            out.push_str(&format!(" as {t}"));
        }
        match &f.body {
            Some(b) => out.push_str(&format!(" {{ {} }};\n", print_expr(b))),
            None => out.push_str(" external;\n"),
        }
    }
    out.push_str(&print_expr(&m.body));
    out
}

fn escape_str(s: &str) -> String {
    s.replace('"', "\"\"").replace('&', "&amp;")
}

fn axis_prefix(axis: AxisName) -> &'static str {
    match axis {
        AxisName::Child => "child::",
        AxisName::Descendant => "descendant::",
        AxisName::DescendantOrSelf => "descendant-or-self::",
        AxisName::Attribute => "attribute::",
        AxisName::SelfAxis => "self::",
        AxisName::Parent => "parent::",
        AxisName::Ancestor => "ancestor::",
        AxisName::AncestorOrSelf => "ancestor-or-self::",
        AxisName::FollowingSibling => "following-sibling::",
        AxisName::PrecedingSibling => "preceding-sibling::",
        AxisName::Following => "following::",
        AxisName::Preceding => "preceding::",
        AxisName::Namespace => "namespace::",
    }
}

fn print_test(t: &NodeTest) -> String {
    match t {
        NodeTest::Name(q) => q.lexical(),
        NodeTest::AnyName => "*".into(),
        NodeTest::NamespaceWildcard(_uri) => {
            // The prefix is gone after resolution; print `*` (matches a
            // superset — acceptable for debugging output, flagged here).
            "*".into()
        }
        NodeTest::LocalWildcard(local) => format!("*:{local}"),
        NodeTest::AnyKind => "node()".into(),
        NodeTest::Text => "text()".into(),
        NodeTest::Comment => "comment()".into(),
        NodeTest::Pi(Some(t)) => format!("processing-instruction(\"{t}\")"),
        NodeTest::Pi(None) => "processing-instruction()".into(),
        NodeTest::Document => "document-node()".into(),
        NodeTest::Element(Some(q)) => format!("element({})", q.lexical()),
        NodeTest::Element(None) => "element()".into(),
        NodeTest::Attribute(Some(q)) => format!("attribute({})", q.lexical()),
        NodeTest::Attribute(None) => "attribute()".into(),
    }
}

fn print_literal(v: &AtomicValue) -> String {
    match v {
        AtomicValue::String(s) => format!("\"{}\"", s.replace('"', "\"\"")),
        AtomicValue::Integer(i) => i.to_string(),
        AtomicValue::Decimal(d) => {
            let s = d.to_string();
            if s.contains('.') {
                s
            } else {
                format!("{s}.0")
            }
        }
        AtomicValue::Double(d) => format!("{d:e}"),
        other => format!("\"{}\"", other.string_value().replace('"', "\"\"")),
    }
}

/// Render one expression.
pub(crate) fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v, _) => print_literal(v),
        Expr::VarRef(q, _) => format!("${}", q.lexical()),
        Expr::ContextItem(_) => ".".into(),
        Expr::Root(_) => "(/)".into(),
        Expr::Sequence(items, _) => {
            let inner: Vec<String> = items.iter().map(print_expr).collect();
            format!("({})", inner.join(", "))
        }
        Expr::Range(a, b, _) => format!("({} to {})", print_expr(a), print_expr(b)),
        Expr::Arith(op, a, b, _) => {
            format!("({} {} {})", print_expr(a), op.symbol(), print_expr(b))
        }
        Expr::Neg(a, _) => format!("(-{})", print_expr(a)),
        Expr::Comparison(op, a, b, _) => {
            format!("({} {} {})", print_expr(a), op.symbol(), print_expr(b))
        }
        Expr::And(a, b, _) => format!("({} and {})", print_expr(a), print_expr(b)),
        Expr::Or(a, b, _) => format!("({} or {})", print_expr(a), print_expr(b)),
        Expr::Union(a, b, _) => format!("({} union {})", print_expr(a), print_expr(b)),
        Expr::Intersect(a, b, _) => {
            format!("({} intersect {})", print_expr(a), print_expr(b))
        }
        Expr::Except(a, b, _) => format!("({} except {})", print_expr(a), print_expr(b)),
        Expr::Path(lhs, rhs, _) => format!("{}/{}", print_expr(lhs), print_expr(rhs)),
        Expr::AxisStep {
            axis,
            test,
            predicates,
            ..
        } => {
            let mut s = format!("{}{}", axis_prefix(*axis), print_test(test));
            for p in predicates {
                s.push_str(&format!("[{}]", print_expr(p)));
            }
            s
        }
        Expr::Filter(inner, predicates, _) => {
            let mut s = format!("({})", print_expr(inner));
            for p in predicates {
                s.push_str(&format!("[{}]", print_expr(p)));
            }
            s
        }
        Expr::FunctionCall(name, args, _) => {
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{}({})", name.lexical(), args.join(", "))
        }
        Expr::Flwor {
            clauses,
            where_clause,
            order_by,
            stable,
            return_clause,
            ..
        } => {
            let mut s = String::new();
            for c in clauses {
                match c {
                    FlworClause::For {
                        var,
                        position,
                        ty,
                        source,
                    } => {
                        s.push_str(&format!("for ${}", var.lexical()));
                        if let Some(t) = ty {
                            s.push_str(&format!(" as {t}"));
                        }
                        if let Some(p) = position {
                            s.push_str(&format!(" at ${}", p.lexical()));
                        }
                        s.push_str(&format!(" in {} ", print_expr(source)));
                    }
                    FlworClause::Let { var, ty, value } => {
                        s.push_str(&format!("let ${}", var.lexical()));
                        if let Some(t) = ty {
                            s.push_str(&format!(" as {t}"));
                        }
                        s.push_str(&format!(" := {} ", print_expr(value)));
                    }
                }
            }
            if let Some(w) = where_clause {
                s.push_str(&format!("where {} ", print_expr(w)));
            }
            if !order_by.is_empty() {
                if *stable {
                    s.push_str("stable ");
                }
                s.push_str("order by ");
                for (i, spec) in order_by.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&print_expr(&spec.key));
                    if spec.descending {
                        s.push_str(" descending");
                    }
                    match spec.empty_least {
                        Some(true) => s.push_str(" empty least"),
                        Some(false) => s.push_str(" empty greatest"),
                        None => {}
                    }
                }
                s.push(' ');
            }
            s.push_str(&format!("return {}", print_expr(return_clause)));
            format!("({s})")
        }
        Expr::Quantified {
            every,
            bindings,
            satisfies,
            ..
        } => {
            let kw = if *every { "every" } else { "some" };
            let binds: Vec<String> = bindings
                .iter()
                .map(|(v, ty, src)| {
                    let t = ty.as_ref().map(|t| format!(" as {t}")).unwrap_or_default();
                    format!("${}{} in {}", v.lexical(), t, print_expr(src))
                })
                .collect();
            format!(
                "({kw} {} satisfies {})",
                binds.join(", "),
                print_expr(satisfies)
            )
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => format!(
            "(if ({}) then {} else {})",
            print_expr(cond),
            print_expr(then_branch),
            print_expr(else_branch)
        ),
        Expr::Typeswitch {
            operand,
            cases,
            default_var,
            default_body,
            ..
        } => {
            let mut s = format!("(typeswitch ({})", print_expr(operand));
            for c in cases {
                s.push_str(" case ");
                if let Some(v) = &c.var {
                    s.push_str(&format!("${} as ", v.lexical()));
                }
                s.push_str(&format!("{} return {}", c.ty, print_expr(&c.body)));
            }
            s.push_str(" default ");
            if let Some(v) = default_var {
                s.push_str(&format!("${} ", v.lexical()));
            }
            s.push_str(&format!("return {})", print_expr(default_body)));
            s
        }
        Expr::InstanceOf(a, ty, _) => format!("({} instance of {ty})", print_expr(a)),
        Expr::CastAs(a, ty, _) => format!("({} cast as {})", print_expr(a), single_ty(ty)),
        Expr::CastableAs(a, ty, _) => {
            format!("({} castable as {})", print_expr(a), single_ty(ty))
        }
        Expr::TreatAs(a, ty, _) => format!("({} treat as {ty})", print_expr(a)),
        Expr::DirectElement {
            name,
            attributes,
            namespaces,
            content,
            ..
        } => {
            let mut s = format!("<{}", name.lexical());
            for (prefix, uri) in namespaces {
                match prefix {
                    Some(p) => s.push_str(&format!(" xmlns:{p}=\"{}\"", escape_attr(uri))),
                    None => s.push_str(&format!(" xmlns=\"{}\"", escape_attr(uri))),
                }
            }
            for (aname, parts) in attributes {
                s.push_str(&format!(" {}=\"", aname.lexical()));
                for part in parts {
                    match part {
                        AttrPart::Text(t) => s.push_str(&escape_attr(t)),
                        AttrPart::Enclosed(e) => s.push_str(&format!("{{{}}}", print_expr(e))),
                    }
                }
                s.push('"');
            }
            if content.is_empty() {
                s.push_str("/>");
            } else {
                s.push('>');
                for c in content {
                    match c {
                        DirContent::Text(t) => s.push_str(&escape_content(t)),
                        DirContent::Enclosed(e) => s.push_str(&format!("{{{}}}", print_expr(e))),
                        DirContent::Child(e) => s.push_str(&print_expr(e)),
                    }
                }
                s.push_str(&format!("</{}>", name.lexical()));
            }
            s
        }
        Expr::ComputedElement { name, content, .. } => {
            computed("element", name, content.as_deref())
        }
        Expr::ComputedAttribute { name, content, .. } => {
            computed("attribute", name, content.as_deref())
        }
        Expr::ComputedText(e, _) => format!("text {{ {} }}", print_expr(e)),
        Expr::ComputedComment(e, _) => format!("comment {{ {} }}", print_expr(e)),
        Expr::ComputedPi {
            target, content, ..
        } => computed("processing-instruction", target, content.as_deref()),
        Expr::ComputedDocument(e, _) => format!("document {{ {} }}", print_expr(e)),
        Expr::Ordered(e, _) => format!("ordered {{ {} }}", print_expr(e)),
        Expr::Unordered(e, _) => format!("unordered {{ {} }}", print_expr(e)),
    }
}

fn single_ty(ty: &xqr_xdm::SequenceType) -> String {
    ty.to_string()
}

fn computed(kw: &str, name: &NameOrExpr, content: Option<&Expr>) -> String {
    let n = match name {
        NameOrExpr::Name(q) => q.lexical(),
        NameOrExpr::Expr(e) => format!("{{ {} }}", print_expr(e)),
    };
    match content {
        Some(c) => format!("{kw} {n} {{ {} }}", print_expr(c)),
        None => format!("{kw} {n} {{ }}"),
    }
}

fn escape_attr(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('"', "&quot;")
        .replace('<', "&lt;")
        .replace('{', "{{")
        .replace('}', "}}")
}

fn escape_content(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('{', "{{")
        .replace('}', "}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    /// print → parse → print must be a fixpoint (positions differ, text
    /// must not).
    fn fixpoint(query: &str) {
        let m1 = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
        let p1 = print_module(&m1);
        let m2 = parse_query(&p1).unwrap_or_else(|e| panic!("printed {p1:?}: {e}"));
        let p2 = print_module(&m2);
        assert_eq!(p1, p2, "printer not a fixpoint for {query:?}");
    }

    #[test]
    fn expressions_roundtrip() {
        for q in [
            "1 + 2 * 3",
            "(1, 2, 3)[2]",
            "-5.5",
            "1 to 10",
            "\"it''s\"",
            "$x/a/b[1]/@c",
            "//book[author/last eq \"Laing\"]",
            "for $x at $i in (1, 2) where $x gt 1 order by $x descending empty least return $x + $i",
            "some $x in (1, 2), $y in (3, 4) satisfies $x eq $y",
            "if (1 lt 2) then \"y\" else \"n\"",
            "typeswitch (5) case $v as xs:integer return $v default return 0",
            "5 instance of xs:integer?",
            "\"5\" cast as xs:integer",
            "$x treat as node()+",
            "count((1, 2)) + sum((3, 4))",
            "$a union $b intersect $c",
            "let $x := <a b=\"{1+1}\">t{2}u</a> return $x",
            "element foo { attribute bar { 1 }, \"x\" }",
            "text { \"hi\" }",
            "unordered { //a }",
            "$x/ancestor::*[1]",
            "/child::a/descendant-or-self::node()/child::b",
        ] {
            fixpoint(q);
        }
    }

    #[test]
    fn boundary_space_roundtrips() {
        fixpoint("declare boundary-space preserve; <a> <b/> </a>");
    }

    #[test]
    fn modules_roundtrip() {
        fixpoint(
            "declare namespace m = \"urn:m\";
             declare variable $k as xs:integer := 5;
             declare variable $ext external;
             declare function m:f($x as xs:integer) as xs:integer { $x + $k };
             m:f(2) + count($ext)",
        );
    }

    #[test]
    fn printed_queries_evaluate_identically() {
        // A few closed queries: parse→print→parse→normalize must be
        // semantically stable (checked structurally via second print).
        for q in [
            "sum(for $x in (1 to 5) return $x * $x)",
            "string-join((\"a\", \"b\"), \"-\")",
            "<r>{ for $i in (1, 2) return <i v=\"{$i}\"/> }</r>",
        ] {
            fixpoint(q);
        }
    }

    #[test]
    fn escaping_in_printed_constructors() {
        fixpoint("<a>x {{ y }} &amp; z</a>");
        fixpoint("<a b=\"q&quot;w\"/>");
        fixpoint("<a>&lt;not-a-tag&gt;</a>");
    }
}
