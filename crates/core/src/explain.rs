//! Plan explanation: a readable rendering of the compiled core tree plus
//! optimizer statistics — the engine's answer to the talk's "debugging
//! and explaining XQuery behavior" open problem.

use xqr_compiler::{CompiledQuery, Core, CoreClause, CoreName};

/// Render a compiled query: body plan, per-function plans, rewrite stats.
pub(crate) fn explain(query: &CompiledQuery) -> String {
    let mut out = String::new();
    out.push_str(&format!("body type: {}\n", query.body_type));
    out.push_str(&format!("needs node ids: {}\n", query.needs_node_ids));
    if !query.stats.is_empty() {
        let mut stats: Vec<_> = query.stats.iter().collect();
        stats.sort();
        out.push_str("rewrites:\n");
        for (rule, n) in stats {
            out.push_str(&format!("  {rule}: {n}\n"));
        }
    }
    for f in &query.module.functions {
        out.push_str(&format!("function {}#{}:\n", f.name, f.params.len()));
        render(&f.body, 1, &mut out);
    }
    out.push_str("plan:\n");
    render(&query.module.body, 1, &mut out);
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render(e: &Core, depth: usize, out: &mut String) {
    indent(depth, out);
    let label = match e {
        Core::Const(v) => format!("const {} ({})", v, v.type_of().name()),
        Core::Empty => "empty".into(),
        Core::Seq(items) => format!("sequence[{}]", items.len()),
        Core::Range(..) => "range".into(),
        Core::Var(v) => format!("var ${}", v.0),
        Core::ContextItem => "context-item".into(),
        Core::Root => "root".into(),
        Core::For { var, position, .. } => match position {
            Some(p) => format!("for ${} at ${}", var.0, p.0),
            None => format!("for ${}", var.0),
        },
        Core::Let { var, .. } => format!("let ${}", var.0),
        Core::OrderedFlwor { clauses, order, .. } => {
            let kinds: Vec<&str> = clauses
                .iter()
                .map(|c| match c {
                    CoreClause::For { .. } => "for",
                    CoreClause::Let { .. } => "let",
                    CoreClause::GroupLet { .. } => "group-join-let",
                })
                .collect();
            format!("flwor[{}] order-by[{}]", kinds.join(","), order.len())
        }
        Core::If { .. } => "if".into(),
        Core::And(..) => "and".into(),
        Core::Or(..) => "or".into(),
        Core::Ebv(_) => "ebv".into(),
        Core::Arith(op, ..) => format!("arith {}", op.symbol()),
        Core::Neg(_) => "neg".into(),
        Core::Compare(op, ..) => format!("compare {}", op.symbol()),
        Core::Quantified { every, var, .. } => {
            format!("{} ${}", if *every { "every" } else { "some" }, var.0)
        }
        Core::Union(..) => "union".into(),
        Core::Intersect(..) => "intersect".into(),
        Core::Except(..) => "except".into(),
        Core::Step { axis, test } => format!("step {:?}::{:?}", axis, test),
        Core::PathMap { .. } => "path-map".into(),
        Core::Ddo(_) => "ddo (sort + dedup)".into(),
        Core::Filter { .. } => "filter".into(),
        Core::PositionConst { position, .. } => format!("position [{position}] (skip-enabled)"),
        Core::Builtin(name, args) => format!("fn:{name}#{}", args.len()),
        Core::UserCall(fid, args) => format!("call #{}#{}", fid.0, args.len()),
        Core::InstanceOf(_, ty) => format!("instance-of {ty}"),
        Core::CastAs(_, ty, _) => format!("cast {}", ty.name()),
        Core::CastableAs(_, ty, _) => format!("castable {}", ty.name()),
        Core::TreatAs(_, ty) => format!("treat {ty}"),
        Core::Typeswitch { cases, .. } => format!("typeswitch[{}]", cases.len()),
        Core::ElemCtor { name, .. } => match name {
            CoreName::Const(q) => format!("element <{q}>"),
            CoreName::Computed(_) => "element <computed>".into(),
        },
        Core::AttrCtor { name, .. } => match name {
            CoreName::Const(q) => format!("attribute @{q}"),
            CoreName::Computed(_) => "attribute @computed".into(),
        },
        Core::TextCtor(_) => "text-ctor".into(),
        Core::CommentCtor(_) => "comment-ctor".into(),
        Core::PiCtor { .. } => "pi-ctor".into(),
        Core::DocCtor(_) => "document-ctor".into(),
        Core::IndexScan { pattern, .. } => {
            format!("index-scan {pattern} (fallback: navigation)")
        }
        Core::HashJoin { group, .. } => {
            if group.is_some() {
                "hash-group-join".into()
            } else {
                "hash-join".into()
            }
        }
    };
    out.push_str(&label);
    out.push('\n');
    e.for_each_child(&mut |c| render(c, depth + 1, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_compiler::{compile, CompileOptions};

    #[test]
    fn explain_renders_plan_and_stats() {
        let q = compile(
            "for $x in (1, 2) where $x eq 2 return <r>{$x}</r>",
            &CompileOptions::default(),
        )
        .unwrap();
        let text = explain(&q);
        assert!(text.contains("plan:"), "{text}");
        assert!(text.contains("for $"), "{text}");
        assert!(text.contains("element <r>"), "{text}");
        assert!(text.contains("body type:"), "{text}");
    }

    #[test]
    fn explain_shows_join_and_skip_operators() {
        let q = compile(
            "declare variable $a external; declare variable $b external;
             for $x in $a return for $y in $b return if ($x/k = $y/k) then 1 else ()",
            &CompileOptions::default(),
        )
        .unwrap();
        let text = explain(&q);
        assert!(text.contains("hash-join"), "{text}");
        let q = compile("(1 to 10)[5]", &CompileOptions::default()).unwrap();
        assert!(explain(&q).contains("skip-enabled"));
    }
}
