//! Expression analysis — the talk's "XQuery expression analysis" slide,
//! verbatim: "How many times does an expression use a variable? Is an
//! expression using a variable as part of a loop? Can the result contain
//! newly created nodes? Can an expression raise user errors? Is an
//! expression guaranteed to return results in doc order / distinct
//! results?"
//!
//! Every rewrite rule consults these predicates for its safety
//! conditions, so they are deliberately conservative: `false`/`Many`
//! answers are always sound.

use crate::core_expr::{Core, CoreClause, VarId};
use std::collections::HashMap;
use xqr_xqparser::ast::AxisName;

/// How often a variable is used (loop-aware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UseCount {
    Zero,
    /// Exactly one use, not inside a loop/function argument position.
    Once,
    /// More than once, or at least once under a loop.
    Many,
}

impl UseCount {
    fn add(self, other: UseCount) -> UseCount {
        use UseCount::*;
        match (self, other) {
            (Zero, x) | (x, Zero) => x,
            _ => Many,
        }
    }

    fn under_loop(self) -> UseCount {
        match self {
            UseCount::Zero => UseCount::Zero,
            _ => UseCount::Many,
        }
    }
}

/// Count the uses of `var` in `e` — the LET-folding precondition
/// "(a) only once and (b) not part of a loop".
pub(crate) fn var_use(e: &Core, var: VarId) -> UseCount {
    match e {
        Core::Var(v) if *v == var => UseCount::Once,
        Core::For { source, body, .. }
        | Core::Quantified {
            source,
            satisfies: body,
            ..
        } => {
            // Body runs once per binding: uses inside count as Many.
            var_use(source, var).add(var_use(body, var).under_loop())
        }
        Core::OrderedFlwor {
            clauses,
            where_clause,
            order,
            body,
            ..
        } => {
            let mut n = UseCount::Zero;
            for c in clauses {
                n = n.add(match c {
                    CoreClause::For { source, .. } => var_use(source, var),
                    CoreClause::Let { value, .. } => var_use(value, var),
                    CoreClause::GroupLet {
                        inner,
                        inner_key,
                        outer_key,
                        match_body,
                        ..
                    } => var_use(inner, var)
                        .add(var_use(inner_key, var).under_loop())
                        .add(var_use(outer_key, var).under_loop())
                        .add(var_use(match_body, var).under_loop()),
                });
            }
            if let Some(w) = where_clause {
                n = n.add(var_use(w, var).under_loop());
            }
            for o in order {
                n = n.add(var_use(&o.key, var).under_loop());
            }
            n.add(var_use(body, var).under_loop())
        }
        Core::Filter { input, predicate } => {
            // Predicate runs once per item.
            var_use(input, var).add(var_use(predicate, var).under_loop())
        }
        Core::PathMap { input, step } => var_use(input, var).add(var_use(step, var).under_loop()),
        Core::UserCall(_, args) => {
            // Function bodies may use parameters many times; do not
            // inline through calls.
            let mut n = UseCount::Zero;
            for a in args {
                n = n.add(var_use(a, var).under_loop());
            }
            n
        }
        _ => {
            let mut n = UseCount::Zero;
            e.for_each_child(&mut |c| n = n.add(var_use(c, var)));
            n
        }
    }
}

/// Does evaluating `e` construct new nodes? (XQuery's only side effect;
/// gates LET folding, CSE and loop hoisting.)
pub(crate) fn creates_nodes(e: &Core) -> bool {
    match e {
        Core::ElemCtor { .. }
        | Core::AttrCtor { .. }
        | Core::TextCtor(_)
        | Core::CommentCtor(_)
        | Core::PiCtor { .. }
        | Core::DocCtor(_) => true,
        // Calls may construct in the callee; conservative.
        Core::UserCall(..) => true,
        // fn:doc/collection return *stable* existing documents (the doc
        // cache guarantees one identity per URI), so they do not count
        // as node construction.
        Core::Builtin(_, args) => args.iter().any(creates_nodes),
        _ => {
            let mut any = false;
            e.for_each_child(&mut |c| any |= creates_nodes(c));
            any
        }
    }
}

/// Can evaluating `e` raise a dynamic error? Conservative: only
/// obviously-safe shapes return `false`. Gates speculation (hoisting a
/// `where` out of a loop evaluates it even when the loop is empty).
pub(crate) fn can_raise_error(e: &Core) -> bool {
    match e {
        Core::Const(_) | Core::Empty | Core::Var(_) | Core::Root | Core::ContextItem => false,
        Core::Step { .. } => false,
        Core::Seq(items) => items.iter().any(can_raise_error),
        Core::Ddo(inner) | Core::Ebv(inner) => can_raise_error(inner),
        Core::PathMap { input, step } => can_raise_error(input) || can_raise_error(step),
        Core::Filter { input, predicate } => can_raise_error(input) || can_raise_error(predicate),
        Core::PositionConst { input, .. } => can_raise_error(input),
        Core::For { source, body, .. } => can_raise_error(source) || can_raise_error(body),
        Core::Let { value, body, .. } => can_raise_error(value) || can_raise_error(body),
        Core::If {
            cond,
            then_branch,
            else_branch,
        } => can_raise_error(cond) || can_raise_error(then_branch) || can_raise_error(else_branch),
        Core::And(a, b)
        | Core::Or(a, b)
        | Core::Union(a, b)
        | Core::Intersect(a, b)
        | Core::Except(a, b) => can_raise_error(a) || can_raise_error(b),
        Core::ElemCtor { name, content, .. } => {
            matches!(name, crate::core_expr::CoreName::Computed(_))
                || content.iter().any(can_raise_error)
        }
        Core::TextCtor(inner) | Core::CommentCtor(inner) | Core::DocCtor(inner) => {
            can_raise_error(inner)
        }
        Core::Builtin(name, args) => {
            // A few builtins are total on any input.
            let total = matches!(
                *name,
                "count"
                    | "empty"
                    | "exists"
                    | "true"
                    | "false"
                    | "not"
                    | "position"
                    | "last"
                    | "string"
                    | "concat"
                    | "reverse"
                    | "trace"
                    | "unordered"
            );
            !total || args.iter().any(can_raise_error)
        }
        // Arithmetic (division by zero, type errors), comparisons (type
        // errors), casts, user calls, quantifiers over erroring sources…
        _ => true,
    }
}

/// Ordering/distinctness facts about a node-sequence expression — the
/// talk's semantic table for path expressions:
///
/// * `/a/b/c` — ordered & distinct;
/// * `/a//b` — ordered & distinct;
/// * `//a/b` — **not** ordered, but distinct;
/// * `//a//b` — nothing guaranteed.
///
/// `non_nesting` is the auxiliary fact that makes the table compute:
/// a set of nodes none of which is an ancestor of another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OrderFacts {
    pub ordered: bool,
    pub distinct: bool,
    pub non_nesting: bool,
    /// At most one item (stronger than ordered+distinct).
    pub max_one: bool,
}

impl OrderFacts {
    pub(crate) const UNKNOWN: OrderFacts = OrderFacts {
        ordered: false,
        distinct: false,
        non_nesting: false,
        max_one: false,
    };

    pub(crate) const SINGLE: OrderFacts = OrderFacts {
        ordered: true,
        distinct: true,
        non_nesting: true,
        max_one: true,
    };

    /// Is a ddo on top of an expression with these facts redundant?
    pub(crate) fn ddo_redundant(&self) -> bool {
        (self.ordered && self.distinct) || self.max_one
    }
}

/// Facts for one axis step applied to a source with `src` facts.
fn step_facts(axis: AxisName, src: OrderFacts) -> OrderFacts {
    match axis {
        AxisName::SelfAxis => src,
        AxisName::Child | AxisName::Attribute | AxisName::Namespace => OrderFacts {
            // Children of nested sources interleave out of order.
            ordered: src.ordered && src.non_nesting,
            distinct: src.distinct,
            // Children of disjoint subtrees are disjoint; children of a
            // single node are siblings.
            non_nesting: src.non_nesting,
            max_one: false,
        },
        AxisName::Descendant | AxisName::DescendantOrSelf => OrderFacts {
            ordered: src.ordered && src.non_nesting,
            distinct: src.distinct && src.non_nesting,
            non_nesting: false,
            max_one: false,
        },
        AxisName::Parent => OrderFacts {
            ordered: src.ordered,
            // Two siblings share a parent.
            distinct: src.max_one,
            non_nesting: src.max_one,
            max_one: src.max_one,
        },
        _ => OrderFacts::UNKNOWN,
    }
}

/// Compute ordering facts for `e`. Context items and `for`-bound
/// variables are single items; other variables take their facts from
/// `vars` (the optimizer seeds globals and binders), defaulting to
/// unknown.
pub(crate) fn order_facts_with(e: &Core, vars: &HashMap<VarId, OrderFacts>) -> OrderFacts {
    match e {
        Core::Root | Core::ContextItem | Core::Const(_) => OrderFacts::SINGLE,
        Core::Empty => OrderFacts {
            ordered: true,
            distinct: true,
            non_nesting: true,
            max_one: true,
        },
        Core::Var(v) => vars.get(v).copied().unwrap_or(OrderFacts::UNKNOWN),
        // doc()/document() return at most one document node.
        Core::Builtin(name, _) if matches!(*name, "doc" | "document" | "root") => {
            OrderFacts::SINGLE
        }
        Core::Ddo(inner) => {
            let f = order_facts_with(inner, vars);
            OrderFacts {
                ordered: true,
                distinct: true,
                non_nesting: f.non_nesting,
                max_one: f.max_one,
            }
        }
        Core::Step { axis, .. } => step_facts(*axis, OrderFacts::SINGLE),
        Core::PathMap { input, step } => {
            let src = order_facts_with(input, vars);
            match &**step {
                Core::Step { axis, .. } => step_facts(*axis, src),
                // Steps that are themselves paths from the context item:
                // compose facts step by step.
                Core::PathMap { .. }
                | Core::Ddo(_)
                | Core::Filter { .. }
                | Core::PositionConst { .. } => compose_context_facts(src, step),
                _ => OrderFacts::UNKNOWN,
            }
        }
        Core::Filter { input, .. } => {
            let f = order_facts_with(input, vars);
            // Filtering preserves order/distinctness/non-nesting.
            OrderFacts {
                max_one: false,
                ..f
            }
        }
        Core::PositionConst { .. } => OrderFacts::SINGLE,
        Core::If {
            then_branch,
            else_branch,
            ..
        } => {
            let t = order_facts_with(then_branch, vars);
            let f = order_facts_with(else_branch, vars);
            OrderFacts {
                ordered: t.ordered && f.ordered,
                distinct: t.distinct && f.distinct,
                non_nesting: t.non_nesting && f.non_nesting,
                max_one: t.max_one && f.max_one,
            }
        }
        Core::Let { var, value, body } => {
            let mut inner = vars.clone();
            inner.insert(*var, order_facts_with(value, vars));
            order_facts_with(body, &inner)
        }
        _ => OrderFacts::UNKNOWN,
    }
}

/// Facts for an expression evaluated with a context of facts `src`
/// (each context item is a single node; the per-item results
/// concatenate in src order).
fn compose_context_facts(src: OrderFacts, e: &Core) -> OrderFacts {
    match e {
        Core::ContextItem => src,
        Core::Step { axis, .. } => step_facts(*axis, src),
        Core::PathMap { input, step } => {
            let inner = compose_context_facts(src, input);
            match &**step {
                Core::Step { axis, .. } => step_facts(*axis, inner),
                other => compose_context_facts(inner, other),
            }
        }
        Core::Ddo(inner) => {
            let f = compose_context_facts(src, inner);
            // Per-item ddo does NOT globally sort; facts stay as computed
            // except per-context-item order which we cannot exploit.
            f
        }
        Core::Filter { input, .. } => {
            let f = compose_context_facts(src, input);
            OrderFacts {
                max_one: false,
                ..f
            }
        }
        _ => OrderFacts::UNKNOWN,
    }
}

/// Does the query anywhere require node identity (the talk's on-demand
/// node-id analysis, experiment E11)? Identity is needed by `is`,
/// `<<`/`>>`, `union/intersect/except`, ddo, parent/ancestor access and
/// `distinct-nodes`; plain construct-and-serialize pipelines do not
/// need it.
pub(crate) fn needs_node_identity(e: &Core) -> bool {
    use xqr_xqparser::ast::CompOp;
    match e {
        Core::Compare(CompOp::Is | CompOp::Before | CompOp::After, _, _) => true,
        Core::Union(..) | Core::Intersect(..) | Core::Except(..) | Core::Ddo(_) => true,
        Core::Builtin(name, args) => {
            *name == "distinct-nodes" || args.iter().any(needs_node_identity)
        }
        Core::Step { axis, .. } => {
            matches!(
                axis,
                AxisName::Parent | AxisName::Ancestor | AxisName::AncestorOrSelf
            )
        }
        _ => {
            let mut any = false;
            e.for_each_child(&mut |c| any |= needs_node_identity(c));
            any
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_module;
    use xqr_xqparser::parse_query;

    fn body(src: &str) -> Core {
        normalize_module(&parse_query(src).unwrap()).unwrap().body
    }

    #[test]
    fn var_use_counts() {
        // let $x := 1 return $x + $x  → Many
        let e = body("let $x := 1 return $x + $x");
        match &e {
            Core::Let { var, body, .. } => assert_eq!(var_use(body, *var), UseCount::Many),
            other => panic!("{other:?}"),
        }
        let e = body("let $x := 1 return $x + 2");
        match &e {
            Core::Let { var, body, .. } => assert_eq!(var_use(body, *var), UseCount::Once),
            other => panic!("{other:?}"),
        }
        let e = body("let $x := 1 return 2");
        match &e {
            Core::Let { var, body, .. } => assert_eq!(var_use(body, *var), UseCount::Zero),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn var_use_under_loop_is_many() {
        let e = body("let $y := 1 return for $x in (1,2) return $y");
        match &e {
            Core::Let { var, body, .. } => assert_eq!(var_use(body, *var), UseCount::Many),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_creation_detection() {
        assert!(creates_nodes(&body("<a/>")));
        assert!(creates_nodes(&body("for $x in (1,2) return <a/>")));
        assert!(!creates_nodes(&body("1 + 2")));
        assert!(!creates_nodes(&body("let $x := 1 return ($x, $x)")));
        assert!(creates_nodes(&body("element foo { 1 }")));
    }

    #[test]
    fn error_capability() {
        assert!(!can_raise_error(&body("()")));
        assert!(!can_raise_error(&body("(1, 2, 3)")));
        assert!(can_raise_error(&body("1 idiv 0")));
        assert!(can_raise_error(&body("1 + 2"))); // arithmetic conservative
        assert!(!can_raise_error(&body("count((1,2))")));
    }

    #[test]
    fn path_order_facts_match_talk_table() {
        // The talk's table assumes the classic `//x → descendant::x`
        // rewrite (the `dos-collapse` rule in `rewrite.rs`); these are
        // the post-rewrite shapes.
        // /a/b/c — ordered & distinct
        let e = strip_ddo(&body("/a/b/c"));
        let f = order_facts_with(&e, &HashMap::new());
        assert!(f.ordered && f.distinct, "{f:?}");
        // /a//b ≡ /a/descendant::b — ordered & distinct
        let e = strip_ddo(&body("/a/descendant::b"));
        let f = order_facts_with(&e, &HashMap::new());
        assert!(f.ordered && f.distinct, "{f:?}");
        // //a/b ≡ /descendant::a/b — not ordered, but distinct
        let e = strip_ddo(&body("/descendant::a/b"));
        let f = order_facts_with(&e, &HashMap::new());
        assert!(!f.ordered, "{f:?}");
        assert!(f.distinct, "{f:?}");
        // //a//b — nothing guaranteed
        let e = strip_ddo(&body("/descendant::a/descendant::b"));
        let f = order_facts_with(&e, &HashMap::new());
        assert!(!f.ordered && !f.distinct, "{f:?}");
    }

    #[test]
    fn raw_double_slash_form_is_distinct_only() {
        // Without the rewrite, `/a//b` is dos::node()/child::b — the
        // child step from a nesting context loses the order guarantee
        // but keeps distinctness.
        let e = strip_ddo(&body("/a//b"));
        let f = order_facts_with(&e, &HashMap::new());
        assert!(f.distinct, "{f:?}");
    }

    /// Peel the outermost Ddo (and the Let for the variable decl) to look
    /// at the raw path facts.
    fn strip_ddo(e: &Core) -> Core {
        match e {
            Core::Ddo(inner) => strip_ddo(inner),
            other => other.clone(),
        }
    }

    #[test]
    fn node_identity_analysis() {
        assert!(needs_node_identity(&body(
            "declare variable $a := <a/>; $a is $a"
        )));
        assert!(needs_node_identity(&body(
            "declare variable $a := <a/>; $a/b union $a/c"
        )));
        // A pure construct-and-return pipeline: paths require ddo → id.
        assert!(needs_node_identity(&body(
            "declare variable $a := <a/>; $a/b"
        )));
        // Constructed output with no path/identity ops does not.
        assert!(!needs_node_identity(&body("<a>{1 + 2}</a>")));
        assert!(!needs_node_identity(&body(
            "for $x in (1,2) return <v>{$x}</v>"
        )));
    }
}
