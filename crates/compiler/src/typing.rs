//! Static type inference over the core tree — the talk's compilation
//! step 3 and the basis of the type-based rewrites ("inferred types for
//! expressions very useful for optimization").
//!
//! Untyped-data semantics (no schema import): element content is
//! `xdt:untypedAtomic`, so the inferred types are structural
//! (node kinds, occurrence) plus exact atomic types for literals and
//! casts. Inference never fails on dynamic-only concerns; the optional
//! strict mode reports provable type errors (the talk's goal 1: "detect
//! statically errors in the queries").

use crate::core_expr::*;
use std::collections::HashMap;
use xqr_xdm::{AtomicType, Error, ItemType, NameTest, NodeKind, Occurrence, Result, SequenceType};
use xqr_xqparser::ast::{AxisName, CompOp, NodeTest};

/// Typing environment: register types plus the function table.
pub(crate) struct TypeEnv<'a> {
    pub functions: &'a [CoreFunction],
    vars: HashMap<VarId, SequenceType>,
    /// Errors found in strict mode.
    pub errors: Vec<Error>,
    pub strict: bool,
}

impl<'a> TypeEnv<'a> {
    pub(crate) fn new(functions: &'a [CoreFunction]) -> Self {
        TypeEnv {
            functions,
            vars: HashMap::new(),
            errors: Vec::new(),
            strict: false,
        }
    }

    pub(crate) fn strict(functions: &'a [CoreFunction]) -> Self {
        TypeEnv {
            functions,
            vars: HashMap::new(),
            errors: Vec::new(),
            strict: true,
        }
    }

    pub(crate) fn bind(&mut self, var: VarId, ty: SequenceType) {
        self.vars.insert(var, ty);
    }

    fn var_type(&self, var: VarId) -> SequenceType {
        self.vars.get(&var).cloned().unwrap_or(SequenceType::ANY)
    }
}

fn atomic(t: AtomicType) -> SequenceType {
    SequenceType::atomic(t)
}

fn boolean() -> SequenceType {
    atomic(AtomicType::Boolean)
}

/// Numeric promotion for arithmetic results.
fn numeric_lub(a: AtomicType, b: AtomicType) -> AtomicType {
    use AtomicType::*;
    match (a, b) {
        (Double, _) | (_, Double) => Double,
        (Float, _) | (_, Float) => Float,
        (Decimal, _) | (_, Decimal) => Decimal,
        _ => Integer,
    }
}

/// The atomized type of a sequence type (`fn:data` result).
fn atomized(ty: &SequenceType) -> SequenceType {
    match ty {
        SequenceType::Empty => SequenceType::Empty,
        SequenceType::Of(item, occ) => {
            let at = match item {
                ItemType::Atomic(a) => *a,
                // Untyped data model: node typed-values are untyped.
                _ => AtomicType::UntypedAtomic,
            };
            SequenceType::Of(ItemType::Atomic(at), *occ)
        }
    }
}

fn step_item_type(axis: AxisName, test: &NodeTest) -> ItemType {
    let kind = match axis {
        AxisName::Attribute => NodeKind::Attribute,
        AxisName::Namespace => NodeKind::Namespace,
        _ => NodeKind::Element,
    };
    match test {
        NodeTest::Name(q) => ItemType::Kind(kind, NameTest::Name(q.clone())),
        NodeTest::AnyName | NodeTest::NamespaceWildcard(_) | NodeTest::LocalWildcard(_) => {
            ItemType::Kind(kind, NameTest::Any)
        }
        NodeTest::AnyKind => ItemType::AnyNode,
        NodeTest::Text => ItemType::Kind(NodeKind::Text, NameTest::Any),
        NodeTest::Comment => ItemType::Kind(NodeKind::Comment, NameTest::Any),
        NodeTest::Pi(_) => ItemType::Kind(NodeKind::ProcessingInstruction, NameTest::Any),
        NodeTest::Document => ItemType::Kind(NodeKind::Document, NameTest::Any),
        NodeTest::Element(n) => ItemType::Kind(
            NodeKind::Element,
            n.clone().map_or(NameTest::Any, NameTest::Name),
        ),
        NodeTest::Attribute(n) => ItemType::Kind(
            NodeKind::Attribute,
            n.clone().map_or(NameTest::Any, NameTest::Name),
        ),
    }
}

/// Infer the static type of `e` under `env`.
pub(crate) fn infer(e: &Core, env: &mut TypeEnv<'_>) -> SequenceType {
    use Core::*;
    match e {
        Const(v) => atomic(v.type_of()),
        Empty => SequenceType::Empty,
        Seq(items) => {
            let mut ty = SequenceType::Empty;
            for i in items {
                let t = infer(i, env);
                ty = ty.concat(&t);
            }
            ty
        }
        Range(_, _) => SequenceType::zero_or_more(ItemType::Atomic(AtomicType::Integer)),
        Var(v) => env.var_type(*v),
        ContextItem => SequenceType::one(ItemType::AnyItem),
        Root => SequenceType::one(ItemType::Kind(NodeKind::Document, NameTest::Any)),
        For {
            var,
            position,
            source,
            body,
        } => {
            let src = infer(source, env);
            env.bind(*var, src.item_one());
            if let Some(p) = position {
                env.bind(*p, atomic(AtomicType::Integer));
            }
            let b = infer(body, env);
            src.for_loop(&b)
        }
        Let { var, value, body } => {
            let v = infer(value, env);
            env.bind(*var, v);
            infer(body, env)
        }
        OrderedFlwor { clauses, body, .. } => {
            let mut multiplier = Occurrence::One;
            for c in clauses {
                match c {
                    CoreClause::For {
                        var,
                        position,
                        source,
                    } => {
                        let src = infer(source, env);
                        env.bind(*var, src.item_one());
                        if let Some(p) = position {
                            env.bind(*p, atomic(AtomicType::Integer));
                        }
                        if let Some(o) = src.occurrence() {
                            multiplier = multiplier.for_loop(o);
                        } else {
                            return SequenceType::Empty;
                        }
                    }
                    CoreClause::Let { var, value } => {
                        let v = infer(value, env);
                        env.bind(*var, v);
                    }
                    CoreClause::GroupLet {
                        var,
                        inner_var,
                        inner,
                        match_body,
                        ..
                    } => {
                        let it = infer(inner, env);
                        env.bind(*inner_var, it.item_one());
                        let mt = infer(match_body, env);
                        let grouped = match mt {
                            SequenceType::Empty => SequenceType::Empty,
                            SequenceType::Of(item, _) => SequenceType::zero_or_more(item),
                        };
                        env.bind(*var, grouped);
                    }
                }
            }
            let b = infer(body, env);
            // `where` can drop tuples; loosen to allow empty.
            match b {
                SequenceType::Empty => SequenceType::Empty,
                SequenceType::Of(item, _) => SequenceType::zero_or_more(item),
            }
        }
        If {
            then_branch,
            else_branch,
            ..
        } => {
            let t = infer(then_branch, env);
            let f = infer(else_branch, env);
            t.union(&f)
        }
        And(..) | Or(..) | Ebv(_) | Quantified { .. } | InstanceOf(..) | CastableAs(..) => {
            boolean()
        }
        Arith(_, a, b) => {
            let ta = atomized(&infer(a, env));
            let tb = atomized(&infer(b, env));
            if env.strict {
                for t in [&ta, &tb] {
                    if let SequenceType::Of(ItemType::Atomic(at), _) = t {
                        if !at.is_numeric()
                            && !matches!(
                                at,
                                AtomicType::UntypedAtomic
                                    | AtomicType::AnyAtomic
                                    | AtomicType::Date
                                    | AtomicType::Time
                                    | AtomicType::DateTime
                                    | AtomicType::Duration
                                    | AtomicType::YearMonthDuration
                                    | AtomicType::DayTimeDuration
                            )
                        {
                            env.errors.push(Error::type_error(format!(
                                "arithmetic on non-numeric type {}",
                                at.name()
                            )));
                        }
                    }
                }
            }
            let result_item = match (&ta, &tb) {
                (
                    SequenceType::Of(ItemType::Atomic(x), _),
                    SequenceType::Of(ItemType::Atomic(y), _),
                ) if x.is_numeric() && y.is_numeric() => ItemType::Atomic(numeric_lub(*x, *y)),
                _ => ItemType::Atomic(AtomicType::AnyAtomic),
            };
            // Empty operand → empty result: occurrence optional unless
            // both sides are exactly-one.
            let occ = match (ta.occurrence(), tb.occurrence()) {
                (Some(Occurrence::One), Some(Occurrence::One)) => Occurrence::One,
                (None, _) | (_, None) => return SequenceType::Empty,
                _ => Occurrence::Optional,
            };
            SequenceType::Of(result_item, occ)
        }
        Neg(a) => {
            let t = atomized(&infer(a, env));
            match t {
                SequenceType::Empty => SequenceType::Empty,
                SequenceType::Of(ItemType::Atomic(at), occ) if at.is_numeric() => {
                    SequenceType::Of(ItemType::Atomic(at), occ)
                }
                _ => SequenceType::optional(ItemType::Atomic(AtomicType::AnyAtomic)),
            }
        }
        Compare(op, a, b) => {
            let ta = infer(a, env);
            let tb = infer(b, env);
            if op.is_general() || matches!(op, CompOp::Is | CompOp::Before | CompOp::After) {
                boolean()
            } else {
                // Value comparisons are empty-preserving.
                if ta.allows_empty() || tb.allows_empty() {
                    SequenceType::optional(ItemType::Atomic(AtomicType::Boolean))
                } else {
                    boolean()
                }
            }
        }
        Union(a, b) | Intersect(a, b) | Except(a, b) => {
            let ta = infer(a, env);
            let tb = infer(b, env);
            let item = match (ta.item_type(), tb.item_type()) {
                (Some(x), Some(y)) if x == y => x.clone(),
                _ => ItemType::AnyNode,
            };
            SequenceType::zero_or_more(item)
        }
        Step { axis, test } => {
            let item = step_item_type(*axis, test);
            match axis {
                AxisName::SelfAxis | AxisName::Parent => SequenceType::optional(item),
                _ => SequenceType::zero_or_more(item),
            }
        }
        PathMap { input, step } => {
            let src = infer(input, env);
            let st = infer(step, env);
            src.for_loop(&st)
        }
        Ddo(inner) => {
            let t = infer(inner, env);
            match t {
                SequenceType::Empty => SequenceType::Empty,
                SequenceType::Of(item, occ) => {
                    let item = if item.is_node_type() {
                        item
                    } else {
                        ItemType::AnyNode
                    };
                    SequenceType::Of(item, occ)
                }
            }
        }
        Filter { input, .. } => {
            let t = infer(input, env);
            match t {
                SequenceType::Empty => SequenceType::Empty,
                SequenceType::Of(item, _) => SequenceType::zero_or_more(item),
            }
        }
        PositionConst { input, .. } => {
            let t = infer(input, env);
            match t {
                SequenceType::Empty => SequenceType::Empty,
                SequenceType::Of(item, _) => SequenceType::optional(item),
            }
        }
        Builtin(name, args) => builtin_type(name, args, env),
        UserCall(f, args) => {
            for a in args {
                infer(a, env);
            }
            env.functions
                .get(f.0 as usize)
                .and_then(|f| f.return_type.clone())
                .unwrap_or(SequenceType::ANY)
        }
        CastAs(inner, ty, optional) => {
            let t = infer(inner, env);
            if *optional && t.allows_empty() {
                SequenceType::optional(ItemType::Atomic(*ty))
            } else {
                atomic(*ty)
            }
        }
        TreatAs(_, ty) => ty.clone(),
        Typeswitch {
            operand,
            cases,
            default_var,
            default_body,
        } => {
            let op_ty = infer(operand, env);
            let mut result: Option<SequenceType> = None;
            for c in cases {
                if let Some(v) = c.var {
                    env.bind(v, c.ty.clone());
                }
                let t = infer(&c.body, env);
                result = Some(match result {
                    Some(r) => r.union(&t),
                    None => t,
                });
            }
            if let Some(v) = default_var {
                env.bind(*v, op_ty);
            }
            let d = infer(default_body, env);
            match result {
                Some(r) => r.union(&d),
                None => d,
            }
        }
        ElemCtor { .. } => SequenceType::one(ItemType::element(None)),
        AttrCtor { .. } => SequenceType::one(ItemType::attribute(None)),
        TextCtor(_) => SequenceType::one(ItemType::Kind(NodeKind::Text, NameTest::Any)),
        CommentCtor(_) => SequenceType::one(ItemType::Kind(NodeKind::Comment, NameTest::Any)),
        PiCtor { .. } => SequenceType::one(ItemType::Kind(
            NodeKind::ProcessingInstruction,
            NameTest::Any,
        )),
        DocCtor(_) => SequenceType::one(ItemType::Kind(NodeKind::Document, NameTest::Any)),
        HashJoin {
            outer_var,
            outer,
            inner_var,
            inner,
            group,
            body,
            ..
        } => {
            let ot = infer(outer, env);
            env.bind(*outer_var, ot.item_one());
            let it = infer(inner, env);
            env.bind(*inner_var, it.item_one());
            if let Some(g) = group {
                let mt = infer(&g.match_body, env);
                let grouped = match mt {
                    SequenceType::Empty => SequenceType::Empty,
                    SequenceType::Of(item, _) => SequenceType::zero_or_more(item),
                };
                env.bind(g.let_var, grouped);
            }
            let b = infer(body, env);
            match b {
                SequenceType::Empty => SequenceType::Empty,
                SequenceType::Of(item, _) => SequenceType::zero_or_more(item),
            }
        }
        // Planted after typing; semantically identical to its fallback.
        IndexScan { fallback, .. } => infer(fallback, env),
    }
}

fn builtin_type(name: &str, args: &[Core], env: &mut TypeEnv<'_>) -> SequenceType {
    let arg_types: Vec<SequenceType> = args.iter().map(|a| infer(a, env)).collect();
    use AtomicType::*;
    match name {
        "count" | "string-length" | "position" | "last" => atomic(Integer),
        "string"
        | "name"
        | "local-name"
        | "namespace-uri"
        | "concat"
        | "string-join"
        | "upper-case"
        | "lower-case"
        | "normalize-space"
        | "translate"
        | "substring"
        | "substring-before"
        | "substring-after"
        | "codepoints-to-string"
        | "replace" => atomic(String),
        "empty" | "exists" | "not" | "true" | "false" | "contains" | "starts-with"
        | "ends-with" | "deep-equal" | "boolean" | "matches" => atomic(Boolean),
        "abs" | "ceiling" | "floor" | "round" | "round-half-to-even" => match arg_types.first() {
            Some(SequenceType::Of(ItemType::Atomic(a), occ)) if a.is_numeric() => {
                SequenceType::Of(ItemType::Atomic(*a), *occ)
            }
            _ => SequenceType::optional(ItemType::Atomic(AnyAtomic)),
        },
        "number" => atomic(Double),
        "sum" => match arg_types.first() {
            Some(SequenceType::Of(ItemType::Atomic(a), _)) if a.is_numeric() => atomic(*a),
            _ => atomic(AnyAtomic),
        },
        "avg" | "min" | "max" => SequenceType::optional(ItemType::Atomic(AnyAtomic)),
        "doc" | "document" => {
            SequenceType::optional(ItemType::Kind(NodeKind::Document, NameTest::Any))
        }
        "collection" => {
            SequenceType::zero_or_more(ItemType::Kind(NodeKind::Document, NameTest::Any))
        }
        "root" => SequenceType::one(ItemType::AnyNode),
        "data" => atomized(arg_types.first().unwrap_or(&SequenceType::ANY)),
        "distinct-values" | "tokenize" | "string-to-codepoints" | "index-of" => {
            SequenceType::zero_or_more(ItemType::Atomic(AnyAtomic))
        }
        "distinct-nodes" => SequenceType::zero_or_more(ItemType::AnyNode),
        "reverse" | "subsequence" | "insert-before" | "remove" | "unordered" | "trace" => {
            match arg_types.first() {
                Some(SequenceType::Of(item, _)) => SequenceType::zero_or_more(item.clone()),
                _ => SequenceType::ANY,
            }
        }
        "zero-or-one" => match arg_types.first() {
            Some(SequenceType::Of(item, _)) => SequenceType::optional(item.clone()),
            _ => SequenceType::optional(ItemType::AnyItem),
        },
        "one-or-more" => match arg_types.first() {
            Some(SequenceType::Of(item, _)) => SequenceType::one_or_more(item.clone()),
            _ => SequenceType::one_or_more(ItemType::AnyItem),
        },
        "exactly-one" => match arg_types.first() {
            Some(SequenceType::Of(item, _)) => SequenceType::one(item.clone()),
            _ => SequenceType::one(ItemType::AnyItem),
        },
        "current-date" => atomic(Date),
        "current-time" => atomic(Time),
        "current-dateTime" => atomic(DateTime),
        "implicit-timezone" => atomic(DayTimeDuration),
        "year-from-date"
        | "month-from-date"
        | "day-from-date"
        | "year-from-dateTime"
        | "month-from-dateTime"
        | "day-from-dateTime"
        | "hours-from-dateTime"
        | "minutes-from-dateTime"
        | "years-from-duration"
        | "months-from-duration"
        | "days-from-duration"
        | "hours-from-duration"
        | "minutes-from-duration" => atomic(Integer),
        "seconds-from-duration" => atomic(Decimal),
        "seconds-from-dateTime" => atomic(Decimal),
        "add-date" => atomic(Date),
        "compare" => SequenceType::optional(ItemType::Atomic(Integer)),
        "node-name" => SequenceType::optional(ItemType::Atomic(QName)),
        "base-uri" | "document-uri" => SequenceType::optional(ItemType::Atomic(AnyUri)),
        "error" => SequenceType::Empty,
        _ => SequenceType::ANY,
    }
}

/// Type-check a whole module; returns the body type (strict mode
/// accumulates errors in the env).
pub fn check_module(module: &CoreModule, strict: bool) -> Result<SequenceType> {
    let mut env = if strict {
        TypeEnv::strict(&module.functions)
    } else {
        TypeEnv::new(&module.functions)
    };
    for (_, var, value) in &module.globals {
        let ty = match value {
            Some(v) => infer(v, &mut env),
            None => SequenceType::ANY,
        };
        env.bind(*var, ty);
    }
    for f in &module.functions {
        for (p, pty) in &f.params {
            env.bind(*p, pty.clone().unwrap_or(SequenceType::ANY));
        }
        let got = infer(&f.body, &mut env);
        if strict {
            if let Some(want) = &f.return_type {
                if !got.is_subtype_of(want) && !want.is_subtype_of(&got) {
                    env.errors.push(Error::type_error(format!(
                        "function {} declares {want} but its body has type {got}",
                        f.name
                    )));
                }
            }
        }
    }
    let ty = infer(&module.body, &mut env);
    if let Some(first) = env.errors.into_iter().next() {
        return Err(first);
    }
    Ok(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_module;
    use xqr_xqparser::parse_query;

    fn ty(src: &str) -> SequenceType {
        let m = normalize_module(&parse_query(src).unwrap()).unwrap();
        check_module(&m, false).unwrap()
    }

    #[test]
    fn literal_types() {
        assert_eq!(ty("42"), atomic(AtomicType::Integer));
        assert_eq!(ty("42.5"), atomic(AtomicType::Decimal));
        assert_eq!(ty("\"x\""), atomic(AtomicType::String));
        assert_eq!(ty("()"), SequenceType::Empty);
    }

    #[test]
    fn arithmetic_promotes() {
        assert_eq!(ty("1 + 2"), atomic(AtomicType::Integer));
        assert_eq!(ty("1 + 2.5"), atomic(AtomicType::Decimal));
        assert_eq!(ty("1 + 2.5e0"), atomic(AtomicType::Double));
    }

    #[test]
    fn sequence_and_flwor_types() {
        assert_eq!(
            ty("(1, 2, 3)"),
            SequenceType::one_or_more(ItemType::Atomic(AtomicType::Integer))
        );
        assert_eq!(
            ty("for $x in (1, 2) return $x * 2"),
            SequenceType::one_or_more(ItemType::Atomic(AtomicType::Integer))
        );
        assert_eq!(ty("let $x := 5 return $x"), atomic(AtomicType::Integer));
    }

    #[test]
    fn comparison_types() {
        assert_eq!(ty("1 eq 2"), atomic(AtomicType::Boolean));
        assert_eq!(ty("(1, 2) = 2"), atomic(AtomicType::Boolean));
        assert_eq!(ty("1 and 0"), atomic(AtomicType::Boolean));
    }

    #[test]
    fn path_types_are_node_kinds() {
        let t = ty("/book/title");
        match t {
            SequenceType::Of(ItemType::Kind(NodeKind::Element, NameTest::Name(q)), _) => {
                assert_eq!(q.local_name(), "title");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn constructor_types() {
        assert_eq!(ty("<a/>"), SequenceType::one(ItemType::element(None)));
        assert_eq!(
            ty("attribute x { 1 }"),
            SequenceType::one(ItemType::attribute(None))
        );
    }

    #[test]
    fn builtin_types() {
        assert_eq!(ty("count((1,2))"), atomic(AtomicType::Integer));
        assert_eq!(ty("string(1)"), atomic(AtomicType::String));
        assert_eq!(ty("empty(())"), atomic(AtomicType::Boolean));
    }

    #[test]
    fn if_union() {
        assert_eq!(ty("if (1) then 1 else 2"), atomic(AtomicType::Integer));
        let t = ty("if (1) then 1 else \"x\"");
        assert_eq!(t, atomic(AtomicType::AnyAtomic));
        let t = ty("if (1) then 1 else ()");
        assert_eq!(
            t,
            SequenceType::optional(ItemType::Atomic(AtomicType::Integer))
        );
    }

    #[test]
    fn strict_mode_catches_arith_on_string() {
        let m = normalize_module(&parse_query(r#""a" + 1"#).unwrap()).unwrap();
        assert!(check_module(&m, true).is_err());
        // but untyped data stays allowed
        let m = normalize_module(&parse_query("<a>3</a> + 1").unwrap()).unwrap();
        assert!(check_module(&m, true).is_ok());
    }

    #[test]
    fn function_return_types() {
        let t =
            ty("declare function local:f($x as xs:integer) as xs:integer { $x + 1 }; local:f(1)");
        assert_eq!(t, atomic(AtomicType::Integer));
    }

    #[test]
    fn strict_checks_function_body_against_signature() {
        let m = normalize_module(
            &parse_query("declare function local:f() as xs:integer { \"str\" }; local:f()")
                .unwrap(),
        )
        .unwrap();
        assert!(check_module(&m, true).is_err());
    }

    #[test]
    fn cast_types() {
        assert_eq!(ty("\"5\" cast as xs:integer"), atomic(AtomicType::Integer));
        assert_eq!(ty("5 instance of xs:integer"), atomic(AtomicType::Boolean));
    }
}
