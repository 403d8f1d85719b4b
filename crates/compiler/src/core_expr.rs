//! The core expression tree — the talk's "expression tree (for
//! optimization)" with its ~26 expression kinds.
//!
//! Differences from the AST: FLWOR is decomposed into nested `For`/`Let`
//! /`If` (the talk: "FLWR is syntactic sugar combining FOR, LET, IF"),
//! except when an `order by` forces the tupled [`Core::OrderedFlwor`]
//! form; `//` and predicates are already explicit; variables are
//! resolved to dense [`VarId`] registers; every path step sits under an
//! explicit [`Core::Ddo`] (distinct-document-order) node that the
//! optimizer tries to remove; user function calls reference a function
//! table by index.

use xqr_xdm::{AtomicType, AtomicValue, QName, SequenceType};

pub use xqr_xqparser::ast::{ArithOp, AxisName, CompOp, NodeTest};

/// A resolved variable register. Each binder in the query gets a unique
/// register, so shadowing is resolved at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Index into the compiled module's function table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// A binding clause inside an [`Core::OrderedFlwor`].
// Clause values live inside the enclosing FLWOR node, never in bulk
// arrays, so the size spread between variants is not worth boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CoreClause {
    For {
        var: VarId,
        position: Option<VarId>,
        source: Core,
    },
    Let {
        var: VarId,
        value: Core,
    },
    /// A decorrelated let-bound join: the `inner` side is evaluated and
    /// hashed on `inner_key` **once per FLWOR evaluation**; per tuple,
    /// `outer_key` probes the table and the matches (mapped through
    /// `match_body` with `inner_var` bound) bind to `var`.
    GroupLet {
        var: VarId,
        inner_var: VarId,
        inner: Core,
        inner_key: Core,
        outer_key: Core,
        match_body: Core,
    },
}

/// One `order by` key.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreOrderSpec {
    pub key: Core,
    pub descending: bool,
    pub empty_least: bool,
}

/// Computed-constructor name: resolved or runtime expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreName {
    Const(QName),
    Computed(Box<Core>),
}

/// Grouped-join extension of [`Core::HashJoin`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// The variable the matched-and-mapped sequence binds to.
    pub let_var: VarId,
    /// Evaluated per matching inner item (with the inner var bound).
    pub match_body: Box<Core>,
}

/// One case of a typeswitch.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreCase {
    pub var: Option<VarId>,
    pub ty: SequenceType,
    pub body: Core,
}

/// The core expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Core {
    /// A constant atomic value.
    Const(AtomicValue),
    /// The empty sequence.
    Empty,
    /// Sequence concatenation.
    Seq(Vec<Core>),
    /// `e1 to e2`.
    Range(Box<Core>, Box<Core>),
    Var(VarId),
    ContextItem,
    /// The root of the context node's tree (leading `/`).
    Root,
    /// Iteration: the MAP of the talk's redundant algebra. Binds `var`
    /// (and optionally a 1-based `position`) for each item of `source`.
    For {
        var: VarId,
        position: Option<VarId>,
        source: Box<Core>,
        body: Box<Core>,
    },
    Let {
        var: VarId,
        value: Box<Core>,
        body: Box<Core>,
    },
    /// FLWOR with `order by`: kept tupled because sorting needs the
    /// whole binding stream.
    OrderedFlwor {
        clauses: Vec<CoreClause>,
        where_clause: Option<Box<Core>>,
        order: Vec<CoreOrderSpec>,
        stable: bool,
        body: Box<Core>,
    },
    If {
        cond: Box<Core>,
        then_branch: Box<Core>,
        else_branch: Box<Core>,
    },
    /// `and`/`or` keep their non-deterministic short-circuit semantics.
    And(Box<Core>, Box<Core>),
    Or(Box<Core>, Box<Core>),
    /// Effective boolean value (normalization wraps conditions in this).
    Ebv(Box<Core>),
    Arith(ArithOp, Box<Core>, Box<Core>),
    Neg(Box<Core>),
    Compare(CompOp, Box<Core>, Box<Core>),
    /// `some/every $v in source satisfies body` (single binding; multi
    /// bindings normalize to nesting).
    Quantified {
        every: bool,
        var: VarId,
        source: Box<Core>,
        satisfies: Box<Core>,
    },
    Union(Box<Core>, Box<Core>),
    Intersect(Box<Core>, Box<Core>),
    Except(Box<Core>, Box<Core>),
    /// One axis step applied to the context item.
    Step {
        axis: AxisName,
        test: NodeTest,
    },
    /// `input/step`: evaluate `step` with each node of `input` as
    /// context; the result is NOT yet sorted/deduplicated — an enclosing
    /// [`Core::Ddo`] does that unless the optimizer removed it.
    PathMap {
        input: Box<Core>,
        step: Box<Core>,
    },
    /// Distinct-document-order (sort by doc order + dedup by identity).
    Ddo(Box<Core>),
    /// Predicate filter with position semantics (`e[pred]`).
    Filter {
        input: Box<Core>,
        predicate: Box<Core>,
    },
    /// Positional selection `e[k]` with a constant k — compiled
    /// specially so the runtime can skip (experiment E10).
    PositionConst {
        input: Box<Core>,
        position: i64,
    },
    /// Built-in function call, resolved by name (the runtime's library
    /// dispatches; unknown names were rejected at compile time).
    Builtin(&'static str, Vec<Core>),
    /// User-declared function call.
    UserCall(FuncId, Vec<Core>),
    InstanceOf(Box<Core>, SequenceType),
    CastAs(Box<Core>, AtomicType, bool /* optional (T?) */),
    CastableAs(Box<Core>, AtomicType, bool),
    TreatAs(Box<Core>, SequenceType),
    Typeswitch {
        operand: Box<Core>,
        cases: Vec<CoreCase>,
        default_var: Option<VarId>,
        default_body: Box<Core>,
    },
    ElemCtor {
        name: CoreName,
        /// Namespace declarations written on the constructor.
        namespaces: Vec<(Option<String>, String)>,
        content: Vec<Core>,
    },
    AttrCtor {
        name: CoreName,
        value: Vec<Core>,
    },
    TextCtor(Box<Core>),
    CommentCtor(Box<Core>),
    PiCtor {
        target: CoreName,
        value: Box<Core>,
    },
    DocCtor(Box<Core>),
    /// Value join detected by the optimizer: for each `outer` binding,
    /// probe `inner` by key equality (hash join at runtime). With
    /// `group` set, the matching inner items are mapped through the
    /// group's `match_body` and the concatenation is bound to the
    /// group's `let_var` for `body` (the let-bound join shape of XMark
    /// Q8/Q9 style queries).
    HashJoin {
        outer_var: VarId,
        outer: Box<Core>,
        inner_var: VarId,
        inner: Box<Core>,
        outer_key: Box<Core>,
        inner_key: Box<Core>,
        group: Option<GroupSpec>,
        body: Box<Core>,
    },
    /// An index-answerable absolute path/twig (planted by access-path
    /// selection, after all other rewrites). The runtime answers it from
    /// the anchored document's structural index when one is attached,
    /// and evaluates `fallback` — the original navigational subtree,
    /// semantically identical — otherwise.
    IndexScan {
        pattern: crate::access::AccessPattern,
        fallback: Box<Core>,
    },
}

impl Core {
    pub(crate) fn boxed(self) -> Box<Core> {
        Box::new(self)
    }

    /// Number of nodes in this expression tree (inlining heuristics).
    pub(crate) fn size(&self) -> usize {
        let mut n = 1;
        self.for_each_child(&mut |c| n += c.size());
        n
    }

    /// Visit direct children.
    pub fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a Core)) {
        use Core::*;
        match self {
            Const(_) | Empty | Var(_) | ContextItem | Root | Step { .. } => {}
            Seq(items) => {
                for c in items {
                    f(c)
                }
            }
            Range(a, b)
            | Arith(_, a, b)
            | Compare(_, a, b)
            | And(a, b)
            | Or(a, b)
            | Union(a, b)
            | Intersect(a, b)
            | Except(a, b) => {
                f(a);
                f(b);
            }
            Neg(a) | Ebv(a) | Ddo(a) | TextCtor(a) | CommentCtor(a) | DocCtor(a) => f(a),
            For { source, body, .. } => {
                f(source);
                f(body);
            }
            Let { value, body, .. } => {
                f(value);
                f(body);
            }
            OrderedFlwor {
                clauses,
                where_clause,
                order,
                body,
                ..
            } => {
                for c in clauses {
                    match c {
                        CoreClause::For { source, .. } => f(source),
                        CoreClause::Let { value, .. } => f(value),
                        CoreClause::GroupLet {
                            inner,
                            inner_key,
                            outer_key,
                            match_body,
                            ..
                        } => {
                            f(inner);
                            f(inner_key);
                            f(outer_key);
                            f(match_body);
                        }
                    }
                }
                if let Some(w) = where_clause {
                    f(w);
                }
                for o in order {
                    f(&o.key);
                }
                f(body);
            }
            If {
                cond,
                then_branch,
                else_branch,
            } => {
                f(cond);
                f(then_branch);
                f(else_branch);
            }
            Quantified {
                source, satisfies, ..
            } => {
                f(source);
                f(satisfies);
            }
            PathMap { input, step } => {
                f(input);
                f(step);
            }
            Filter { input, predicate } => {
                f(input);
                f(predicate);
            }
            PositionConst { input, .. } => f(input),
            Builtin(_, args) | UserCall(_, args) => {
                for c in args {
                    f(c)
                }
            }
            InstanceOf(a, _) | CastAs(a, _, _) | CastableAs(a, _, _) | TreatAs(a, _) => f(a),
            Typeswitch {
                operand,
                cases,
                default_body,
                ..
            } => {
                f(operand);
                for c in cases {
                    f(&c.body);
                }
                f(default_body);
            }
            ElemCtor { name, content, .. } => {
                if let CoreName::Computed(e) = name {
                    f(e);
                }
                for c in content {
                    f(c)
                }
            }
            AttrCtor { name, value } => {
                if let CoreName::Computed(e) = name {
                    f(e);
                }
                for c in value {
                    f(c)
                }
            }
            PiCtor { target, value } => {
                if let CoreName::Computed(e) = target {
                    f(e);
                }
                f(value);
            }
            HashJoin {
                outer,
                inner,
                outer_key,
                inner_key,
                group,
                body,
                ..
            } => {
                f(outer);
                f(inner);
                f(outer_key);
                f(inner_key);
                if let Some(g) = group {
                    f(&g.match_body);
                }
                f(body);
            }
            IndexScan { fallback, .. } => f(fallback),
        }
    }

    /// Visit direct children mutably.
    pub(crate) fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut Core)) {
        use Core::*;
        match self {
            Const(_) | Empty | Var(_) | ContextItem | Root | Step { .. } => {}
            Seq(items) => {
                for c in items {
                    f(c)
                }
            }
            Range(a, b)
            | Arith(_, a, b)
            | Compare(_, a, b)
            | And(a, b)
            | Or(a, b)
            | Union(a, b)
            | Intersect(a, b)
            | Except(a, b) => {
                f(a);
                f(b);
            }
            Neg(a) | Ebv(a) | Ddo(a) | TextCtor(a) | CommentCtor(a) | DocCtor(a) => f(a),
            For { source, body, .. } => {
                f(source);
                f(body);
            }
            Let { value, body, .. } => {
                f(value);
                f(body);
            }
            OrderedFlwor {
                clauses,
                where_clause,
                order,
                body,
                ..
            } => {
                for c in clauses {
                    match c {
                        CoreClause::For { source, .. } => f(source),
                        CoreClause::Let { value, .. } => f(value),
                        CoreClause::GroupLet {
                            inner,
                            inner_key,
                            outer_key,
                            match_body,
                            ..
                        } => {
                            f(inner);
                            f(inner_key);
                            f(outer_key);
                            f(match_body);
                        }
                    }
                }
                if let Some(w) = where_clause {
                    f(w);
                }
                for o in order {
                    f(&mut o.key);
                }
                f(body);
            }
            If {
                cond,
                then_branch,
                else_branch,
            } => {
                f(cond);
                f(then_branch);
                f(else_branch);
            }
            Quantified {
                source, satisfies, ..
            } => {
                f(source);
                f(satisfies);
            }
            PathMap { input, step } => {
                f(input);
                f(step);
            }
            Filter { input, predicate } => {
                f(input);
                f(predicate);
            }
            PositionConst { input, .. } => f(input),
            Builtin(_, args) | UserCall(_, args) => {
                for c in args {
                    f(c)
                }
            }
            InstanceOf(a, _) | CastAs(a, _, _) | CastableAs(a, _, _) | TreatAs(a, _) => f(a),
            Typeswitch {
                operand,
                cases,
                default_body,
                ..
            } => {
                f(operand);
                for c in cases {
                    f(&mut c.body);
                }
                f(default_body);
            }
            ElemCtor { name, content, .. } => {
                if let CoreName::Computed(e) = name {
                    f(e);
                }
                for c in content {
                    f(c)
                }
            }
            AttrCtor { name, value } => {
                if let CoreName::Computed(e) = name {
                    f(e);
                }
                for c in value {
                    f(c)
                }
            }
            PiCtor { target, value } => {
                if let CoreName::Computed(e) = target {
                    f(e);
                }
                f(value);
            }
            HashJoin {
                outer,
                inner,
                outer_key,
                inner_key,
                group,
                body,
                ..
            } => {
                f(outer);
                f(inner);
                f(outer_key);
                f(inner_key);
                if let Some(g) = group {
                    f(&mut g.match_body);
                }
                f(body);
            }
            IndexScan { fallback, .. } => f(fallback),
        }
    }

    /// Which variables does this node *bind* for (parts of) its children?
    pub(crate) fn bound_vars(&self) -> Vec<VarId> {
        use Core::*;
        match self {
            For { var, position, .. } => {
                let mut v = vec![*var];
                if let Some(p) = position {
                    v.push(*p);
                }
                v
            }
            Let { var, .. } => vec![*var],
            Quantified { var, .. } => vec![*var],
            HashJoin {
                outer_var,
                inner_var,
                group,
                ..
            } => {
                let mut v = vec![*outer_var, *inner_var];
                if let Some(g) = group {
                    v.push(g.let_var);
                }
                v
            }
            OrderedFlwor { clauses, .. } => clauses
                .iter()
                .flat_map(|c| match c {
                    CoreClause::For { var, position, .. } => {
                        let mut v = vec![*var];
                        if let Some(p) = position {
                            v.push(*p);
                        }
                        v
                    }
                    CoreClause::Let { var, .. } => vec![*var],
                    CoreClause::GroupLet { var, inner_var, .. } => vec![*var, *inner_var],
                })
                .collect(),
            Typeswitch {
                cases, default_var, ..
            } => {
                let mut v: Vec<VarId> = cases.iter().filter_map(|c| c.var).collect();
                if let Some(d) = default_var {
                    v.push(*d);
                }
                v
            }
            _ => Vec::new(),
        }
    }
}

/// A compiled user function.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreFunction {
    pub name: QName,
    pub params: Vec<(VarId, Option<SequenceType>)>,
    pub return_type: Option<SequenceType>,
    pub body: Core,
}

/// A compiled module: function table, global variables and the body.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreModule {
    pub functions: Vec<CoreFunction>,
    /// Globals evaluated in order before the body; `None` value =
    /// external (must be supplied by the dynamic context).
    pub globals: Vec<(QName, VarId, Option<Core>)>,
    pub body: Core,
    /// Total registers allocated (frame size for the runtime).
    pub var_count: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_counts_nodes() {
        let e = Core::Arith(
            ArithOp::Add,
            Core::Const(AtomicValue::Integer(1)).boxed(),
            Core::Const(AtomicValue::Integer(2)).boxed(),
        );
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn bound_vars_of_binders() {
        let f = Core::For {
            var: VarId(0),
            position: Some(VarId(1)),
            source: Core::Empty.boxed(),
            body: Core::Var(VarId(0)).boxed(),
        };
        assert_eq!(f.bound_vars(), vec![VarId(0), VarId(1)]);
        assert!(Core::Empty.bound_vars().is_empty());
    }

    #[test]
    fn child_visitors_agree() {
        let mut e = Core::Seq(vec![
            Core::Const(AtomicValue::Integer(1)),
            Core::Ddo(Core::Root.boxed()),
        ]);
        let mut count = 0;
        e.for_each_child(&mut |_| count += 1);
        assert_eq!(count, 2);
        let mut count_mut = 0;
        e.for_each_child_mut(&mut |_| count_mut += 1);
        assert_eq!(count_mut, 2);
    }
}
