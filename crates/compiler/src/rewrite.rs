//! The rewrite-rule optimizer — the talk's "library of rewriting rules
//! (~100), and a hard-coded strategy".
//!
//! The library is one ordered table, `RULES`: each row is a rule
//! function and the [`Family`] it belongs to. The strategy is fixed:
//! children first, then the node itself, where the first row in table
//! order whose rule fires replaces the node, again and again until no
//! row fires. Whole bottom-up passes repeat until one changes nothing,
//! at most `MAX_PASSES` times. When two rules apply to one node, the
//! table order picks the winner, so the order decides plans.
//!
//! Every rule respects the contract from the talk: the rewritten
//! expression has a subtype of the original's type and no new free
//! variables; rules with side-condition subtleties (LET folding vs. node
//! construction, where-hoisting vs. errors, ddo-elimination vs. the
//! ordering table) cite their slide in a comment. The three join rules
//! share one equi-join matcher (`equi_join`); loop hoisting and CSE
//! share one hoistability test and one fresh-`let` construction.
//!
//! [`RewriteConfig`] switches whole families off so the ablation
//! experiment (E7) can measure each family's contribution.

use crate::analysis::{
    can_raise_error, creates_nodes, order_facts_with, var_use, OrderFacts, UseCount,
};
use crate::core_expr::*;
use crate::ops;
use crate::typing::{infer, TypeEnv};
use std::collections::HashMap;
use xqr_xdm::{AtomicValue, SequenceType};
use xqr_xqparser::ast::{ArithOp, AxisName, CompOp, NodeTest};

/// A family of rules: the unit the ablation (E7) switches off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    ConstantFolding,
    BooleanRewrites,
    LetFolding,
    ForSimplification,
    WhereHoisting,
    /// Hoist loop-invariant sub-expressions out of `for` bodies (the
    /// talk's "LET clause unfolding").
    LoopHoisting,
    PathRewrites,
    DdoElimination,
    FunctionInlining,
    JoinDetection,
    Cse,
    TypeRewrites,
}

impl Family {
    /// The family's name in the E7 table.
    pub fn name(self) -> &'static str {
        match self {
            Family::ConstantFolding => "constant_folding",
            Family::BooleanRewrites => "boolean_rewrites",
            Family::LetFolding => "let_folding",
            Family::ForSimplification => "for_simplification",
            Family::WhereHoisting => "where_hoisting",
            Family::LoopHoisting => "loop_hoisting",
            Family::PathRewrites => "path_rewrites",
            Family::DdoElimination => "ddo_elimination",
            Family::FunctionInlining => "function_inlining",
            Family::JoinDetection => "join_detection",
            Family::Cse => "cse",
            Family::TypeRewrites => "type_rewrites",
        }
    }

    fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// Which rule families run. `all()` is the production default; the
/// ablation benches switch families off one at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteConfig {
    /// One bit per [`Family`].
    enabled: u16,
    /// Test-only fault injection for the differential fuzz harness's
    /// mutation sanity check: constant folding of an integer `a - b`
    /// deliberately computes `b - a`. A correct differential oracle must
    /// flag this miscompile within a few hundred generated cases. Never
    /// set outside the harness.
    pub debug_miscompile_sub: bool,
}

impl RewriteConfig {
    pub fn all() -> Self {
        RewriteConfig {
            enabled: u16::MAX,
            debug_miscompile_sub: false,
        }
    }

    pub fn none() -> Self {
        RewriteConfig {
            enabled: 0,
            debug_miscompile_sub: false,
        }
    }

    /// `all()` with one family disabled (ablation helper).
    pub fn without(family: Family) -> Self {
        RewriteConfig {
            enabled: !family.bit(),
            debug_miscompile_sub: false,
        }
    }

    fn runs(&self, family: Family) -> bool {
        self.enabled & family.bit() != 0
    }
}

/// Per-rule firing counts (drives `explain` output and the E7 tables).
pub type RewriteStats = HashMap<&'static str, usize>;

/// Upper bound on full bottom-up passes.
const MAX_PASSES: usize = 8;

type Rule = fn(&mut Optimizer, &Core) -> Option<Core>;

/// The rule library in firing order: at each node the first row whose
/// family is on and whose rule fires wins.
const RULES: &[(Family, Rule)] = &[
    (Family::ConstantFolding, Optimizer::constant_fold),
    (Family::BooleanRewrites, Optimizer::boolean_simplify),
    (Family::LetFolding, Optimizer::let_fold),
    (Family::ForSimplification, Optimizer::for_simplify),
    (Family::WhereHoisting, Optimizer::where_hoist),
    (Family::LoopHoisting, Optimizer::loop_hoist),
    (Family::PathRewrites, Optimizer::path_rewrite),
    (Family::DdoElimination, Optimizer::ddo_eliminate),
    (Family::FunctionInlining, Optimizer::inline_function),
    (Family::JoinDetection, Optimizer::detect_join),
    (Family::JoinDetection, Optimizer::detect_group_join),
    (Family::JoinDetection, Optimizer::decorrelate_flwor),
    (Family::Cse, Optimizer::factor_common),
    (Family::TypeRewrites, Optimizer::type_rewrite),
];

struct Optimizer {
    config: RewriteConfig,
    /// The module's functions as they were before optimization (the
    /// inlining source).
    functions: Vec<CoreFunction>,
    /// Function indices that (transitively) call themselves — not
    /// inlineable.
    recursive: Vec<bool>,
    next_var: u32,
    /// Ordering facts for in-scope variables (globals seeded by
    /// `optimize_module`; binders push/pop during the pass). `for`-bound
    /// variables are single items, which is what lets per-item `Ddo`s in
    /// loop bodies disappear.
    var_facts: HashMap<VarId, OrderFacts>,
    stats: RewriteStats,
}

impl Optimizer {
    fn fresh(&mut self) -> VarId {
        let id = VarId(self.next_var);
        self.next_var += 1;
        id
    }

    fn fired(&mut self, rule: &'static str) {
        *self.stats.entry(rule).or_insert(0) += 1;
    }

    /// Optimize one expression tree to a fixpoint.
    fn run(&mut self, e: Core) -> Core {
        let mut cur = e;
        for _ in 0..MAX_PASSES {
            let (next, changed) = self.pass(cur);
            cur = next;
            if !changed {
                break;
            }
        }
        cur
    }

    /// One bottom-up pass; returns (expr, changed).
    fn pass(&mut self, mut e: Core) -> (Core, bool) {
        let mut changed = false;
        // Record binder facts for the children we are about to visit.
        let bound: Vec<(VarId, Option<OrderFacts>)> = match &e {
            Core::For { var, position, .. } => {
                let mut v = vec![(*var, self.var_facts.insert(*var, OrderFacts::SINGLE))];
                if let Some(p) = position {
                    v.push((*p, self.var_facts.insert(*p, OrderFacts::SINGLE)));
                }
                v
            }
            Core::Quantified { var, .. } => {
                vec![(*var, self.var_facts.insert(*var, OrderFacts::SINGLE))]
            }
            Core::Let { var, value, .. } => {
                let f = order_facts_with(value, &self.var_facts);
                vec![(*var, self.var_facts.insert(*var, f))]
            }
            _ => Vec::new(),
        };
        // Children first.
        e.for_each_child_mut(&mut |c| {
            let taken = std::mem::replace(c, Core::Empty);
            let (new, ch) = self.pass(taken);
            *c = new;
            changed |= ch;
        });
        for (v, old) in bound.into_iter().rev() {
            match old {
                Some(f) => {
                    self.var_facts.insert(v, f);
                }
                None => {
                    self.var_facts.remove(&v);
                }
            }
        }
        // Then this node, repeatedly while rules fire.
        while let Some(new) = self.apply_here(&e) {
            e = new;
            changed = true;
        }
        (e, changed)
    }

    fn apply_here(&mut self, e: &Core) -> Option<Core> {
        for &(family, rule) in RULES {
            if self.config.runs(family) {
                if let Some(n) = rule(self, e) {
                    return Some(n);
                }
            }
        }
        None
    }

    // ---- constant folding ----------------------------------------------------

    fn constant_fold(&mut self, e: &Core) -> Option<Core> {
        match e {
            Core::Arith(op, a, b) => {
                if let (Core::Const(x), Core::Const(y)) = (&**a, &**b) {
                    // The harness's mutation sanity check: fold integer
                    // subtraction with the operands swapped.
                    let (x, y) = if self.config.debug_miscompile_sub
                        && *op == ArithOp::Sub
                        && matches!((x, y), (AtomicValue::Integer(_), AtomicValue::Integer(_)))
                    {
                        (y, x)
                    } else {
                        (x, y)
                    };
                    // Fold only when the operation succeeds; a constant
                    // error stays for the runtime to raise (lazily).
                    if let Ok(v) = ops::arith(*op, x, y) {
                        self.fired("constant-fold-arith");
                        return Some(Core::Const(v));
                    }
                }
                None
            }
            Core::Neg(a) => {
                if let Core::Const(x) = &**a {
                    if let Ok(v) = ops::negate(x) {
                        self.fired("constant-fold-neg");
                        return Some(Core::Const(v));
                    }
                }
                None
            }
            Core::Compare(op, a, b) if op.is_value() || op.is_general() => {
                if let (Core::Const(x), Core::Const(y)) = (&**a, &**b) {
                    // Untyped constants behave differently under general
                    // comparison; fold only typed constants.
                    if !matches!(x, AtomicValue::UntypedAtomic(_))
                        && !matches!(y, AtomicValue::UntypedAtomic(_))
                    {
                        if let Ok(ord) = x.value_compare(y, 0) {
                            let b = match (op, ord) {
                                (_, None) => false, // NaN
                                (CompOp::ValEq | CompOp::GenEq, Some(o)) => o.is_eq(),
                                (CompOp::ValNe | CompOp::GenNe, Some(o)) => !o.is_eq(),
                                (CompOp::ValLt | CompOp::GenLt, Some(o)) => o.is_lt(),
                                (CompOp::ValLe | CompOp::GenLe, Some(o)) => o.is_le(),
                                (CompOp::ValGt | CompOp::GenGt, Some(o)) => o.is_gt(),
                                (CompOp::ValGe | CompOp::GenGe, Some(o)) => o.is_ge(),
                                _ => return None,
                            };
                            self.fired("constant-fold-compare");
                            return Some(Core::Const(AtomicValue::Boolean(b)));
                        }
                    }
                }
                None
            }
            Core::Ebv(inner) => match &**inner {
                Core::Const(v) => {
                    if let Ok(b) = v.effective_boolean_value() {
                        self.fired("constant-fold-ebv");
                        return Some(Core::Const(AtomicValue::Boolean(b)));
                    }
                    None
                }
                Core::Empty => {
                    self.fired("constant-fold-ebv");
                    Some(Core::Const(AtomicValue::Boolean(false)))
                }
                _ => None,
            },
            Core::If {
                cond,
                then_branch,
                else_branch,
            } => match &**cond {
                Core::Const(AtomicValue::Boolean(true)) => {
                    self.fired("constant-fold-if");
                    Some((**then_branch).clone())
                }
                Core::Const(AtomicValue::Boolean(false)) => {
                    self.fired("constant-fold-if");
                    Some((**else_branch).clone())
                }
                _ => None,
            },
            Core::Seq(items) => {
                // Flatten nested sequences, drop empties, unwrap singles.
                if items
                    .iter()
                    .any(|i| matches!(i, Core::Seq(_) | Core::Empty))
                {
                    let mut flat = Vec::with_capacity(items.len());
                    for i in items {
                        match i {
                            Core::Seq(inner) => flat.extend(inner.iter().cloned()),
                            Core::Empty => {}
                            other => flat.push(other.clone()),
                        }
                    }
                    self.fired("sequence-flatten");
                    return Some(match flat.len() {
                        0 => Core::Empty,
                        1 => flat.into_iter().next().expect("one element"),
                        _ => Core::Seq(flat),
                    });
                }
                None
            }
            Core::Builtin(name, args) => self.fold_builtin(name, args),
            Core::CastAs(inner, ty, _) => {
                if let Core::Const(v) = &**inner {
                    if let Ok(cast) = v.cast_to(*ty) {
                        self.fired("constant-fold-cast");
                        return Some(Core::Const(cast));
                    }
                }
                None
            }
            Core::CastableAs(inner, ty, _) => {
                if let Core::Const(v) = &**inner {
                    self.fired("constant-fold-castable");
                    return Some(Core::Const(AtomicValue::Boolean(v.castable_to(*ty))));
                }
                None
            }
            _ => None,
        }
    }

    fn fold_builtin(&mut self, name: &'static str, args: &[Core]) -> Option<Core> {
        let all_const = |e: &Core| -> Option<usize> {
            match e {
                Core::Empty => Some(0),
                Core::Const(_) => Some(1),
                Core::Seq(items) if items.iter().all(|i| matches!(i, Core::Const(_))) => {
                    Some(items.len())
                }
                _ => None,
            }
        };
        match name {
            "count" => {
                let n = all_const(args.first()?)?;
                self.fired("constant-fold-builtin");
                Some(Core::Const(AtomicValue::Integer(n as i64)))
            }
            "empty" | "exists" => {
                let n = all_const(args.first()?)?;
                self.fired("constant-fold-builtin");
                let b = if name == "empty" { n == 0 } else { n > 0 };
                Some(Core::Const(AtomicValue::Boolean(b)))
            }
            "not" => {
                if let Core::Const(v) = args.first()? {
                    if let Ok(b) = v.effective_boolean_value() {
                        self.fired("constant-fold-builtin");
                        return Some(Core::Const(AtomicValue::Boolean(!b)));
                    }
                }
                None
            }
            "true" => {
                self.fired("constant-fold-builtin");
                Some(Core::Const(AtomicValue::Boolean(true)))
            }
            "false" => {
                self.fired("constant-fold-builtin");
                Some(Core::Const(AtomicValue::Boolean(false)))
            }
            "concat" => {
                if args
                    .iter()
                    .all(|a| matches!(a, Core::Const(_) | Core::Empty))
                {
                    let mut s = String::new();
                    for a in args {
                        if let Core::Const(v) = a {
                            s.push_str(&v.string_value());
                        }
                    }
                    self.fired("constant-fold-builtin");
                    return Some(Core::Const(AtomicValue::string(s.as_str())));
                }
                None
            }
            "string" => {
                if let Some(Core::Const(v)) = args.first() {
                    self.fired("constant-fold-builtin");
                    return Some(Core::Const(AtomicValue::string(v.string_value().as_str())));
                }
                None
            }
            // `unordered { e }` licenses dropping order constraints: a
            // `Ddo` directly below only needs to deduplicate, so if the
            // input is provably distinct the whole Ddo goes ("the
            // annotation exploited during optimization", per the talk).
            "unordered" => {
                let inner = args.first()?;
                if let Core::Ddo(d) = inner {
                    let f = order_facts_with(d, &self.var_facts);
                    if f.distinct || f.max_one {
                        self.fired("unordered-ddo-relax");
                        return Some((**d).clone());
                    }
                }
                self.fired("unordered-unwrap");
                Some(inner.clone())
            }
            _ => None,
        }
    }

    // ---- boolean simplification -------------------------------------------------

    fn boolean_simplify(&mut self, e: &Core) -> Option<Core> {
        match e {
            // The talk: `false and error => false` is allowed (non-
            // deterministic logic), so short-circuiting constants is
            // sound even when the other side may error.
            Core::And(a, b) => match (&**a, &**b) {
                (Core::Const(AtomicValue::Boolean(false)), _)
                | (_, Core::Const(AtomicValue::Boolean(false))) => {
                    self.fired("and-short-circuit");
                    Some(Core::Const(AtomicValue::Boolean(false)))
                }
                (Core::Const(AtomicValue::Boolean(true)), other)
                | (other, Core::Const(AtomicValue::Boolean(true))) => {
                    self.fired("and-identity");
                    Some(other.clone())
                }
                _ => None,
            },
            Core::Or(a, b) => match (&**a, &**b) {
                (Core::Const(AtomicValue::Boolean(true)), _)
                | (_, Core::Const(AtomicValue::Boolean(true))) => {
                    self.fired("or-short-circuit");
                    Some(Core::Const(AtomicValue::Boolean(true)))
                }
                (Core::Const(AtomicValue::Boolean(false)), other)
                | (other, Core::Const(AtomicValue::Boolean(false))) => {
                    self.fired("or-identity");
                    Some(other.clone())
                }
                _ => None,
            },
            Core::Ebv(inner) => match &**inner {
                // EBV of an always-boolean-single expression is identity.
                Core::Ebv(_)
                | Core::And(..)
                | Core::Or(..)
                | Core::Quantified { .. }
                | Core::InstanceOf(..)
                | Core::CastableAs(..) => {
                    self.fired("ebv-unwrap");
                    Some((**inner).clone())
                }
                Core::Compare(op, _, _) if op.is_general() => {
                    self.fired("ebv-unwrap");
                    Some((**inner).clone())
                }
                Core::Builtin(n, _)
                    if matches!(
                        *n,
                        "not"
                            | "empty"
                            | "exists"
                            | "contains"
                            | "starts-with"
                            | "ends-with"
                            | "deep-equal"
                            | "true"
                            | "false"
                    ) =>
                {
                    self.fired("ebv-unwrap");
                    Some((**inner).clone())
                }
                _ => None,
            },
            Core::Builtin("not", args) => match args.first()? {
                Core::Builtin("not", inner_args) => {
                    // not(not(e)) → ebv(e)
                    self.fired("double-negation");
                    Some(Core::Ebv(inner_args.first()?.clone().boxed()))
                }
                Core::Builtin("empty", inner_args) => {
                    self.fired("not-empty-to-exists");
                    Some(Core::Builtin("exists", inner_args.clone()))
                }
                Core::Builtin("exists", inner_args) => {
                    self.fired("not-exists-to-empty");
                    Some(Core::Builtin("empty", inner_args.clone()))
                }
                _ => None,
            },
            _ => None,
        }
    }

    // ---- LET folding ----------------------------------------------------------

    /// The talk's "LET clause folding" with its two safety conditions:
    /// never inline node constructors ("NO! Side effects."); inline
    /// trivially or when used once outside a loop.
    fn let_fold(&mut self, e: &Core) -> Option<Core> {
        let Core::Let { var, value, body } = e else {
            return None;
        };
        // A let whose value is a filtered inner loop keyed on a free
        // variable is a group-join candidate: leave it for
        // `detect_group_join` (which fires at the enclosing `for`).
        if self.config.runs(Family::JoinDetection)
            && equi_join(value, |_, _| true).is_some_and(|join| join.residual.is_empty())
        {
            return None;
        }
        let uses = var_use(body, *var);
        // Dead binding: drop if the value can't error or construct.
        if uses == UseCount::Zero {
            if !can_raise_error(value) && !creates_nodes(value) {
                self.fired("let-eliminate-dead");
                return Some((**body).clone());
            }
            return None;
        }
        let trivial = matches!(&**value, Core::Const(_) | Core::Var(_) | Core::Empty);
        let inline = trivial || (uses == UseCount::Once && !creates_nodes(value));
        if inline && !creates_nodes(value) {
            self.fired("let-fold");
            return Some(substitute(body, *var, value));
        }
        None
    }

    // ---- FOR simplification ------------------------------------------------------

    fn for_simplify(&mut self, e: &Core) -> Option<Core> {
        let Core::For {
            var,
            position,
            source,
            body,
        } = e
        else {
            return None;
        };
        match &**source {
            Core::Empty => {
                self.fired("for-over-empty");
                return Some(Core::Empty);
            }
            // Single-item source → Let (plus position = 1).
            Core::Const(_) => {
                self.fired("for-single-to-let");
                let body = match position {
                    Some(p) => Core::Let {
                        var: *p,
                        value: Core::Const(AtomicValue::Integer(1)).boxed(),
                        body: body.clone(),
                    }
                    .boxed(),
                    None => body.clone(),
                };
                return Some(Core::Let {
                    var: *var,
                    value: source.clone(),
                    body,
                });
            }
            // for $x in (for $y in S return B) return C
            //   → for $y in S return (for $x in B return C)
            // Not with `at $p`: $p counts across all of the source, but
            // the inner loop would restart it for every $y.
            Core::For {
                var: v2,
                position: None,
                source: s2,
                body: b2,
            } if position.is_none() => {
                self.fired("for-unnest");
                return Some(Core::For {
                    var: *v2,
                    position: None,
                    source: s2.clone(),
                    body: Core::For {
                        var: *var,
                        position: None,
                        source: b2.clone(),
                        body: body.clone(),
                    }
                    .boxed(),
                });
            }
            // for $x in (let $y := V return B) → let $y := V for $x in B
            Core::Let {
                var: v2,
                value,
                body: b2,
            } => {
                self.fired("for-source-let-hoist");
                return Some(Core::Let {
                    var: *v2,
                    value: value.clone(),
                    body: Core::For {
                        var: *var,
                        position: *position,
                        source: b2.clone(),
                        body: body.clone(),
                    }
                    .boxed(),
                });
            }
            _ => {}
        }
        if position.is_none() {
            // Identity map: for $x in S return $x  →  S.
            if matches!(&**body, Core::Var(v) if v == var) {
                self.fired("for-identity");
                return Some((**source).clone());
            }
            // Map fusion into a path: for $x in S return $x/child-step
            // ≡ S/child-step (PathMap *is* the per-node map).
            if let Core::PathMap { input, step } = &**body {
                if matches!(&**input, Core::Var(v) if v == var)
                    && !uses_var(step, *var)
                    && matches!(
                        &**step,
                        Core::Step {
                            axis: AxisName::Child | AxisName::Attribute | AxisName::SelfAxis,
                            ..
                        }
                    )
                {
                    self.fired("for-to-path");
                    return Some(Core::PathMap {
                        input: source.clone(),
                        step: step.clone(),
                    });
                }
            }
        }
        None
    }

    // ---- where hoisting -----------------------------------------------------------

    /// Loop-invariant condition: `for $x in S return if C then B else ()`
    /// with C independent of `$x` → `if C then (for $x in S return B)`.
    /// The talk's caveat: hoisting *evaluates* C even when S is empty, so
    /// C must be provably error-free and side-effect-free.
    fn where_hoist(&mut self, e: &Core) -> Option<Core> {
        let Core::For {
            var,
            position,
            source,
            body,
        } = e
        else {
            return None;
        };
        let Core::If {
            cond,
            then_branch,
            else_branch,
        } = &**body
        else {
            return None;
        };
        if !matches!(&**else_branch, Core::Empty) {
            return None;
        }
        if uses_var(cond, *var)
            || position.is_some_and(|p| uses_var(cond, p))
            || can_raise_error(cond)
            || creates_nodes(cond)
        {
            return None;
        }
        self.fired("where-hoist");
        Some(Core::If {
            cond: cond.clone(),
            then_branch: Core::For {
                var: *var,
                position: *position,
                source: source.clone(),
                body: then_branch.clone(),
            }
            .boxed(),
            else_branch: Core::Empty.boxed(),
        })
    }

    // ---- loop-invariant hoisting ---------------------------------------------------

    const HOIST_MIN_SIZE: usize = 4;

    /// The talk's "LET clause unfolding": a pure sub-expression of a
    /// `for` body that does not depend on the loop variable evaluates
    /// once, bound in a `let` above the loop. Safety per the talk's
    /// slide: no side effects (node construction) and no errors, because
    /// hoisting evaluates the expression even when the loop is empty
    /// ("guaranteed only if runtime implements consistently lazy
    /// evaluation — otherwise dataflow analysis and error analysis
    /// required" — we do the analysis).
    fn loop_hoist(&mut self, e: &Core) -> Option<Core> {
        let Core::For {
            var,
            position,
            source,
            body,
        } = e
        else {
            return None;
        };
        // Neither the loop variables nor variables bound *inside* the
        // body (other binders) may be free in what moves above the loop.
        let mut excluded = all_bound_vars(body);
        excluded.push(*var);
        excluded.extend(*position);
        // The largest hoistable proper sub-expression of the body, the
        // first in document order on a tie.
        let mut best: Option<&Core> = None;
        body.for_each_child(&mut |c| largest_hoistable(c, &excluded, &mut best));
        let sub = best?.clone();
        Some(
            self.let_unfold("loop-invariant-hoist", sub, |sub, nv| Core::For {
                var: *var,
                position: *position,
                source: source.clone(),
                body: replace_subexpr(body, sub, nv).boxed(),
            }),
        )
    }

    /// Bind `sub` to a fresh variable in a `let` around `build`'s
    /// expression, which `build` makes with `sub` replaced by that
    /// variable.
    fn let_unfold(
        &mut self,
        rule: &'static str,
        sub: Core,
        build: impl FnOnce(&Core, VarId) -> Core,
    ) -> Core {
        let nv = self.fresh();
        let body = build(&sub, nv);
        self.fired(rule);
        Core::Let {
            var: nv,
            value: sub.boxed(),
            body: body.boxed(),
        }
    }

    // ---- path rewrites ---------------------------------------------------------------

    /// Collapse a step over a step: `x/s1/s2` with an optional `Ddo`
    /// between the two path maps.
    fn path_rewrite(&mut self, e: &Core) -> Option<Core> {
        let Core::PathMap { input, step } = e else {
            return None;
        };
        let Core::Step { axis, test } = &**step else {
            return None;
        };
        let inner = match &**input {
            Core::Ddo(i) => i,
            other => other,
        };
        let Core::PathMap {
            input: x,
            step: inner_step,
        } = inner
        else {
            return None;
        };
        let Core::Step {
            axis: inner_axis,
            test: inner_test,
        } = &**inner_step
        else {
            return None;
        };
        match (axis, test, inner_axis, inner_test) {
            // (1) `//name` collapse: PathMap(Ddo(PathMap(x, dos::node())), child::t)
            //     → PathMap(x, descendant::t). Sound because every PathMap
            //     created by normalization is consumed under a Ddo, and both
            //     forms denote the same node *set*.
            (AxisName::Child, _, AxisName::DescendantOrSelf, NodeTest::AnyKind) => {
                self.fired("dos-collapse");
                Some(Core::PathMap {
                    input: x.clone(),
                    step: Core::Step {
                        axis: AxisName::Descendant,
                        test: test.clone(),
                    }
                    .boxed(),
                })
            }
            // (2) parent-after-child collapse ("dealing with backwards
            //     navigation"): x/child::t/parent::node() → x[child::t].
            (AxisName::Parent, NodeTest::AnyKind, AxisName::Child, _) => {
                self.fired("parent-collapse");
                Some(Core::Filter {
                    input: x.clone(),
                    predicate: inner_step.clone(),
                })
            }
            _ => None,
        }
    }

    // ---- ddo elimination ----------------------------------------------------------

    fn ddo_eliminate(&mut self, e: &Core) -> Option<Core> {
        let Core::Ddo(inner) = e else { return None };
        if let Core::Ddo(_) = &**inner {
            self.fired("ddo-dedup");
            return Some((**inner).clone());
        }
        if order_facts_with(inner, &self.var_facts).ddo_redundant() {
            self.fired("ddo-eliminate");
            return Some((**inner).clone());
        }
        None
    }

    // ---- function inlining -----------------------------------------------------------

    const INLINE_SIZE_LIMIT: usize = 60;

    fn inline_function(&mut self, e: &Core) -> Option<Core> {
        let Core::UserCall(fid, args) = e else {
            return None;
        };
        if self.recursive.get(fid.0 as usize).copied().unwrap_or(true) {
            return None;
        }
        let f = self.functions.get(fid.0 as usize)?;
        if f.body.size() > Self::INLINE_SIZE_LIMIT {
            return None;
        }
        // Context-sensitive bodies must not inline: a function body has
        // no focus, but inlined code would inherit the call site's (the
        // talk's "is the evaluation of an expression context-sensitive?"
        // analysis).
        if uses_context(&f.body) {
            return None;
        }
        // element-constructor namespace scoping makes inlining across
        // constructor boundaries unsafe in general; our names are
        // resolved at parse time, so it is safe here (the talk's caveat
        // applies to lexically scoped namespaces, resolved already).
        // Declared types stay enforced across inlining via `treat as`
        // (the type-rewrite family removes provably-satisfied ones).
        let mut out = match &f.return_type {
            Some(ty) => Core::TreatAs(f.body.clone().boxed(), ty.clone()),
            None => f.body.clone(),
        };
        // Bind parameters via Lets (value-once semantics); LetFold will
        // inline further when safe.
        for ((pvar, pty), arg) in f.params.iter().zip(args).rev() {
            let value = match pty {
                Some(ty) => Core::TreatAs(arg.clone().boxed(), ty.clone()),
                None => arg.clone(),
            };
            out = Core::Let {
                var: *pvar,
                value: value.boxed(),
                body: out.boxed(),
            };
        }
        self.fired("function-inline");
        Some(out)
    }

    // ---- join detection -----------------------------------------------------------------

    /// `for $x in A return for $y in B return if ($k1 = $k2) then R else ()`
    /// with B independent of `$x`, `$k1` over `$x`, `$k2` over `$y`
    /// → hash join (the talk's "join ordering" family). The condition
    /// may be an `and`-tree: one equi-conjunct splitting on (x, y) is
    /// the key, the rest stays as a residual filter. Reordering
    /// conjuncts is licensed by the talk's non-deterministic two-value
    /// logic for `and`.
    fn detect_join(&mut self, e: &Core) -> Option<Core> {
        let Core::For {
            var: x,
            position: None,
            source: a,
            body,
        } = e
        else {
            return None;
        };
        let join = equi_join(body, |okey, ikey| uses_var(okey, *x) && !uses_var(ikey, *x))?;
        if uses_var(join.source, *x) || join.constructs() {
            return None;
        }
        // Residual conjuncts may error; evaluating them only for
        // key-matching pairs evaluates *fewer* conditions than the
        // original, which lazy two-value logic permits.
        let mut residual = join.residual.into_iter().cloned();
        let body_core = match residual.next() {
            None => join.body.clone(),
            Some(first) => Core::If {
                cond: residual
                    .fold(first, |acc, c| Core::And(acc.boxed(), c.boxed()))
                    .boxed(),
                then_branch: join.body.clone().boxed(),
                else_branch: Core::Empty.boxed(),
            },
        };
        self.fired("join-detect");
        Some(Core::HashJoin {
            outer_var: *x,
            outer: a.clone(),
            inner_var: join.var,
            inner: join.source.clone().boxed(),
            outer_key: join.outer_key.clone().boxed(),
            inner_key: join.inner_key.clone().boxed(),
            group: None,
            body: body_core.boxed(),
        })
    }

    /// The let-bound join (XMark Q8/Q9 shape):
    /// `for $p in P let $a := (for $t in T return if (k(t) = k(p)) then R else ()) return B`
    /// becomes a hash **group** join: T is scanned and hashed once, the
    /// matches (mapped through R) bind to `$a` per outer item.
    fn detect_group_join(&mut self, e: &Core) -> Option<Core> {
        let Core::For {
            var: p,
            position: None,
            source: outer_src,
            body,
        } = e
        else {
            return None;
        };
        let Core::Let {
            var: a,
            value,
            body: let_body,
        } = &**body
        else {
            return None;
        };
        let join = equi_join(value, |okey, ikey| {
            uses_var(okey, *p) && !uses_var(ikey, *p)
        })?;
        if !join.residual.is_empty() || uses_var(join.source, *p) || join.constructs() {
            return None;
        }
        // R is still evaluated per (outer, match) pair, as in the
        // original, so it may depend on `$p` and may construct nodes.
        self.fired("group-join-detect");
        // The hash table over the inner side is built once, above the
        // outer iteration — that is the whole point.
        Some(Core::HashJoin {
            outer_var: *p,
            outer: outer_src.clone(),
            inner_var: join.var,
            inner: join.source.clone().boxed(),
            outer_key: join.outer_key.clone().boxed(),
            inner_key: join.inner_key.clone().boxed(),
            group: Some(GroupSpec {
                let_var: *a,
                match_body: join.body.clone().boxed(),
            }),
            body: let_body.clone(),
        })
    }

    /// Decorrelate joinable Let clauses inside a tupled (`order by`)
    /// FLWOR into [`CoreClause::GroupLet`] — the runtime then builds the
    /// inner hash table once per FLWOR evaluation instead of rescanning
    /// per tuple.
    fn decorrelate_flwor(&mut self, e: &Core) -> Option<Core> {
        let Core::OrderedFlwor {
            clauses,
            where_clause,
            order,
            stable,
            body,
        } = e
        else {
            return None;
        };
        // Variables bound by this FLWOR's clauses (the inner side must
        // be independent of all of them).
        let flwor_vars: Vec<VarId> = clauses
            .iter()
            .flat_map(|c| match c {
                CoreClause::For { var, position, .. } => {
                    let mut v = vec![*var];
                    v.extend(*position);
                    v
                }
                CoreClause::Let { var, .. } => vec![*var],
                CoreClause::GroupLet { var, inner_var, .. } => vec![*var, *inner_var],
            })
            .collect();
        let mut changed = false;
        let mut new_clauses: Vec<CoreClause> = Vec::with_capacity(clauses.len());
        for c in clauses {
            let CoreClause::Let { var, value } = c else {
                new_clauses.push(c.clone());
                continue;
            };
            // Loop-invariant hoisting may have wrapped the joinable For
            // in Lets (e.g. the outer key); lift those into ordinary Let
            // clauses ahead of the GroupLet.
            let mut lifted: Vec<(VarId, &Core)> = Vec::new();
            let mut cursor: &Core = value;
            while let Core::Let {
                var: lv,
                value: lval,
                body: lbody,
            } = cursor
            {
                lifted.push((*lv, lval));
                cursor = lbody;
            }
            // The inner key must not lean on the lifted (per-tuple) lets.
            let join = equi_join(cursor, |_, ikey| {
                !lifted.iter().any(|(lv, _)| uses_var(ikey, *lv))
            });
            let Some(join) = join.filter(|j| {
                j.residual.is_empty()
                    && !flwor_vars.iter().any(|v| uses_var(j.source, *v))
                    && !lifted.iter().any(|(lv, _)| uses_var(j.source, *lv))
                    && !j.constructs()
            }) else {
                new_clauses.push(c.clone());
                continue;
            };
            changed = true;
            self.fired("flwor-decorrelate");
            for (lv, lval) in lifted {
                new_clauses.push(CoreClause::Let {
                    var: lv,
                    value: lval.clone(),
                });
            }
            new_clauses.push(CoreClause::GroupLet {
                var: *var,
                inner_var: join.var,
                inner: join.source.clone(),
                inner_key: join.inner_key.clone(),
                outer_key: join.outer_key.clone(),
                match_body: join.body.clone(),
            });
        }
        if !changed {
            return None;
        }
        Some(Core::OrderedFlwor {
            clauses: new_clauses,
            where_clause: where_clause.clone(),
            order: order.clone(),
            stable: *stable,
            body: body.clone(),
        })
    }

    // ---- common sub-expression factorization ------------------------------------------------

    const CSE_MIN_SIZE: usize = 5;

    /// Factor a repeated pure sub-expression out of a binder body (the
    /// talk's "common sub-expression factorization" with its questions:
    /// same expression? same context? side effects? errors?).
    fn factor_common(&mut self, e: &Core) -> Option<Core> {
        // Anchor at binders only, so a fixpoint is reached quickly.
        if !matches!(e, Core::Let { .. } | Core::For { .. } | Core::If { .. }) {
            return None;
        }
        // Every free variable of the candidate must be bound outside
        // `e`, otherwise hoisting breaks scoping.
        let bound = all_bound_vars(e);
        let mut counts: Vec<(&Core, usize)> = Vec::new();
        collect_subexprs(e, &mut counts);
        let mut best: Option<(&Core, usize)> = None;
        for &(sub, n) in &counts {
            if n < 2 || !hoistable(sub, Self::CSE_MIN_SIZE, &bound) {
                continue;
            }
            match best {
                Some((b, bn)) if b.size() * bn >= sub.size() * n => {}
                _ => best = Some((sub, n)),
            }
        }
        let sub = best?.0.clone();
        Some(self.let_unfold("cse-factor", sub, |sub, nv| replace_subexpr(e, sub, nv)))
    }

    // ---- type-based rewrites ---------------------------------------------------------------------

    fn type_rewrite(&mut self, e: &Core) -> Option<Core> {
        match e {
            Core::InstanceOf(inner, ty) => {
                let mut env = TypeEnv::new(&self.functions);
                let got = infer(inner, &mut env);
                if got.is_subtype_of(ty) && !can_raise_error(inner) && !creates_nodes(inner) {
                    self.fired("instance-of-fold");
                    return Some(Core::Const(AtomicValue::Boolean(true)));
                }
                // Provably false: non-empty value whose item type cannot
                // intersect the target's.
                if let (SequenceType::Of(gi, go), SequenceType::Of(ti, _)) = (&got, ty) {
                    if gi.intersect(ti).is_none()
                        && !go.allows_empty()
                        && !can_raise_error(inner)
                        && !creates_nodes(inner)
                    {
                        self.fired("instance-of-fold");
                        return Some(Core::Const(AtomicValue::Boolean(false)));
                    }
                }
                None
            }
            Core::TreatAs(inner, ty) => {
                let mut env = TypeEnv::new(&self.functions);
                let got = infer(inner, &mut env);
                if got.is_subtype_of(ty) {
                    self.fired("treat-eliminate");
                    return Some((**inner).clone());
                }
                None
            }
            Core::CastAs(inner, ty, _) => {
                let mut env = TypeEnv::new(&self.functions);
                let got = infer(inner, &mut env);
                if got == SequenceType::atomic(*ty) {
                    self.fired("cast-identity");
                    return Some((**inner).clone());
                }
                None
            }
            _ => None,
        }
    }
}

/// Does `e` reference the context item / position / size?
fn uses_context(e: &Core) -> bool {
    match e {
        Core::ContextItem | Core::Root | Core::Step { .. } => true,
        Core::Builtin(n, args) => {
            matches!(
                *n,
                "position"
                    | "last"
                    | "string"
                    | "number"
                    | "name"
                    | "local-name"
                    | "namespace-uri"
                    | "normalize-space"
                    | "string-length"
            ) && args.is_empty()
                || args.iter().any(uses_context)
        }
        // PathMap/Filter rebind the context for their step/predicate;
        // only the input's context sensitivity leaks out.
        Core::PathMap { input, .. }
        | Core::Filter { input, .. }
        | Core::PositionConst { input, .. } => uses_context(input),
        _ => {
            let mut any = false;
            e.for_each_child(&mut |c| any |= uses_context(c));
            any
        }
    }
}

/// The shape every join rule starts from:
/// `for $t in S return if C then R else ()` where one conjunct of C is
/// an equality `k1 = k2` (general or value, under an optional `Ebv`)
/// with `$t` free in exactly one key.
struct EquiJoin<'e> {
    /// `$t`.
    var: VarId,
    /// S, the side the hash table is built from.
    source: &'e Core,
    /// The key without `$t`, probed per outer binding.
    outer_key: &'e Core,
    /// The key over `$t`.
    inner_key: &'e Core,
    /// R, what each match yields.
    body: &'e Core,
    /// The conjuncts of C other than the key.
    residual: Vec<&'e Core>,
}

impl EquiJoin<'_> {
    /// Does a part the join evaluates out of its original place build
    /// nodes?
    fn constructs(&self) -> bool {
        creates_nodes(self.outer_key) || creates_nodes(self.inner_key) || creates_nodes(self.source)
    }
}

/// Match `e` as an [`EquiJoin`] whose key is the first conjunct that
/// `accept(outer key, inner key)` admits.
fn equi_join(e: &Core, accept: impl Fn(&Core, &Core) -> bool) -> Option<EquiJoin<'_>> {
    let Core::For {
        var,
        position: None,
        source,
        body,
    } = e
    else {
        return None;
    };
    let Core::If {
        cond,
        then_branch,
        else_branch,
    } = &**body
    else {
        return None;
    };
    if !matches!(&**else_branch, Core::Empty) {
        return None;
    }
    let mut conjuncts = Vec::new();
    collect_conjuncts(cond, &mut conjuncts);
    let mut key = None;
    let mut residual = Vec::new();
    for c in conjuncts {
        if key.is_none() {
            key = equi_key(c, *var).filter(|&(okey, ikey)| accept(okey, ikey));
            if key.is_some() {
                continue;
            }
        }
        residual.push(c);
    }
    let (outer_key, inner_key) = key?;
    Some(EquiJoin {
        var: *var,
        source,
        outer_key,
        inner_key,
        body: then_branch,
        residual,
    })
}

/// `k1 = k2` (general or value, under an optional `Ebv`) with `var`
/// free in exactly one key. Returns (outer key, inner key): the key
/// without `var`, then the key over it.
fn equi_key(cond: &Core, var: VarId) -> Option<(&Core, &Core)> {
    let cmp = match cond {
        Core::Ebv(inner) => &**inner,
        other => other,
    };
    let Core::Compare(CompOp::GenEq | CompOp::ValEq, k1, k2) = cmp else {
        return None;
    };
    match (uses_var(k1, var), uses_var(k2, var)) {
        (false, true) => Some((k1, k2)),
        (true, false) => Some((k2, k1)),
        _ => None,
    }
}

/// Flatten an `and`-tree (possibly wrapped in Ebv) into conjuncts.
fn collect_conjuncts<'e>(e: &'e Core, out: &mut Vec<&'e Core>) {
    match e {
        Core::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        Core::Ebv(inner) if matches!(&**inner, Core::And(..)) => collect_conjuncts(inner, out),
        other => out.push(other),
    }
}

fn uses_var(e: &Core, var: VarId) -> bool {
    var_use(e, var) != UseCount::Zero
}

/// May `sub` move into a fresh `let` above where it stands? It must be
/// big enough to pay for the binding, not a leaf, and free of the
/// `excluded` variables. It must also be pure: a hoisted expression is
/// evaluated where the original might never have run, and once where
/// the original ran in several places, so it builds no nodes, raises no
/// error and reads no context (the talk's "same context?").
fn hoistable(sub: &Core, min_size: usize, excluded: &[VarId]) -> bool {
    sub.size() >= min_size
        && !matches!(sub, Core::Var(_) | Core::Const(_) | Core::Empty)
        && !excluded.iter().any(|v| uses_var(sub, *v))
        && !creates_nodes(sub)
        && !can_raise_error(sub)
        && !uses_context(sub)
}

/// The largest hoistable expression at or below `e`, the first in
/// document order on a tie. The search stops at the first hoistable
/// node on each path: everything below it is smaller.
fn largest_hoistable<'e>(e: &'e Core, excluded: &[VarId], best: &mut Option<&'e Core>) {
    if hoistable(e, Optimizer::HOIST_MIN_SIZE, excluded) {
        if best.is_none_or(|b| e.size() > b.size()) {
            *best = Some(e);
        }
    } else {
        e.for_each_child(&mut |c| largest_hoistable(c, excluded, best));
    }
}

/// All variables bound anywhere inside `e`.
fn all_bound_vars(e: &Core) -> Vec<VarId> {
    let mut out = e.bound_vars();
    e.for_each_child(&mut |c| out.extend(all_bound_vars(c)));
    out
}

/// Count structural occurrences of candidate sub-expressions (linear
/// association list: `Core` holds floats, so no `Eq`/`Hash`).
fn collect_subexprs<'e>(e: &'e Core, counts: &mut Vec<(&'e Core, usize)>) {
    e.for_each_child(&mut |c| {
        match counts.iter_mut().find(|(k, _)| *k == c) {
            Some((_, n)) => *n += 1,
            None => counts.push((c, 1)),
        }
        collect_subexprs(c, counts);
    });
}

/// Substitute `Var(var)` by `value` throughout (capture-free because all
/// registers are globally unique).
fn substitute(e: &Core, var: VarId, value: &Core) -> Core {
    match e {
        Core::Var(v) if *v == var => value.clone(),
        other => {
            let mut out = other.clone();
            out.for_each_child_mut(&mut |c| {
                let taken = std::mem::replace(c, Core::Empty);
                *c = substitute(&taken, var, value);
            });
            out
        }
    }
}

/// Replace every occurrence of `target` (structural equality), the
/// root included, by a variable reference.
fn replace_subexpr(e: &Core, target: &Core, var: VarId) -> Core {
    if e == target {
        return Core::Var(var);
    }
    let mut out = e.clone();
    out.for_each_child_mut(&mut |c| {
        let taken = std::mem::replace(c, Core::Empty);
        *c = replace_subexpr(&taken, target, var);
    });
    out
}

/// Which functions are (mutually) recursive?
fn compute_recursive(functions: &[CoreFunction]) -> Vec<bool> {
    let n = functions.len();
    // callees[i] = set of functions i calls.
    let mut reach: Vec<Vec<bool>> = vec![vec![false; n]; n];
    for (i, f) in functions.iter().enumerate() {
        fn visit(e: &Core, row: &mut [bool]) {
            if let Core::UserCall(fid, _) = e {
                if let Some(slot) = row.get_mut(fid.0 as usize) {
                    *slot = true;
                }
            }
            e.for_each_child(&mut |c| visit(c, row));
        }
        visit(&f.body, &mut reach[i]);
    }
    // Transitive closure (n is tiny).
    #[allow(clippy::needless_range_loop)] // reach[i] and reach[k] alias the same vec
    for k in 0..n {
        for i in 0..n {
            if reach[i][k] {
                for j in 0..n {
                    if reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
    }
    (0..n).map(|i| reach[i][i]).collect()
}

/// Optimize a whole module in place; returns firing stats.
pub fn optimize_module(module: &mut CoreModule, config: &RewriteConfig) -> RewriteStats {
    let functions = module.functions.clone();
    let mut opt = Optimizer {
        config: config.clone(),
        recursive: compute_recursive(&functions),
        functions,
        next_var: module.var_count,
        var_facts: HashMap::new(),
        stats: HashMap::new(),
    };
    // Globals' ordering facts are visible to everything after them.
    for (_, var, value) in &module.globals {
        if let Some(v) = value {
            let f = order_facts_with(v, &HashMap::new());
            opt.var_facts.insert(*var, f);
        }
    }
    for f in &mut module.functions {
        let body = std::mem::replace(&mut f.body, Core::Empty);
        f.body = opt.run(body);
    }
    for (_, _, value) in &mut module.globals {
        if let Some(v) = value {
            let taken = std::mem::replace(v, Core::Empty);
            *v = opt.run(taken);
        }
    }
    let body = std::mem::replace(&mut module.body, Core::Empty);
    module.body = opt.run(body);
    module.var_count = opt.next_var;
    opt.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_module;
    use xqr_xqparser::parse_query;

    fn opt(src: &str) -> (Core, RewriteStats) {
        let mut m = normalize_module(&parse_query(src).unwrap()).unwrap();
        let stats = optimize_module(&mut m, &RewriteConfig::all());
        (m.body, stats)
    }

    fn opt_with(src: &str, cfg: &RewriteConfig) -> Core {
        let mut m = normalize_module(&parse_query(src).unwrap()).unwrap();
        optimize_module(&mut m, cfg);
        m.body
    }

    /// How many nodes of `e`, itself included, satisfy `pred`.
    fn count(e: &Core, pred: &dyn Fn(&Core) -> bool) -> usize {
        let mut n = pred(e) as usize;
        e.for_each_child(&mut |c| n += count(c, pred));
        n
    }

    fn count_ddo(e: &Core) -> usize {
        count(e, &|n| matches!(n, Core::Ddo(_)))
    }

    #[test]
    fn constant_folding_examples() {
        let (e, _) = opt("1 + 4");
        assert_eq!(e, Core::Const(AtomicValue::Integer(5)));
        let (e, _) = opt("1 - 4 * 8.5");
        assert_eq!(e.size(), 1);
        let (e, _) = opt("if (1 eq 1) then \"y\" else \"n\"");
        assert_eq!(e, Core::Const(AtomicValue::string("y")));
        let (e, _) = opt("count((1, 2, 3))");
        assert_eq!(e, Core::Const(AtomicValue::Integer(3)));
    }

    #[test]
    fn erroring_constants_are_not_folded() {
        // 1 idiv 0 must raise at runtime (lazily), not at compile time.
        let (e, _) = opt("1 idiv 0");
        assert!(matches!(e, Core::Arith(..)));
    }

    #[test]
    fn let_folding_basic() {
        // The talk: let $x := 3 return $x + 2 → 5 (fold then const-fold).
        let (e, stats) = opt("let $x := 3 return $x + 2");
        assert_eq!(e, Core::Const(AtomicValue::Integer(5)));
        assert!(stats.contains_key("let-fold"));
    }

    #[test]
    fn let_folding_blocked_by_construction() {
        // The talk: let $x := <a/> return ($x, $x) ≠ (<a/>, <a/>).
        let (e, _) = opt("let $x := <a/> return ($x, $x)");
        assert!(matches!(e, Core::Let { .. }), "{e:?}");
    }

    #[test]
    fn dead_let_eliminated_only_when_safe() {
        let (e, _) = opt("let $x := (1, 2) return 7");
        assert_eq!(e, Core::Const(AtomicValue::Integer(7)));
        // value can error → keep
        let (e, _) = opt("let $x := 1 idiv 0 return 7");
        assert!(matches!(e, Core::Let { .. }));
    }

    #[test]
    fn for_identity_elimination() {
        let (e, _) = opt("declare variable $s external; for $x in $s return $x");
        assert!(matches!(e, Core::Var(_)), "{e:?}");
    }

    #[test]
    fn for_over_empty() {
        let (e, _) = opt("for $x in () return <a/>");
        assert_eq!(e, Core::Empty);
    }

    #[test]
    fn for_unnesting() {
        let (e, stats) = opt("declare variable $s external;
             for $x in (for $y in $s return $y) return $x");
        // collapses to $s eventually
        assert!(matches!(e, Core::Var(_)), "{e:?}");
        let _ = stats;
    }

    #[test]
    fn positional_for_is_not_unnested() {
        // `$p` counts 1 2 3 4 over the flattened source; unnesting would
        // restart it per `$y` (1 2 1 2).
        let (e, stats) = opt("for $x at $p in (for $y in (1, 2) return ($y, $y)) return $p");
        assert!(!stats.contains_key("for-unnest"), "{stats:?}\n{e:?}");
    }

    #[test]
    fn for_over_single_constant_becomes_let() {
        let (e, stats) = opt("for $x in 5 return $x + 1");
        assert!(stats.contains_key("for-single-to-let"), "{stats:?}");
        assert_eq!(e, Core::Const(AtomicValue::Integer(6)));
        let (e, _) = opt("for $x at $i in 5 return $x + $i");
        assert_eq!(e, Core::Const(AtomicValue::Integer(6)));
    }

    #[test]
    fn cast_to_the_inferred_type_is_dropped() {
        let (e, stats) = opt("xs:integer(count(//a))");
        assert!(stats.contains_key("cast-identity"), "{stats:?}");
        assert!(matches!(e, Core::Builtin("count", _)), "{e:?}");
    }

    #[test]
    fn where_hoisting_fires_for_invariant_condition() {
        let (e, stats) = opt(
            "declare variable $s external; declare variable $flag external;
             for $x in $s where exists($flag) return $x",
        );
        assert!(stats.contains_key("where-hoist"), "{e:?} {stats:?}");
        assert!(matches!(e, Core::If { .. }), "{e:?}");
    }

    #[test]
    fn where_hoisting_blocked_by_errors() {
        let (_, stats) = opt("declare variable $s external; declare variable $n external;
             for $x in $s where (1 idiv $n) eq 1 return $x");
        assert!(!stats.contains_key("where-hoist"));
    }

    #[test]
    fn dos_collapse_rewrites_descendant_paths() {
        let (e, stats) = opt("//book");
        assert!(stats.contains_key("dos-collapse"), "{stats:?}");
        assert!(
            count(&e, &|n| matches!(
                n,
                Core::Step {
                    axis: AxisName::Descendant,
                    ..
                }
            )) > 0,
            "{e:?}"
        );
    }

    #[test]
    fn ddo_elimination_on_forward_paths() {
        let cfg_all = RewriteConfig::all();
        let e = opt_with("/a/b/c", &cfg_all);
        assert_eq!(count_ddo(&e), 0, "{e:?}");
        // With the family off, ddos remain.
        let e = opt_with("/a/b/c", &RewriteConfig::without(Family::DdoElimination));
        assert!(count_ddo(&e) > 0);
    }

    #[test]
    fn ddo_kept_when_order_unknown() {
        let e = opt_with(
            "declare variable $s external; $s//a//b",
            &RewriteConfig::all(),
        );
        assert!(count_ddo(&e) > 0, "{e:?}");
    }

    #[test]
    fn parent_collapse() {
        let (e, stats) = opt("declare variable $s external; $s/e/..");
        assert!(stats.contains_key("parent-collapse"), "{e:?} {stats:?}");
        assert!(count(&e, &|n| matches!(n, Core::Filter { .. })) > 0);
    }

    #[test]
    fn function_inlining() {
        let (e, stats) = opt(
            "declare function local:inc($x as xs:integer) as xs:integer { $x + 1 };
             local:inc(4)",
        );
        assert!(stats.contains_key("function-inline"));
        assert_eq!(e, Core::Const(AtomicValue::Integer(5)));
    }

    #[test]
    fn recursive_functions_not_inlined() {
        let (e, stats) = opt("declare function local:f($n as xs:integer) as xs:integer {
               if ($n le 0) then 0 else local:f($n - 1)
             };
             local:f(3)");
        assert!(!stats.contains_key("function-inline"));
        assert!(matches!(e, Core::UserCall(..)));
    }

    #[test]
    fn join_detection() {
        let (e, stats) = opt(
            "declare variable $books external; declare variable $pubs external;
             for $b in $books/book
             return for $p in $pubs/publisher
                    return if ($b/publisher = $p/name) then ($b, $p) else ()",
        );
        assert!(stats.contains_key("join-detect"), "{stats:?}");
        assert!(
            count(&e, &|n| matches!(n, Core::HashJoin { .. })) > 0,
            "{e:?}"
        );
    }

    #[test]
    fn loop_invariant_hoisting() {
        // The talk's unfolding example: ($input + 2) moves out of the loop.
        let (e, stats) = opt("declare variable $input external;
             for $x in (1 to 10) return count(($input, $input, $input)) + $x");
        assert!(
            stats.contains_key("loop-invariant-hoist"),
            "{stats:?}\n{e:?}"
        );
        // Result shape: Let above the For.
        fn let_above_for(e: &Core) -> bool {
            match e {
                Core::Let { body, .. } => {
                    matches!(&**body, Core::For { .. }) || let_above_for(body)
                }
                _ => {
                    let mut f = false;
                    e.for_each_child(&mut |c| f |= let_above_for(c));
                    f
                }
            }
        }
        assert!(let_above_for(&e), "{e:?}");
    }

    #[test]
    fn loop_hoisting_blocked_by_errors_and_loop_vars() {
        // Errors must not be speculated.
        let (_, stats) = opt("declare variable $input external;
             for $x in (1 to 10) return ($input idiv 0) + $x");
        assert!(!stats.contains_key("loop-invariant-hoist"), "{stats:?}");
        // Sub-expressions using the loop variable stay put.
        let (_, stats) = opt("declare variable $input external;
             for $x in (1 to 10) return count(($input, $x, $input, $x, $input))");
        assert!(!stats.contains_key("loop-invariant-hoist"), "{stats:?}");
    }

    #[test]
    fn unordered_relaxes_ddo_to_distinctness() {
        // /descendant::a/b is distinct but not ordered: inside
        // unordered{}, the ddo can go entirely.
        let (_, stats) = opt("unordered { /descendant::a/b }");
        assert!(stats.contains_key("unordered-ddo-relax"), "{stats:?}");
        // //a//b is neither ordered nor distinct: ddo must stay.
        let (e, stats) = opt("unordered { /descendant::a/descendant::b }");
        assert!(!stats.contains_key("unordered-ddo-relax"), "{stats:?}");
        assert!(count_ddo(&e) > 0);
    }

    #[test]
    fn join_detection_with_conjunct_residue() {
        // The customer query's triple-join shape: one equi-conjunct
        // becomes the hash key, the rest stays as a residual filter.
        let (e, stats) = opt(
            "declare variable $dcs external; declare variable $des external;
             for $dc in $dcs
             return for $de in $des
                    return if ($dc/@document-exchange-name = $de/@name
                               and $de/@business-protocol-name = \"ebXML\")
                           then ($dc, $de) else ()",
        );
        assert!(stats.contains_key("join-detect"), "{stats:?}");
        fn join_with_residual(e: &Core) -> bool {
            if let Core::HashJoin { body, .. } = e {
                return matches!(&**body, Core::If { .. });
            }
            let mut f = false;
            e.for_each_child(&mut |c| f |= join_with_residual(c));
            f
        }
        assert!(join_with_residual(&e), "{e:?}");
    }

    #[test]
    fn group_join_detection() {
        // The XMark Q8 shape: let-bound filtered inner loop.
        let (e, stats) = opt(
            "declare variable $people external; declare variable $sales external;
             for $p in $people
             let $a := (for $t in $sales return if ($t/buyer = $p/id) then $t else ())
             return count($a)",
        );
        assert!(stats.contains_key("group-join-detect"), "{stats:?}\n{e:?}");
        assert!(
            count(&e, &|n| matches!(n, Core::HashJoin { group: Some(_), .. })) > 0,
            "{e:?}"
        );
    }

    #[test]
    fn flwor_decorrelation_with_order_by() {
        let (e, stats) = opt(
            "declare variable $people external; declare variable $sales external;
             for $p in $people
             let $a := (for $t in $sales return if ($t/buyer = $p/id) then $t else ())
             order by count($a)
             return count($a)",
        );
        assert!(stats.contains_key("flwor-decorrelate"), "{stats:?}\n{e:?}");
        let group_let = |n: &Core| match n {
            Core::OrderedFlwor { clauses, .. } => clauses
                .iter()
                .any(|c| matches!(c, CoreClause::GroupLet { .. })),
            _ => false,
        };
        assert!(count(&e, &group_let) > 0, "{e:?}");
    }

    #[test]
    fn cse_factors_repeated_subexpression() {
        let (e, stats) = opt("declare variable $d external;
             if (count($d/a/b) gt 1) then count($d/a/b) else 0");
        assert!(stats.contains_key("cse-factor"), "{stats:?}\n{e:?}");
        assert!(matches!(e, Core::Let { .. }), "{e:?}");
    }

    #[test]
    fn instance_of_folding() {
        let (e, _) = opt("5 instance of xs:integer");
        assert_eq!(e, Core::Const(AtomicValue::Boolean(true)));
        let (e, _) = opt("\"x\" instance of xs:integer");
        assert_eq!(e, Core::Const(AtomicValue::Boolean(false)));
    }

    #[test]
    fn boolean_shortcuts() {
        let (e, _) = opt("1 eq 1 and 2 eq 2");
        assert_eq!(e, Core::Const(AtomicValue::Boolean(true)));
        // The talk: false and error → false is permitted.
        let (e, _) = opt("1 eq 2 and (1 idiv 0 eq 1)");
        assert_eq!(e, Core::Const(AtomicValue::Boolean(false)));
    }

    #[test]
    fn disabled_config_is_inert() {
        let e = opt_with("1 + 1", &RewriteConfig::none());
        assert!(matches!(e, Core::Arith(..)));
    }

    #[test]
    fn stats_reported_per_rule() {
        let (_, stats) = opt("1 + 1 + 2");
        assert!(stats.get("constant-fold-arith").copied().unwrap_or(0) >= 2);
    }
}
