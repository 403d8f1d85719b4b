//! The push-based streaming evaluator.
//!
//! The talk's engine pulls tokens through TokenIterators; the Rust
//! equivalent with the same asymptotics is a *push* pipeline with a stop
//! signal: every operator streams items into a [`Sink`] and the sink
//! returns [`Flow::Done`] to cut evaluation short. That single mechanism
//! implements the talk's lazy-evaluation demands — quantifiers stop at
//! the first witness, positional predicates stop at position `k`
//! (experiments E2/E10), `fn:exists`/`fn:empty` stop after one item —
//! while operators that genuinely need materialization (sort, ddo,
//! multiply-used variables) collect into vectors, exactly the talk's
//! "when should we materialize?" list.

use crate::compare::{general_compare, node_compare, value_compare};
use crate::construct::{self, NodeTarget};
use crate::env::{DynamicContext, ExecState, Focus};
use crate::functions;
use crate::value::{atomize, atomize_one, effective_boolean_value, Item, Sequence};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use xqr_compiler::{Core, CoreClause, CoreModule, CoreName, FuncId, VarId};
use xqr_store::{walk, Axis, NodeId, NodeRef};
use xqr_xdm::{
    AtomicType, AtomicValue, Error, ErrorCode, GuardUsage, ItemType, Limits, NameId, NameTest,
    NodeKind, QName, Result, SequenceType,
};
use xqr_xqparser::ast::{AxisName, NodeTest};

/// Stop/continue signal returned by sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    More,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetOp {
    Union,
    Intersect,
    Except,
}

/// Consumer of a streamed item sequence.
pub trait Sink {
    fn accept(&mut self, ev: &Evaluator<'_>, st: &mut ExecState, item: Item) -> Result<Flow>;

    /// Where a constructor whose node flows straight into this sink
    /// writes it, instead of minting a store document and handing the
    /// node to [`Sink::accept`]: the reply ([`crate::Reply`]) or an
    /// enclosing constructor's content. `None`, the default, wherever
    /// items are bound, navigated, compared or reordered — there the
    /// node needs an identity, so it is stored.
    fn tree(&mut self) -> Option<&mut dyn NodeTarget> {
        None
    }
}

/// Materialization: collect every item.
impl Sink for Sequence {
    fn accept(&mut self, _ev: &Evaluator<'_>, _st: &mut ExecState, item: Item) -> Result<Flow> {
        self.push(item);
        Ok(Flow::More)
    }
}

struct LimitSink<'a> {
    out: &'a mut Sequence,
    limit: usize,
}

impl Sink for LimitSink<'_> {
    fn accept(&mut self, _ev: &Evaluator<'_>, _st: &mut ExecState, item: Item) -> Result<Flow> {
        self.out.push(item);
        Ok(if self.out.len() >= self.limit {
            Flow::Done
        } else {
            Flow::More
        })
    }
}

/// Execution counters (instrumentation for tests and the benches).
#[derive(Debug, Default)]
pub struct Counters {
    pub items_produced: Cell<u64>,
    /// Constructor evaluations of every kind, whether the node was
    /// written straight into its target or minted as a store document.
    pub nodes_constructed: Cell<u64>,
    pub ddo_sorts: Cell<u64>,
    pub early_exits: Cell<u64>,
    pub function_calls: Cell<u64>,
    pub memo_hits: Cell<u64>,
    pub join_builds: Cell<u64>,
    /// Index-backed access paths answered from a structural index.
    pub index_hits: Cell<u64>,
    /// Index-backed access paths that fell back to navigation (no index
    /// attached, unknown document, or no context node).
    pub index_misses: Cell<u64>,
    /// Inverted-list scans answered from a shared batch scan cache
    /// instead of being rebuilt from the index.
    pub scan_cache_hits: Cell<u64>,
    /// Budget consumption gauges, copied from the [`xqr_xdm::QueryGuard`]
    /// after execution so explain/bench output can report them.
    pub budget_items: Cell<u64>,
    pub budget_tokens: Cell<u64>,
    pub budget_output_bytes: Cell<u64>,
    pub budget_peak_depth: Cell<u64>,
    /// Streaming-pass gauges, recorded via
    /// [`Counters::record_stream_stats`] when an execution (or a pub/sub
    /// shared pass) ran the token-streaming matcher, so `skip()` pruning
    /// shows up on the same surface as materialized counters.
    pub stream_tokens_seen: Cell<u64>,
    pub stream_tokens_skipped: Cell<u64>,
    pub stream_matches: Cell<u64>,
}

impl Counters {
    /// Snapshot the guard's consumption gauges into the counters.
    pub(crate) fn record_guard_usage(&self, usage: &GuardUsage) {
        self.budget_items.set(usage.items);
        self.budget_tokens.set(usage.tokens);
        self.budget_output_bytes.set(usage.output_bytes);
        self.budget_peak_depth.set(usage.peak_depth);
    }

    /// Accumulate one streaming pass's [`crate::StreamStats`] into the
    /// stream gauges (accumulating, not overwriting: a publish may run a
    /// shared pass and later record fallback passes too).
    pub fn record_stream_stats(&self, stats: &crate::StreamStats) {
        self.stream_tokens_seen
            .set(self.stream_tokens_seen.get() + stats.tokens_seen);
        self.stream_tokens_skipped
            .set(self.stream_tokens_skipped.get() + stats.tokens_skipped);
        self.stream_matches
            .set(self.stream_matches.get() + stats.matches);
    }
}

/// Runtime options.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Memoize pure user-function calls (the talk's memoization slide).
    pub memoize_functions: bool,
    /// Recursion depth limit for user functions. The default is sized
    /// for ordinary (2 MiB) stacks; the engine facade raises it because
    /// it evaluates on a dedicated large-stack thread.
    pub max_call_depth: usize,
    /// Resource budgets for the execution (deadline, cancellation,
    /// materialization/token/output/depth caps). Unlimited by default.
    pub limits: Limits,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            memoize_functions: false,
            max_call_depth: 64,
            limits: Limits::unlimited(),
        }
    }
}

/// Hash-join key: general-`=` equality classes (the talk warns that
/// general comparisons are not transitive — untyped values therefore
/// enter the table under every class they can match).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    Num(u64),
    Str(String),
    Bool(bool),
}

fn join_keys(v: &AtomicValue) -> Vec<JoinKey> {
    use AtomicValue as V;
    match v {
        V::UntypedAtomic(s) => {
            let mut keys = vec![JoinKey::Str(s.to_string())];
            if let Ok(d) = xqr_xdm::parse_double(s.trim()) {
                keys.push(JoinKey::Num(d.to_bits()));
            }
            keys
        }
        V::String(s) | V::AnyUri(s) => vec![JoinKey::Str(s.to_string())],
        V::Boolean(b) => vec![JoinKey::Bool(*b)],
        V::Integer(i) => vec![JoinKey::Num((*i as f64).to_bits())],
        V::Decimal(d) => vec![JoinKey::Num(d.to_f64().to_bits())],
        V::Double(d) => vec![JoinKey::Num(d.to_bits())],
        V::Float(f) => vec![JoinKey::Num((*f as f64).to_bits())],
        V::Date(d) => vec![JoinKey::Num(
            (d.to_datetime().timeline_millis(0) as f64).to_bits(),
        )],
        V::DateTime(d) => vec![JoinKey::Num((d.timeline_millis(0) as f64).to_bits())],
        other => vec![JoinKey::Str(other.string_value())],
    }
}

/// The evaluator: immutable query + context, mutable [`ExecState`]
/// threaded through calls.
pub struct Evaluator<'m> {
    pub module: &'m CoreModule,
    pub dyn_ctx: &'m DynamicContext,
    pub options: RuntimeOptions,
    pub counters: Counters,
    depth: Cell<usize>,
    memo: RefCell<HashMap<(u32, String), Arc<Sequence>>>,
}

impl<'m> Evaluator<'m> {
    pub(crate) fn new(module: &'m CoreModule, dyn_ctx: &'m DynamicContext) -> Self {
        Evaluator {
            module,
            dyn_ctx,
            options: RuntimeOptions::default(),
            counters: Counters::default(),
            depth: Cell::new(0),
            memo: RefCell::new(HashMap::new()),
        }
    }

    pub(crate) fn with_options(mut self, options: RuntimeOptions) -> Self {
        self.options = options;
        self
    }

    /// Evaluate the module body (globals first), streaming the result
    /// into `sink`.
    pub(crate) fn eval_module(&self, st: &mut ExecState, sink: &mut dyn Sink) -> Result<()> {
        st.frame.ensure(self.module.var_count);
        for (name, var, value) in &self.module.globals {
            let seq = match value {
                Some(e) => self.eval(e, st)?,
                None => self.dyn_ctx.variables.get(name).cloned().ok_or_else(|| {
                    Error::new(
                        ErrorCode::MissingContext,
                        format!("external variable ${name} not bound"),
                    )
                })?,
            };
            st.frame.bind(*var, Arc::new(seq));
        }
        if let Some(item) = &self.dyn_ctx.context_item {
            st.focus.push(Focus {
                item: item.clone(),
                position: 1,
                size: Some(1),
            });
        }
        self.push(&self.module.body, st, sink)?;
        Ok(())
    }

    /// Materialize the full result of `e`.
    pub(crate) fn eval(&self, e: &Core, st: &mut ExecState) -> Result<Sequence> {
        let mut out = Sequence::new();
        self.push(e, st, &mut out)?;
        Ok(out)
    }

    /// Materialize at most `limit` items (lazy pulls for exists/ebv).
    pub(crate) fn eval_limited(
        &self,
        e: &Core,
        st: &mut ExecState,
        limit: usize,
    ) -> Result<Sequence> {
        if limit == 0 {
            return Ok(Sequence::new());
        }
        let mut out = Sequence::new();
        let flow = self.push(
            e,
            st,
            &mut LimitSink {
                out: &mut out,
                limit,
            },
        )?;
        if flow == Flow::Done {
            self.counters
                .early_exits
                .set(self.counters.early_exits.get() + 1);
        }
        Ok(out)
    }

    /// Effective boolean value with early exit: at most two items pulled.
    pub(crate) fn eval_ebv(&self, e: &Core, st: &mut ExecState) -> Result<bool> {
        let items = self.eval_limited(e, st, 2)?;
        effective_boolean_value(&items)
    }

    /// Stream `e` into `sink`.
    pub(crate) fn push(&self, e: &Core, st: &mut ExecState, sink: &mut dyn Sink) -> Result<Flow> {
        xqr_faults::faultpoint!("eval.next");
        self.counters
            .items_produced
            .set(self.counters.items_produced.get() + 1);
        st.guard.note_items(1)?;
        match e {
            Core::Const(v) => sink.accept(self, st, Item::Atomic(v.clone())),
            Core::Empty => Ok(Flow::More),
            Core::Seq(items) => {
                for i in items {
                    if self.push(i, st, sink)? == Flow::Done {
                        return Ok(Flow::Done);
                    }
                }
                Ok(Flow::More)
            }
            Core::Range(a, b) => {
                let lo = self.eval_integer_opt(a, st)?;
                let hi = self.eval_integer_opt(b, st)?;
                let (Some(lo), Some(hi)) = (lo, hi) else {
                    return Ok(Flow::More);
                };
                let mut i = lo;
                while i <= hi {
                    // Ranges produce items without recursing through
                    // `push`, so they charge the guard directly — this is
                    // what bounds `for $x in 1 to 100000000`.
                    st.guard.note_items(1)?;
                    if sink.accept(self, st, Item::integer(i))? == Flow::Done {
                        return Ok(Flow::Done);
                    }
                    i += 1;
                }
                Ok(Flow::More)
            }
            Core::Var(v) => {
                let seq = st.frame.get(*v)?;
                for item in seq.iter() {
                    if sink.accept(self, st, item.clone())? == Flow::Done {
                        return Ok(Flow::Done);
                    }
                }
                Ok(Flow::More)
            }
            Core::ContextItem => {
                let item = st.context_item()?.clone();
                sink.accept(self, st, item)
            }
            Core::Root => {
                let item = st.context_item()?.clone();
                match item {
                    Item::Node(n) => {
                        sink.accept(self, st, Item::Node(NodeRef::new(n.doc, NodeId(0))))
                    }
                    Item::Atomic(_) => Err(Error::new(
                        ErrorCode::PathOnAtomic,
                        "leading / requires a node context item",
                    )),
                }
            }
            Core::For {
                var,
                position,
                source,
                body,
            } => {
                let mut fs = ForSink {
                    var: *var,
                    position: *position,
                    body,
                    downstream: sink,
                    index: 0,
                };
                self.push(source, st, &mut fs)
            }
            Core::Let { var, value, body } => {
                let v = self.eval(value, st)?;
                let saved = st.frame.bind(*var, Arc::new(v));
                let r = self.push(body, st, sink);
                st.frame.restore(*var, saved);
                r
            }
            Core::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval_ebv(cond, st)? {
                    self.push(then_branch, st, sink)
                } else {
                    self.push(else_branch, st, sink)
                }
            }
            Core::And(a, b) => {
                let v = self.eval_ebv(a, st)? && self.eval_ebv(b, st)?;
                sink.accept(self, st, Item::boolean(v))
            }
            Core::Or(a, b) => {
                let v = self.eval_ebv(a, st)? || self.eval_ebv(b, st)?;
                sink.accept(self, st, Item::boolean(v))
            }
            Core::Ebv(inner) => {
                let v = self.eval_ebv(inner, st)?;
                sink.accept(self, st, Item::boolean(v))
            }
            Core::Arith(op, a, b) => self.eval_arith(*op, a, b, st, sink),
            Core::Neg(a) => self.eval_neg(a, st, sink),
            Core::Compare(op, a, b) => self.eval_compare(*op, a, b, st, sink),
            Core::Quantified {
                every,
                var,
                source,
                satisfies,
            } => {
                let mut qs = QuantSink {
                    var: *var,
                    every: *every,
                    satisfies,
                    verdict: *every, // every: true until counterexample; some: false until witness
                };
                self.push(source, st, &mut qs)?;
                sink.accept(self, st, Item::boolean(qs.verdict))
            }
            Core::Union(a, b) => self.eval_set_op(a, b, SetOp::Union, st, sink),
            Core::Intersect(a, b) => self.eval_set_op(a, b, SetOp::Intersect, st, sink),
            Core::Except(a, b) => self.eval_set_op(a, b, SetOp::Except, st, sink),
            Core::Step { axis, test } => self.eval_step(*axis, test, st, sink),
            Core::PathMap { input, step } => {
                let mut ps = PathSink {
                    step,
                    downstream: sink,
                    saw_node: false,
                    saw_atomic: false,
                };
                self.push(input, st, &mut ps)
            }
            Core::Ddo(inner) => {
                let items = self.eval(inner, st)?;
                let out = self.ddo(items)?;
                for item in out {
                    if sink.accept(self, st, item)? == Flow::Done {
                        return Ok(Flow::Done);
                    }
                }
                Ok(Flow::More)
            }
            Core::Filter { input, predicate } => {
                if uses_last(predicate) {
                    // last() requires the context size: materialize.
                    let items = self.eval(input, st)?;
                    let size = items.len() as i64;
                    for (i, item) in items.into_iter().enumerate() {
                        st.focus.push(Focus {
                            item: item.clone(),
                            position: i as i64 + 1,
                            size: Some(size),
                        });
                        let keep = self.predicate_holds(predicate, st, i as i64 + 1)?;
                        st.focus.pop();
                        if keep && sink.accept(self, st, item)? == Flow::Done {
                            return Ok(Flow::Done);
                        }
                    }
                    Ok(Flow::More)
                } else {
                    let mut fs = FilterSink {
                        predicate,
                        downstream: sink,
                        position: 0,
                    };
                    self.push(input, st, &mut fs)
                }
            }
            Core::PositionConst { input, position } => {
                if *position < 1 {
                    return Ok(Flow::More);
                }
                let mut ps = NthSink {
                    wanted: *position,
                    seen: 0,
                    downstream: sink,
                };
                let flow = self.push(input, st, &mut ps)?;
                if flow == Flow::Done {
                    // We stopped the upstream early — the talk's skip().
                    self.counters
                        .early_exits
                        .set(self.counters.early_exits.get() + 1);
                }
                Ok(Flow::More)
            }
            Core::Builtin(name, args) => functions::call(self, name, args, st, sink),
            Core::UserCall(fid, args) => self.call_user(*fid, args, st, sink),
            Core::InstanceOf(inner, ty) => {
                let items = self.eval(inner, st)?;
                let store = st.store.clone();
                let r = sequence_matches(&items, ty, &store);
                sink.accept(self, st, Item::boolean(r))
            }
            Core::CastAs(inner, ty, optional) => self.eval_cast(inner, *ty, *optional, st, sink),
            Core::CastableAs(inner, ty, optional) => {
                self.eval_castable(inner, *ty, *optional, st, sink)
            }
            Core::TreatAs(inner, ty) => self.eval_treat(inner, ty, st, sink),
            Core::Typeswitch {
                operand,
                cases,
                default_var,
                default_body,
            } => self.eval_typeswitch(operand, cases, *default_var, default_body, st, sink),
            Core::ElemCtor { .. }
            | Core::AttrCtor { .. }
            | Core::TextCtor(_)
            | Core::CommentCtor(_)
            | Core::PiCtor { .. }
            | Core::DocCtor(_) => construct::construct(self, e, st, sink),
            Core::OrderedFlwor {
                clauses,
                where_clause,
                order,
                stable,
                body,
            } => self.eval_ordered_flwor(
                clauses,
                where_clause.as_deref(),
                order,
                *stable,
                body,
                st,
                sink,
            ),
            Core::HashJoin {
                outer_var,
                outer,
                inner_var,
                inner,
                outer_key,
                inner_key,
                group,
                body,
            } => self.eval_hash_join(
                *outer_var,
                outer,
                *inner_var,
                inner,
                outer_key,
                inner_key,
                group.as_ref(),
                body,
                st,
                sink,
            ),
            Core::IndexScan { pattern, fallback } => {
                // `?` on the scan: cancellation/deadline errors from the
                // join abort the query; only "cannot answer here"
                // (`Ok(None)`) falls back to navigation.
                match crate::index_scan::try_index_scan(pattern, st, &self.counters)? {
                    Some(nodes) => {
                        self.counters
                            .index_hits
                            .set(self.counters.index_hits.get() + 1);
                        // Index answers bypass per-step pushes, so charge
                        // the guard per emitted node (like `Range`).
                        for n in nodes {
                            st.guard.note_items(1)?;
                            if sink.accept(self, st, Item::Node(n))? == Flow::Done {
                                return Ok(Flow::Done);
                            }
                        }
                        Ok(Flow::More)
                    }
                    None => {
                        self.counters
                            .index_misses
                            .set(self.counters.index_misses.get() + 1);
                        self.push(fallback, st, sink)
                    }
                }
            }
        }
    }

    #[inline(never)]
    fn eval_arith(
        &self,
        op: xqr_xqparser::ast::ArithOp,
        a: &Core,
        b: &Core,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let store = st.store.clone();
        let va = self.eval(a, st)?;
        let Some(x) = atomize_one(&va, &store, op.symbol())? else {
            return Ok(Flow::More);
        };
        let vb = self.eval(b, st)?;
        let Some(y) = atomize_one(&vb, &store, op.symbol())? else {
            return Ok(Flow::More);
        };
        let r = xqr_compiler::ops::arith(op, &x, &y)?;
        sink.accept(self, st, Item::Atomic(r))
    }

    #[inline(never)]
    fn eval_neg(&self, a: &Core, st: &mut ExecState, sink: &mut dyn Sink) -> Result<Flow> {
        let store = st.store.clone();
        let va = self.eval(a, st)?;
        let Some(x) = atomize_one(&va, &store, "unary -")? else {
            return Ok(Flow::More);
        };
        sink.accept(self, st, Item::Atomic(xqr_compiler::ops::negate(&x)?))
    }

    #[inline(never)]
    fn eval_compare(
        &self,
        op: xqr_xqparser::ast::CompOp,
        a: &Core,
        b: &Core,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let va = self.eval(a, st)?;
        let vb = self.eval(b, st)?;
        let store = st.store.clone();
        let tz = self.dyn_ctx.implicit_timezone;
        if op.is_general() {
            let r = general_compare(op, &va, &vb, &store, tz)?;
            sink.accept(self, st, Item::boolean(r))
        } else if op.is_value() {
            match value_compare(op, &va, &vb, &store, tz)? {
                Some(r) => sink.accept(self, st, Item::boolean(r)),
                None => Ok(Flow::More),
            }
        } else {
            match node_compare(op, &va, &vb)? {
                Some(r) => sink.accept(self, st, Item::boolean(r)),
                None => Ok(Flow::More),
            }
        }
    }

    #[inline(never)]
    fn eval_set_op(
        &self,
        a: &Core,
        b: &Core,
        op: SetOp,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let name = match op {
            SetOp::Union => "union",
            SetOp::Intersect => "intersect",
            SetOp::Except => "except",
        };
        let left = self.eval_nodes(a, st, name)?;
        let mut right = self.eval_nodes(b, st, name)?;
        let mut out: Vec<NodeRef> = match op {
            SetOp::Union => {
                let mut all = left;
                all.extend(right);
                all
            }
            SetOp::Intersect => {
                right.sort();
                left.into_iter()
                    .filter(|n| right.binary_search(n).is_ok())
                    .collect()
            }
            SetOp::Except => {
                right.sort();
                left.into_iter()
                    .filter(|n| right.binary_search(n).is_err())
                    .collect()
            }
        };
        out.sort();
        out.dedup();
        self.push_nodes(out, st, sink)
    }

    #[inline(never)]
    fn eval_cast(
        &self,
        inner: &Core,
        ty: AtomicType,
        optional: bool,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let store = st.store.clone();
        let items = self.eval(inner, st)?;
        let Some(v) = atomize_one(&items, &store, "cast")? else {
            if optional {
                return Ok(Flow::More);
            }
            return Err(Error::type_error(
                "cast of empty sequence to non-optional type",
            ));
        };
        sink.accept(self, st, Item::Atomic(v.cast_to(ty)?))
    }

    #[inline(never)]
    fn eval_castable(
        &self,
        inner: &Core,
        ty: AtomicType,
        optional: bool,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let store = st.store.clone();
        let items = self.eval(inner, st)?;
        let r = match atomize_one(&items, &store, "castable") {
            Ok(Some(v)) => v.castable_to(ty),
            Ok(None) => optional,
            Err(_) => false,
        };
        sink.accept(self, st, Item::boolean(r))
    }

    #[inline(never)]
    fn eval_treat(
        &self,
        inner: &Core,
        ty: &SequenceType,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let items = self.eval(inner, st)?;
        let store = st.store.clone();
        if !sequence_matches(&items, ty, &store) {
            return Err(Error::type_error(format!(
                "treat as {ty} failed at runtime"
            )));
        }
        for item in items {
            if sink.accept(self, st, item)? == Flow::Done {
                return Ok(Flow::Done);
            }
        }
        Ok(Flow::More)
    }

    #[inline(never)]
    fn eval_typeswitch(
        &self,
        operand: &Core,
        cases: &[xqr_compiler::CoreCase],
        default_var: Option<VarId>,
        default_body: &Core,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let items = self.eval(operand, st)?;
        let store = st.store.clone();
        let value = Arc::new(items);
        for case in cases {
            if sequence_matches(&value, &case.ty, &store) {
                let saved = case.var.map(|v| (v, st.frame.bind(v, value.clone())));
                let r = self.push(&case.body, st, sink);
                if let Some((v, s)) = saved {
                    st.frame.restore(v, s);
                }
                return r;
            }
        }
        let saved = default_var.map(|v| (v, st.frame.bind(v, value.clone())));
        let r = self.push(default_body, st, sink);
        if let Some((v, s)) = saved {
            st.frame.restore(v, s);
        }
        r
    }

    fn eval_integer_opt(&self, e: &Core, st: &mut ExecState) -> Result<Option<i64>> {
        let store = st.store.clone();
        let items = self.eval(e, st)?;
        let Some(v) = atomize_one(&items, &store, "range")? else {
            return Ok(None);
        };
        match v.cast_to(AtomicType::Integer) {
            Ok(AtomicValue::Integer(i)) => Ok(Some(i)),
            _ => Err(Error::type_error("range bounds must be integers")),
        }
    }

    fn eval_nodes(&self, e: &Core, st: &mut ExecState, op: &str) -> Result<Vec<NodeRef>> {
        let items = self.eval(e, st)?;
        items
            .into_iter()
            .map(|i| {
                i.as_node().ok_or_else(|| {
                    Error::type_error(format!("{op} requires nodes, found an atomic value"))
                })
            })
            .collect()
    }

    fn push_nodes(
        &self,
        nodes: Vec<NodeRef>,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        for n in nodes {
            if sink.accept(self, st, Item::Node(n))? == Flow::Done {
                return Ok(Flow::Done);
            }
        }
        Ok(Flow::More)
    }

    /// Distinct-document-order. All-atomic sequences pass through (final
    /// path steps may produce atomics); mixed sequences are an error.
    pub(crate) fn ddo(&self, items: Sequence) -> Result<Sequence> {
        let any_node = items.iter().any(Item::is_node);
        let any_atomic = items.iter().any(|i| !i.is_node());
        if any_node && any_atomic {
            return Err(Error::new(
                ErrorCode::MixedPathResult,
                "path result mixes nodes and atomic values",
            ));
        }
        if !any_node {
            return Ok(items);
        }
        self.counters
            .ddo_sorts
            .set(self.counters.ddo_sorts.get() + 1);
        let mut nodes: Vec<NodeRef> = items
            .into_iter()
            .map(|i| i.as_node().expect("all nodes"))
            .collect();
        nodes.sort();
        nodes.dedup();
        Ok(nodes.into_iter().map(Item::Node).collect())
    }

    fn eval_step(
        &self,
        axis: AxisName,
        test: &NodeTest,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let ctx = st.context_item()?.clone();
        let Some(node) = ctx.as_node() else {
            return Err(Error::new(
                ErrorCode::AxisOnAtomic,
                "axis step on an atomic value".to_string(),
            ));
        };
        let doc = st.store.doc_of(node);
        let Some(test) = BoundTest::bind(&doc, axis, test) else {
            // A name the pool never saw is on no node of this document.
            return Ok(Flow::More);
        };
        let emit = |n: NodeId| {
            if test.matches(&doc, n) {
                sink.accept(self, st, Item::Node(NodeRef::new(node.doc, n)))
            } else {
                Ok(Flow::More)
            }
        };
        // Child and attribute steps follow the links in place; the other
        // axes collect their candidates first.
        match axis {
            AxisName::Child => until_done(
                std::iter::successors(doc.first_child(node.node), |&n| doc.next_sibling(n)),
                emit,
            ),
            AxisName::Attribute => until_done(doc.attributes(node.node), emit),
            _ => until_done(walk(&doc, node.node, convert_axis(axis)), emit),
        }
    }

    fn predicate_holds(&self, predicate: &Core, st: &mut ExecState, position: i64) -> Result<bool> {
        let items = self.eval(predicate, st)?;
        // Numeric singleton predicate → positional test.
        if let [Item::Atomic(v)] = items.as_slice() {
            if v.is_numeric() {
                let store = st.store.clone();
                let _ = store;
                return Ok(match v {
                    AtomicValue::Integer(k) => *k == position,
                    other => other
                        .to_double()
                        .map(|d| d == position as f64)
                        .unwrap_or(false),
                });
            }
        }
        effective_boolean_value(&items)
    }

    pub(crate) fn resolve_ctor_name(&self, name: &CoreName, st: &mut ExecState) -> Result<QName> {
        match name {
            CoreName::Const(q) => Ok(q.clone()),
            CoreName::Computed(e) => {
                let store = st.store.clone();
                let items = self.eval(e, st)?;
                let Some(v) = atomize_one(&items, &store, "constructor name")? else {
                    return Err(Error::type_error("constructor name is the empty sequence"));
                };
                match v {
                    AtomicValue::QName(q) => Ok(q),
                    AtomicValue::String(s) | AtomicValue::UntypedAtomic(s) => {
                        let s = s.trim();
                        if s.is_empty() || s.contains(':') {
                            // Prefixed computed names would need in-scope
                            // namespace resolution; reject cleanly.
                            return Err(Error::new(
                                ErrorCode::InvalidQName,
                                format!("invalid computed constructor name {s:?}"),
                            ));
                        }
                        Ok(QName::local(s))
                    }
                    other => Err(Error::type_error(format!(
                        "constructor name must be a QName or string, got {}",
                        other.type_of().name()
                    ))),
                }
            }
        }
    }

    fn call_user(
        &self,
        fid: FuncId,
        args: &[Core],
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let f = self
            .module
            .functions
            .get(fid.0 as usize)
            .ok_or_else(|| Error::internal("dangling function id"))?;
        self.counters
            .function_calls
            .set(self.counters.function_calls.get() + 1);
        // Evaluate arguments, checking declared types.
        let store = st.store.clone();
        let mut values = Vec::with_capacity(args.len());
        for (a, (_, pty)) in args.iter().zip(&f.params) {
            let v = self.eval(a, st)?;
            if let Some(ty) = pty {
                if !sequence_matches(&v, ty, &store) {
                    return Err(Error::type_error(format!(
                        "argument to {} does not match declared type {ty}",
                        f.name
                    )));
                }
            }
            values.push(Arc::new(v));
        }
        // Memoization: atomic-only argument lists keyed by string form.
        let memo_key = if self.options.memoize_functions {
            let all_atomic = values.iter().all(|v| v.iter().all(|i| !i.is_node()));
            if all_atomic {
                let key = values
                    .iter()
                    .map(|v| {
                        v.iter()
                            .map(|i| match i {
                                Item::Atomic(a) => format!("{}:{}", a.type_of().name(), a),
                                Item::Node(_) => unreachable!("checked atomic"),
                            })
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect::<Vec<_>>()
                    .join(";");
                Some((fid.0, key))
            } else {
                None
            }
        } else {
            None
        };
        if let Some(k) = &memo_key {
            if let Some(cached) = self.memo.borrow().get(k) {
                self.counters
                    .memo_hits
                    .set(self.counters.memo_hits.get() + 1);
                for item in cached.iter() {
                    if sink.accept(self, st, item.clone())? == Flow::Done {
                        return Ok(Flow::Done);
                    }
                }
                return Ok(Flow::More);
            }
        }
        let depth = self.depth.get();
        if depth >= self.options.max_call_depth {
            return Err(Error::new(
                ErrorCode::Limit,
                format!(
                    "function call depth exceeds {}",
                    self.options.max_call_depth
                ),
            ));
        }
        self.depth.set(depth + 1);
        let mut saved = Vec::with_capacity(values.len());
        for ((pvar, _), v) in f.params.iter().zip(values) {
            saved.push((*pvar, st.frame.bind(*pvar, v)));
        }
        // Function bodies see no caller focus: `.`/position()/last()
        // inside a function body are errors, per the spec (and this
        // keeps the filter's uses-last analysis sound across calls).
        let saved_focus = std::mem::take(&mut st.focus);
        let result = self.eval(&f.body, st);
        st.focus = saved_focus;
        for (pvar, s) in saved.into_iter().rev() {
            st.frame.restore(pvar, s);
        }
        self.depth.set(depth);
        let result = result?;
        if let Some(ty) = &f.return_type {
            if !sequence_matches(&result, ty, &store) {
                return Err(Error::type_error(format!(
                    "result of {} does not match declared type {ty}",
                    f.name
                )));
            }
        }
        if let Some(k) = memo_key {
            self.memo.borrow_mut().insert(k, Arc::new(result.clone()));
        }
        for item in result {
            if sink.accept(self, st, item)? == Flow::Done {
                return Ok(Flow::Done);
            }
        }
        Ok(Flow::More)
    }

    /// `fn:doc`: the store's document at `uri`, else the dynamic
    /// context's text for it, parsed into a lease — either way memoized
    /// for the rest of the execution ([`ExecState::doc`]).
    pub(crate) fn resolve_doc(&self, uri: &str, st: &mut ExecState) -> Result<NodeRef> {
        // A plain miss falls through to the context documents, but a
        // failed reload — a quarantined segment (`XQRL0006`), an I/O
        // fault — is a real answer and must surface, not degrade into
        // "document not found".
        let id = match st.doc(uri) {
            Ok(id) => id,
            Err(e) if e.code != ErrorCode::DocumentNotFound => return Err(e),
            Err(_) => {
                let xml = self.dyn_ctx.documents.get(uri).ok_or_else(|| {
                    Error::new(
                        ErrorCode::DocumentNotFound,
                        format!("no document at {uri:?}"),
                    )
                })?;
                let lease = st.store.lease_xml_guarded(xml, Some(uri), &st.guard)?;
                st.hold_as(uri, lease)
            }
        };
        Ok(NodeRef::new(id, NodeId(0)))
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_ordered_flwor(
        &self,
        clauses: &[CoreClause],
        where_clause: Option<&Core>,
        order: &[xqr_compiler::CoreOrderSpec],
        _stable: bool,
        body: &Core,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        // Generate the binding tuples. Decorrelated GroupLet clauses
        // build their hash tables once, cached here per clause index.
        type Tuple = Vec<(VarId, Arc<Sequence>)>;
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut group_cache: HashMap<usize, (Sequence, HashMap<JoinKey, Vec<usize>>)> =
            HashMap::new();
        self.gen_tuples(
            clauses,
            0,
            where_clause,
            st,
            &mut Vec::new(),
            &mut tuples,
            &mut group_cache,
        )?;

        // Evaluate sort keys per tuple.
        let store = st.store.clone();
        let tz = self.dyn_ctx.implicit_timezone;
        let mut keyed: Vec<(Vec<Option<AtomicValue>>, Tuple)> = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            let saved: Vec<_> = tuple
                .iter()
                .map(|(v, seq)| (*v, st.frame.bind(*v, seq.clone())))
                .collect();
            let mut keys = Vec::with_capacity(order.len());
            for spec in order {
                let items = self.eval(&spec.key, st)?;
                let k = atomize_one(&items, &store, "order by key")?;
                // Untyped keys order as strings.
                let k = match k {
                    Some(AtomicValue::UntypedAtomic(s)) => Some(AtomicValue::String(s)),
                    other => other,
                };
                keys.push(k);
            }
            for (v, s) in saved.into_iter().rev() {
                st.frame.restore(v, s);
            }
            keyed.push((keys, tuple));
        }
        // Stable sort with the spec's empty handling; incomparable keys
        // raise a type error (pre-checked pairwise during compare).
        let mut sort_error: Option<Error> = None;
        keyed.sort_by(|(ka, _), (kb, _)| {
            use std::cmp::Ordering;
            for (spec, (a, b)) in order.iter().zip(ka.iter().zip(kb.iter())) {
                let ord = match (a, b) {
                    (None, None) => Ordering::Equal,
                    (None, Some(_)) => {
                        if spec.empty_least {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        }
                    }
                    (Some(_), None) => {
                        if spec.empty_least {
                            Ordering::Greater
                        } else {
                            Ordering::Less
                        }
                    }
                    (Some(x), Some(y)) => match x.value_compare(y, tz) {
                        Ok(Some(o)) => o,
                        Ok(None) => Ordering::Equal, // NaN keys: stable
                        Err(e) => {
                            if sort_error.is_none() {
                                sort_error = Some(e);
                            }
                            Ordering::Equal
                        }
                    },
                };
                let ord = if spec.descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        if let Some(e) = sort_error {
            return Err(e);
        }
        // Emit bodies in sorted tuple order.
        for (_, tuple) in keyed {
            let saved: Vec<_> = tuple
                .iter()
                .map(|(v, seq)| (*v, st.frame.bind(*v, seq.clone())))
                .collect();
            let r = self.push(body, st, sink);
            for (v, s) in saved.into_iter().rev() {
                st.frame.restore(v, s);
            }
            if r? == Flow::Done {
                return Ok(Flow::Done);
            }
        }
        Ok(Flow::More)
    }

    #[allow(clippy::too_many_arguments)]
    fn gen_tuples(
        &self,
        clauses: &[CoreClause],
        idx: usize,
        where_clause: Option<&Core>,
        st: &mut ExecState,
        current: &mut Vec<(VarId, Arc<Sequence>)>,
        out: &mut Vec<Vec<(VarId, Arc<Sequence>)>>,
        group_cache: &mut HashMap<usize, (Sequence, HashMap<JoinKey, Vec<usize>>)>,
    ) -> Result<()> {
        if idx == clauses.len() {
            let keep = match where_clause {
                Some(w) => self.eval_ebv(w, st)?,
                None => true,
            };
            if keep {
                out.push(current.clone());
            }
            return Ok(());
        }
        match &clauses[idx] {
            CoreClause::For {
                var,
                position,
                source,
            } => {
                let items = self.eval(source, st)?;
                for (i, item) in items.into_iter().enumerate() {
                    let one = Arc::new(vec![item]);
                    let saved = st.frame.bind(*var, one.clone());
                    current.push((*var, one));
                    let mut pos_saved = None;
                    if let Some(p) = position {
                        let pv = Arc::new(vec![Item::integer(i as i64 + 1)]);
                        pos_saved = Some((*p, st.frame.bind(*p, pv.clone())));
                        current.push((*p, pv));
                    }
                    let r = self.gen_tuples(
                        clauses,
                        idx + 1,
                        where_clause,
                        st,
                        current,
                        out,
                        group_cache,
                    );
                    if let Some((p, s)) = pos_saved {
                        st.frame.restore(p, s);
                        current.pop();
                    }
                    st.frame.restore(*var, saved);
                    current.pop();
                    r?;
                }
                Ok(())
            }
            CoreClause::Let { var, value } => {
                let v = Arc::new(self.eval(value, st)?);
                let saved = st.frame.bind(*var, v.clone());
                current.push((*var, v));
                let r = self.gen_tuples(
                    clauses,
                    idx + 1,
                    where_clause,
                    st,
                    current,
                    out,
                    group_cache,
                );
                st.frame.restore(*var, saved);
                current.pop();
                r
            }
            CoreClause::GroupLet {
                var,
                inner_var,
                inner,
                inner_key,
                outer_key,
                match_body,
            } => {
                // Build (once) the inner items + hash table.
                if let std::collections::hash_map::Entry::Vacant(e) = group_cache.entry(idx) {
                    let store = st.store.clone();
                    let inner_items = self.eval(inner, st)?;
                    let mut table: HashMap<JoinKey, Vec<usize>> = HashMap::new();
                    for (i, item) in inner_items.iter().enumerate() {
                        let one = Arc::new(vec![item.clone()]);
                        let saved = st.frame.bind(*inner_var, one);
                        let keys = self.eval(inner_key, st);
                        st.frame.restore(*inner_var, saved);
                        for v in atomize(&keys?, &store)? {
                            for k in join_keys(&v) {
                                table.entry(k).or_default().push(i);
                            }
                        }
                    }
                    self.counters
                        .join_builds
                        .set(self.counters.join_builds.get() + 1);
                    e.insert((inner_items, table));
                }
                // Probe with the current tuple's outer key.
                let store = st.store.clone();
                let okeys = self.eval(outer_key, st)?;
                let mut matched: Vec<usize> = Vec::new();
                {
                    let (_, table) = group_cache.get(&idx).expect("just built");
                    for v in atomize(&okeys, &store)? {
                        for k in join_keys(&v) {
                            if let Some(ids) = table.get(&k) {
                                matched.extend(ids.iter().copied());
                            }
                        }
                    }
                }
                matched.sort_unstable();
                matched.dedup();
                let mut grouped = Sequence::new();
                for i in matched {
                    let item = group_cache.get(&idx).expect("built").0[i].clone();
                    let one = Arc::new(vec![item]);
                    let saved = st.frame.bind(*inner_var, one);
                    let r = self.eval(match_body, st);
                    st.frame.restore(*inner_var, saved);
                    grouped.extend(r?);
                }
                let v = Arc::new(grouped);
                let saved = st.frame.bind(*var, v.clone());
                current.push((*var, v));
                let r = self.gen_tuples(
                    clauses,
                    idx + 1,
                    where_clause,
                    st,
                    current,
                    out,
                    group_cache,
                );
                st.frame.restore(*var, saved);
                current.pop();
                r
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_hash_join(
        &self,
        outer_var: VarId,
        outer: &Core,
        inner_var: VarId,
        inner: &Core,
        outer_key: &Core,
        inner_key: &Core,
        group: Option<&xqr_compiler::GroupSpec>,
        body: &Core,
        st: &mut ExecState,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        self.counters
            .join_builds
            .set(self.counters.join_builds.get() + 1);
        let store = st.store.clone();
        // Build phase over the inner (independent) side.
        let inner_items = self.eval(inner, st)?;
        let mut table: HashMap<JoinKey, Vec<usize>> = HashMap::new();
        for (i, item) in inner_items.iter().enumerate() {
            let one = Arc::new(vec![item.clone()]);
            let saved = st.frame.bind(inner_var, one);
            let keys = self.eval(inner_key, st);
            st.frame.restore(inner_var, saved);
            for v in atomize(&keys?, &store)? {
                for k in join_keys(&v) {
                    table.entry(k).or_default().push(i);
                }
            }
        }
        // Probe phase.
        let outer_items = self.eval(outer, st)?;
        for oitem in outer_items {
            let one = Arc::new(vec![oitem.clone()]);
            let saved = st.frame.bind(outer_var, one);
            let keys = self.eval(outer_key, st);
            let keys = match keys {
                Ok(k) => k,
                Err(e) => {
                    st.frame.restore(outer_var, saved);
                    return Err(e);
                }
            };
            let mut matched: Vec<usize> = Vec::new();
            match atomize(&keys, &store) {
                Ok(vals) => {
                    for v in vals {
                        for k in join_keys(&v) {
                            if let Some(ids) = table.get(&k) {
                                matched.extend(ids.iter().copied());
                            }
                        }
                    }
                }
                Err(e) => {
                    st.frame.restore(outer_var, saved);
                    return Err(e);
                }
            }
            matched.sort_unstable();
            matched.dedup();
            let mut flow = Flow::More;
            match group {
                None => {
                    for i in matched {
                        let ival = Arc::new(vec![inner_items[i].clone()]);
                        let isaved = st.frame.bind(inner_var, ival);
                        let r = self.push(body, st, sink);
                        st.frame.restore(inner_var, isaved);
                        match r {
                            Ok(f) => {
                                if f == Flow::Done {
                                    flow = Flow::Done;
                                    break;
                                }
                            }
                            Err(e) => {
                                st.frame.restore(outer_var, saved);
                                return Err(e);
                            }
                        }
                    }
                }
                Some(g) => {
                    // Group mode: map matches through the match body,
                    // bind the concatenation, evaluate the let body once.
                    let mut grouped = Sequence::new();
                    for i in matched {
                        let ival = Arc::new(vec![inner_items[i].clone()]);
                        let isaved = st.frame.bind(inner_var, ival);
                        let r = self.eval(&g.match_body, st);
                        st.frame.restore(inner_var, isaved);
                        match r {
                            Ok(items) => grouped.extend(items),
                            Err(e) => {
                                st.frame.restore(outer_var, saved);
                                return Err(e);
                            }
                        }
                    }
                    let gsaved = st.frame.bind(g.let_var, Arc::new(grouped));
                    let r = self.push(body, st, sink);
                    st.frame.restore(g.let_var, gsaved);
                    match r {
                        Ok(f) => {
                            if f == Flow::Done {
                                flow = Flow::Done;
                            }
                        }
                        Err(e) => {
                            st.frame.restore(outer_var, saved);
                            return Err(e);
                        }
                    }
                }
            }
            st.frame.restore(outer_var, saved);
            if flow == Flow::Done {
                return Ok(Flow::Done);
            }
        }
        Ok(Flow::More)
    }
}

// ---- operator sinks -------------------------------------------------------

struct ForSink<'a> {
    var: VarId,
    position: Option<VarId>,
    body: &'a Core,
    downstream: &'a mut dyn Sink,
    index: i64,
}

impl Sink for ForSink<'_> {
    fn accept(&mut self, ev: &Evaluator<'_>, st: &mut ExecState, item: Item) -> Result<Flow> {
        self.index += 1;
        let saved = st.frame.bind(self.var, Arc::new(vec![item]));
        let mut pos_saved = None;
        if let Some(p) = self.position {
            pos_saved = Some(st.frame.bind(p, Arc::new(vec![Item::integer(self.index)])));
        }
        let r = ev.push(self.body, st, self.downstream);
        if let Some(p) = self.position {
            st.frame.restore(p, pos_saved.expect("saved with position"));
        }
        st.frame.restore(self.var, saved);
        r
    }
}

struct QuantSink<'a> {
    var: VarId,
    every: bool,
    satisfies: &'a Core,
    verdict: bool,
}

impl Sink for QuantSink<'_> {
    fn accept(&mut self, ev: &Evaluator<'_>, st: &mut ExecState, item: Item) -> Result<Flow> {
        let saved = st.frame.bind(self.var, Arc::new(vec![item]));
        let holds = ev.eval_ebv(self.satisfies, st);
        st.frame.restore(self.var, saved);
        let holds = holds?;
        if self.every {
            if !holds {
                self.verdict = false;
                return Ok(Flow::Done); // counterexample: stop
            }
        } else if holds {
            self.verdict = true;
            return Ok(Flow::Done); // witness: stop (lazy, per the talk)
        }
        Ok(Flow::More)
    }
}

struct PathSink<'a> {
    step: &'a Core,
    downstream: &'a mut dyn Sink,
    saw_node: bool,
    saw_atomic: bool,
}

impl Sink for PathSink<'_> {
    fn accept(&mut self, ev: &Evaluator<'_>, st: &mut ExecState, item: Item) -> Result<Flow> {
        if item.as_node().is_none() {
            return Err(Error::new(
                ErrorCode::PathOnAtomic,
                "path step applied to an atomic value",
            ));
        }
        st.focus.push(Focus {
            item,
            position: 0,
            size: None,
        });
        // Verify result homogeneity through a checking shim.
        let mut shim = HomogeneitySink {
            downstream: self.downstream,
            saw_node: &mut self.saw_node,
            saw_atomic: &mut self.saw_atomic,
        };
        let r = ev.push(self.step, st, &mut shim);
        st.focus.pop();
        r
    }
}

struct HomogeneitySink<'a> {
    downstream: &'a mut dyn Sink,
    saw_node: &'a mut bool,
    saw_atomic: &'a mut bool,
}

impl Sink for HomogeneitySink<'_> {
    fn accept(&mut self, ev: &Evaluator<'_>, st: &mut ExecState, item: Item) -> Result<Flow> {
        if item.is_node() {
            *self.saw_node = true;
        } else {
            *self.saw_atomic = true;
        }
        if *self.saw_node && *self.saw_atomic {
            return Err(Error::new(
                ErrorCode::MixedPathResult,
                "path result mixes nodes and atomic values",
            ));
        }
        self.downstream.accept(ev, st, item)
    }
}

struct FilterSink<'a> {
    predicate: &'a Core,
    downstream: &'a mut dyn Sink,
    position: i64,
}

impl Sink for FilterSink<'_> {
    fn accept(&mut self, ev: &Evaluator<'_>, st: &mut ExecState, item: Item) -> Result<Flow> {
        self.position += 1;
        st.focus.push(Focus {
            item: item.clone(),
            position: self.position,
            size: None,
        });
        let keep = ev.predicate_holds(self.predicate, st, self.position);
        st.focus.pop();
        if keep? {
            self.downstream.accept(ev, st, item)
        } else {
            Ok(Flow::More)
        }
    }
}

struct NthSink<'a> {
    wanted: i64,
    seen: i64,
    downstream: &'a mut dyn Sink,
}

impl Sink for NthSink<'_> {
    fn accept(&mut self, ev: &Evaluator<'_>, st: &mut ExecState, item: Item) -> Result<Flow> {
        self.seen += 1;
        if self.seen == self.wanted {
            // Deliver and stop the upstream regardless of downstream.
            self.downstream.accept(ev, st, item)?;
            return Ok(Flow::Done);
        }
        Ok(Flow::More)
    }
}

// ---- node tests & sequence types ----------------------------------------------

fn convert_axis(a: AxisName) -> Axis {
    match a {
        AxisName::Child => Axis::Child,
        AxisName::Descendant => Axis::Descendant,
        AxisName::DescendantOrSelf => Axis::DescendantOrSelf,
        AxisName::Attribute => Axis::Attribute,
        AxisName::SelfAxis => Axis::SelfAxis,
        AxisName::Parent => Axis::Parent,
        AxisName::Ancestor => Axis::Ancestor,
        AxisName::AncestorOrSelf => Axis::AncestorOrSelf,
        AxisName::FollowingSibling => Axis::FollowingSibling,
        AxisName::PrecedingSibling => Axis::PrecedingSibling,
        AxisName::Following => Axis::Following,
        AxisName::Preceding => Axis::Preceding,
        AxisName::Namespace => Axis::Namespace,
    }
}

/// Feed `nodes` to `f` until it reports [`Flow::Done`].
fn until_done(
    nodes: impl IntoIterator<Item = NodeId>,
    mut f: impl FnMut(NodeId) -> Result<Flow>,
) -> Result<Flow> {
    for n in nodes {
        if f(n)? == Flow::Done {
            return Ok(Flow::Done);
        }
    }
    Ok(Flow::More)
}

/// A node test bound to one document's name pool. A test that names a
/// node holds the name's interned id, so matching is a kind and an
/// integer compare; the other tests read names borrowed from the pool.
/// Neither takes a lock or allocates per node.
#[derive(Clone, Copy)]
enum BoundTest<'t> {
    /// Nodes of this kind with this name.
    Named(NodeKind, NameId),
    /// Any other test, with the axis's principal node kind (what `*`,
    /// `ns:*` and `*:local` match).
    Other(&'t NodeTest, NodeKind),
}

impl<'t> BoundTest<'t> {
    /// Bind `test` on `axis` to `doc`'s pool. `None` when the test names
    /// a name the pool has never interned: it matches no node.
    fn bind(doc: &xqr_store::Document, axis: AxisName, test: &'t NodeTest) -> Option<Self> {
        let principal = convert_axis(axis).principal_kind();
        let named = |kind, q| doc.names.get(q).map(|id| BoundTest::Named(kind, id));
        match test {
            NodeTest::Name(q) => named(principal, q),
            NodeTest::Element(Some(q)) => named(NodeKind::Element, q),
            NodeTest::Attribute(Some(q)) => named(NodeKind::Attribute, q),
            _ => Some(BoundTest::Other(test, principal)),
        }
    }

    fn matches(self, doc: &xqr_store::Document, n: NodeId) -> bool {
        let kind = doc.kind(n);
        let (test, principal) = match self {
            BoundTest::Named(k, id) => return kind == k && doc.name_id(n) == id,
            BoundTest::Other(test, principal) => (test, principal),
        };
        match test {
            NodeTest::AnyKind => true,
            NodeTest::Text => kind == NodeKind::Text,
            NodeTest::Comment => kind == NodeKind::Comment,
            NodeTest::Document => kind == NodeKind::Document,
            NodeTest::Pi(target) => {
                kind == NodeKind::ProcessingInstruction
                    && target
                        .as_ref()
                        .is_none_or(|t| doc.name(n).is_some_and(|q| q.local_name() == t))
            }
            NodeTest::AnyName => kind == principal,
            NodeTest::NamespaceWildcard(ns) => {
                kind == principal
                    && doc
                        .name(n)
                        .is_some_and(|q| q.namespace() == Some(ns.as_str()))
            }
            NodeTest::LocalWildcard(local) => {
                kind == principal && doc.name(n).is_some_and(|q| q.local_name() == local)
            }
            // Named element/attribute tests and name tests bind to `Named`.
            NodeTest::Element(_) => kind == NodeKind::Element,
            NodeTest::Attribute(_) => kind == NodeKind::Attribute,
            NodeTest::Name(_) => false,
        }
    }
}

/// Does one item match an item type?
pub(crate) fn item_matches(item: &Item, ty: &ItemType, store: &xqr_store::Store) -> bool {
    match ty {
        ItemType::AnyItem => true,
        ItemType::AnyNode => item.is_node(),
        ItemType::Atomic(at) => match item {
            Item::Atomic(v) => v.type_of().is_subtype_of(*at),
            Item::Node(_) => false,
        },
        ItemType::Kind(kind, name_test) => match item {
            Item::Node(n) => {
                let doc = store.doc_of(*n);
                doc.kind(n.node) == *kind
                    && match name_test {
                        NameTest::Any => true,
                        NameTest::Name(q) => doc.name(n.node) == Some(q),
                    }
            }
            Item::Atomic(_) => false,
        },
    }
}

/// Does a whole sequence match a sequence type?
pub(crate) fn sequence_matches(
    items: &[Item],
    ty: &SequenceType,
    store: &xqr_store::Store,
) -> bool {
    match ty {
        SequenceType::Empty => items.is_empty(),
        SequenceType::Of(item_ty, occ) => {
            let count_ok = match occ {
                xqr_xdm::Occurrence::One => items.len() == 1,
                xqr_xdm::Occurrence::Optional => items.len() <= 1,
                xqr_xdm::Occurrence::ZeroOrMore => true,
                xqr_xdm::Occurrence::OneOrMore => !items.is_empty(),
            };
            count_ok && items.iter().all(|i| item_matches(i, item_ty, store))
        }
    }
}

fn uses_last(e: &Core) -> bool {
    match e {
        Core::Builtin("last", _) => true,
        // Nested filters rebind the focus; their last() is theirs.
        Core::Filter { input, .. } => uses_last(input),
        _ => {
            let mut any = false;
            e.for_each_child(&mut |c| any |= uses_last(c));
            any
        }
    }
}
