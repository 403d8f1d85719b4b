//! Grammar-based random query generation.
//!
//! Queries are built directly as `xqr_xqparser` ASTs — never as text —
//! so every generated case is syntactically valid by construction and
//! the printed form round-trips through the parser (the printer's
//! fixpoint property). Generation is *sort-directed*: each subexpression
//! is asked for as one of four sorts (numbers, strings, booleans, node
//! sequences) and the generator only composes operators whose operand
//! sorts it can supply, which keeps the static-error rate low without
//! eliminating runtime errors (those are part of what the oracle
//! checks).
//!
//! Deliberately *not* generated, because they are legal but
//! nondeterministic across configurations and would drown the oracle in
//! false divergences:
//!
//! * `fn:current-dateTime()` / `current-date` / `current-time` — fixed
//!   per [`xqr_runtime::DynamicContext`], and each configuration builds
//!   its own context;
//! * `fn:position()` / `fn:last()` outside predicates — the top-level
//!   focus is unspecified;
//! * floating-point literals (NaN/Inf serialization corner cases are
//!   covered by the directed conformance suite instead);
//! * the `namespace` axis and `unordered {}` (the one annotation that
//!   *licenses* the optimizer to change observable order).

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use xqr_xdm::{AtomicValue, QName};
use xqr_xqparser::ast::*;

/// The document shape for one case: a `random_tree` of 20 to
/// `max_nodes` nodes, 3 to `max_depth` deep, over the four-tag alphabet
/// the generated queries name.
pub fn doc_config(
    rng: &mut StdRng,
    seed: u64,
    max_nodes: usize,
    max_depth: usize,
) -> xqr_xmlgen::RandomTreeConfig {
    xqr_xmlgen::RandomTreeConfig {
        seed,
        nodes: rng.gen_range(20..max_nodes),
        max_depth: rng.gen_range(3..max_depth),
        alphabet: 4,
        p_ancestor: 0.15,
        p_descendant: 0.2,
        p_text: 0.3,
        p_attribute: 0.25,
    }
}

/// A random path expression over the tag alphabet `random_tree` emits:
/// child/descendant steps, wildcards included. These are the queries
/// that ride the shared combined-automaton pass.
pub fn random_path(rng: &mut StdRng) -> String {
    const NAMES: &[&str] = &["root", "a", "d", "t0", "t1", "t2", "t3", "*"];
    let steps = rng.gen_range(1usize..5);
    let mut q = String::new();
    for _ in 0..steps {
        q.push_str(if rng.gen_bool(0.4) { "//" } else { "/" });
        q.push_str(NAMES[rng.gen_range(0..NAMES.len())]);
    }
    q
}

/// A small document stream (1 to 3 documents, seeds salted with `salt`)
/// and a set of fewer than `max_subs` subscription queries over it: a
/// random path with probability `p_path`, which rides the shared pass,
/// else a grammar-generated query, which mostly falls back to one-shot
/// evaluation.
pub fn stream_case(
    rng: &mut StdRng,
    seed: u64,
    salt: u64,
    max_subs: usize,
    p_path: f64,
) -> (Vec<String>, Vec<String>) {
    let docs = (0..rng.gen_range(1u64..4))
        .map(|i| xqr_xmlgen::random_tree(&doc_config(rng, seed ^ (salt + i), 120, 8)))
        .collect();
    let queries = (0..rng.gen_range(1..max_subs))
        .map(|_| {
            if rng.gen_bool(p_path) {
                random_path(rng)
            } else {
                QueryGen::new(rng, GenConfig::default()).generate().text
            }
        })
        .collect();
    (docs, queries)
}

/// The sort (static value family) a generated expression produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sort {
    Num,
    Str,
    Bool,
    Nodes,
}

/// Generator tuning knobs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum expression nesting depth.
    pub max_depth: usize,
    /// Element names the document generator uses (`xqr-xmlgen` emits
    /// `a`, `d` and `t0..t{alphabet}` tags plus `k` attributes).
    pub doc_tags: Vec<String>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 5,
            doc_tags: vec![
                "a".into(),
                "d".into(),
                "t0".into(),
                "t1".into(),
                "t2".into(),
                "t3".into(),
            ],
        }
    }
}

/// A generated case body plus the coverage counters gathered while
/// building it.
pub struct GeneratedQuery {
    pub module: Module,
    pub text: String,
    /// How many times each expression kind was emitted.
    pub kinds: BTreeMap<&'static str, usize>,
}

pub struct QueryGen<'r> {
    rng: &'r mut StdRng,
    config: GenConfig,
    /// In-scope variables with their sorts (FLWOR/quantifier binders).
    scope: Vec<(QName, Sort)>,
    /// `position()`/`last()` are only legal where a focus is
    /// well-defined; we restrict them to predicates.
    in_predicate: bool,
    next_var: usize,
    kinds: BTreeMap<&'static str, usize>,
}

/// All axes the engine implements, with generation weights (forward
/// child/descendant paths dominate real queries; backward and sibling
/// axes still need steady coverage). `namespace` is intentionally
/// absent.
const AXES: &[(AxisName, u32)] = &[
    (AxisName::Child, 8),
    (AxisName::Descendant, 5),
    (AxisName::DescendantOrSelf, 2),
    (AxisName::Attribute, 2),
    (AxisName::SelfAxis, 1),
    (AxisName::Parent, 2),
    (AxisName::Ancestor, 2),
    (AxisName::AncestorOrSelf, 1),
    (AxisName::FollowingSibling, 2),
    (AxisName::PrecedingSibling, 2),
    (AxisName::Following, 1),
    (AxisName::Preceding, 1),
];

impl<'r> QueryGen<'r> {
    pub fn new(rng: &'r mut StdRng, config: GenConfig) -> Self {
        QueryGen {
            rng,
            config,
            scope: Vec::new(),
            in_predicate: false,
            next_var: 0,
            kinds: BTreeMap::new(),
        }
    }

    /// Generate one full query module.
    pub fn generate(mut self) -> GeneratedQuery {
        let body = match self.rng.gen_range(0u32..100) {
            0..=39 => self.nodes(0),
            40..=59 => self.flwor(0, Sort::Nodes),
            60..=74 => self.num(0),
            75..=84 => self.bool_expr(0),
            85..=92 => self.str_expr(0),
            _ => self.constructor(0),
        };
        let module = Module {
            prolog: Prolog::default(),
            body,
        };
        let text = xqr_xqparser::printer::print_module(&module);
        GeneratedQuery {
            module,
            text,
            kinds: self.kinds,
        }
    }

    fn count(&mut self, kind: &'static str) {
        *self.kinds.entry(kind).or_insert(0) += 1;
    }

    fn fresh_var(&mut self, sort: Sort) -> QName {
        let q = QName::local(&format!("v{}", self.next_var));
        self.next_var += 1;
        self.scope.push((q.clone(), sort));
        q
    }

    fn var_of(&mut self, sort: Sort) -> Option<QName> {
        let candidates: Vec<QName> = self
            .scope
            .iter()
            .filter(|(_, s)| *s == sort)
            .map(|(q, _)| q.clone())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..candidates.len());
        Some(candidates[i].clone())
    }

    fn doc_tag(&mut self) -> QName {
        let i = self.rng.gen_range(0..self.config.doc_tags.len());
        QName::local(&self.config.doc_tags[i].clone())
    }

    fn int_lit(&mut self, lo: i64, hi: i64) -> Expr {
        Expr::Literal(AtomicValue::Integer(self.rng.gen_range(lo..hi)), 0)
    }

    /// Dispatch on sort.
    pub fn expr(&mut self, sort: Sort, depth: usize) -> Expr {
        match sort {
            Sort::Num => self.num(depth),
            Sort::Str => self.str_expr(depth),
            Sort::Bool => self.bool_expr(depth),
            Sort::Nodes => self.nodes(depth),
        }
    }

    fn call(&mut self, name: &str, args: Vec<Expr>) -> Expr {
        Expr::FunctionCall(QName::local(name), args, 0)
    }

    // ---- numbers -------------------------------------------------------

    fn num(&mut self, depth: usize) -> Expr {
        if depth >= self.config.max_depth {
            self.count("literal");
            return self.int_lit(-9, 100);
        }
        match self.rng.gen_range(0u32..100) {
            0..=29 => {
                self.count("literal");
                self.int_lit(-9, 100)
            }
            30..=54 => {
                self.count("arith");
                // idiv/mod keep the result in xs:integer; div produces
                // xs:decimal. Division by a zero *literal* is generated
                // too — FOAR0001 must be raised identically everywhere.
                let op = [
                    ArithOp::Add,
                    ArithOp::Sub,
                    ArithOp::Sub, // extra weight: the mutation target
                    ArithOp::Mul,
                    ArithOp::IDiv,
                    ArithOp::Mod,
                ][self.rng.gen_range(0usize..6)];
                let a = self.num(depth + 1);
                let b = self.num(depth + 1);
                Expr::Arith(op, Box::new(a), Box::new(b), 0)
            }
            55..=69 => {
                self.count("count");
                let n = self.nodes(depth + 1);
                self.call("count", vec![n])
            }
            70..=77 => {
                self.count("neg");
                let a = self.num(depth + 1);
                Expr::Neg(Box::new(a), 0)
            }
            78..=85 => {
                self.count("string-length");
                let s = self.str_expr(depth + 1);
                self.call("string-length", vec![s])
            }
            86..=92 => {
                self.count("if");
                let c = self.bool_expr(depth + 1);
                let t = self.num(depth + 1);
                let e = self.num(depth + 1);
                Expr::If {
                    cond: Box::new(c),
                    then_branch: Box::new(t),
                    else_branch: Box::new(e),
                    pos: 0,
                }
            }
            93..=96 => {
                if let Some(v) = self.var_of(Sort::Num) {
                    self.count("var-ref");
                    Expr::VarRef(v, 0)
                } else {
                    self.count("literal");
                    self.int_lit(0, 10)
                }
            }
            _ => {
                if self.in_predicate {
                    let name = if self.rng.gen_bool(0.5) {
                        "position"
                    } else {
                        "last"
                    };
                    self.count(if name == "position" {
                        "position"
                    } else {
                        "last"
                    });
                    self.call(name, vec![])
                } else {
                    self.count("literal");
                    self.int_lit(1, 5)
                }
            }
        }
    }

    // ---- strings -------------------------------------------------------

    fn str_expr(&mut self, depth: usize) -> Expr {
        const LITS: &[&str] = &["x", "a", "b", "42", "", "xx"];
        if depth >= self.config.max_depth {
            self.count("literal");
            let s = LITS[self.rng.gen_range(0..LITS.len())];
            return Expr::Literal(AtomicValue::string(s), 0);
        }
        match self.rng.gen_range(0u32..100) {
            0..=39 => {
                self.count("literal");
                let s = LITS[self.rng.gen_range(0..LITS.len())];
                Expr::Literal(AtomicValue::string(s), 0)
            }
            40..=59 => {
                self.count("concat");
                let a = self.str_expr(depth + 1);
                let b = self.str_expr(depth + 1);
                self.call("concat", vec![a, b])
            }
            60..=79 => {
                // string() needs a singleton (or empty) argument:
                // `(nodes)[1]` guarantees that shape.
                self.count("string-of-node");
                let n = self.nodes(depth + 1);
                let first = Expr::Filter(Box::new(n), vec![self.int_lit(1, 2)], 0);
                self.call("string", vec![first])
            }
            80..=89 => {
                self.count("string-of-num");
                let n = self.num(depth + 1);
                self.call("string", vec![n])
            }
            _ => {
                self.count("upper-case");
                let s = self.str_expr(depth + 1);
                self.call("upper-case", vec![s])
            }
        }
    }

    // ---- booleans ------------------------------------------------------

    fn bool_expr(&mut self, depth: usize) -> Expr {
        if depth >= self.config.max_depth {
            self.count("comparison");
            let a = self.int_lit(0, 10);
            let b = self.int_lit(0, 10);
            return Expr::Comparison(CompOp::GenEq, Box::new(a), Box::new(b), 0);
        }
        match self.rng.gen_range(0u32..100) {
            0..=24 => {
                self.count("comparison");
                let op = [
                    CompOp::ValEq,
                    CompOp::ValNe,
                    CompOp::ValLt,
                    CompOp::ValGe,
                    CompOp::GenEq,
                    CompOp::GenNe,
                    CompOp::GenLt,
                    CompOp::GenGt,
                ][self.rng.gen_range(0usize..8)];
                let a = self.num(depth + 1);
                let b = self.num(depth + 1);
                Expr::Comparison(op, Box::new(a), Box::new(b), 0)
            }
            25..=39 => {
                // General comparison against a node sequence: the
                // existential + coercion semantics from the paper's
                // comparison table. Untyped content coerces to the
                // other operand's family, so comparing against a string
                // is always safe while comparing against a number can
                // raise FORG0001 — both are deterministic.
                self.count("node-comparison");
                let n = self.nodes(depth + 1);
                let rhs = if self.rng.gen_bool(0.7) {
                    Expr::Literal(
                        AtomicValue::string(["x", "a", "xx"][self.rng.gen_range(0usize..3)]),
                        0,
                    )
                } else {
                    self.int_lit(0, 5)
                };
                let op = [CompOp::GenEq, CompOp::GenNe][self.rng.gen_range(0usize..2)];
                Expr::Comparison(op, Box::new(n), Box::new(rhs), 0)
            }
            40..=54 => {
                let use_and = self.rng.gen_bool(0.5);
                self.count(if use_and { "and" } else { "or" });
                let a = self.bool_expr(depth + 1);
                let b = self.bool_expr(depth + 1);
                if use_and {
                    Expr::And(Box::new(a), Box::new(b), 0)
                } else {
                    Expr::Or(Box::new(a), Box::new(b), 0)
                }
            }
            55..=69 => {
                let name = if self.rng.gen_bool(0.5) {
                    "exists"
                } else {
                    "empty"
                };
                self.count(if name == "exists" { "exists" } else { "empty" });
                let n = self.nodes(depth + 1);
                self.call(name, vec![n])
            }
            70..=79 => {
                self.count("not");
                let b = self.bool_expr(depth + 1);
                self.call("not", vec![b])
            }
            _ => {
                self.count("quantified");
                let every = self.rng.gen_bool(0.4);
                let source = self.nodes(depth + 1);
                let mark = self.scope.len();
                let v = self.fresh_var(Sort::Nodes);
                let satisfies = self.bool_expr(depth + 1);
                self.scope.truncate(mark);
                Expr::Quantified {
                    every,
                    bindings: vec![(v, None, source)],
                    satisfies: Box::new(satisfies),
                    pos: 0,
                }
            }
        }
    }

    // ---- node sequences ------------------------------------------------

    /// A path origin: the document root, the context item, or an
    /// in-scope node variable.
    fn path_origin(&mut self) -> Expr {
        match self.rng.gen_range(0u32..10) {
            0..=4 => {
                self.count("root");
                Expr::Root(0)
            }
            5..=6 => {
                self.count("context-item");
                Expr::ContextItem(0)
            }
            _ => {
                if let Some(v) = self.var_of(Sort::Nodes) {
                    self.count("var-ref");
                    Expr::VarRef(v, 0)
                } else {
                    self.count("root");
                    Expr::Root(0)
                }
            }
        }
    }

    fn axis_step(&mut self, depth: usize) -> Expr {
        let total: u32 = AXES.iter().map(|(_, w)| w).sum();
        let mut roll = self.rng.gen_range(0..total);
        let mut axis = AxisName::Child;
        for (a, w) in AXES {
            if roll < *w {
                axis = *a;
                break;
            }
            roll -= w;
        }
        self.count(match axis {
            AxisName::Child => "axis-child",
            AxisName::Descendant => "axis-descendant",
            AxisName::DescendantOrSelf => "axis-descendant-or-self",
            AxisName::Attribute => "axis-attribute",
            AxisName::SelfAxis => "axis-self",
            AxisName::Parent => "axis-parent",
            AxisName::Ancestor => "axis-ancestor",
            AxisName::AncestorOrSelf => "axis-ancestor-or-self",
            AxisName::FollowingSibling => "axis-following-sibling",
            AxisName::PrecedingSibling => "axis-preceding-sibling",
            AxisName::Following => "axis-following",
            AxisName::Preceding => "axis-preceding",
            AxisName::Namespace => unreachable!("namespace axis is never generated"),
        });
        let test = if axis == AxisName::Attribute {
            if self.rng.gen_bool(0.6) {
                NodeTest::Name(QName::local("k"))
            } else {
                NodeTest::AnyName
            }
        } else {
            match self.rng.gen_range(0u32..10) {
                0..=5 => NodeTest::Name(self.doc_tag()),
                6..=7 => NodeTest::AnyName,
                8 => NodeTest::Text,
                _ => NodeTest::AnyKind,
            }
        };
        let n_preds = match self.rng.gen_range(0u32..10) {
            0..=5 => 0,
            6..=8 => 1,
            _ => 2,
        };
        let predicates = (0..n_preds).map(|_| self.predicate(depth)).collect();
        Expr::AxisStep {
            axis,
            test,
            predicates,
            pos: 0,
        }
    }

    fn predicate(&mut self, depth: usize) -> Expr {
        let was = self.in_predicate;
        self.in_predicate = true;
        let p = match self.rng.gen_range(0u32..10) {
            0..=2 => {
                self.count("positional-predicate");
                self.int_lit(1, 4)
            }
            3..=4 => {
                self.count("positional-predicate");
                let pos = self.call("position", vec![]);
                let op = [CompOp::GenLt, CompOp::GenLe, CompOp::GenGt, CompOp::ValEq]
                    [self.rng.gen_range(0usize..4)];
                let n = self.int_lit(1, 4);
                Expr::Comparison(op, Box::new(pos), Box::new(n), 0)
            }
            5 => {
                self.count("positional-predicate");
                self.call("last", vec![])
            }
            6..=7 => self.bool_expr(depth + 1),
            _ => {
                self.count("existence-predicate");
                self.nodes(depth + 1)
            }
        };
        self.in_predicate = was;
        p
    }

    fn nodes(&mut self, depth: usize) -> Expr {
        if depth >= self.config.max_depth {
            let origin = self.path_origin();
            let step = self.axis_step(depth);
            self.count("path");
            return Expr::Path(Box::new(origin), Box::new(step), 0);
        }
        match self.rng.gen_range(0u32..100) {
            0..=44 => {
                self.count("path");
                let lhs = if self.rng.gen_bool(0.45) {
                    self.nodes(depth + 1)
                } else {
                    self.path_origin()
                };
                let step = self.axis_step(depth + 1);
                Expr::Path(Box::new(lhs), Box::new(step), 0)
            }
            45..=54 => {
                let which = self.rng.gen_range(0u32..4);
                let a = self.nodes(depth + 1);
                let b = self.nodes(depth + 1);
                match which {
                    0 | 1 => {
                        self.count("union");
                        Expr::Union(Box::new(a), Box::new(b), 0)
                    }
                    2 => {
                        self.count("intersect");
                        Expr::Intersect(Box::new(a), Box::new(b), 0)
                    }
                    _ => {
                        self.count("except");
                        Expr::Except(Box::new(a), Box::new(b), 0)
                    }
                }
            }
            55..=69 => self.flwor(depth + 1, Sort::Nodes),
            70..=79 => {
                self.count("filter");
                let base = self.nodes(depth + 1);
                let n_preds = 1 + usize::from(self.rng.gen_bool(0.3));
                let preds = (0..n_preds).map(|_| self.predicate(depth + 1)).collect();
                Expr::Filter(Box::new(base), preds, 0)
            }
            80..=86 => {
                self.count("if");
                let c = self.bool_expr(depth + 1);
                let t = self.nodes(depth + 1);
                let e = if self.rng.gen_bool(0.5) {
                    self.nodes(depth + 1)
                } else {
                    Expr::empty(0)
                };
                Expr::If {
                    cond: Box::new(c),
                    then_branch: Box::new(t),
                    else_branch: Box::new(e),
                    pos: 0,
                }
            }
            87..=92 => {
                self.count("sequence");
                let a = self.nodes(depth + 1);
                let b = self.nodes(depth + 1);
                Expr::Sequence(vec![a, b], 0)
            }
            93..=96 => {
                self.count("subsequence");
                let n = self.nodes(depth + 1);
                let start = self.int_lit(1, 3);
                let len = self.int_lit(1, 5);
                self.call("subsequence", vec![n, start, len])
            }
            _ => self.constructor(depth + 1),
        }
    }

    // ---- FLWOR ---------------------------------------------------------

    fn flwor(&mut self, depth: usize, sort: Sort) -> Expr {
        self.count("flwor");
        let mark = self.scope.len();
        let n_clauses = 1 + self.rng.gen_range(0usize..3);
        let mut clauses = Vec::with_capacity(n_clauses);
        let mut last_for_var: Option<QName> = None;
        for i in 0..n_clauses {
            // The first clause is always a `for` so the FLWOR iterates.
            if i == 0 || self.rng.gen_bool(0.6) {
                let source = self.nodes(depth + 1);
                let position = if self.rng.gen_bool(0.2) {
                    self.count("positional-for");
                    Some(self.fresh_var(Sort::Num))
                } else {
                    None
                };
                let var = self.fresh_var(Sort::Nodes);
                last_for_var = Some(var.clone());
                clauses.push(FlworClause::For {
                    var,
                    position,
                    ty: None,
                    source,
                });
            } else {
                self.count("let");
                let sort = [Sort::Num, Sort::Str, Sort::Nodes][self.rng.gen_range(0usize..3)];
                let value = self.expr(sort, depth + 1);
                let var = self.fresh_var(sort);
                clauses.push(FlworClause::Let {
                    var,
                    ty: None,
                    value,
                });
            }
        }
        let where_clause = if self.rng.gen_bool(0.4) {
            self.count("where");
            Some(Box::new(self.bool_expr(depth + 1)))
        } else {
            None
        };
        // `order by` keys must be singleton-or-empty per iteration:
        // `string($v)` over a single bound node always is. Always
        // `stable` so tie order is defined and comparable across
        // configurations.
        let order_by = match &last_for_var {
            Some(v) if self.rng.gen_bool(0.25) => {
                self.count("order-by");
                vec![OrderSpec {
                    key: self.call("string", vec![Expr::VarRef(v.clone(), 0)]),
                    descending: self.rng.gen_bool(0.5),
                    empty_least: None,
                }]
            }
            _ => Vec::new(),
        };
        let return_clause = self.expr(sort, depth + 1);
        self.scope.truncate(mark);
        Expr::Flwor {
            clauses,
            where_clause,
            order_by,
            stable: true,
            return_clause: Box::new(return_clause),
            pos: 0,
        }
    }

    // ---- constructors --------------------------------------------------

    fn constructor(&mut self, depth: usize) -> Expr {
        match self.rng.gen_range(0u32..10) {
            0..=5 => {
                self.count("direct-element");
                let name = QName::local(["r", "item", "out"][self.rng.gen_range(0usize..3)]);
                let attributes = if self.rng.gen_bool(0.4) {
                    let n = self.num(depth + 1);
                    vec![(
                        QName::local("n"),
                        vec![AttrPart::Text("p".into()), AttrPart::Enclosed(n)],
                    )]
                } else {
                    Vec::new()
                };
                let mut content = Vec::new();
                if self.rng.gen_bool(0.5) {
                    content.push(DirContent::Text("t".into()));
                }
                content.push(DirContent::Enclosed(self.nodes(depth + 1)));
                Expr::DirectElement {
                    name,
                    attributes,
                    namespaces: Vec::new(),
                    content,
                    pos: 0,
                }
            }
            6..=7 => {
                self.count("computed-element");
                let sort = [Sort::Nodes, Sort::Num, Sort::Str][self.rng.gen_range(0usize..3)];
                let body = self.expr(sort, depth + 1);
                Expr::ComputedElement {
                    name: Box::new(NameOrExpr::Name(QName::local("c"))),
                    content: Some(Box::new(body)),
                    pos: 0,
                }
            }
            _ => {
                self.count("computed-text");
                let s = self.str_expr(depth + 1);
                Expr::ComputedText(Box::new(s), 0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_queries_parse_back() {
        // The structural guarantee the whole harness rests on: printed
        // generated ASTs are valid query text.
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let q = QueryGen::new(&mut rng, GenConfig::default()).generate();
            let parsed = xqr_xqparser::parse_query(&q.text);
            assert!(
                parsed.is_ok(),
                "seed {seed}: {}\n{:?}",
                q.text,
                parsed.err()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let gen_one = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            QueryGen::new(&mut rng, GenConfig::default())
                .generate()
                .text
        };
        assert_eq!(gen_one(7), gen_one(7));
        assert_ne!(gen_one(7), gen_one(8));
    }

    #[test]
    fn coverage_spans_expression_kinds() {
        // Across a few hundred seeds the generator should exercise the
        // major expression families and most axes.
        let mut all: BTreeMap<&'static str, usize> = BTreeMap::new();
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let q = QueryGen::new(&mut rng, GenConfig::default()).generate();
            for (k, v) in q.kinds {
                *all.entry(k).or_insert(0) += v;
            }
        }
        for kind in [
            "path",
            "flwor",
            "quantified",
            "comparison",
            "arith",
            "direct-element",
            "positional-predicate",
            "union",
            "axis-child",
            "axis-descendant",
            "axis-parent",
            "axis-ancestor",
            "axis-preceding-sibling",
            "order-by",
        ] {
            assert!(all.contains_key(kind), "never generated: {kind}\n{all:?}");
        }
    }
}
