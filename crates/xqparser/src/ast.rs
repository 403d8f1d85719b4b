//! The abstract syntax tree produced by the parser.
//!
//! This mirrors the talk's pipeline: "Text → Abstract syntax tree (for
//! editing) → Expression tree (for optimization)". The AST stays close
//! to surface syntax (FLWOR not yet decomposed, `//` already desugared);
//! the compiler crate normalizes it into the core expression tree.
//!
//! Every node carries the source offset it started at, preserving the
//! "lineage through all those representations (for debugging and error
//! reporting)" the talk calls out.

use xqr_xdm::{AtomicValue, QName, SequenceType};

/// Source position (byte offset into the query text).
pub(crate) type Pos = usize;

/// Axes, re-exported shape-compatible with the store's axis enum but
/// independent so the parser does not depend on the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisName {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
    SelfAxis,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
    Namespace,
}

impl AxisName {
    /// Parse an axis name (not the `FromStr` trait: this is fallible
    /// without an error payload).
    pub(crate) fn parse(s: &str) -> Option<AxisName> {
        Some(match s {
            "child" => AxisName::Child,
            "descendant" => AxisName::Descendant,
            "descendant-or-self" => AxisName::DescendantOrSelf,
            "attribute" => AxisName::Attribute,
            "self" => AxisName::SelfAxis,
            "parent" => AxisName::Parent,
            "ancestor" => AxisName::Ancestor,
            "ancestor-or-self" => AxisName::AncestorOrSelf,
            "following-sibling" => AxisName::FollowingSibling,
            "preceding-sibling" => AxisName::PrecedingSibling,
            "following" => AxisName::Following,
            "preceding" => AxisName::Preceding,
            "namespace" => AxisName::Namespace,
            _ => return None,
        })
    }
}

/// A node test within an axis step.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// A resolved name, e.g. `book` or `myNS:publisher`.
    Name(QName),
    /// `*`
    AnyName,
    /// `prefix:*` with the prefix resolved to its URI.
    NamespaceWildcard(String),
    /// `*:local`
    LocalWildcard(String),
    /// `node()`
    AnyKind,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction(target?)`
    Pi(Option<String>),
    /// `document-node()`
    Document,
    /// `element()` / `element(name)`
    Element(Option<QName>),
    /// `attribute()` / `attribute(name)`
    Attribute(Option<QName>),
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::IDiv => "idiv",
            ArithOp::Mod => "mod",
        }
    }
}

/// The three comparison families from the talk's comparison table, plus
/// node order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    // Value comparisons: single values.
    ValEq,
    ValNe,
    ValLt,
    ValLe,
    ValGt,
    ValGe,
    // General comparisons: existential + coercion.
    GenEq,
    GenNe,
    GenLt,
    GenLe,
    GenGt,
    GenGe,
    // Node identity.
    Is,
    // Document order.
    Before,
    After,
}

impl CompOp {
    pub fn is_value(self) -> bool {
        matches!(
            self,
            CompOp::ValEq
                | CompOp::ValNe
                | CompOp::ValLt
                | CompOp::ValLe
                | CompOp::ValGt
                | CompOp::ValGe
        )
    }

    pub fn is_general(self) -> bool {
        matches!(
            self,
            CompOp::GenEq
                | CompOp::GenNe
                | CompOp::GenLt
                | CompOp::GenLe
                | CompOp::GenGt
                | CompOp::GenGe
        )
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CompOp::ValEq => "eq",
            CompOp::ValNe => "ne",
            CompOp::ValLt => "lt",
            CompOp::ValLe => "le",
            CompOp::ValGt => "gt",
            CompOp::ValGe => "ge",
            CompOp::GenEq => "=",
            CompOp::GenNe => "!=",
            CompOp::GenLt => "<",
            CompOp::GenLe => "<=",
            CompOp::GenGt => ">",
            CompOp::GenGe => ">=",
            CompOp::Is => "is",
            CompOp::Before => "<<",
            CompOp::After => ">>",
        }
    }
}

/// One FLWOR binding clause.
#[derive(Debug, Clone, PartialEq)]
pub enum FlworClause {
    For {
        var: QName,
        /// `at $i` positional variable.
        position: Option<QName>,
        ty: Option<SequenceType>,
        source: Expr,
    },
    Let {
        var: QName,
        ty: Option<SequenceType>,
        value: Expr,
    },
}

/// One `order by` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    pub key: Expr,
    pub descending: bool,
    /// `empty least` (true) / `empty greatest` (false); None = default.
    pub empty_least: Option<bool>,
}

/// Direct-constructor content item.
#[derive(Debug, Clone, PartialEq)]
pub enum DirContent {
    /// Literal text (entities already resolved).
    Text(String),
    /// `{ expr }` enclosed expression.
    Enclosed(Expr),
    /// Nested element / computed constructor or any expression node.
    Child(Expr),
}

/// Attribute value template: literal and enclosed pieces.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrPart {
    Text(String),
    Enclosed(Expr),
}

/// One case of a typeswitch.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeswitchCase {
    pub var: Option<QName>,
    pub ty: SequenceType,
    pub body: Expr,
}

/// An XQuery expression (26-ish kinds, per the talk's hierarchy slide).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(AtomicValue, Pos),
    VarRef(QName, Pos),
    ContextItem(Pos),
    /// `()` or `(e1, e2, ...)` — sequence construction by concatenation.
    Sequence(Vec<Expr>, Pos),
    Range(Box<Expr>, Box<Expr>, Pos),
    Arith(ArithOp, Box<Expr>, Box<Expr>, Pos),
    /// Unary minus (odd number of `-` signs).
    Neg(Box<Expr>, Pos),
    Comparison(CompOp, Box<Expr>, Box<Expr>, Pos),
    And(Box<Expr>, Box<Expr>, Pos),
    Or(Box<Expr>, Box<Expr>, Pos),
    Union(Box<Expr>, Box<Expr>, Pos),
    Intersect(Box<Expr>, Box<Expr>, Pos),
    Except(Box<Expr>, Box<Expr>, Pos),
    /// Binary `/`: evaluate rhs with every lhs node as context.
    Path(Box<Expr>, Box<Expr>, Pos),
    /// The document root of the context item (leading `/`).
    Root(Pos),
    /// An axis step with predicates.
    AxisStep {
        axis: AxisName,
        test: NodeTest,
        predicates: Vec<Expr>,
        pos: Pos,
    },
    /// Primary expression with filter predicates: `expr[pred]`.
    Filter(Box<Expr>, Vec<Expr>, Pos),
    FunctionCall(QName, Vec<Expr>, Pos),
    Flwor {
        clauses: Vec<FlworClause>,
        where_clause: Option<Box<Expr>>,
        /// `(stable)? order by` specs.
        order_by: Vec<OrderSpec>,
        stable: bool,
        return_clause: Box<Expr>,
        pos: Pos,
    },
    Quantified {
        every: bool,
        bindings: Vec<(QName, Option<SequenceType>, Expr)>,
        satisfies: Box<Expr>,
        pos: Pos,
    },
    If {
        cond: Box<Expr>,
        then_branch: Box<Expr>,
        else_branch: Box<Expr>,
        pos: Pos,
    },
    Typeswitch {
        operand: Box<Expr>,
        cases: Vec<TypeswitchCase>,
        default_var: Option<QName>,
        default_body: Box<Expr>,
        pos: Pos,
    },
    InstanceOf(Box<Expr>, SequenceType, Pos),
    CastAs(Box<Expr>, SequenceType, Pos),
    CastableAs(Box<Expr>, SequenceType, Pos),
    TreatAs(Box<Expr>, SequenceType, Pos),
    /// `<name attr="...">content</name>`
    DirectElement {
        name: QName,
        /// Resolved attributes with value templates.
        attributes: Vec<(QName, Vec<AttrPart>)>,
        /// Namespace declarations written on this element.
        namespaces: Vec<(Option<String>, String)>,
        content: Vec<DirContent>,
        pos: Pos,
    },
    ComputedElement {
        name: Box<NameOrExpr>,
        content: Option<Box<Expr>>,
        pos: Pos,
    },
    ComputedAttribute {
        name: Box<NameOrExpr>,
        content: Option<Box<Expr>>,
        pos: Pos,
    },
    ComputedText(Box<Expr>, Pos),
    ComputedComment(Box<Expr>, Pos),
    ComputedPi {
        target: Box<NameOrExpr>,
        content: Option<Box<Expr>>,
        pos: Pos,
    },
    ComputedDocument(Box<Expr>, Pos),
    /// `ordered { e }` / `unordered { e }` — the annotation the talk
    /// says optimization exploits.
    Ordered(Box<Expr>, Pos),
    Unordered(Box<Expr>, Pos),
}

/// Computed-constructor name: constant or runtime expression.
#[derive(Debug, Clone, PartialEq)]
pub enum NameOrExpr {
    Name(QName),
    Expr(Expr),
}

impl Expr {
    /// The empty sequence `()`.
    pub fn empty(pos: Pos) -> Expr {
        Expr::Sequence(Vec::new(), pos)
    }
}

/// A global variable declaration from the prolog.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    pub name: QName,
    pub ty: Option<SequenceType>,
    /// `None` = `external` (bound through the API).
    pub value: Option<Expr>,
}

/// A function declaration from the prolog.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    pub name: QName,
    pub params: Vec<(QName, Option<SequenceType>)>,
    pub return_type: Option<SequenceType>,
    /// `None` = external function.
    pub body: Option<Expr>,
}

/// The prolog: everything before the query body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Prolog {
    pub namespaces: Vec<(String, String)>,
    /// `declare boundary-space preserve` keeps whitespace-only text in
    /// direct constructors (default: strip).
    pub boundary_space_preserve: bool,
    pub default_element_ns: Option<String>,
    pub default_function_ns: Option<String>,
    pub variables: Vec<VarDecl>,
    pub functions: Vec<FunctionDecl>,
}

/// A whole query: prolog + body expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub prolog: Prolog,
    pub body: Expr,
}
