//! Sequence types: the static-typing vocabulary from the talk's "XQuery
//! type system components" slide — atomic types, node-kind tests with
//! optional name tests, `empty`, alternation via the `AnyItem` top, and
//! the four occurrence indicators.
//!
//! The compiler's type inference (the `xqr-compiler` crate) manipulates these:
//! `intersect`, `subtype of`, and occurrence algebra are all here so they
//! can be unit-tested in isolation.

use crate::atomic::AtomicType;
use crate::node::NodeKind;
use crate::qname::QName;
use std::fmt;

/// How many items a sequence type allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Occurrence {
    /// Exactly one item (no indicator).
    One,
    /// `?` — zero or one.
    Optional,
    /// `*` — zero or more.
    ZeroOrMore,
    /// `+` — one or more.
    OneOrMore,
}

impl Occurrence {
    pub fn allows_empty(self) -> bool {
        matches!(self, Occurrence::Optional | Occurrence::ZeroOrMore)
    }

    /// Is every cardinality allowed by `self` also allowed by `other`?
    pub fn is_sub(self, other: Occurrence) -> bool {
        use Occurrence::*;
        match (self, other) {
            (a, b) if a == b => true,
            (One, _) => true,
            (Optional, ZeroOrMore) => true,
            (OneOrMore, ZeroOrMore) => true,
            _ => false,
        }
    }

    /// Cardinality of the concatenation of two sequences.
    pub fn concat(self, other: Occurrence) -> Occurrence {
        use Occurrence::*;
        match (self, other) {
            (One, _) | (_, One) | (OneOrMore, _) | (_, OneOrMore) => OneOrMore,
            _ => ZeroOrMore,
        }
    }

    /// Least upper bound: the loosest of the two.
    pub fn union(self, other: Occurrence) -> Occurrence {
        use Occurrence::*;
        match (self, other) {
            (a, b) if a == b => a,
            (One, Optional) | (Optional, One) => Optional,
            (One, OneOrMore) | (OneOrMore, One) => OneOrMore,
            _ => ZeroOrMore,
        }
    }

    /// Cardinality after iterating (`for`): each binding may yield the
    /// body's cardinality, so only "never empty × never empty" stays +.
    pub fn for_loop(self, body: Occurrence) -> Occurrence {
        use Occurrence::*;
        match (self, body) {
            (One, b) => b,
            (OneOrMore, One) | (OneOrMore, OneOrMore) => OneOrMore,
            _ => ZeroOrMore,
        }
    }

    pub fn indicator(self) -> &'static str {
        match self {
            Occurrence::One => "",
            Occurrence::Optional => "?",
            Occurrence::ZeroOrMore => "*",
            Occurrence::OneOrMore => "+",
        }
    }
}

/// A name test inside a kind test: wildcard or a specific expanded name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NameTest {
    Any,
    Name(QName),
}

impl NameTest {
    pub fn matches(&self, name: &QName) -> bool {
        match self {
            NameTest::Any => true,
            NameTest::Name(q) => q == name,
        }
    }
}

/// The item-type component of a sequence type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ItemType {
    /// `item()` — anything.
    AnyItem,
    /// An atomic type (includes `xdt:untypedAtomic` etc.).
    Atomic(AtomicType),
    /// `node()` — any node kind.
    AnyNode,
    /// `element(name?)`, `attribute(name?)`, etc.
    Kind(NodeKind, NameTest),
}

impl ItemType {
    pub fn element(name: Option<QName>) -> Self {
        ItemType::Kind(
            NodeKind::Element,
            name.map_or(NameTest::Any, NameTest::Name),
        )
    }

    pub fn attribute(name: Option<QName>) -> Self {
        ItemType::Kind(
            NodeKind::Attribute,
            name.map_or(NameTest::Any, NameTest::Name),
        )
    }

    pub fn is_node_type(&self) -> bool {
        matches!(self, ItemType::AnyNode | ItemType::Kind(..))
    }

    /// Structural subtyping between item types.
    pub fn is_subtype_of(&self, other: &ItemType) -> bool {
        use ItemType::*;
        match (self, other) {
            (_, AnyItem) => true,
            (AnyItem, _) => false,
            (Atomic(a), Atomic(b)) => a.is_subtype_of(*b),
            (Atomic(_), _) | (_, Atomic(_)) => false,
            (AnyNode | Kind(..), AnyNode) => true,
            (AnyNode, Kind(..)) => false,
            (Kind(k1, n1), Kind(k2, n2)) => k1 == k2 && (matches!(n2, NameTest::Any) || n1 == n2),
        }
    }

    /// Greatest lower bound if non-empty; `None` means the intersection
    /// is provably empty (used to fold `instance of` to `false`).
    pub fn intersect(&self, other: &ItemType) -> Option<ItemType> {
        use ItemType::*;
        if self.is_subtype_of(other) {
            return Some(self.clone());
        }
        if other.is_subtype_of(self) {
            return Some(other.clone());
        }
        match (self, other) {
            (AnyNode, Kind(..)) => Some(other.clone()),
            (Kind(..), AnyNode) => Some(self.clone()),
            (Atomic(a), Atomic(b)) => {
                if a.is_subtype_of(*b) {
                    Some(Atomic(*a))
                } else if b.is_subtype_of(*a) {
                    Some(Atomic(*b))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl fmt::Display for ItemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemType::AnyItem => f.write_str("item()"),
            ItemType::Atomic(a) => f.write_str(a.name()),
            ItemType::AnyNode => f.write_str("node()"),
            ItemType::Kind(k, n) => {
                let kind = match k {
                    NodeKind::Document => "document-node",
                    NodeKind::Element => "element",
                    NodeKind::Attribute => "attribute",
                    NodeKind::Text => "text",
                    NodeKind::Namespace => "namespace-node",
                    NodeKind::ProcessingInstruction => "processing-instruction",
                    NodeKind::Comment => "comment",
                };
                match n {
                    NameTest::Any => write!(f, "{kind}()"),
                    NameTest::Name(q) => write!(f, "{kind}({q})"),
                }
            }
        }
    }
}

/// A full sequence type: `empty()` or item type + occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SequenceType {
    Empty,
    Of(ItemType, Occurrence),
}

impl SequenceType {
    pub const ANY: SequenceType = SequenceType::Of(ItemType::AnyItem, Occurrence::ZeroOrMore);

    pub fn one(item: ItemType) -> Self {
        SequenceType::Of(item, Occurrence::One)
    }

    pub fn optional(item: ItemType) -> Self {
        SequenceType::Of(item, Occurrence::Optional)
    }

    pub fn zero_or_more(item: ItemType) -> Self {
        SequenceType::Of(item, Occurrence::ZeroOrMore)
    }

    pub fn one_or_more(item: ItemType) -> Self {
        SequenceType::Of(item, Occurrence::OneOrMore)
    }

    pub fn atomic(ty: AtomicType) -> Self {
        Self::one(ItemType::Atomic(ty))
    }

    pub fn occurrence(&self) -> Option<Occurrence> {
        match self {
            SequenceType::Empty => None,
            SequenceType::Of(_, o) => Some(*o),
        }
    }

    pub fn item_type(&self) -> Option<&ItemType> {
        match self {
            SequenceType::Empty => None,
            SequenceType::Of(i, _) => Some(i),
        }
    }

    pub fn allows_empty(&self) -> bool {
        match self {
            SequenceType::Empty => true,
            SequenceType::Of(_, o) => o.allows_empty(),
        }
    }

    /// `type1 subtype of type2?` from the talk's type-operations list.
    pub fn is_subtype_of(&self, other: &SequenceType) -> bool {
        match (self, other) {
            (SequenceType::Empty, SequenceType::Empty) => true,
            (SequenceType::Empty, SequenceType::Of(_, o)) => o.allows_empty(),
            (SequenceType::Of(..), SequenceType::Empty) => false,
            (SequenceType::Of(i1, o1), SequenceType::Of(i2, o2)) => {
                o1.is_sub(*o2) && i1.is_subtype_of(i2)
            }
        }
    }

    /// Least upper bound (`type1 | type2` collapsed to our lattice).
    pub fn union(&self, other: &SequenceType) -> SequenceType {
        match (self, other) {
            (SequenceType::Empty, SequenceType::Empty) => SequenceType::Empty,
            (SequenceType::Empty, SequenceType::Of(i, o))
            | (SequenceType::Of(i, o), SequenceType::Empty) => {
                let o = match o {
                    Occurrence::One => Occurrence::Optional,
                    Occurrence::OneOrMore => Occurrence::ZeroOrMore,
                    other => *other,
                };
                SequenceType::Of(i.clone(), o)
            }
            (SequenceType::Of(i1, o1), SequenceType::Of(i2, o2)) => {
                let item = if i1.is_subtype_of(i2) {
                    i2.clone()
                } else if i2.is_subtype_of(i1) {
                    i1.clone()
                } else if i1.is_node_type() && i2.is_node_type() {
                    ItemType::AnyNode
                } else if let (ItemType::Atomic(a), ItemType::Atomic(b)) = (i1, i2) {
                    // Numeric lub keeps numeric-ness visible to later rules.
                    if a.is_numeric() && b.is_numeric() {
                        ItemType::Atomic(AtomicType::Double)
                    } else {
                        ItemType::Atomic(AtomicType::AnyAtomic)
                    }
                } else {
                    ItemType::AnyItem
                };
                SequenceType::Of(item, o1.union(*o2))
            }
        }
    }

    /// Sequence concatenation `(t1, t2)`.
    pub fn concat(&self, other: &SequenceType) -> SequenceType {
        match (self, other) {
            (SequenceType::Empty, t) | (t, SequenceType::Empty) => t.clone(),
            (SequenceType::Of(i1, o1), SequenceType::Of(i2, o2)) => {
                let merged =
                    SequenceType::Of(i1.clone(), *o1).union(&SequenceType::Of(i2.clone(), *o2));
                match merged {
                    SequenceType::Of(i, _) => SequenceType::Of(i, o1.concat(*o2)),
                    e => e,
                }
            }
        }
    }

    /// The type after iterating a `for` over `self` with body type `body`.
    pub fn for_loop(&self, body: &SequenceType) -> SequenceType {
        match (self, body) {
            (SequenceType::Empty, _) | (_, SequenceType::Empty) => SequenceType::Empty,
            (SequenceType::Of(_, o1), SequenceType::Of(i2, o2)) => {
                SequenceType::Of(i2.clone(), o1.for_loop(*o2))
            }
        }
    }

    /// The type of one item drawn from this sequence (for variable
    /// binding in `for`).
    pub fn item_one(&self) -> SequenceType {
        match self {
            SequenceType::Empty => SequenceType::Empty,
            SequenceType::Of(i, _) => SequenceType::one(i.clone()),
        }
    }
}

impl fmt::Display for SequenceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequenceType::Empty => f.write_str("empty()"),
            SequenceType::Of(i, o) => write!(f, "{}{}", i, o.indicator()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrence_subtyping() {
        use Occurrence::*;
        assert!(One.is_sub(Optional));
        assert!(One.is_sub(ZeroOrMore));
        assert!(One.is_sub(OneOrMore));
        assert!(Optional.is_sub(ZeroOrMore));
        assert!(!Optional.is_sub(OneOrMore));
        assert!(!ZeroOrMore.is_sub(OneOrMore));
        assert!(OneOrMore.is_sub(ZeroOrMore));
    }

    #[test]
    fn occurrence_concat() {
        use Occurrence::*;
        assert_eq!(One.concat(One), OneOrMore);
        assert_eq!(Optional.concat(Optional), ZeroOrMore);
        assert_eq!(Optional.concat(OneOrMore), OneOrMore);
    }

    #[test]
    fn item_subtyping() {
        let any_el = ItemType::element(None);
        let named = ItemType::element(Some(QName::local("book")));
        assert!(named.is_subtype_of(&any_el));
        assert!(!any_el.is_subtype_of(&named));
        assert!(any_el.is_subtype_of(&ItemType::AnyNode));
        assert!(ItemType::AnyNode.is_subtype_of(&ItemType::AnyItem));
        assert!(ItemType::Atomic(AtomicType::Integer)
            .is_subtype_of(&ItemType::Atomic(AtomicType::Decimal)));
        assert!(!ItemType::Atomic(AtomicType::Integer).is_subtype_of(&ItemType::AnyNode));
    }

    #[test]
    fn item_intersect() {
        let any_el = ItemType::element(None);
        let named = ItemType::element(Some(QName::local("book")));
        assert_eq!(any_el.intersect(&named), Some(named.clone()));
        assert_eq!(
            ItemType::Atomic(AtomicType::String).intersect(&ItemType::Atomic(AtomicType::Integer)),
            None
        );
        assert_eq!(named.intersect(&ItemType::AnyNode), Some(named.clone()));
        let attr = ItemType::attribute(None);
        assert_eq!(named.intersect(&attr), None);
    }

    #[test]
    fn sequence_subtyping() {
        let one_int = SequenceType::atomic(AtomicType::Integer);
        let opt_dec = SequenceType::optional(ItemType::Atomic(AtomicType::Decimal));
        assert!(one_int.is_subtype_of(&opt_dec));
        assert!(!opt_dec.is_subtype_of(&one_int));
        assert!(SequenceType::Empty.is_subtype_of(&opt_dec));
        assert!(!SequenceType::Empty.is_subtype_of(&SequenceType::one_or_more(ItemType::AnyItem)));
        assert!(one_int.is_subtype_of(&SequenceType::ANY));
    }

    #[test]
    fn union_loosens() {
        let a = SequenceType::atomic(AtomicType::Integer);
        let b = SequenceType::Empty;
        assert_eq!(
            a.union(&b),
            SequenceType::optional(ItemType::Atomic(AtomicType::Integer))
        );
        let el = SequenceType::one(ItemType::element(None));
        let at = SequenceType::one(ItemType::attribute(None));
        assert_eq!(el.union(&at), SequenceType::one(ItemType::AnyNode));
    }

    #[test]
    fn concat_types() {
        let a = SequenceType::atomic(AtomicType::Integer);
        let joined = a.concat(&a);
        assert_eq!(
            joined,
            SequenceType::one_or_more(ItemType::Atomic(AtomicType::Integer))
        );
        assert_eq!(a.concat(&SequenceType::Empty), a);
    }

    #[test]
    fn for_loop_types() {
        let src = SequenceType::zero_or_more(ItemType::element(None));
        let body = SequenceType::atomic(AtomicType::Integer);
        assert_eq!(
            src.for_loop(&body),
            SequenceType::zero_or_more(ItemType::Atomic(AtomicType::Integer))
        );
        let src1 = SequenceType::one_or_more(ItemType::element(None));
        assert_eq!(
            src1.for_loop(&body),
            SequenceType::one_or_more(ItemType::Atomic(AtomicType::Integer))
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(SequenceType::ANY.to_string(), "item()*");
        assert_eq!(
            SequenceType::optional(ItemType::Atomic(AtomicType::Integer)).to_string(),
            "xs:integer?"
        );
        assert_eq!(
            SequenceType::one(ItemType::element(Some(QName::local("a")))).to_string(),
            "element(a)"
        );
        assert_eq!(SequenceType::Empty.to_string(), "empty()");
    }
}
