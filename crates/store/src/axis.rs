//! XPath axes over the store — the navigation the talk's abbreviated and
//! non-abbreviated step syntax compiles to.
//!
//! Forward axes exploit the preorder layout: `descendant` is a linear
//! scan of the label interval, `following` a scan from `end+1`. Reverse
//! axes (`parent`, `ancestor`, `preceding*`) use the parent links; the
//! compiler's backward-axis rewrite exists precisely to avoid these at
//! runtime, but the engine still supports them.

use crate::document::{Document, NodeId};
use xqr_xdm::NodeKind;

/// The axes we implement (the required set plus the optional full-axis
/// feature the talk lists: following/preceding and siblings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
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

impl Axis {
    /// Reverse axes deliver nodes before the context node in document
    /// order; paths must re-sort afterwards (or be rewritten away).
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::PrecedingSibling
                | Axis::Preceding
        )
    }

    /// Principal node kind: attribute for the attribute axis, namespace
    /// for the namespace axis, element otherwise (decides what `*`
    /// matches).
    pub fn principal_kind(self) -> NodeKind {
        match self {
            Axis::Attribute => NodeKind::Attribute,
            Axis::Namespace => NodeKind::Namespace,
            _ => NodeKind::Element,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Attribute => "attribute",
            Axis::SelfAxis => "self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::Namespace => "namespace",
        }
    }

    pub fn from_name(s: &str) -> Option<Axis> {
        Some(match s {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "attribute" => Axis::Attribute,
            "self" => Axis::SelfAxis,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "namespace" => Axis::Namespace,
            _ => return None,
        })
    }
}

/// Is `n` on the main child tree (not an attribute/namespace node)?
fn is_tree_node(doc: &Document, n: NodeId) -> bool {
    !matches!(doc.kind(n), NodeKind::Attribute | NodeKind::Namespace)
}

/// Walk an axis from `ctx`, returning matching node ids. Nodes are
/// produced in axis order (reverse axes yield nearest-first, per XPath),
/// and the caller applies node tests.
pub fn walk(doc: &Document, ctx: NodeId, axis: Axis) -> Vec<NodeId> {
    match axis {
        Axis::SelfAxis => vec![ctx],
        Axis::Child => {
            let mut out = Vec::new();
            let mut c = doc.first_child(ctx);
            while let Some(n) = c {
                out.push(n);
                c = doc.next_sibling(n);
            }
            out
        }
        Axis::Descendant => {
            let end = doc.end(ctx);
            (ctx.0 + 1..=end)
                .map(NodeId)
                .filter(|&n| is_tree_node(doc, n))
                .collect()
        }
        Axis::DescendantOrSelf => {
            let mut out = vec![ctx];
            out.extend(walk(doc, ctx, Axis::Descendant));
            out
        }
        Axis::Attribute => doc.attributes(ctx).collect(),
        Axis::Namespace => doc.namespaces(ctx).collect(),
        Axis::Parent => doc.parent(ctx).into_iter().collect(),
        Axis::Ancestor => {
            let mut out = Vec::new();
            let mut p = doc.parent(ctx);
            while let Some(n) = p {
                out.push(n);
                p = doc.parent(n);
            }
            out
        }
        Axis::AncestorOrSelf => {
            let mut out = vec![ctx];
            out.extend(walk(doc, ctx, Axis::Ancestor));
            out
        }
        Axis::FollowingSibling => {
            let mut out = Vec::new();
            let mut s = doc.next_sibling(ctx);
            while let Some(n) = s {
                out.push(n);
                s = doc.next_sibling(n);
            }
            out
        }
        Axis::PrecedingSibling => {
            // Nearest-first per the reverse-axis convention.
            let mut before = Vec::new();
            if let Some(p) = doc.parent(ctx) {
                let mut c = doc.first_child(p);
                while let Some(n) = c {
                    if n == ctx {
                        break;
                    }
                    before.push(n);
                    c = doc.next_sibling(n);
                }
            }
            before.reverse();
            before
        }
        Axis::Following => {
            // Everything after this subtree, minus attributes/namespaces.
            let start = doc.end(ctx) + 1;
            (start..doc.len() as u32)
                .map(NodeId)
                .filter(|&n| is_tree_node(doc, n))
                .collect()
        }
        Axis::Preceding => {
            // Nodes strictly before ctx in doc order, excluding ancestors
            // and attr/ns nodes; nearest-first.
            let mut out: Vec<NodeId> = (1..ctx.0)
                .map(NodeId)
                .filter(|&n| is_tree_node(doc, n) && !doc.is_ancestor(n, ctx))
                .collect();
            out.reverse();
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xqr_xdm::{NamePool, QName};

    fn doc(xml: &str) -> Arc<Document> {
        Document::parse(xml, Arc::new(NamePool::new())).unwrap()
    }

    fn names(d: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| {
                d.name(n)
                    .map(|q| q.local_name().to_string())
                    .unwrap_or_else(|| format!("#{}", d.kind(n)))
            })
            .collect()
    }

    // <root><a><b/><c><d/></c></a><e/></root>
    fn fixture() -> (
        Arc<Document>,
        NodeId,
        NodeId,
        NodeId,
        NodeId,
        NodeId,
        NodeId,
    ) {
        let d = doc("<root><a><b/><c><d/></c></a><e/></root>");
        let root = d.first_child(d.root()).unwrap();
        let a = d.first_child(root).unwrap();
        let b = d.first_child(a).unwrap();
        let c = d.next_sibling(b).unwrap();
        let dd = d.first_child(c).unwrap();
        let e = d.next_sibling(a).unwrap();
        (d, root, a, b, c, dd, e)
    }

    #[test]
    fn child_and_descendant() {
        let (d, root, a, b, c, dd, e) = fixture();
        assert_eq!(walk(&d, root, Axis::Child), vec![a, e]);
        assert_eq!(walk(&d, a, Axis::Descendant), vec![b, c, dd]);
        assert_eq!(walk(&d, a, Axis::DescendantOrSelf), vec![a, b, c, dd]);
        assert_eq!(walk(&d, b, Axis::Descendant), vec![]);
    }

    #[test]
    fn ancestors() {
        let (d, root, a, _b, c, dd, _e) = fixture();
        assert_eq!(walk(&d, dd, Axis::Ancestor), vec![c, a, root, d.root()]);
        assert_eq!(walk(&d, dd, Axis::AncestorOrSelf)[0], dd);
        assert_eq!(walk(&d, dd, Axis::Parent), vec![c]);
        assert_eq!(walk(&d, d.root(), Axis::Parent), vec![]);
    }

    #[test]
    fn siblings() {
        let (d, _root, a, b, c, _dd, e) = fixture();
        assert_eq!(walk(&d, b, Axis::FollowingSibling), vec![c]);
        assert_eq!(walk(&d, c, Axis::PrecedingSibling), vec![b]);
        assert_eq!(walk(&d, a, Axis::FollowingSibling), vec![e]);
        assert_eq!(walk(&d, e, Axis::PrecedingSibling), vec![a]);
    }

    #[test]
    fn following_and_preceding() {
        let (d, _root, _a, b, c, dd, e) = fixture();
        // following(b) = c, d, e (not ancestors, not self subtree)
        assert_eq!(walk(&d, b, Axis::Following), vec![c, dd, e]);
        // preceding(e) excludes ancestors (root) but includes a's subtree
        let p = walk(&d, e, Axis::Preceding);
        let n = names(&d, &p);
        assert_eq!(n, vec!["d", "c", "b", "a"]); // nearest first
    }

    #[test]
    fn attributes_not_on_child_or_descendant_axes() {
        let d = doc(r#"<r><a x="1"><b y="2"/></a></r>"#);
        let r = d.first_child(d.root()).unwrap();
        let a = d.first_child(r).unwrap();
        for n in walk(&d, r, Axis::Descendant) {
            assert_ne!(d.kind(n), NodeKind::Attribute);
        }
        let attrs = walk(&d, a, Axis::Attribute);
        assert_eq!(attrs.len(), 1);
        assert_eq!(d.name(attrs[0]).unwrap(), &QName::local("x"));
    }

    #[test]
    fn axis_name_roundtrip() {
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Attribute,
            Axis::SelfAxis,
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
            Axis::Following,
            Axis::Preceding,
            Axis::Namespace,
        ] {
            assert_eq!(Axis::from_name(axis.name()), Some(axis));
        }
        assert_eq!(Axis::from_name("sideways"), None);
    }

    #[test]
    fn reverse_axis_classification() {
        assert!(Axis::Ancestor.is_reverse());
        assert!(Axis::Preceding.is_reverse());
        assert!(!Axis::Descendant.is_reverse());
        assert_eq!(Axis::Attribute.principal_kind(), NodeKind::Attribute);
        assert_eq!(Axis::Child.principal_kind(), NodeKind::Element);
    }
}
