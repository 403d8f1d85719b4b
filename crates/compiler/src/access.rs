//! Access-path selection: recognize absolute path/twig subtrees of the
//! optimized core tree and wrap them in [`Core::IndexScan`] so the
//! runtime can answer them from a document's structural index (tag/path
//! inverted lists + structural/twig joins) instead of navigating.
//!
//! The pass is *advisory*: the original navigational plan rides along as
//! the scan's `fallback`, and the runtime uses it whenever the anchored
//! document has no index (or there is no context node at all). That
//! keeps the rewrite semantics-free — the only thing the pattern
//! encodes is a query shape the index subsystem can answer exactly:
//!
//! * anchored at the context root (`/…`, `//…`) or a `fn:doc(<const>)`
//!   call;
//! * trunk steps along `child`/`descendant` axes with simple QName
//!   tests (including the uncollapsed `descendant-or-self::node()` +
//!   `child::t` spelling of `//t`), ending in an element or attribute;
//! * predicates that are pure relative existence paths of the same step
//!   shapes (they become twig branches — existence semantics is exactly
//!   the twig-join semantics);
//! * attribute steps only in leaf position (attributes have no
//!   children).
//!
//! Anything else — wildcards, positional or value predicates, reverse
//! axes, computed names — leaves the subtree untouched.

use crate::core_expr::{AxisName, Core, CoreModule, NodeTest};
use std::fmt;
use xqr_xdm::{AtomicValue, QName};

/// Where an access pattern is anchored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessAnchor {
    /// The root of the context node's tree (leading `/` or `//`).
    ContextRoot,
    /// `fn:doc("uri")` with a constant URI.
    Doc(String),
}

/// Edge from a pattern node to its parent (XPath `/` vs `//`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessEdge {
    Child,
    Descendant,
}

/// One node of the pattern twig.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessNode {
    pub name: QName,
    pub edge: AccessEdge,
    /// Parent node index; `None` for the first trunk step (relative to
    /// the anchor). Always less than the node's own index.
    pub parent: Option<usize>,
    /// An attribute test (`@name`); always a leaf.
    pub attribute: bool,
}

/// A path/twig shape the index subsystem can answer: a tree of named
/// steps with an output node (the trunk's last step). Branch nodes are
/// existence constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPattern {
    pub anchor: AccessAnchor,
    pub nodes: Vec<AccessNode>,
    /// Index of the node whose matches the scan returns.
    pub output: usize,
}

impl AccessPattern {
    /// Is this a linear path (no branches)? Linear patterns are answered
    /// entirely from the path dictionary; branching ones run a twig join
    /// over path-filtered lists.
    pub fn is_linear(&self) -> bool {
        // Linear ⇔ every node's parent is the previous node AND the
        // output is the chain tip. `//a[d]` is structurally a chain
        // a→d but outputs `a`: the `[d]` branch is an existence
        // condition a pure dictionary lookup on `a` would drop, so it
        // must go through the twig join.
        self.output == self.nodes.len() - 1
            && self
                .nodes
                .iter()
                .enumerate()
                .all(|(i, n)| n.parent == i.checked_sub(1))
    }

    /// Children of node `i`, in insertion order.
    pub(crate) fn children_of(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.parent == Some(i))
            .map(|(c, _)| c)
    }

    /// Is node `i` on the trunk (the anchor→output chain)?
    fn on_trunk(&self, i: usize) -> bool {
        let mut cur = Some(self.output);
        while let Some(c) = cur {
            if c == i {
                return true;
            }
            cur = self.nodes[c].parent;
        }
        false
    }
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let AccessAnchor::Doc(uri) = &self.anchor {
            write!(f, "doc({uri:?})")?;
        }
        let root = self
            .nodes
            .iter()
            .position(|n| n.parent.is_none())
            .unwrap_or(0);
        self.fmt_node(f, root, false)
    }
}

impl AccessPattern {
    fn fmt_node(&self, f: &mut fmt::Formatter<'_>, i: usize, branch_root: bool) -> fmt::Result {
        let n = &self.nodes[i];
        // Branch roots are relative: `[author]`, `[.//last]`.
        f.write_str(match (n.edge, branch_root) {
            (AccessEdge::Child, false) => "/",
            (AccessEdge::Child, true) => "",
            (AccessEdge::Descendant, false) => "//",
            (AccessEdge::Descendant, true) => ".//",
        })?;
        if n.attribute {
            f.write_str("@")?;
        }
        write!(f, "{}", n.name)?;
        let mut trunk_child = None;
        for c in self.children_of(i) {
            if self.on_trunk(c) {
                trunk_child = Some(c);
            } else {
                f.write_str("[")?;
                self.fmt_node(f, c, true)?;
                f.write_str("]")?;
            }
        }
        if let Some(c) = trunk_child {
            self.fmt_node(f, c, false)?;
        }
        Ok(())
    }
}

/// Replace every maximal index-answerable subtree of the module with
/// [`Core::IndexScan`], keeping the original subtree as the runtime
/// fallback. Returns the number of scans planted.
pub fn select_access_paths(module: &mut CoreModule) -> usize {
    let mut count = 0;
    rewrite_expr(&mut module.body, &mut count);
    for func in &mut module.functions {
        rewrite_expr(&mut func.body, &mut count);
    }
    for (_, _, value) in &mut module.globals {
        if let Some(v) = value {
            rewrite_expr(v, &mut count);
        }
    }
    count
}

fn rewrite_expr(e: &mut Core, count: &mut usize) {
    if let Some(pattern) = extract_pattern(e) {
        let fallback = std::mem::replace(e, Core::Empty);
        *e = Core::IndexScan {
            pattern,
            fallback: fallback.boxed(),
        };
        *count += 1;
        return; // the fallback stays purely navigational
    }
    e.for_each_child_mut(&mut |c| rewrite_expr(c, count));
}

/// Try to read `e` as a complete access pattern.
pub(crate) fn extract_pattern(e: &Core) -> Option<AccessPattern> {
    let mut nodes = Vec::new();
    let (anchor, last, pending_gap) = trunk(e, &mut nodes)?;
    // The pattern must end on a named step (a trailing dos::node() would
    // select nodes of every kind — not index-answerable).
    if pending_gap {
        return None;
    }
    let output = last?;
    Some(AccessPattern {
        anchor,
        nodes,
        output,
    })
}

/// Parse state while walking a path chain: the node new steps attach to
/// (`None` = the anchor itself) and whether a `descendant-or-self::
/// node()` gap is pending (turning the next step's edge into `//`).
type ChainState = (Option<usize>, bool);

/// Parse the absolute trunk: anchor + step chain.
fn trunk(e: &Core, nodes: &mut Vec<AccessNode>) -> Option<(AccessAnchor, Option<usize>, bool)> {
    match e {
        Core::Ddo(inner) => trunk(inner, nodes),
        Core::Root => Some((AccessAnchor::ContextRoot, None, false)),
        Core::Builtin("doc", args) if args.len() == 1 => match &args[0] {
            Core::Const(AtomicValue::String(uri)) => {
                Some((AccessAnchor::Doc(uri.to_string()), None, false))
            }
            _ => None,
        },
        Core::PathMap { input, step } => {
            let (anchor, attach, gap) = trunk(input, nodes)?;
            let (attach, gap) = chain(step, nodes, (attach, gap))?;
            Some((anchor, attach, gap))
        }
        _ => None,
    }
}

/// Parse a (possibly nested) chain of step-position expressions.
fn chain(e: &Core, nodes: &mut Vec<AccessNode>, state: ChainState) -> Option<ChainState> {
    match e {
        Core::Ddo(inner) => chain(inner, nodes, state),
        Core::PathMap { input, step } => {
            let state = chain(input, nodes, state)?;
            chain(step, nodes, state)
        }
        Core::Step { axis, test } => apply_step(*axis, test, nodes, state),
        Core::Filter { input, predicate } => {
            let (attach, gap) = chain(input, nodes, state)?;
            // The predicate applies to a concrete step's matches.
            let filtered = attach?;
            if gap || nodes[filtered].attribute {
                return None;
            }
            branch(predicate, nodes, filtered)?;
            Some((Some(filtered), false))
        }
        _ => None,
    }
}

/// One axis step.
fn apply_step(
    axis: AxisName,
    test: &NodeTest,
    nodes: &mut Vec<AccessNode>,
    (attach, gap): ChainState,
) -> Option<ChainState> {
    // Attributes are leaves: nothing steps out of an attribute.
    if let Some(a) = attach {
        if nodes[a].attribute {
            return None;
        }
    }
    match (axis, test) {
        (AxisName::DescendantOrSelf, NodeTest::AnyKind) => Some((attach, true)),
        (AxisName::Child, NodeTest::Name(q)) => {
            let edge = if gap {
                AccessEdge::Descendant
            } else {
                AccessEdge::Child
            };
            Some((Some(push(nodes, q, edge, attach, false)), false))
        }
        (AxisName::Descendant, NodeTest::Name(q)) => Some((
            Some(push(nodes, q, AccessEdge::Descendant, attach, false)),
            false,
        )),
        (AxisName::Attribute, NodeTest::Name(q)) => {
            let edge = if gap {
                AccessEdge::Descendant
            } else {
                AccessEdge::Child
            };
            Some((Some(push(nodes, q, edge, attach, true)), false))
        }
        _ => None,
    }
}

fn push(
    nodes: &mut Vec<AccessNode>,
    name: &QName,
    edge: AccessEdge,
    parent: Option<usize>,
    attribute: bool,
) -> usize {
    nodes.push(AccessNode {
        name: name.clone(),
        edge,
        parent,
        attribute,
    });
    nodes.len() - 1
}

/// Parse a predicate as a relative existence path hanging off `parent`.
fn branch(e: &Core, nodes: &mut Vec<AccessNode>, parent: usize) -> Option<()> {
    let (last, gap) = chain(e, nodes, (Some(parent), false))?;
    // Must have added at least one named step and not end on a dangling
    // dos gap.
    if gap || last == Some(parent) || last.is_none() {
        return None;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, CompileOptions};

    fn pattern_of(query: &str) -> Option<AccessPattern> {
        let opts = CompileOptions {
            access_paths: false, // extract by hand below
            ..Default::default()
        };
        let compiled = compile(query, &opts).unwrap();
        extract_pattern(&compiled.module.body)
    }

    #[test]
    fn linear_paths_extract() {
        let p = pattern_of("/site/people/person").unwrap();
        assert!(p.is_linear());
        assert_eq!(p.nodes.len(), 3);
        assert_eq!(p.anchor, AccessAnchor::ContextRoot);
        assert!(p.nodes.iter().all(|n| !n.attribute));
        assert_eq!(p.to_string(), "/site/people/person");

        let p = pattern_of("//book/title").unwrap();
        assert!(p.is_linear());
        assert_eq!(p.nodes[0].edge, AccessEdge::Descendant);
        assert_eq!(p.nodes[1].edge, AccessEdge::Child);
        assert_eq!(p.to_string(), "//book/title");

        let p = pattern_of("//a//b").unwrap();
        assert_eq!(p.nodes[1].edge, AccessEdge::Descendant);
    }

    #[test]
    fn twigs_with_existence_predicates_extract() {
        let p = pattern_of("//book[author]/title").unwrap();
        assert!(!p.is_linear());
        assert_eq!(p.nodes.len(), 3);
        // book (trunk) → author (branch), title (trunk)
        assert_eq!(p.nodes[0].name.local_name(), "book");
        assert_eq!(p.nodes[0].edge, AccessEdge::Descendant);
        assert_eq!(p.output, 2);
        assert_eq!(p.to_string(), "//book[author]/title");

        let p = pattern_of("//book[author/last]/price").unwrap();
        assert_eq!(p.nodes.len(), 4);
        let p = pattern_of("//a[b][c]/d").unwrap();
        assert_eq!(p.nodes.len(), 4);
        assert_eq!(p.output, 3);
    }

    #[test]
    fn attribute_steps_extract_in_leaf_position_only() {
        let p = pattern_of("//a/@id").unwrap();
        assert!(p.nodes[1].attribute);
        assert_eq!(p.output, 1);
        let p = pattern_of("//a[@k]/b").unwrap();
        assert!(p.nodes[1].attribute);
        assert!(!p.nodes[2].attribute);
        // No steps out of attributes.
        assert!(pattern_of("//a/@id/x").is_none());
    }

    #[test]
    fn doc_anchored_paths_extract() {
        let p = pattern_of("doc(\"bib.xml\")//book/title").unwrap();
        assert_eq!(p.anchor, AccessAnchor::Doc("bib.xml".into()));
        // Constant folding upstream still yields a constant anchor…
        let p = pattern_of("doc(concat(\"bib\", \".xml\"))//book").unwrap();
        assert_eq!(p.anchor, AccessAnchor::Doc("bib.xml".into()));
        // …but a genuinely runtime-dependent URI is not extractable.
        assert!(pattern_of("doc(string(/uri))//book").is_none());
    }

    #[test]
    fn unsupported_shapes_do_not_extract() {
        for q in [
            "//a/*",             // wildcard
            "//a[1]",            // positional predicate
            "//a[b = 1]/c",      // value predicate
            "//a/text()",        // kind test
            "//a/..",            // reverse axis
            "1 + 2",             // not a path
            "//a[count(b) > 0]", // function predicate
        ] {
            assert!(pattern_of(q).is_none(), "{q} should not extract");
        }
    }

    #[test]
    fn selection_plants_scans_inside_larger_queries() {
        let compiled = compile("count(//a/b)", &CompileOptions::default()).unwrap();
        let Core::Builtin("count", args) = &compiled.module.body else {
            panic!("expected count call, got {:?}", compiled.module.body);
        };
        assert!(matches!(args[0], Core::IndexScan { .. }));
        assert_eq!(compiled.stats.get("index-access-path"), Some(&1));
    }

    #[test]
    fn selection_respects_the_option() {
        let opts = CompileOptions {
            access_paths: false,
            ..Default::default()
        };
        let compiled = compile("//a/b", &opts).unwrap();
        assert!(!format!("{:?}", compiled.module.body).contains("IndexScan"));
    }
}
