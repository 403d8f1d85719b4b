//! Navigational twig matching — the baseline the structural-join papers
//! (and experiment E5/E6) compare against: evaluate the pattern by
//! walking the tree from the root, no labels, no inverted lists.
//!
//! Also serves as the correctness oracle: its enumeration is direct from
//! the definition of a twig match.

use crate::twig::{EdgeKind, TwigPattern};
use xqr_store::{walk, Axis, Document, NodeId};
use xqr_xdm::NodeKind;

/// All complete match tuples; `tuple[i]` binds twig node `i`.
///
/// Twig node indices are topological (parents precede children), so a
/// straight index-order recursion assigns each node against its already
/// bound parent.
pub fn enumerate_matches(doc: &Document, twig: &TwigPattern) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut tuple = vec![NodeId(0); twig.len()];
    assign(doc, twig, 0, &mut tuple, &mut out);
    out
}

fn assign(
    doc: &Document,
    twig: &TwigPattern,
    idx: usize,
    tuple: &mut Vec<NodeId>,
    out: &mut Vec<Vec<NodeId>>,
) {
    if idx == twig.len() {
        out.push(tuple.clone());
        return;
    }
    let (from, edge) = match twig.nodes[idx].parent {
        Some(p) => (tuple[p], twig.nodes[idx].edge),
        None => (doc.root(), twig.root_edge),
    };
    for cand in candidates(doc, from, edge, twig, idx) {
        tuple[idx] = cand;
        assign(doc, twig, idx + 1, tuple, out);
    }
}

/// Distinct bindings of one twig node (e.g. the query's output node)
/// over all matches, in document order.
pub fn matches_of_node(doc: &Document, twig: &TwigPattern, target: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = enumerate_matches(doc, twig)
        .into_iter()
        .map(|t| t[target])
        .collect();
    nodes.sort();
    nodes.dedup();
    nodes
}

fn candidates(
    doc: &Document,
    from: NodeId,
    edge: EdgeKind,
    twig: &TwigPattern,
    twig_idx: usize,
) -> Vec<NodeId> {
    let axis = match edge {
        EdgeKind::Child => Axis::Child,
        EdgeKind::Descendant => Axis::Descendant,
    };
    walk(doc, from, axis)
        .into_iter()
        .filter(|&n| {
            doc.kind(n) == NodeKind::Element && doc.name_id(n) == twig.nodes[twig_idx].name
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xqr_xdm::NamePool;

    fn setup(xml: &str, pat: &str) -> (Arc<Document>, TwigPattern) {
        let names = Arc::new(NamePool::new());
        let d = Document::parse(xml, names.clone()).unwrap();
        let t = TwigPattern::parse(pat, &names).unwrap();
        (d, t)
    }

    #[test]
    fn linear_path_matches() {
        let (d, t) = setup("<a><b><c/></b><b/><c/></a>", "//a/b/c");
        let m = enumerate_matches(&d, &t);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn descendant_edges() {
        let (d, t) = setup("<a><x><b/></x><b/></a>", "//a//b");
        assert_eq!(enumerate_matches(&d, &t).len(), 2);
    }

    #[test]
    fn branching_twig() {
        // book with author AND title
        let xml = "<bib><book><author/><title/></book><book><title/></book></bib>";
        let (d, t) = setup(xml, "//book[author]/title");
        let m = enumerate_matches(&d, &t);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn multiple_bindings_multiply() {
        // one book, 2 authors, 2 titles → 4 tuples
        let xml = "<bib><book><author/><author/><title/><title/></book></bib>";
        let (d, t) = setup(xml, "//book[author]/title");
        assert_eq!(enumerate_matches(&d, &t).len(), 4);
    }

    #[test]
    fn matches_of_node_dedups() {
        let xml = "<bib><book><author/><author/><title/></book></bib>";
        let (d, t) = setup(xml, "//book[author]/title");
        // title bound once even though 2 tuples
        let titles = matches_of_node(&d, &t, 2);
        assert_eq!(titles.len(), 1);
    }

    #[test]
    fn recursive_document() {
        let (d, t) = setup("<a><a><a/></a></a>", "//a//a");
        // pairs: (a1,a2),(a1,a3),(a2,a3)
        assert_eq!(enumerate_matches(&d, &t).len(), 3);
    }

    #[test]
    fn no_match_returns_empty() {
        let (d, t) = setup("<a><b/></a>", "//a/c");
        assert!(enumerate_matches(&d, &t).is_empty());
    }
}
