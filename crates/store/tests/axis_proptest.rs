//! Property tests: every axis agrees with its primitive definition in
//! terms of document order and parent links, on random trees.

use proptest::prelude::*;
use std::sync::Arc;
use xqr_store::{walk, Axis, Document, NodeId};
use xqr_xdm::{NamePool, NodeKind};
use xqr_xmlgen::{random_tree, RandomTreeConfig};

fn arb_doc() -> impl Strategy<Value = Arc<Document>> {
    (any::<u64>(), 10usize..150, 2usize..7).prop_map(|(seed, nodes, depth)| {
        let xml = random_tree(&RandomTreeConfig {
            seed,
            nodes,
            max_depth: depth,
            alphabet: 3,
            p_ancestor: 0.2,
            p_descendant: 0.2,
            p_text: 0.3,
            ..Default::default()
        });
        Document::parse(&xml, Arc::new(NamePool::new())).unwrap()
    })
}

/// Naive ancestor set via parent links.
fn ancestors_naive(doc: &Document, n: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut p = doc.parent(n);
    while let Some(a) = p {
        out.push(a);
        p = doc.parent(a);
    }
    out
}

fn tree_nodes(doc: &Document) -> Vec<NodeId> {
    (0..doc.len() as u32)
        .map(NodeId)
        .filter(|&n| !matches!(doc.kind(n), NodeKind::Attribute | NodeKind::Namespace))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn descendant_is_interval(doc in arb_doc()) {
        for &n in tree_nodes(&doc).iter().take(40) {
            let desc = walk(&doc, n, Axis::Descendant);
            // Every descendant is inside the containment interval, and
            // every tree node inside the interval is a descendant.
            for d in &desc {
                prop_assert!(doc.is_ancestor(n, *d));
            }
            let inside: Vec<NodeId> = tree_nodes(&doc)
                .into_iter()
                .filter(|&m| doc.is_ancestor(n, m))
                .collect();
            prop_assert_eq!(desc, inside);
        }
    }

    #[test]
    fn ancestor_matches_parent_chain(doc in arb_doc()) {
        for &n in tree_nodes(&doc).iter().take(40) {
            prop_assert_eq!(walk(&doc, n, Axis::Ancestor), ancestors_naive(&doc, n));
        }
    }

    #[test]
    fn following_preceding_partition_the_document(doc in arb_doc()) {
        // For any tree node: {self+descendants} ∪ ancestors ∪ following
        // ∪ preceding = all tree nodes, all disjoint.
        for &n in tree_nodes(&doc).iter().take(25) {
            let mut all: Vec<NodeId> = walk(&doc, n, Axis::DescendantOrSelf);
            all.extend(walk(&doc, n, Axis::Ancestor));
            all.extend(walk(&doc, n, Axis::Following));
            all.extend(walk(&doc, n, Axis::Preceding));
            let before = all.len();
            all.sort();
            all.dedup();
            prop_assert_eq!(before, all.len(), "axes overlap at {:?}", n);
            prop_assert_eq!(all, tree_nodes(&doc));
        }
    }

    #[test]
    fn siblings_share_parent(doc in arb_doc()) {
        for &n in tree_nodes(&doc).iter().take(40) {
            for s in walk(&doc, n, Axis::FollowingSibling) {
                prop_assert_eq!(doc.parent(s), doc.parent(n));
                prop_assert!(s > n);
            }
            for s in walk(&doc, n, Axis::PrecedingSibling) {
                prop_assert_eq!(doc.parent(s), doc.parent(n));
                prop_assert!(s < n);
            }
        }
    }

    #[test]
    fn child_parent_duality(doc in arb_doc()) {
        for &n in tree_nodes(&doc).iter().take(40) {
            for c in walk(&doc, n, Axis::Child) {
                prop_assert_eq!(walk(&doc, c, Axis::Parent), vec![n]);
            }
        }
    }

    #[test]
    fn levels_count_ancestors(doc in arb_doc()) {
        for &n in tree_nodes(&doc).iter().take(60) {
            prop_assert_eq!(
                doc.level(n) as usize,
                ancestors_naive(&doc, n).len(),
            );
        }
    }
}
