//! Property tests for the structural index: on randomized documents,
//! every inverted list must equal the document-order scan, every label
//! must agree with the store, and every path-dictionary answer must
//! agree with an independent recursive matcher over real ancestor
//! chains.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use xqr_index::{DocIndex, PathStep};
use xqr_joins::{EdgeKind, Labeled};
use xqr_store::{Document, NodeId};
use xqr_xdm::{NameId, NamePool, NodeKind, QName};
use xqr_xmlgen::{random_tree, RandomTreeConfig};

/// Root-to-`n` chain of element names (the ancestor tag sequence the
/// path dictionary interns), read straight off the tree.
fn chain_of(doc: &Document, n: NodeId) -> Vec<NameId> {
    let mut chain = Vec::new();
    let mut cur = Some(n);
    while let Some(c) = cur {
        if doc.kind(c) == NodeKind::Element {
            chain.push(doc.name_id(c));
        }
        cur = doc.parent(c);
    }
    chain.reverse();
    chain
}

/// Independent oracle for linear pattern matching: does the pattern
/// consume the whole chain? Recursive backtracking — deliberately a
/// different algorithm from the dictionary's DP.
fn chain_matches(chain: &[NameId], steps: &[PathStep]) -> bool {
    match steps.split_first() {
        None => chain.is_empty(),
        Some((&(edge, name), rest)) => match edge {
            EdgeKind::Child => chain.first() == Some(&name) && chain_matches(&chain[1..], rest),
            EdgeKind::Descendant => {
                (0..chain.len()).any(|i| chain[i] == name && chain_matches(&chain[i + 1..], rest))
            }
        },
    }
}

/// Prefix variant: some prefix of the chain matches the pattern fully.
fn chain_prefix_matches(chain: &[NameId], steps: &[PathStep]) -> bool {
    (0..=chain.len()).any(|j| chain_matches(&chain[..j], steps))
}

fn scan_kind(doc: &Document, kind: NodeKind, name: NameId) -> Vec<Labeled> {
    (0..doc.len() as u32)
        .map(NodeId)
        .filter(|&n| doc.kind(n) == kind && doc.name_id(n) == name)
        .map(|n| Labeled {
            node: n,
            start: doc.start(n),
            end: doc.end(n),
            level: doc.level(n),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_agrees_with_document_scan_and_chain_oracle(
        seed in 0u64..10_000,
        nodes in 10usize..250,
        max_depth in 2usize..10,
        alphabet in 1usize..6,
        pattern in proptest::collection::vec((any::<bool>(), 0usize..8), 1..4),
        attr_desc in any::<bool>(),
    ) {
        let xml = random_tree(&RandomTreeConfig {
            seed,
            nodes,
            max_depth,
            alphabet,
            p_attribute: 0.3,
            ..Default::default()
        });
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&xml, names.clone()).unwrap();
        let index = DocIndex::build(&doc).unwrap();

        // Every element/attribute name that occurs in the document.
        let mut elem_names = BTreeSet::new();
        let mut attr_names = BTreeSet::new();
        for i in 0..doc.len() as u32 {
            let n = NodeId(i);
            match doc.kind(n) {
                NodeKind::Element => { elem_names.insert(doc.name_id(n)); }
                NodeKind::Attribute => { attr_names.insert(doc.name_id(n)); }
                _ => {}
            }
        }

        // 1. Inverted lists equal the document-order scan, exactly.
        for &name in &elem_names {
            let scan = xqr_joins::element_list(&doc, name);
            prop_assert_eq!(index.element_labels(name), &scan[..]);
        }
        for &name in &attr_names {
            let scan = scan_kind(&doc, NodeKind::Attribute, name);
            prop_assert_eq!(index.attribute_labels(name), &scan[..]);
        }

        // 2. Labels sorted (strictly, so also distinct) and consistent
        //    with the store's containment labeling.
        for &name in elem_names.iter().chain(&attr_names) {
            for labels in [index.element_labels(name), index.attribute_labels(name)] {
                prop_assert!(labels.windows(2).all(|w| w[0].start < w[1].start));
                for l in labels {
                    prop_assert_eq!(doc.start(l.node), l.start);
                    prop_assert_eq!(doc.end(l.node), l.end);
                    prop_assert_eq!(doc.level(l.node), l.level);
                }
            }
        }

        // 3. Every (pattern, tag) path-indexed sublist equals the chain
        //    oracle run over the whole document.
        let all_names: Vec<NameId> = elem_names.iter().copied().collect();
        if !all_names.is_empty() {
            let steps: Vec<PathStep> = pattern
                .iter()
                .map(|&(desc, pick)| {
                    let edge = if desc { EdgeKind::Descendant } else { EdgeKind::Child };
                    (edge, all_names[pick % all_names.len()])
                })
                .collect();
            let got: Vec<NodeId> =
                index.linear_elements(&steps).into_iter().map(|l| l.node).collect();
            let want: Vec<NodeId> = (0..doc.len() as u32)
                .map(NodeId)
                .filter(|&n| {
                    doc.kind(n) == NodeKind::Element
                        && chain_matches(&chain_of(&doc, n), &steps)
                })
                .collect();
            prop_assert_eq!(got, want, "pattern {:?}", steps);

            // Attribute variant: owner chains constrained by the same
            // pattern, for both `/@k` and `//@k` edges.
            if let Some(k) = names.get(&QName::local("k")) {
                let edge = if attr_desc { EdgeKind::Descendant } else { EdgeKind::Child };
                let got: Vec<NodeId> = index
                    .linear_attributes(&steps, edge, k)
                    .into_iter()
                    .map(|l| l.node)
                    .collect();
                let want: Vec<NodeId> = (0..doc.len() as u32)
                    .map(NodeId)
                    .filter(|&n| {
                        if doc.kind(n) != NodeKind::Attribute || doc.name_id(n) != k {
                            return false;
                        }
                        let owner = chain_of(&doc, doc.parent(n).unwrap());
                        match edge {
                            EdgeKind::Child => chain_matches(&owner, &steps),
                            EdgeKind::Descendant => chain_prefix_matches(&owner, &steps),
                        }
                    })
                    .collect();
                prop_assert_eq!(got, want, "attr pattern {:?}", steps);
            }
        }
    }
}
