//! Property test for name tests in path steps: a step binds its name
//! test to the document's interned id once and compares ids per node.
//! On random documents, for random context nodes and names on the child,
//! descendant and attribute axes, it must return exactly the nodes a
//! `QName ==` filter over the axis returns — across a prefix that differs
//! over the same namespace, the same local name in another namespace,
//! and names no document contains.

use proptest::prelude::*;
use xqr_compiler::{compile, CompileOptions};
use xqr_runtime::{DynamicContext, Item, RuntimeOptions};
use xqr_store::{walk, Axis, NodeId, NodeRef, Store};
use xqr_xdm::{NodeKind, QName};
use xqr_xmlgen::{random_tree, RandomTreeConfig};

const PROLOG: &str = r#"declare namespace p = "urn:p"; declare namespace q = "urn:p"; declare namespace r = "urn:r"; "#;

/// Query spelling and the expanded name it denotes. `p` and `q` bind the
/// same namespace; `r` one no document uses.
fn names() -> Vec<(&'static str, QName)> {
    vec![
        ("t0", QName::local("t0")),
        ("a", QName::local("a")),
        ("d", QName::local("d")),
        ("k", QName::local("k")),
        ("t1", QName::local("t1")),
        ("p:t1", QName::ns("urn:p", "t1")),
        ("q:t1", QName::ns("urn:p", "t1")),
        ("r:t1", QName::ns("urn:r", "t1")),
        ("q:t2", QName::ns("urn:p", "t2")),
        ("p:k", QName::ns("urn:p", "k")),
        ("q:k", QName::ns("urn:p", "k")),
        (
            "never_in_any_document",
            QName::local("never_in_any_document"),
        ),
        ("p:never", QName::ns("urn:p", "never")),
    ]
}

/// A random tree with `t1`, `t2` and some `k` attributes moved into
/// `urn:p` under two different prefixes.
fn namespaced_tree(seed: u64, nodes: usize) -> String {
    random_tree(&RandomTreeConfig {
        seed,
        nodes,
        p_attribute: 0.4,
        ..Default::default()
    })
    .replacen("<root>", r#"<root xmlns:p="urn:p" xmlns:q="urn:p">"#, 1)
    .replace("<t1", "<p:t1")
    .replace("</t1>", "</p:t1>")
    .replace("<t2", "<q:t2")
    .replace("</t2>", "</q:t2>")
    .replace(r#"<t3 k=""#, r#"<t3 p:k=""#)
    .replace(r#"<a k=""#, r#"<a q:k=""#)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn id_name_steps_equal_the_qname_reference(
        seed in 0u64..10_000,
        nodes in 20usize..300,
        picks in proptest::collection::vec((0usize..3, 0usize..13, 0usize..100_000), 1..12),
    ) {
        let store = Store::new();
        let lease = store.lease_xml(&namespaced_tree(seed, nodes), None).unwrap();
        let (id, doc) = (lease.id, &*lease.doc);
        let names = names();
        for (axis, name, ctx) in picks {
            let (keyword, axis, principal) = [
                ("child", Axis::Child, NodeKind::Element),
                ("descendant", Axis::Descendant, NodeKind::Element),
                ("attribute", Axis::Attribute, NodeKind::Attribute),
            ][axis];
            let (spelling, qname) = &names[name];
            let ctx = NodeId((ctx % doc.len()) as u32);
            let want: Vec<NodeId> = walk(doc, ctx, axis)
                .into_iter()
                .filter(|&n| doc.kind(n) == principal && doc.name(n) == Some(qname))
                .collect();

            let query = format!("{PROLOG}{keyword}::{spelling}");
            let plan = compile(&query, &CompileOptions::default()).unwrap();
            let dyn_ctx = DynamicContext::new().with_context_item(Item::Node(NodeRef::new(id, ctx)));
            let (got, _, _) = xqr_runtime::execute(&plan, &store, &dyn_ctx, RuntimeOptions::default()).unwrap();
            let got: Vec<NodeId> = got
                .iter()
                .map(|i| i.as_node().expect("a step returns nodes"))
                .inspect(|n| assert_eq!(n.doc, id))
                .map(|n| n.node)
                .collect();
            prop_assert_eq!(got, want, "{} from node {}", query, ctx.0);
        }
    }
}
