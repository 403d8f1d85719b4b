//! Property tests on the data pipeline: XML text ↔ events ↔ tokens ↔
//! store are mutually faithful on arbitrary generated documents.

use proptest::prelude::*;
use std::sync::Arc;
use xqr::xqr_tokenstream::{decode, encode, tokens_to_xml, TokenStream};
use xqr::xqr_xmlparse::reserialize;
use xqr::{Document, Store};
use xqr_xdm::NamePool;

/// Strategy: a small random XML document as a string, built recursively
/// so it is well-formed by construction.
fn arb_xml() -> impl Strategy<Value = String> {
    let name = prop_oneof![Just("a"), Just("b"), Just("c"), Just("item"), Just("x-y")];
    let text = "[a-zA-Z0-9 ]{0,12}";
    let leaf = (name.clone(), text.prop_map(String::from)).prop_map(|(n, t)| {
        if t.is_empty() {
            format!("<{n}/>")
        } else {
            format!("<{n}>{t}</{n}>")
        }
    });
    leaf.prop_recursive(4, 64, 5, move |inner| {
        (
            prop_oneof![Just("r"), Just("node"), Just("wrap")],
            prop::collection::vec(inner, 0..5),
            prop::option::of(("[a-z]{1,4}", "[a-zA-Z0-9]{0,6}")),
        )
            .prop_map(|(n, children, attr)| {
                let attrs = match &attr {
                    Some((k, v)) => format!(" {k}=\"{v}\""),
                    None => String::new(),
                };
                if children.is_empty() {
                    format!("<{n}{attrs}/>")
                } else {
                    format!("<{n}{attrs}>{}</{n}>", children.join(""))
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parse_serialize_fixpoint(xml in arb_xml()) {
        // parse → serialize is canonicalizing: a second pass is identity.
        let once = reserialize(&xml).unwrap();
        let twice = reserialize(&once).unwrap();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn tokens_roundtrip_xml(xml in arb_xml()) {
        let canonical = reserialize(&xml).unwrap();
        let names = Arc::new(NamePool::new());
        let stream = TokenStream::from_xml(&canonical, names).unwrap();
        let back = tokens_to_xml(&mut stream.iter(), Default::default()).unwrap();
        prop_assert_eq!(canonical, back);
    }

    #[test]
    fn wire_encoding_roundtrips(xml in arb_xml(), pooled in any::<bool>()) {
        let names = Arc::new(NamePool::new());
        let stream = TokenStream::from_xml(&xml, names).unwrap();
        let bytes = encode(&stream, pooled);
        let decoded = decode(bytes, Arc::new(NamePool::new())).unwrap();
        let a = tokens_to_xml(&mut stream.iter(), Default::default()).unwrap();
        let b = tokens_to_xml(&mut decoded.iter(), Default::default()).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn store_serialization_roundtrips(xml in arb_xml()) {
        let canonical = reserialize(&xml).unwrap();
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&canonical, names).unwrap();
        prop_assert_eq!(doc.serialize_node(doc.root()), canonical);
    }

    #[test]
    fn containment_labels_agree_with_parent_links(xml in arb_xml()) {
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&xml, names).unwrap();
        // For every pair (p, c) where p is c's parent: labels must agree.
        for i in 0..doc.len() as u32 {
            let n = xqr::NodeId(i);
            if let Some(p) = doc.parent(n) {
                prop_assert!(doc.is_ancestor(p, n), "parent must contain child");
                prop_assert_eq!(doc.level(p) + 1, doc.level(n));
            }
            // start/end well-formed
            prop_assert!(doc.end(n) >= doc.start(n));
        }
    }

    #[test]
    fn identity_query_is_faithful(xml in arb_xml()) {
        // Querying the root element and serializing it returns the
        // canonical document.
        let canonical = reserialize(&xml).unwrap();
        let engine = xqr::Engine::new();
        let out = engine.query_xml(&canonical, "/*").unwrap();
        prop_assert_eq!(canonical, out);
    }

    #[test]
    fn store_loads_are_queryable(xml in arb_xml()) {
        let store = Store::new();
        let doc = store.lease_xml(&xml, None).unwrap().doc;
        // string-value of the root equals concatenated text.
        let sv = doc.string_value(doc.root());
        // cheap cross-check: every char of sv appears in the input
        prop_assert!(sv.chars().all(|c| xml.contains(c) || c.is_whitespace()));
    }
}
