//! Runtime items and sequences.
//!
//! An [`Item`] is a node reference or an atomic value — the data model's
//! "sequence composed of zero or more items; items are nodes or atomic
//! values". Sequences are flat `Vec<Item>` when materialized; the
//! evaluator streams items through sinks and only materializes at the
//! operators that need it (sort, ddo, multiple consumers).

use xqr_store::{NodeRef, Store};
use xqr_xdm::{AtomicValue, Error, ErrorCode, NodeKind, QName, Result};

/// One item of the data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Atomic(AtomicValue),
    Node(NodeRef),
}

impl Item {
    pub fn integer(i: i64) -> Item {
        Item::Atomic(AtomicValue::Integer(i))
    }

    pub(crate) fn string(s: &str) -> Item {
        Item::Atomic(AtomicValue::string(s))
    }

    pub(crate) fn boolean(b: bool) -> Item {
        Item::Atomic(AtomicValue::Boolean(b))
    }

    pub(crate) fn is_node(&self) -> bool {
        matches!(self, Item::Node(_))
    }

    pub fn as_node(&self) -> Option<NodeRef> {
        match self {
            Item::Node(n) => Some(*n),
            Item::Atomic(_) => None,
        }
    }

    /// `fn:string` of one item.
    pub fn string_value(&self, store: &Store) -> String {
        match self {
            Item::Atomic(v) => v.string_value(),
            Item::Node(n) => store.doc_of(*n).string_value(n.node),
        }
    }

    /// The typed value (untyped data model: nodes yield untypedAtomic).
    pub(crate) fn typed_value(&self, store: &Store) -> Result<AtomicValue> {
        match self {
            Item::Atomic(v) => Ok(v.clone()),
            Item::Node(n) => {
                let doc = store.doc_of(*n);
                match doc.kind(n.node) {
                    NodeKind::Comment | NodeKind::ProcessingInstruction => {
                        Ok(AtomicValue::string(doc.string_value(n.node).as_str()))
                    }
                    _ => Ok(AtomicValue::untyped(doc.string_value(n.node).as_str())),
                }
            }
        }
    }

    pub(crate) fn node_name(&self, store: &Store) -> Option<QName> {
        self.as_node()
            .and_then(|n| store.doc_of(n).name(n.node).cloned())
    }
}

/// A materialized sequence.
pub type Sequence = Vec<Item>;

/// Atomize a sequence (`fn:data`).
pub(crate) fn atomize(items: &[Item], store: &Store) -> Result<Vec<AtomicValue>> {
    items.iter().map(|i| i.typed_value(store)).collect()
}

/// Atomize a sequence expected to hold at most one value.
pub(crate) fn atomize_one(
    items: &[Item],
    store: &Store,
    what: &str,
) -> Result<Option<AtomicValue>> {
    match items.len() {
        0 => Ok(None),
        1 => Ok(Some(items[0].typed_value(store)?)),
        n => Err(Error::type_error(format!(
            "{what} requires a singleton, got {n} items"
        ))),
    }
}

/// The effective boolean value of a sequence: empty → false; first item
/// a node → true; singleton atomic → its EBV; otherwise an error.
pub(crate) fn effective_boolean_value(items: &[Item]) -> Result<bool> {
    match items {
        [] => Ok(false),
        [Item::Node(_), ..] => Ok(true),
        [Item::Atomic(v)] => v.effective_boolean_value(),
        _ => Err(Error::new(
            ErrorCode::InvalidArgument,
            "effective boolean value of a multi-item atomic sequence",
        )),
    }
}

/// Deep equality of two items (fn:deep-equal on singletons).
pub(crate) fn deep_equal_item(a: &Item, b: &Item, store: &Store) -> bool {
    match (a, b) {
        (Item::Atomic(x), Item::Atomic(y)) => match x.value_compare(y, 0) {
            Ok(Some(o)) => o.is_eq(),
            _ => false,
        },
        (Item::Node(x), Item::Node(y)) => {
            let dx = store.doc_of(*x);
            let dy = store.doc_of(*y);
            // Structural equality via canonical serialization — adequate
            // for the subset and obviously symmetric/transitive.
            dx.serialize_node(x.node) == dy.serialize_node(y.node)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn setup() -> (Arc<Store>, NodeRef) {
        let store = Store::new();
        let id = store
            .load_xml("<book year=\"1967\"><title>T</title></book>", None)
            .unwrap();
        let doc = store.document(id);
        let book = doc.first_child(doc.root()).unwrap();
        (store, NodeRef::new(id, book))
    }

    #[test]
    fn string_and_typed_values() {
        let (store, book) = setup();
        let item = Item::Node(book);
        assert_eq!(item.string_value(&store), "T");
        let tv = item.typed_value(&store).unwrap();
        assert_eq!(tv, AtomicValue::untyped("T"));
    }

    #[test]
    fn ebv_rules() {
        let (_, book) = setup();
        assert!(!effective_boolean_value(&[]).unwrap());
        assert!(effective_boolean_value(&[Item::Node(book)]).unwrap());
        assert!(effective_boolean_value(&[Item::integer(1)]).unwrap());
        assert!(!effective_boolean_value(&[Item::string("")]).unwrap());
        assert!(effective_boolean_value(&[Item::integer(1), Item::integer(2)]).is_err());
        // multiple items with first node → true
        assert!(effective_boolean_value(&[Item::Node(book), Item::integer(2)]).unwrap());
    }

    #[test]
    fn atomize_one_enforces_cardinality() {
        let (store, _) = setup();
        assert_eq!(atomize_one(&[], &store, "op").unwrap(), None);
        assert!(atomize_one(&[Item::integer(1), Item::integer(2)], &store, "op").is_err());
    }
}
