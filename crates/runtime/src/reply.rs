//! Serializing a result: the sequence serialization rule, and the sink
//! that applies it while the query runs.
//!
//! A node serializes as XML straight off its document's arrays, an
//! atomic value as its string value, and two adjacent atomic values are
//! separated by one space. [`Reply`] applies that rule to each top-level
//! item as the evaluator produces it, so the result never exists as a
//! [`crate::Sequence`] and constructors in result position write into the
//! reply instead of the store.

use crate::construct::NodeTarget;
use crate::env::{ExecState, LeaseTable};
use crate::eval::{Evaluator, Flow, Sink};
use crate::value::Item;
use xqr_xdm::{NodeKind, QName, QueryGuard, Result};
use xqr_xmlparse::{TreeWriter, WriterOptions, XmlWriter};

/// The top-level sink of a serialized execution. Each item is charged
/// to the output budget as soon as it is written, so
/// `max_output_bytes` stops the query mid-evaluation.
pub struct Reply {
    out: XmlWriter,
    prev_atomic: bool,
    /// Bytes already charged to the output budget.
    charged: usize,
}

impl Reply {
    pub fn new() -> Reply {
        Reply {
            out: XmlWriter::new(WriterOptions::default()),
            prev_atomic: false,
            charged: 0,
        }
    }

    pub fn into_string(self) -> String {
        self.out.into_string()
    }

    fn write(&mut self, item: &Item, docs: &LeaseTable) {
        match item {
            Item::Atomic(v) => {
                if self.prev_atomic {
                    self.out.write_raw(" ");
                }
                self.out.write_raw(&v.string_value());
                self.prev_atomic = true;
            }
            Item::Node(n) => {
                docs.document(n.doc).write_subtree(n.node, &mut self.out);
                self.prev_atomic = false;
            }
        }
    }

    fn charge(&mut self, guard: &QueryGuard) -> Result<()> {
        let len = self.out.len();
        let fresh = (len - self.charged) as u64;
        self.charged = len;
        guard.note_output_bytes(fresh)
    }
}

impl Default for Reply {
    fn default() -> Self {
        Reply::new()
    }
}

impl Sink for Reply {
    fn accept(&mut self, _ev: &Evaluator<'_>, st: &mut ExecState, item: Item) -> Result<Flow> {
        self.write(&item, &st.leases);
        self.charge(&st.guard)?;
        Ok(Flow::More)
    }

    fn tree(&mut self) -> Option<&mut dyn NodeTarget> {
        Some(self)
    }
}

impl NodeTarget for Reply {
    fn open(&mut self, _kind: NodeKind, _attr: Option<&QName>) -> Result<&mut dyn TreeWriter> {
        self.prev_atomic = false;
        Ok(&mut self.out)
    }

    fn close(&mut self, st: &mut ExecState) -> Result<()> {
        self.charge(&st.guard)
    }
}

/// Serialize a materialized sequence by the same rule (no budget
/// charge), its nodes read through `docs`.
pub fn serialize_sequence(items: &[Item], docs: &LeaseTable) -> String {
    let mut reply = Reply::new();
    for item in items {
        reply.write(item, docs);
    }
    reply.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_store::{NodeRef, Store};

    #[test]
    fn serialization_spaces_atomics() {
        let lease = Store::new()
            .lease_xml("<book year=\"1967\"><title>T</title></book>", None)
            .unwrap();
        let book = NodeRef::new(lease.id, lease.doc.first_child(lease.doc.root()).unwrap());
        let s = serialize_sequence(
            &[
                Item::integer(1),
                Item::integer(2),
                Item::Node(book),
                Item::integer(3),
            ],
            &LeaseTable::new([lease]),
        );
        assert_eq!(s, "1 2<book year=\"1967\"><title>T</title></book>3");
    }
}
