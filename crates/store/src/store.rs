//! The multi-document store and global node references.
//!
//! Node identity and document order across documents: a [`NodeRef`] is
//! `(doc, node)` and the data model's arbitrary-but-stable cross-document
//! order is the lexicographic order on that pair. The runtime appends
//! result documents for constructed nodes here too, which is what gives
//! constructed nodes *new* identities (the talk: "can the result of an
//! expression contain newly created nodes?").

use crate::document::{DocId, Document, NodeId};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};
use xqr_xdm::{NamePool, Result};

/// A node in some document of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    pub doc: DocId,
    pub node: NodeId,
}

impl NodeRef {
    pub fn new(doc: DocId, node: NodeId) -> Self {
        NodeRef { doc, node }
    }
}

/// A hold on one document: while any clone of it lives, so does the
/// document, and `id` resolves to it. Executions, results and the
/// embedder's name map (the engine's map, the service's catalog) are
/// all leases; a document dies with the last of them, and nothing else
/// frees it.
#[derive(Debug, Clone)]
pub struct Lease {
    pub id: DocId,
    pub doc: Arc<Document>,
}

impl Lease {
    /// The document node.
    pub fn root(&self) -> NodeRef {
        NodeRef::new(self.id, NodeId(0))
    }
}

/// One document slot. The slot follows its occupant weakly and is free
/// for reuse once nothing holds the occupant any more; `created` is the
/// occupant's creation number, so an id of an earlier occupant never
/// resolves to a later one.
struct Slot {
    created: u64,
    doc: Weak<Document>,
    /// The occupant's [`Document::memory_bytes`].
    bytes: u64,
}

#[derive(Default)]
struct StoreInner {
    slots: Vec<Slot>,
    /// Slots the last sweep found dead and nothing has reused yet.
    free: Vec<u32>,
    /// The next sweep waits until `slots` is this long: twice what was
    /// live at the last one.
    next_sweep: usize,
    /// Documents ever added: the next [`DocId::created`] to hand out.
    created: u64,
}

impl StoreInner {
    /// A dead slot to reuse, if any. When the free list runs dry and
    /// `slots` has doubled since the last sweep, sweep again: at least
    /// half of the slots a sweep looks at are reused or newly pushed
    /// before the next, so registration is amortized O(1) and `slots`
    /// stays within twice the peak number of live documents.
    fn free_slot(&mut self) -> Option<u32> {
        if self.free.is_empty() && self.slots.len() >= self.next_sweep {
            let slots = &self.slots;
            self.free = (0..slots.len() as u32)
                .filter(|&i| slots[i as usize].doc.strong_count() == 0)
                .collect();
            self.next_sweep = 2 * (slots.len() - self.free.len());
        }
        self.free.pop()
    }

    fn live(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().filter(|s| s.doc.strong_count() > 0)
    }
}

/// A shared collection of documents: slots and the name pool. A
/// document lives while someone holds it ([`Lease`]): the embedder's
/// name map for the documents it names, an execution for what it
/// reads, a result for what it returns. The store names nothing.
/// Slots of dead documents are reused, so long-lived stores run in
/// bounded memory without anyone freeing anything by hand.
pub struct Store {
    names: Arc<NamePool>,
    inner: RwLock<StoreInner>,
}

impl Store {
    pub fn new() -> Arc<Store> {
        Self::with_names(Arc::new(NamePool::new()))
    }

    pub(crate) fn with_names(names: Arc<NamePool>) -> Arc<Store> {
        Arc::new(Store {
            names,
            inner: RwLock::new(StoreInner::default()),
        })
    }

    pub fn names(&self) -> &Arc<NamePool> {
        &self.names
    }

    /// Poison-recovering read lock. Every mutation of `StoreInner` keeps
    /// its invariants at each exit point, so a panic in a holder (a
    /// chaos-injected one, say) leaves consistent state; aborting every
    /// later reader over it would turn one contained panic into a
    /// process-wide outage.
    fn read(&self) -> RwLockReadGuard<'_, StoreInner> {
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Poison-recovering write lock; see [`Store::read`].
    fn write(&self) -> RwLockWriteGuard<'_, StoreInner> {
        self.inner.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Register a document the caller holds: it is freed when the
    /// returned lease (and every clone of it) drops. The id's creation
    /// number is fresh, so ids order by when documents were added, not
    /// by the slot they landed in.
    pub fn lease_document(&self, doc: Arc<Document>) -> Lease {
        let bytes = doc.memory_bytes() as u64;
        let mut inner = self.write();
        let created = inner.created;
        inner.created += 1;
        let slot = Slot {
            created,
            doc: Arc::downgrade(&doc),
            bytes,
        };
        let index = match inner.free_slot() {
            Some(index) => {
                inner.slots[index as usize] = slot;
                index
            }
            None => {
                inner.slots.push(slot);
                inner.slots.len() as u32 - 1
            }
        };
        Lease {
            id: DocId::new(index, created),
            doc,
        }
    }

    /// Parse XML text into a leased document: it is freed when the lease
    /// drops.
    pub fn lease_xml(&self, xml: &str, uri: Option<&str>) -> Result<Lease> {
        xqr_faults::faultpoint!("store.load");
        let doc = Document::parse_with_uri(xml, self.names.clone(), uri)?;
        Ok(self.lease_document(doc))
    }

    /// Lease a document built elsewhere — the publish path's fallback
    /// copy, built from the shared pass's own tokens — behind the same
    /// `store.load` fault site as [`Store::lease_xml`].
    pub fn lease_built(&self, doc: Arc<Document>) -> Result<Lease> {
        xqr_faults::faultpoint!("store.load");
        Ok(self.lease_document(doc))
    }

    /// Guarded [`Store::lease_xml`]: parsing respects the guard's token,
    /// depth and document-size limits — how `fn:doc` loads context
    /// documents inside a guarded execution.
    pub fn lease_xml_guarded(
        &self,
        xml: &str,
        uri: Option<&str>,
        guard: &xqr_xdm::QueryGuard,
    ) -> Result<Lease> {
        xqr_faults::faultpoint!("store.load");
        let doc = Document::parse_guarded(xml, self.names.clone(), uri, guard)?;
        Ok(self.lease_document(doc))
    }

    /// Resolve a document id, for callers outside an execution (an
    /// execution reads its nodes through its own lease table and never
    /// comes here). Panics when nothing holds the document any more:
    /// that is a caller bug, never a race. Use [`Store::try_document`]
    /// to probe.
    pub fn document(&self, id: DocId) -> Arc<Document> {
        self.try_document(id)
            .unwrap_or_else(|| panic!("stale DocId {id:?}: nothing holds the document any more"))
    }

    /// Resolve a document id, returning `None` once nothing holds the
    /// document.
    pub fn try_document(&self, id: DocId) -> Option<Arc<Document>> {
        let inner = self.read();
        let slot = inner.slots.get(id.index() as usize)?;
        if slot.created != id.created() {
            return None;
        }
        slot.doc.upgrade()
    }

    /// Number of live documents: those something leases.
    pub fn doc_count(&self) -> usize {
        self.read().live().count()
    }

    /// Approximate bytes held by live documents
    /// (sum of [`Document::memory_bytes`]).
    pub fn live_bytes(&self) -> u64 {
        self.read().live().map(|s| s.bytes).sum()
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Store({} documents)", self.doc_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_refs_order_across_documents() {
        let store = Store::new();
        let d1 = store.lease_xml("<a/>", None).unwrap().id;
        let d2 = store.lease_xml("<b/>", None).unwrap().id;
        let n1 = NodeRef::new(d1, NodeId(1));
        let n2 = NodeRef::new(d2, NodeId(0));
        assert!(n1 < n2);
        let n3 = NodeRef::new(d1, NodeId(0));
        assert!(n3 < n1);
    }

    #[test]
    fn the_last_lease_frees_and_the_slot_is_reused() {
        let store = Store::new();
        let lease = store.lease_xml("<a><b/><c/></a>", Some("a.xml")).unwrap();
        let id = lease.id;
        assert_eq!(store.doc_count(), 1);
        assert!(store.live_bytes() > 0);

        drop(lease);
        assert_eq!(store.doc_count(), 0);
        assert_eq!(store.live_bytes(), 0);
        assert!(store.try_document(id).is_none());

        // The freed slot is reused under a later creation number, so
        // the new occupant orders after the old one despite the slot.
        let next = store.lease_xml("<d/>", None).unwrap();
        assert_eq!(next.id.index(), id.index());
        assert!(next.id.created() > id.created() && next.id > id);
        assert!(store.try_document(id).is_none());
        assert!(store.try_document(next.id).is_some());
    }

    #[test]
    fn a_leased_slot_is_not_reused() {
        let store = Store::new();
        let lease = store.lease_xml("<v1/>", Some("doc.xml")).unwrap();
        let id = lease.id;
        let reader = lease.clone();
        // Any one lease keeps the document: here, the reader's.
        drop(lease);
        assert_eq!(store.doc_count(), 1);
        assert!(Arc::ptr_eq(&store.document(id), &reader.doc));
        // A new document cannot take the leased slot.
        let other = store.lease_xml("<v2/>", None).unwrap();
        assert_ne!(other.id.index(), id.index());
        drop(reader);
        assert!(store.try_document(id).is_none());
        assert_eq!(store.doc_count(), 1);
    }

    #[test]
    #[should_panic(expected = "stale DocId")]
    fn stale_id_resolution_panics() {
        let store = Store::new();
        let id = store.lease_xml("<a/>", None).unwrap().id;
        store.document(id);
    }

    #[test]
    fn slots_stay_bounded_under_lease_churn() {
        let store = Store::new();
        let long_lived: Vec<Lease> = (0..5)
            .map(|_| store.lease_xml("<k/>", None).unwrap())
            .collect();
        let mut held = Vec::new();
        for i in 0..10_000 {
            let lease = store.lease_xml("<t/>", None).unwrap();
            assert!(lease.id.index() < 32, "slot {} at {i}", lease.id.index());
            // Some leases outlive a few registrations after them.
            held.push(lease);
            if held.len() > 3 {
                held.remove(0);
            }
        }
        drop(held);
        assert_eq!(store.doc_count(), long_lived.len());
    }

    #[test]
    fn shared_name_pool_across_documents() {
        let store = Store::new();
        let _x = store.lease_xml("<x/>", None).unwrap();
        let _y = store.lease_xml("<x/>", None).unwrap();
        // Same name interned once.
        let names = store.names();
        let before = names.len();
        names.intern(&xqr_xdm::QName::local("x"));
        assert_eq!(names.len(), before);
    }
}
