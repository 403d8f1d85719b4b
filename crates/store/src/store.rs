//! The multi-document store and global node references.
//!
//! Node identity and document order across documents: a [`NodeRef`] is
//! `(doc, node)` and the data model's arbitrary-but-stable cross-document
//! order is the lexicographic order on that pair. The runtime appends
//! result documents for constructed nodes here too, which is what gives
//! constructed nodes *new* identities (the talk: "can the result of an
//! expression contain newly created nodes?").

use crate::document::{DocId, Document, NodeId};
use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};
use xqr_xdm::{Error, ErrorCode, NamePool, Result};

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
/// store's own keep ([`Store::keep`]) are all leases; a document dies
/// with the last of them, and nothing else frees it.
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
    /// The store's own hold, for documents it was asked to keep
    /// ([`Store::keep`]); [`Store::remove_document`] drops it.
    kept: Option<Arc<Document>>,
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
    /// Named documents; each is kept.
    by_uri: HashMap<String, DocId>,
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

/// A URI-miss hook: given a URI the store has no live document for,
/// try to materialize one (e.g. reload it from a durable segment) and
/// return a lease on it. `Ok(None)` means "genuinely absent"; an error
/// (a quarantined segment's `XQRL0006`, say) propagates to the query.
pub(crate) type DocResolver = dyn Fn(&str) -> Result<Option<Lease>> + Send + Sync;

/// A shared collection of documents. A document lives while someone
/// holds it ([`Lease`]): the store itself for the documents it keeps,
/// an execution for what it reads, a result for what it returns.
/// Slots of dead documents are reused, so long-lived stores run in
/// bounded memory without anyone freeing anything by hand.
pub struct Store {
    names: Arc<NamePool>,
    inner: RwLock<StoreInner>,
    /// Consulted by [`Store::document_by_uri`] on a miss, outside the
    /// inner lock (the resolver re-enters the store to add the reloaded
    /// document).
    resolver: RwLock<Option<Arc<DocResolver>>>,
}

impl Store {
    pub fn new() -> Arc<Store> {
        Self::with_names(Arc::new(NamePool::new()))
    }

    pub(crate) fn with_names(names: Arc<NamePool>) -> Arc<Store> {
        Arc::new(Store {
            names,
            inner: RwLock::new(StoreInner::default()),
            resolver: RwLock::new(None),
        })
    }

    /// Install (or clear) the URI-miss resolver. The resolver must not
    /// capture an owning reference back to whatever owns this store's
    /// `Arc` (use a `Weak`), or the pair never drops.
    pub fn set_doc_resolver(&self, r: Option<Arc<DocResolver>>) {
        *self.resolver.write().unwrap_or_else(|p| p.into_inner()) = r;
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

    /// Register a document the caller holds, without a hold of the
    /// store's own: it is freed when the returned lease (and every clone
    /// of it) drops. The id's creation number is fresh, so ids order by
    /// when documents were added, not by the slot they landed in.
    pub fn lease_document(&self, doc: Arc<Document>) -> Lease {
        let bytes = doc.memory_bytes() as u64;
        let mut inner = self.write();
        let created = inner.created;
        inner.created += 1;
        let slot = Slot {
            created,
            doc: Arc::downgrade(&doc),
            kept: None,
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

    /// Take the store's own hold on a leased document and name it by its
    /// URI, if it has one: it now lives until [`Store::remove_document`].
    pub fn keep(&self, lease: &Lease) {
        let mut inner = self.write();
        inner.slots[lease.id.index() as usize].kept = Some(lease.doc.clone());
        if let Some(uri) = &lease.doc.uri {
            inner.by_uri.insert(uri.clone(), lease.id);
        }
    }

    /// Drop the store's hold on a kept document and its URI mapping.
    /// The document is freed unless an execution or a result still
    /// leases it; either way the id keeps resolving until the last
    /// holder lets go. Returns `false` if the store held nothing (never
    /// kept, or already removed) — removal is idempotent.
    pub fn remove_document(&self, id: DocId) -> bool {
        xqr_faults::faultpoint_infallible!("store.remove");
        let mut inner = self.write();
        let Some(slot) = inner.slots.get_mut(id.index() as usize) else {
            return false;
        };
        if slot.created != id.created() {
            return false;
        }
        let Some(doc) = slot.kept.take() else {
            return false;
        };
        if let Some(uri) = &doc.uri {
            // Only unlink the URI if it still maps to *this* document (a
            // reload under the same URI may have superseded the mapping).
            if inner.by_uri.get(uri) == Some(&id) {
                inner.by_uri.remove(uri);
            }
        }
        drop(inner);
        // The last holder frees the tree here, outside the lock.
        drop(doc);
        true
    }

    /// Parse and keep XML text under an optional URI.
    pub fn load_xml(&self, xml: &str, uri: Option<&str>) -> Result<DocId> {
        let lease = self.lease_xml(xml, uri)?;
        self.keep(&lease);
        Ok(lease.id)
    }

    /// Parse XML text into a leased document: it is freed when the lease
    /// drops, and its URI (if any) is not named in the store.
    pub fn lease_xml(&self, xml: &str, uri: Option<&str>) -> Result<Lease> {
        xqr_faults::faultpoint!("store.load");
        let doc = Document::parse_with_uri(xml, self.names.clone(), uri)?;
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

    /// Resolve a document id. Panics when nothing holds the document any
    /// more: every node an execution reads comes from a document it
    /// leases, so this is a caller bug, never a race. Use
    /// [`Store::try_document`] to probe.
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
        // A kept document is cloned with one increment; upgrading the
        // weak reference is a compare-and-swap loop, which every reader
        // of a shared document would contend on.
        slot.kept.clone().or_else(|| slot.doc.upgrade())
    }

    /// Lease the document named `uri`, asking the resolver on a miss.
    pub fn document_by_uri(&self, uri: &str) -> Result<Lease> {
        xqr_faults::faultpoint!("store.read");
        // Fast path under the read lock.
        {
            let inner = self.read();
            if let Some(&id) = inner.by_uri.get(uri) {
                let doc = inner.slots[id.index() as usize]
                    .kept
                    .clone()
                    .expect("a named document is kept");
                return Ok(Lease { id, doc });
            }
        }
        // Miss: give the resolver a chance to materialize the document
        // (reload from a durable segment). Both locks are released here —
        // the resolver re-enters the store to keep the reloaded document.
        let resolver = self
            .resolver
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        if let Some(resolver) = resolver {
            if let Some(lease) = resolver(uri)? {
                return Ok(lease);
            }
        }
        Err(Error::new(
            ErrorCode::DocumentNotFound,
            format!("no document available at {uri:?}"),
        ))
    }

    /// Number of live documents: kept or leased.
    pub fn doc_count(&self) -> usize {
        self.read().live().count()
    }

    /// Approximate bytes held by live documents
    /// (sum of [`Document::memory_bytes`]).
    pub fn live_bytes(&self) -> u64 {
        self.read().live().map(|s| s.bytes).sum()
    }

    /// Resolve a node reference to its document.
    pub fn doc_of(&self, n: NodeRef) -> Arc<Document> {
        self.document(n.doc)
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
    fn load_and_lookup_by_uri() {
        let store = Store::new();
        let id = store.load_xml("<a/>", Some("bib.xml")).unwrap();
        let found = store.document_by_uri("bib.xml").unwrap();
        assert_eq!(found.id, id);
        assert_eq!(found.doc.len(), 2); // document node + element
        assert!(store.document_by_uri("other.xml").is_err());
    }

    #[test]
    fn node_refs_order_across_documents() {
        let store = Store::new();
        let d1 = store.load_xml("<a/>", None).unwrap();
        let d2 = store.load_xml("<b/>", None).unwrap();
        let n1 = NodeRef::new(d1, NodeId(1));
        let n2 = NodeRef::new(d2, NodeId(0));
        assert!(n1 < n2);
        let n3 = NodeRef::new(d1, NodeId(0));
        assert!(n3 < n1);
    }

    #[test]
    fn remove_document_frees_and_reuses_slots() {
        let store = Store::new();
        let id = store.load_xml("<a><b/><c/></a>", Some("a.xml")).unwrap();
        assert_eq!(store.doc_count(), 1);
        assert!(store.live_bytes() > 0);

        assert!(store.remove_document(id));
        assert_eq!(store.doc_count(), 0);
        assert_eq!(store.live_bytes(), 0);
        assert!(store.document_by_uri("a.xml").is_err());
        // Removal is idempotent; the stale id no longer resolves.
        assert!(!store.remove_document(id));
        assert!(store.try_document(id).is_none());

        // The freed slot is reused under a later creation number, so
        // the new occupant orders after the old one despite the slot.
        let id2 = store.load_xml("<d/>", None).unwrap();
        assert_eq!(id2.index(), id.index());
        assert!(id2.created() > id.created() && id2 > id);
        assert!(store.try_document(id).is_none());
        assert!(store.try_document(id2).is_some());
    }

    #[test]
    fn reload_under_same_uri_supersedes_mapping() {
        let store = Store::new();
        let old = store.load_xml("<v1/>", Some("doc.xml")).unwrap();
        let new = store.load_xml("<v2/>", Some("doc.xml")).unwrap();
        // Removing the superseded document must not unlink the new one.
        assert!(store.remove_document(old));
        assert_eq!(store.document_by_uri("doc.xml").unwrap().id, new);
    }

    #[test]
    fn a_lease_outlives_the_name_and_frees_on_drop() {
        let store = Store::new();
        let id = store.load_xml("<v1/>", Some("doc.xml")).unwrap();
        let lease = store.document_by_uri("doc.xml").unwrap();
        // Un-naming drops the store's hold, not the reader's.
        assert!(store.remove_document(id));
        assert!(store.document_by_uri("doc.xml").is_err());
        assert_eq!(store.doc_count(), 1);
        assert!(Arc::ptr_eq(&store.document(id), &lease.doc));
        // A new document cannot take the leased slot.
        let other = store.load_xml("<v2/>", None).unwrap();
        assert_ne!(other.index(), id.index());
        drop(lease);
        assert!(store.try_document(id).is_none());
        assert_eq!(store.doc_count(), 1);

        // A transient lease never needed the store's hold at all.
        let transient = store.lease_xml("<t/>", Some("t.xml")).unwrap();
        assert!(
            store.document_by_uri("t.xml").is_err(),
            "leases are not named"
        );
        assert!(!store.remove_document(transient.id), "nothing kept to drop");
        let tid = transient.id;
        drop(transient);
        assert!(store.try_document(tid).is_none());
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
        let kept: Vec<DocId> = (0..5)
            .map(|_| store.load_xml("<k/>", None).unwrap())
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
        assert_eq!(store.doc_count(), kept.len());
    }

    #[test]
    fn shared_name_pool_across_documents() {
        let store = Store::new();
        store.load_xml("<x/>", None).unwrap();
        store.load_xml("<x/>", None).unwrap();
        // Same name interned once.
        let names = store.names();
        let before = names.len();
        names.intern(&xqr_xdm::QName::local("x"));
        assert_eq!(names.len(), before);
    }
}
