//! The multi-document store and global node references.
//!
//! Node identity and document order across documents: a [`NodeRef`] is
//! `(doc, node)` and the data model's arbitrary-but-stable cross-document
//! order is the lexicographic order on that pair. The runtime appends
//! result documents for constructed nodes here too, which is what gives
//! constructed nodes *new* identities (the talk: "can the result of an
//! expression contain newly created nodes?").

use crate::document::{DocId, Document, NodeId};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
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

/// One document slot. Slots are reused after removal; each occupant
/// carries the creation sequence number it was added under, so stale
/// [`DocId`]s fail their generation check instead of resolving to an
/// unrelated document.
struct Slot {
    created: u64,
    doc: Option<Arc<Document>>,
    /// Generation-checked side attachment (e.g. a structural index built
    /// by `xqr-index`). Cleared whenever the document leaves the slot, so
    /// an attachment can never outlive — or be read through a stale id
    /// of — the document it describes.
    aux: Option<Arc<dyn Any + Send + Sync>>,
}

#[derive(Default)]
struct StoreInner {
    slots: Vec<Slot>,
    /// Indices of empty slots, ready for reuse.
    free: Vec<u32>,
    by_uri: HashMap<String, DocId>,
    /// Sum of `Document::memory_bytes` over live documents.
    live_bytes: u64,
    /// Documents ever added: the next [`DocId::created`] to hand out.
    created: u64,
}

/// A URI-miss hook: given a URI the store has no live document for,
/// try to materialize one (e.g. reload it from a durable segment) and
/// return its id. `Ok(None)` means "genuinely absent"; an error (a
/// quarantined segment's `XQRL0006`, say) propagates to the query.
pub type DocResolver = dyn Fn(&str) -> Result<Option<DocId>> + Send + Sync;

/// A shared collection of documents. Loading is cheap-append; removal
/// ([`Store::remove_document`]) frees the slot for reuse so long-lived
/// stores (one-shot query paths, document catalogs with eviction) run in
/// bounded memory instead of growing forever.
pub struct Store {
    names: Arc<NamePool>,
    inner: RwLock<StoreInner>,
    /// Consulted by [`Store::document_by_uri`] on a miss, outside the
    /// inner lock (the resolver re-enters the store to add the reloaded
    /// document).
    resolver: RwLock<Option<Arc<DocResolver>>>,
    /// Documents whose removal panicked (a contained fault mid-drop):
    /// parked here by [`Store::park_orphan`] and retried by
    /// [`Store::reap_orphans`], so a panic at the removal site is a
    /// bounded, recoverable leak instead of a permanent one.
    orphans: std::sync::Mutex<Vec<DocId>>,
}

impl Store {
    pub fn new() -> Arc<Store> {
        Arc::new(Store {
            names: Arc::new(NamePool::new()),
            inner: RwLock::new(StoreInner::default()),
            resolver: RwLock::new(None),
            orphans: std::sync::Mutex::new(Vec::new()),
        })
    }

    pub fn with_names(names: Arc<NamePool>) -> Arc<Store> {
        Arc::new(Store {
            names,
            inner: RwLock::new(StoreInner::default()),
            resolver: RwLock::new(None),
            orphans: std::sync::Mutex::new(Vec::new()),
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

    /// Register a document, returning its id. Slots of previously removed
    /// documents are reused; the id's creation number is fresh either
    /// way, so ids order by when they were added, not where they landed.
    pub fn add_document(&self, doc: Arc<Document>) -> DocId {
        let mut inner = self.write();
        inner.live_bytes += doc.memory_bytes() as u64;
        let created = inner.created;
        inner.created += 1;
        let slot = Slot {
            created,
            doc: Some(doc.clone()),
            aux: None,
        };
        let index = match inner.free.pop() {
            Some(index) => {
                inner.slots[index as usize] = slot;
                index
            }
            None => {
                inner.slots.push(slot);
                inner.slots.len() as u32 - 1
            }
        };
        let id = DocId::new(index, created);
        if let Some(uri) = &doc.uri {
            inner.by_uri.insert(uri.clone(), id);
        }
        id
    }

    /// Remove a document, freeing its slot for reuse. Returns `false` if
    /// the id is stale (already removed) — removal is idempotent.
    ///
    /// Callers must ensure no live [`NodeRef`]s into the document remain;
    /// resolving one afterwards via [`Store::document`] panics with a
    /// stale-id message (contained by the engine's panic boundary, but a
    /// caller bug nonetheless). Holders of an already-resolved
    /// `Arc<Document>` are unaffected — the tree is freed when the last
    /// clone drops.
    pub fn remove_document(&self, id: DocId) -> bool {
        xqr_faults::faultpoint_infallible!("store.remove");
        let mut inner = self.write();
        let Some(slot) = inner.slots.get_mut(id.index() as usize) else {
            return false;
        };
        if slot.created != id.created() || slot.doc.is_none() {
            return false;
        }
        let doc = slot.doc.take().expect("checked live above");
        slot.aux = None;
        inner.free.push(id.index());
        inner.live_bytes = inner.live_bytes.saturating_sub(doc.memory_bytes() as u64);
        if let Some(uri) = &doc.uri {
            // Only unlink the URI if it still maps to *this* document (a
            // reload under the same URI may have superseded the mapping).
            if inner.by_uri.get(uri) == Some(&id) {
                inner.by_uri.remove(uri);
            }
        }
        true
    }

    /// Park a document whose removal panicked (the panic was contained
    /// by the caller). [`Store::reap_orphans`] retries it later, so a
    /// fault at the removal site cannot leak the document permanently.
    pub fn park_orphan(&self, id: DocId) {
        self.orphans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(id);
    }

    /// Retry removal of parked orphans. Each retry is panic-contained;
    /// documents whose removal panics again stay parked for the next
    /// sweep. Returns how many were freed (removal is idempotent, so a
    /// document freed some other way still counts).
    pub fn reap_orphans(&self) -> usize {
        let pending = {
            let mut orphans = self.orphans.lock().unwrap_or_else(|p| p.into_inner());
            if orphans.is_empty() {
                return 0;
            }
            std::mem::take(&mut *orphans)
        };
        let mut reclaimed = 0;
        let mut kept = Vec::new();
        for id in pending {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.remove_document(id)
            })) {
                Ok(_) => reclaimed += 1,
                Err(_) => kept.push(id),
            }
        }
        if !kept.is_empty() {
            self.orphans
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .append(&mut kept);
        }
        reclaimed
    }

    /// Documents currently parked for a removal retry.
    pub fn orphan_count(&self) -> usize {
        self.orphans.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Parse and register XML text under an optional URI.
    pub fn load_xml(&self, xml: &str, uri: Option<&str>) -> Result<DocId> {
        xqr_faults::faultpoint!("store.load");
        let doc = Document::parse_with_uri(xml, self.names.clone(), uri)?;
        Ok(self.add_document(doc))
    }

    /// Guarded [`Store::load_xml`]: parsing respects the guard's token,
    /// depth and document-size limits — how `fn:doc` loads documents
    /// inside a guarded execution.
    pub fn load_xml_guarded(
        &self,
        xml: &str,
        uri: Option<&str>,
        guard: &xqr_xdm::QueryGuard,
    ) -> Result<DocId> {
        xqr_faults::faultpoint!("store.load");
        let doc = Document::parse_guarded(xml, self.names.clone(), uri, guard)?;
        Ok(self.add_document(doc))
    }

    /// Resolve a document id. Panics on a stale id (document removed) —
    /// that is a caller bug, not a query error; use
    /// [`Store::try_document`] to probe gracefully.
    pub fn document(&self, id: DocId) -> Arc<Document> {
        self.try_document(id)
            .unwrap_or_else(|| panic!("stale DocId {id:?}: document was removed from the store"))
    }

    /// Resolve a document id, returning `None` when the id is stale.
    pub fn try_document(&self, id: DocId) -> Option<Arc<Document>> {
        let inner = self.read();
        let slot = inner.slots.get(id.index() as usize)?;
        if slot.created != id.created() {
            return None;
        }
        slot.doc.clone()
    }

    /// Attach auxiliary per-document data (a structural index, say) to a
    /// live slot. Returns `false` when the id is stale — the attachment
    /// is dropped rather than applied to whatever reused the slot. The
    /// attachment is cleared automatically when the document is removed.
    pub fn set_aux(&self, id: DocId, aux: Arc<dyn Any + Send + Sync>) -> bool {
        let mut inner = self.write();
        let Some(slot) = inner.slots.get_mut(id.index() as usize) else {
            return false;
        };
        if slot.created != id.created() || slot.doc.is_none() {
            return false;
        }
        slot.aux = Some(aux);
        true
    }

    /// Read back the auxiliary attachment for a document, generation
    /// checked: a stale id yields `None`, never another document's data.
    pub fn aux(&self, id: DocId) -> Option<Arc<dyn Any + Send + Sync>> {
        let inner = self.read();
        let slot = inner.slots.get(id.index() as usize)?;
        if slot.created != id.created() {
            return None;
        }
        slot.aux.clone()
    }

    pub fn document_by_uri(&self, uri: &str) -> Result<(DocId, Arc<Document>)> {
        xqr_faults::faultpoint!("store.read");
        // Fast path under the read lock.
        {
            let inner = self.read();
            if let Some(&id) = inner.by_uri.get(uri) {
                let doc = inner.slots[id.index() as usize]
                    .doc
                    .clone()
                    .expect("by_uri points at a live slot");
                return Ok((id, doc));
            }
        }
        // Miss: give the resolver a chance to materialize the document
        // (reload from a durable segment). Both locks are released here —
        // the resolver re-enters the store via `add_document`.
        let resolver = self
            .resolver
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        if let Some(resolver) = resolver {
            if let Some(id) = resolver(uri)? {
                if let Some(doc) = self.try_document(id) {
                    return Ok((id, doc));
                }
            }
        }
        Err(Error::new(
            ErrorCode::DocumentNotFound,
            format!("no document available at {uri:?}"),
        ))
    }

    /// Number of live (not removed) documents.
    pub fn doc_count(&self) -> usize {
        let inner = self.read();
        inner.slots.len() - inner.free.len()
    }

    /// Approximate bytes held by live documents
    /// (sum of [`Document::memory_bytes`]).
    pub fn live_bytes(&self) -> u64 {
        self.read().live_bytes
    }

    /// Resolve a node reference to its document.
    pub fn doc_of(&self, n: NodeRef) -> Arc<Document> {
        self.document(n.doc)
    }

    /// Document order across the whole store.
    pub fn doc_order(&self, a: NodeRef, b: NodeRef) -> std::cmp::Ordering {
        a.cmp(&b)
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
        let (found, doc) = store.document_by_uri("bib.xml").unwrap();
        assert_eq!(found, id);
        assert_eq!(doc.len(), 2); // document node + element
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
        let (found, _) = store.document_by_uri("doc.xml").unwrap();
        assert_eq!(found, new);
    }

    #[test]
    #[should_panic(expected = "stale DocId")]
    fn stale_id_resolution_panics() {
        let store = Store::new();
        let id = store.load_xml("<a/>", None).unwrap();
        store.remove_document(id);
        store.document(id);
    }

    #[test]
    fn aux_attachment_is_generation_checked() {
        let store = Store::new();
        let id = store.load_xml("<a/>", None).unwrap();
        assert!(store.aux(id).is_none());
        assert!(store.set_aux(id, Arc::new(41u64)));
        let got = store.aux(id).expect("attached");
        assert_eq!(got.downcast_ref::<u64>(), Some(&41));

        // Removal clears the attachment and stales the id.
        assert!(store.remove_document(id));
        assert!(store.aux(id).is_none());
        assert!(!store.set_aux(id, Arc::new(99u64)));

        // The reused slot starts clean, and the stale id still reads
        // nothing even though the slot index is occupied again.
        let id2 = store.load_xml("<b/>", None).unwrap();
        assert_eq!(id2.index(), id.index());
        assert!(store.aux(id2).is_none());
        assert!(store.aux(id).is_none());
        assert!(store.set_aux(id2, Arc::new(7u64)));
        assert!(store.aux(id).is_none(), "stale id must not see new aux");
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
