//! Attaching indexes to store slots.
//!
//! The store cannot depend on this crate, so indexes ride in the store's
//! generation-checked per-slot aux attachment: they are evicted together
//! with their document, and a stale [`DocId`] can never observe another
//! document's index (the store refuses both the write and the read when
//! the generation doesn't match).

use crate::doc_index::{DocIndex, IndexedAccess};
use std::sync::Arc;
use xqr_store::{DocId, Store};
use xqr_xdm::{QueryGuard, Result};

/// A shared handle to any index implementation — heap-built
/// [`DocIndex`] or an mmap-backed segment view.
pub type SharedIndex = Arc<dyn IndexedAccess>;

/// The concrete aux payload: `Arc<dyn Any>` can only downcast to a
/// sized type, so the trait object rides inside this wrapper.
struct IndexSlot(SharedIndex);

/// Attach a built index to its document's slot. Returns `false` when the
/// id is stale — the index is dropped instead of being attached to
/// whatever document reused the slot.
pub fn attach_index(store: &Store, id: DocId, index: SharedIndex) -> bool {
    store.set_aux(id, Arc::new(IndexSlot(index)))
}

/// Look up the index for a document, generation checked. `None` means
/// unindexed *or* stale id.
pub fn index_of(store: &Store, id: DocId) -> Option<SharedIndex> {
    let slot = store.aux(id)?.downcast::<IndexSlot>().ok()?;
    Some(slot.0.clone())
}

/// Ensure a document is indexed: reuse an existing attachment or build
/// one under `guard` and attach it. `Ok(None)` means the id went stale
/// (document removed concurrently); errors are guard trips during the
/// build.
pub fn ensure_indexed(store: &Store, id: DocId, guard: &QueryGuard) -> Result<Option<SharedIndex>> {
    if let Some(existing) = index_of(store, id) {
        return Ok(Some(existing));
    }
    xqr_faults::faultpoint!("index.build");
    let Some(doc) = store.try_document(id) else {
        return Ok(None);
    };
    let index: SharedIndex = Arc::new(DocIndex::build_guarded(&doc, guard)?);
    Ok(attach_index(store, id, index.clone()).then_some(index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xdm::QName;

    #[test]
    fn ensure_indexed_builds_once_and_reuses() {
        let store = Store::new();
        let id = store.load_xml("<a><b/></a>", None).unwrap();
        assert!(index_of(&store, id).is_none());
        let guard = QueryGuard::unlimited();
        let first = ensure_indexed(&store, id, &guard).unwrap().unwrap();
        let second = ensure_indexed(&store, id, &guard).unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.entry_count(), 2);
    }

    /// Satellite regression test: a stale `DocId` must never read another
    /// document's index. The slot is reused by a *different* document
    /// with its own index; every access path through the old id must
    /// come back empty-handed.
    #[test]
    fn stale_doc_id_never_reads_another_documents_index() {
        let store = Store::new();
        let old_id = store
            .load_xml("<old><x/><x/></old>", Some("old.xml"))
            .unwrap();
        let guard = QueryGuard::unlimited();
        let old_index = ensure_indexed(&store, old_id, &guard).unwrap().unwrap();
        let x = store.names().intern(&QName::local("x"));
        assert_eq!(old_index.element_labels(x).len(), 2);

        // Remove and reload: the slot index is reused, the id is not.
        assert!(store.remove_document(old_id));
        let new_id = store.load_xml("<new><y/></new>", Some("new.xml")).unwrap();
        assert_eq!(new_id.index(), old_id.index());
        assert_ne!(new_id.created(), old_id.created());
        let new_index = ensure_indexed(&store, new_id, &guard).unwrap().unwrap();

        // The stale id resolves no index, and attaching through it fails.
        assert!(index_of(&store, old_id).is_none());
        assert!(!attach_index(&store, old_id, old_index.clone()));
        // The failed attach must not have clobbered the live document's
        // index either.
        let still = index_of(&store, new_id).expect("live index intact");
        assert!(Arc::ptr_eq(&still, &new_index));
        // ensure_indexed through the stale id reports "gone", it does
        // not resurrect or rebuild anything.
        assert!(ensure_indexed(&store, old_id, &guard).unwrap().is_none());
        assert!(index_of(&store, old_id).is_none());

        // And the live document's index describes the *new* document.
        let y = store.names().intern(&QName::local("y"));
        assert_eq!(new_index.element_labels(y).len(), 1);
        assert!(new_index.element_labels(x).is_empty());
    }
}
