//! Attaching indexes to documents.
//!
//! The store cannot depend on this crate, so an index rides on its
//! document as the document's set-once attachment: it lives exactly as
//! long as the document, and an id that no longer resolves to a live
//! document resolves no index either.

use crate::doc_index::DocIndex;
use std::sync::Arc;
use xqr_store::{DocId, Document, Store};
use xqr_xdm::{QueryGuard, Result};

/// The index attached to a document the caller already holds, if any.
pub fn index_on(doc: &Document) -> Option<&Arc<DocIndex>> {
    doc.attachment()?.downcast_ref()
}

/// Attach a built index to a document. Returns `false` when the id no
/// longer resolves or the document already has an index.
pub fn attach_index(store: &Store, id: DocId, index: Arc<DocIndex>) -> bool {
    store
        .try_document(id)
        .is_some_and(|doc| doc.attach(Box::new(index)))
}

/// Look up the index for a document. `None` means unindexed *or* an id
/// whose document is gone.
pub fn index_of(store: &Store, id: DocId) -> Option<Arc<DocIndex>> {
    index_on(&*store.try_document(id)?).cloned()
}

/// Ensure a document is indexed: reuse an existing attachment or build
/// one under `guard` and attach it (when two builds race, the first
/// attached wins and both callers get it). `Ok(None)` means the
/// document is gone; errors are guard trips during the build.
pub fn ensure_indexed(
    store: &Store,
    id: DocId,
    guard: &QueryGuard,
) -> Result<Option<Arc<DocIndex>>> {
    if let Some(existing) = index_of(store, id) {
        return Ok(Some(existing));
    }
    xqr_faults::faultpoint!("index.build");
    let Some(doc) = store.try_document(id) else {
        return Ok(None);
    };
    doc.attach(Box::new(Arc::new(DocIndex::build_guarded(&doc, guard)?)));
    Ok(index_on(&doc).cloned())
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

    /// A stale `DocId` must never read another document's index. The
    /// slot is reused by a *different* document with its own index;
    /// every access path through the old id must come back empty-handed.
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

        // Remove and reload: nothing holds the old document any more,
        // so its slot index is reused — the id is not.
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
