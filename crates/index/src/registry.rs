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

/// Attach a built index to a document the caller holds. Returns
/// `false` when the document already has an index.
pub fn attach_index(doc: &Document, index: Arc<DocIndex>) -> bool {
    doc.attach(Box::new(index))
}

/// Look up the index for a document. `None` means unindexed *or* an id
/// whose document is gone.
pub fn index_of(store: &Store, id: DocId) -> Option<Arc<DocIndex>> {
    index_on(&*store.try_document(id)?).cloned()
}

/// Ensure a document the caller holds is indexed: reuse an existing
/// attachment or build one under `guard` and attach it (when two builds
/// race, the first attached wins and both callers get it). Errors are
/// guard trips during the build.
pub fn ensure_indexed(doc: &Document, guard: &QueryGuard) -> Result<Arc<DocIndex>> {
    if let Some(existing) = index_on(doc) {
        return Ok(existing.clone());
    }
    xqr_faults::faultpoint!("index.build");
    attach_index(doc, Arc::new(DocIndex::build_guarded(doc, guard)?));
    Ok(index_on(doc)
        .expect("attached above or by a racing build")
        .clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xdm::QName;

    #[test]
    fn ensure_indexed_builds_once_and_reuses() {
        let store = Store::new();
        let lease = store.lease_xml("<a><b/></a>", None).unwrap();
        assert!(index_of(&store, lease.id).is_none());
        let guard = QueryGuard::unlimited();
        let first = ensure_indexed(&lease.doc, &guard).unwrap();
        let second = ensure_indexed(&lease.doc, &guard).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&index_of(&store, lease.id).unwrap(), &first));
        assert_eq!(first.entry_count(), 2);
        assert!(!attach_index(&lease.doc, first.clone()), "set once");
    }

    /// A stale `DocId` must never read another document's index. The
    /// slot is reused by a *different* document with its own index;
    /// a lookup through the old id must come back empty-handed.
    #[test]
    fn stale_doc_id_never_reads_another_documents_index() {
        let store = Store::new();
        let old = store.lease_xml("<old><x/><x/></old>", None).unwrap();
        let old_id = old.id;
        let guard = QueryGuard::unlimited();
        let old_index = ensure_indexed(&old.doc, &guard).unwrap();
        let x = store.names().intern(&QName::local("x"));
        assert_eq!(old_index.element_labels(x).len(), 2);

        // Nothing holds the old document any more, so its slot index
        // is reused — the id is not.
        drop(old);
        let new = store.lease_xml("<new><y/></new>", None).unwrap();
        assert_eq!(new.id.index(), old_id.index());
        assert_ne!(new.id.created(), old_id.created());
        let new_index = ensure_indexed(&new.doc, &guard).unwrap();

        // The stale id resolves no index; the live one is intact.
        assert!(index_of(&store, old_id).is_none());
        let still = index_of(&store, new.id).expect("live index intact");
        assert!(Arc::ptr_eq(&still, &new_index));

        // And the live document's index describes the *new* document.
        let y = store.names().intern(&QName::local("y"));
        assert_eq!(new_index.element_labels(y).len(), 1);
        assert!(new_index.element_labels(x).is_empty());
    }
}
