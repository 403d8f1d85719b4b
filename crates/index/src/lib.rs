//! # xqr-index — persistent structural indexes
//!
//! The layer between storage and execution that the structural-join
//! papers assume: per-document **tag/path inverted lists**. For every
//! element/attribute QName the index stores a flat, document-ordered,
//! cache-friendly array of containment labels `(start, end, level)` plus
//! node ids — exactly the sorted input streams the join operators in
//! `xqr-joins` consume — and a [`PathDict`] interning every distinct
//! root-to-element tag path, so linear steps like `//a/b` and `/a//b`
//! are answered from path-indexed sublists without re-verifying
//! ancestry node by node.
//!
//! An index rides on its document as a set-once attachment
//! ([`attach_index`]/[`index_of`]): it dies with the document and can
//! never be read through a stale [`xqr_store::DocId`].
//! Builds are guarded (`DocIndex::build_guarded`) so a hostile
//! document trips the caller's budgets instead of blowing memory.
//!
//! ```
//! use xqr_index::{ensure_indexed, IndexedAccess};
//! use xqr_store::Store;
//! use xqr_xdm::{QName, QueryGuard};
//!
//! let store = Store::new();
//! let id = store.load_xml("<a><b/><b/></a>", None).unwrap();
//! let index = ensure_indexed(&store, id, &QueryGuard::unlimited())
//!     .unwrap()
//!     .unwrap();
//! let b = store.names().get(&QName::local("b")).unwrap();
//! assert_eq!(index.element_labels(b).len(), 2); // sorted by start
//! ```

mod doc_index;
mod path_dict;
mod registry;

pub use doc_index::{DocIndex, IndexedAccess, Postings};
pub use path_dict::{PathDict, PathId, PathStep};
pub use registry::{attach_index, ensure_indexed, index_of, SharedIndex};
