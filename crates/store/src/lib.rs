//! # xqr-store — labeled in-memory XML node store
//!
//! The materialized half of the engine: documents as struct-of-arrays in
//! preorder with containment labels *(start, end, level)*, per-tag
//! inverted lists for the structural joins, XPath axes, a multi-document
//! [`Store`] providing cross-document node identity/order, and a
//! pointer-based [`dom`] baseline used by the representation experiments.

pub mod axis;
pub mod document;
pub mod dom;
pub mod index;
pub mod store;

pub use axis::{walk, Axis};
pub use document::{DocId, DocParts, DocPartsOwned, Document, DocumentBuilder, NodeId, NO_NODE};
pub use index::TagIndex;
pub use store::{DocResolver, Lease, NodeRef, Store};
