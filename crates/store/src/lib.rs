//! # xqr-store — labeled in-memory XML node store
//!
//! The materialized half of the engine: documents as struct-of-arrays in
//! preorder with containment labels *(start, end, level)*, XPath axes, a
//! multi-document [`Store`] providing cross-document node identity/order,
//! and a pointer-based [`dom`] baseline used by the representation
//! experiments. The per-name inverted lists the structural joins read
//! live in `xqr-index`, not here.

pub mod axis;
pub mod document;
pub mod dom;
pub mod store;

pub use axis::{walk, Axis};
pub use document::{DocId, DocParts, DocPartsOwned, Document, DocumentBuilder, NodeId, NO_NODE};
pub use store::{DocResolver, Lease, NodeRef, Store};
