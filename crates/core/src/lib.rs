//! # xqr-core — the engine facade
//!
//! The public API of the `xqr` XML query processor: create an [`Engine`],
//! load documents, [`Engine::compile`] queries into [`PreparedQuery`]s,
//! and execute them serialized as they run
//! ([`PreparedQuery::execute_serialized`], what every string-returning
//! path uses), materialized into items ([`PreparedQuery::execute`]), or
//! in token-streaming mode ([`PreparedQuery::execute_streaming`]) when
//! the query shape allows — the architecture of the talk's XQRL/BEA
//! engine.
//!
//! ```
//! use xqr_core::Engine;
//! let engine = Engine::new();
//! assert_eq!(engine.query_xml("<a><b>hi</b></a>", "string(//b)").unwrap(), "hi");
//! ```

pub mod engine;
pub mod explain;

pub use engine::{
    bind, contain_panic, context_with_doc, Engine, EngineOptions, PreparedQuery, QueryResult,
};
pub use explain::explain;

// Re-export the layers a downstream user needs to drive the API.
pub use xqr_compiler::{CompileOptions, CompiledQuery, RewriteConfig};
pub use xqr_runtime::{DynamicContext, Item, RuntimeOptions, Sequence, StreamStats};
pub use xqr_store::{DocId, Document, NodeId, NodeRef, Store};
pub use xqr_xdm::{
    AtomicValue, CancelHandle, Error, ErrorCode, GuardUsage, Limits, QName, QueryGuard, Result,
};
