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

mod engine;
mod explain;

pub use engine::{bind, contain_panic, context_with_doc, Engine, EngineOptions, PreparedQuery};

// Re-export the layers a downstream user needs to drive the API.
pub use xqr_compiler::{CompileOptions, RewriteConfig};
pub use xqr_runtime::{DocumentMap, DynamicContext, Item, RuntimeOptions};
pub use xqr_store::{Document, NodeId, NodeRef, Store};
pub use xqr_xdm::{Error, ErrorCode, Limits, QName, QueryGuard, Result};
