//! # xqr — streaming XML query processing
//!
//! A from-scratch reproduction of the architecture presented in the ICDE
//! 2004 seminar *XML Query Processing* (the XQRL/BEA streaming XQuery
//! engine): the XQuery data model, a TokenStream/TokenIterator execution
//! substrate, a rewrite-rule compiler, a push-based lazy evaluator, and
//! the structural/holistic twig join algorithms from the talk's reading
//! list.
//!
//! Start with [`Engine`]:
//!
//! ```
//! use xqr::Engine;
//! let engine = Engine::new();
//! let out = engine.query_xml("<a><b>hi</b></a>", "string(//b)").unwrap();
//! assert_eq!(out, "hi");
//! ```
//!
//! The layer crates are re-exported for direct use:
//! [`xqr_xdm`] (data model), [`xqr_xmlparse`] (XML parser),
//! [`xqr_tokenstream`] (the token substrate), [`xqr_store`] (labeled
//! node store), [`xqr_joins`] (structural/twig joins), [`xqr_xqparser`]
//! (XQuery front-end), [`xqr_compiler`], [`xqr_runtime`],
//! [`xqr_xmlgen`] (workload generators), [`xqr_parallel`] (the worker
//! pool, poison-recovering locks and the experimental morsel-parallel
//! join kernel), and [`xqr_service`] (the concurrent query service: plan cache, document catalog, admission
//! control), and [`xqr_subscribe`] (standing continuous queries over
//! document streams). Chunked ingestion is the same tokenizer fed
//! chunks (`Tokenizer::incremental` in [`xqr_tokenstream`]) and the
//! service's chunk sessions and stream queries.

pub use xqr_core::*;

pub use xqr_compiler;
pub use xqr_index;
pub use xqr_joins;
pub use xqr_parallel;
pub use xqr_pressure;
pub use xqr_runtime;
pub use xqr_service;
pub use xqr_store;
pub use xqr_subscribe;
pub use xqr_tokenstream;
pub use xqr_xdm;
pub use xqr_xmlgen;
pub use xqr_xmlparse;
pub use xqr_xqparser;
