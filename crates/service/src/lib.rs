//! # xqr-service — an embeddable, thread-safe query service.
//!
//! The paper's XQRL processor was productized as a server that compiles a
//! query once and executes it many times; this crate is that service
//! layer for the `xqr` engine. It wraps [`xqr_core::Engine`] with the
//! three pieces that separate a query evaluator from a system:
//!
//! * a **sharded LRU plan cache** ([`PlanCache`]) keyed by
//!   `(query text, engine-options fingerprint)` so repeated queries skip
//!   parse/normalize/typecheck/optimize entirely;
//! * a **document catalog** ([`DocumentCatalog`]) that owns named
//!   documents under a total-bytes budget with LRU eviction, which
//!   un-names a document without freeing one a query still reads;
//! * **admission control** ([`xqr_parallel::WorkerPool`]): a bounded run
//!   queue in front of a fixed set of workers — when both the workers and the queue are
//!   full, new queries are rejected with the stable error
//!   `err:XQRL0004 Overloaded` instead of queueing without bound;
//! * **standing queries** (`xqr-subscribe`): register subscriptions with
//!   [`QueryService::subscribe`], push documents at the whole set with
//!   [`QueryService::publish`] — streamable subscriptions share one
//!   combined-automaton pass per document, everything else falls back to
//!   one-shot evaluation over a single shared materialized copy.
//!
//! [`QueryService`] composes the three and surfaces a [`ServiceStats`]
//! snapshot (cache hit rate, p50/p99 latency, active/queued gauges) both
//! as a struct and as `explain`-style text. What the service does when a
//! subsystem fails or memory runs short is one ordered ladder, tabulated
//! in `resilience`.
//!
//! ```
//! use xqr_service::{QueryService, ServiceConfig};
//!
//! let service = QueryService::new(ServiceConfig::default());
//! service.load_document("bib.xml", "<bib><book/><book/></bib>").unwrap();
//! assert_eq!(service.run(r#"count(doc("bib.xml")//book)"#).unwrap(), "2");
//! assert_eq!(service.run(r#"count(doc("bib.xml")//book)"#).unwrap(), "2");
//! assert!(service.stats().plan_hits >= 1);
//! ```

mod catalog;
mod ingest;
mod plan_cache;
mod resilience;
mod service;

pub use catalog::DocumentCatalog;
pub use plan_cache::PlanCache;
pub use resilience::RetryPolicy;
pub use service::{QueryService, ServiceConfig, ServiceStats};
pub use xqr_subscribe::{PublishReport, SubId};
