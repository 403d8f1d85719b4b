//! # xqr-xdm — the XQuery 1.0 data model
//!
//! Foundation crate of the `xqr` workspace: qualified names with an
//! interning pool, the 19 XML Schema primitive atomic types with exact
//! decimal arithmetic and timeline-based date/time comparison, the seven
//! node kinds, sequence types with subtyping, and the engine-wide error
//! taxonomy.
//!
//! Everything above (parser, TokenStream, store, compiler, runtime) speaks
//! in these types; nothing here depends on any other workspace crate.

mod atomic;
mod datetime;
mod decimal;
mod error;
mod guard;
mod histogram;
mod node;
mod qname;
mod types;

pub use atomic::{parse_double, AtomicType, AtomicValue};
pub use datetime::{DateTime, Duration, TzOffset};
pub use decimal::Decimal;
pub use error::{Error, ErrorCode, Result};
pub use guard::{CancelHandle, GuardUsage, Limits, QueryGuard};
pub use histogram::LatencyHistogram;
pub use node::NodeKind;
pub use qname::{NameId, NamePool, QName};
pub use types::{ItemType, NameTest, Occurrence, SequenceType};
