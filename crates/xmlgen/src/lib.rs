//! # xqr-xmlgen — deterministic XML workload generators
//!
//! The talk's use cases need data: XMark-style auction sites (the
//! "large volumes of centralized textual data" scenario), `bib`
//! bibliographies (the tutorial's running query examples), the ebXML
//! trading-partner configuration the 60%-of-a-customer query consumes
//! (the "XML transformation in Web Services" scenario), and parameterized
//! random trees for the structural-join experiments. Everything is
//! seeded: the same parameters always produce the same document.

mod bib;
mod ebxml;
mod random;
mod xmark;

pub use bib::bibliography;
pub use ebxml::trading_partners;
pub use random::{random_tree, RandomTreeConfig};
pub use xmark::{auction_site, XmarkConfig, XMARK_QUERIES};
