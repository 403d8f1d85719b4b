//! # xqr-xqparser — XQuery front-end
//!
//! Character-level recursive-descent parser producing the [`ast`] the
//! compiler normalizes. Covers the language surface the talk exercises:
//! prolog declarations, FLWOR with `at`/`order by`/`stable`, quantified
//! and conditional expressions, typeswitch, the type operators, full
//! path expressions with eight axes + kind tests + predicates, direct
//! and computed constructors with correct namespace scoping, and the
//! three comparison families.

pub mod ast;
pub mod parser;
pub mod printer;
#[cfg(test)]
mod tests;

pub use parser::{parse_query, FN_NS, XDT_NS, XS_NS};
pub use printer::print_module;
