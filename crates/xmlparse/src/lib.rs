//! # xqr-xmlparse — XML 1.0 + Namespaces, from scratch
//!
//! A single-pass, namespace-resolving pull parser ([`XmlReader`]) and an
//! event-driven serializer ([`XmlWriter`]). This is the "(DM1) parse" /
//! "(DM4) serialize" pair of the talk's data-model life cycle; the
//! TokenStream crate builds the "(DM2) generate data model" step on top
//! of these events.
//!
//! Deliberately out of scope (per DESIGN.md): DTD entity definitions and
//! external subsets (skipped, never fetched), XML 1.1.

pub mod event;
pub mod reader;
pub mod serialize;

pub use event::{Attribute, NamespaceDecl, XmlEvent};
pub use reader::{
    is_name_char, is_name_start, parse_events, parse_events_chunked, XmlReader, XML_NS,
};
pub use serialize::{
    escape_attr, escape_text, reserialize, serialize_events, TreeWriter, WriterOptions, XmlWriter,
};
