//! Parser events: the namespace-resolved pull interface.
//!
//! The reader yields one [`XmlEvent`] at a time; the TokenStream layer
//! maps these 1:1 onto data-model tokens. Events carry fully resolved
//! [`QName`]s — prefix lookup happens inside the reader against the
//! live namespace stack, so consumers never see raw prefixes.

use std::sync::Arc;
use xqr_xdm::QName;

/// One namespace declaration appearing on a start tag:
/// `(prefix, uri)`; `prefix = None` is the default namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceDecl {
    pub prefix: Option<Arc<str>>,
    pub uri: Arc<str>,
}

/// A resolved attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: QName,
    pub value: Arc<str>,
}

/// A pull-parser event. `StartDocument`/`EndDocument` bracket the stream
/// even for fragments, matching the data model's document node.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlEvent {
    StartDocument,
    EndDocument,
    StartElement {
        name: QName,
        attributes: Vec<Attribute>,
        namespaces: Vec<NamespaceDecl>,
        /// True for `<a/>`; the reader still emits a matching
        /// `EndElement` so consumers see balanced events.
        empty: bool,
    },
    EndElement {
        name: QName,
    },
    Text(Arc<str>),
    Comment(Arc<str>),
    ProcessingInstruction {
        target: Arc<str>,
        data: Arc<str>,
    },
}

impl XmlEvent {}
