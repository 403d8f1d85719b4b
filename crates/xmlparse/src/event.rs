//! Parser events: the namespace-resolved pull interface.
//!
//! The reader yields one [`XmlEvent`] at a time; the TokenStream layer
//! maps these 1:1 onto data-model tokens. An event borrows from the
//! reader: its strings are slices of the reader's buffer, or of the
//! reader's scratch buffer when an entity or a `\r` rewrote them, and
//! live until the next event is pulled. Prefix lookup happens inside the
//! reader against the live namespace stack, so a [`Name`] arrives
//! resolved — with the reader's number for its namespace, which a
//! consumer can key a name table on without comparing URIs.

use std::fmt;
use std::ops::Range;
use xqr_xdm::QName;

/// A namespace-resolved element or attribute name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name<'a> {
    /// The reader's number for the namespace URI: 0 is no namespace,
    /// and one reader gives equal URIs equal numbers for its lifetime,
    /// whatever prefixes bind them.
    pub ns: u32,
    /// The namespace URI, `""` when `ns` is 0.
    pub uri: &'a str,
    pub prefix: Option<&'a str>,
    pub local: &'a str,
}

impl Name<'_> {
    /// The name as the data model spells it: no-namespace names carry
    /// no URI, and an unprefixed name in a namespace no prefix.
    pub fn to_qname(&self) -> QName {
        match (self.ns, self.prefix) {
            (0, _) => QName::local(self.local),
            (_, None) => QName::ns(self.uri, self.local),
            (_, Some(p)) => QName::prefixed(self.uri, p, self.local),
        }
    }
}

/// A resolved attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribute<'a> {
    pub name: Name<'a>,
    pub value: &'a str,
}

/// One namespace declaration on a start tag; `prefix = None` is the
/// default namespace, and an empty `uri` undeclares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamespaceDecl<'a> {
    pub prefix: Option<&'a str>,
    pub uri: &'a str,
}

/// Where an event's string lies: a byte range of the reader's buffer,
/// or of its scratch buffer (`scratch`) when the lexer rewrote it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) scratch: bool,
}

impl Span {
    pub(crate) fn buf(r: Range<usize>) -> Span {
        Span {
            start: r.start,
            end: r.end,
            scratch: false,
        }
    }

    pub(crate) fn scratch(start: usize, end: usize) -> Span {
        Span {
            start,
            end,
            scratch: true,
        }
    }
}

/// A resolved name as buffer positions: the namespace number, and the
/// prefix and local part as ranges of the reader's buffer.
#[derive(Debug, Clone)]
pub(crate) struct NameSpan {
    pub(crate) ns: u32,
    pub(crate) prefix: Option<Range<usize>>,
    pub(crate) local: Range<usize>,
}

#[derive(Debug, Clone)]
pub(crate) struct AttrSpan {
    pub(crate) name: NameSpan,
    pub(crate) value: Span,
}

#[derive(Debug, Clone)]
pub(crate) struct DeclSpan {
    pub(crate) prefix: Option<Range<usize>>,
    pub(crate) uri: Span,
}

/// The reader's buffers an event's spans point into.
#[derive(Clone, Copy)]
pub(crate) struct Sources<'a> {
    pub(crate) buf: &'a str,
    pub(crate) scratch: &'a str,
    /// Namespace URIs by the reader's number.
    pub(crate) uris: &'a [Box<str>],
}

impl<'a> Sources<'a> {
    pub(crate) fn str(&self, s: Span) -> &'a str {
        let from = if s.scratch { self.scratch } else { self.buf };
        &from[s.start..s.end]
    }

    fn name(&self, n: &NameSpan) -> Name<'a> {
        Name {
            ns: n.ns,
            uri: &self.uris[n.ns as usize],
            prefix: n.prefix.clone().map(|p| &self.buf[p]),
            local: &self.buf[n.local.clone()],
        }
    }
}

/// A start tag: its resolved name, namespace declarations and
/// attributes, read from the reader's buffers without copying them.
#[derive(Clone, Copy)]
pub struct StartTag<'a> {
    pub(crate) name: &'a NameSpan,
    pub(crate) decls: &'a [DeclSpan],
    pub(crate) attrs: &'a [AttrSpan],
    pub(crate) self_closing: bool,
    pub(crate) src: Sources<'a>,
}

impl<'a> StartTag<'a> {
    pub fn name(&self) -> Name<'a> {
        self.src.name(self.name)
    }

    /// True for `<a/>`; the reader still emits a matching `EndElement`
    /// so consumers see balanced events.
    pub fn self_closing(&self) -> bool {
        self.self_closing
    }

    pub fn namespaces(&self) -> impl ExactSizeIterator<Item = NamespaceDecl<'a>> + 'a {
        let src = self.src;
        self.decls.iter().map(move |d| NamespaceDecl {
            prefix: d.prefix.clone().map(|p| &src.buf[p]),
            uri: src.str(d.uri),
        })
    }

    pub fn attributes(&self) -> impl ExactSizeIterator<Item = Attribute<'a>> + 'a {
        let src = self.src;
        self.attrs.iter().map(move |a| Attribute {
            name: src.name(&a.name),
            value: src.str(a.value),
        })
    }
}

impl fmt::Debug for StartTag<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StartTag")
            .field("name", &self.name())
            .field("namespaces", &self.namespaces().collect::<Vec<_>>())
            .field("attributes", &self.attributes().collect::<Vec<_>>())
            .field("self_closing", &self.self_closing)
            .finish()
    }
}

impl PartialEq for StartTag<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.self_closing == other.self_closing
            && self.namespaces().eq(other.namespaces())
            && self.attributes().eq(other.attributes())
    }
}

/// A pull-parser event. `StartDocument`/`EndDocument` bracket the stream
/// even for fragments, matching the data model's document node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum XmlEvent<'a> {
    StartDocument,
    EndDocument,
    StartElement(StartTag<'a>),
    /// Closes the innermost open element; the reader matched the end
    /// tag against it lexically.
    EndElement,
    Text(&'a str),
    Comment(&'a str),
    ProcessingInstruction {
        target: &'a str,
        data: &'a str,
    },
}
