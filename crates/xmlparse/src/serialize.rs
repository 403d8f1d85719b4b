//! Event-driven XML serializer ("(DM4) Serialize" in the talk's processing
//! picture). Consumes [`XmlEvent`]s — from the reader, the TokenStream, or
//! query results — and produces well-formed markup with correct escaping.

use crate::event::XmlEvent;
use xqr_xdm::{Error, QName, Result};

/// Escape character data content.
pub(crate) fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '\r' => out.push_str("&#13;"),
            _ => out.push(c),
        }
    }
}

/// Escape attribute values (double-quote delimited).
pub(crate) fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\t' => out.push_str("&#9;"),
            '\n' => out.push_str("&#10;"),
            '\r' => out.push_str("&#13;"),
            _ => out.push(c),
        }
    }
}

/// Serialization options.
#[derive(Debug, Clone, Default)]
pub struct WriterOptions {
    /// Pretty-print with this indent string per depth level; `None`
    /// writes everything on one line (lossless).
    pub indent: Option<String>,
    /// Emit an XML declaration first.
    pub declaration: bool,
}

/// A consumer of one tree written in document order — the interface
/// deep copy (the store's `DocumentBuilder`), serialization
/// ([`XmlWriter`]) and node construction share, so a subtree walk is
/// written once (`Document::write_subtree`).
///
/// Namespaces and attributes belong to the element started last and
/// arrive before its first child. One arriving with no element open is
/// a standalone node, which serializes as its bare value.
pub trait TreeWriter {
    fn start_element(&mut self, name: &QName);
    fn namespace(&mut self, prefix: &str, uri: &str);
    fn attribute(&mut self, name: &QName, value: &str);
    /// Close the element started last.
    fn end_element(&mut self);
    fn text(&mut self, text: &str);
    fn comment(&mut self, text: &str);
    fn pi(&mut self, target: &str, data: &str);
}

/// Streaming writer: feed events in document order; read the buffer at
/// any point (the streaming benches measure time-to-first-byte this way).
pub struct XmlWriter {
    out: String,
    opts: WriterOptions,
    depth: usize,
    /// Start tag is open, awaiting `>`; lets `<a/>` collapse.
    tag_open: bool,
    /// The open start tag already holds an attribute: a namespace node
    /// arriving now is dropped, exactly as the store's accessors skip a
    /// namespace node stored after an attribute.
    tag_has_attrs: bool,
    /// The element just opened had no children yet (drives indenting and
    /// empty-tag collapsing).
    last_was_start: bool,
    /// Pending element name stack for end tags.
    stack: Vec<QName>,
    /// True once any non-whitespace content was written into the current
    /// element, which suppresses pretty-printing inside mixed content.
    mixed: Vec<bool>,
}

impl XmlWriter {
    pub fn new(opts: WriterOptions) -> Self {
        let mut out = String::new();
        if opts.declaration {
            out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
            if opts.indent.is_some() {
                out.push('\n');
            }
        }
        XmlWriter {
            out,
            opts,
            depth: 0,
            tag_open: false,
            tag_has_attrs: false,
            last_was_start: false,
            stack: Vec::new(),
            mixed: vec![false],
        }
    }

    pub fn into_string(self) -> String {
        self.out
    }

    pub fn as_str(&self) -> &str {
        &self.out
    }

    pub fn len(&self) -> usize {
        self.out.len()
    }

    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Append `s` verbatim — a query result's atomic values, which are
    /// written as their string value, unescaped.
    pub fn write_raw(&mut self, s: &str) {
        self.close_tag_if_open();
        self.out.push_str(s);
    }

    fn close_tag_if_open(&mut self) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
    }

    fn newline_indent(&mut self) {
        if let Some(indent) = &self.opts.indent {
            if !self.out.is_empty() && !self.mixed.last().copied().unwrap_or(false) {
                self.out.push('\n');
                for _ in 0..self.depth {
                    self.out.push_str(indent);
                }
            }
        }
    }

    fn push_name(&mut self, name: &QName) {
        if let Some(p) = name.prefix() {
            self.out.push_str(p);
            self.out.push(':');
        }
        self.out.push_str(name.local_name());
    }

    /// Write one event. Events must arrive balanced and in order.
    pub fn write(&mut self, event: &XmlEvent) -> Result<()> {
        match event {
            XmlEvent::StartDocument | XmlEvent::EndDocument => {}
            XmlEvent::StartElement {
                name,
                attributes,
                namespaces,
                ..
            } => {
                self.start_element(name);
                for d in namespaces {
                    self.namespace(d.prefix.as_deref().unwrap_or(""), &d.uri);
                }
                for a in attributes {
                    self.attribute(&a.name, &a.value);
                }
            }
            XmlEvent::EndElement { .. } => {
                if self.stack.is_empty() {
                    return Err(Error::internal("unbalanced EndElement in serializer"));
                }
                self.end_element();
            }
            XmlEvent::Text(t) => self.text(t),
            XmlEvent::Comment(c) => self.comment(c),
            XmlEvent::ProcessingInstruction { target, data } => self.pi(target, data),
        }
        Ok(())
    }
}

impl TreeWriter for XmlWriter {
    fn start_element(&mut self, name: &QName) {
        self.close_tag_if_open();
        self.newline_indent();
        self.out.push('<');
        self.push_name(name);
        self.tag_open = true;
        self.tag_has_attrs = false;
        self.last_was_start = true;
        self.depth += 1;
        self.stack.push(name.clone());
        self.mixed.push(false);
    }

    fn namespace(&mut self, prefix: &str, uri: &str) {
        if self.tag_open && !self.tag_has_attrs {
            if prefix.is_empty() {
                self.out.push_str(" xmlns");
            } else {
                self.out.push_str(" xmlns:");
                self.out.push_str(prefix);
            }
            self.out.push_str("=\"");
            escape_attr(uri, &mut self.out);
            self.out.push('"');
        } else if self.depth == 0 {
            self.out.push_str(uri);
        }
    }

    fn attribute(&mut self, name: &QName, value: &str) {
        if self.tag_open {
            self.out.push(' ');
            self.push_name(name);
            self.out.push_str("=\"");
            escape_attr(value, &mut self.out);
            self.out.push('"');
            self.tag_has_attrs = true;
        } else if self.depth == 0 {
            self.out.push_str(value);
        }
    }

    fn end_element(&mut self) {
        let Some(name) = self.stack.pop() else {
            return;
        };
        self.depth -= 1;
        let was_mixed = self.mixed.pop().unwrap_or(false);
        if self.tag_open {
            self.out.push_str("/>");
            self.tag_open = false;
        } else {
            if !self.last_was_start && !was_mixed {
                self.newline_indent();
            }
            self.out.push_str("</");
            self.push_name(&name);
            self.out.push('>');
        }
        self.last_was_start = false;
    }

    fn text(&mut self, text: &str) {
        self.close_tag_if_open();
        if let Some(m) = self.mixed.last_mut() {
            *m = true;
        }
        escape_text(text, &mut self.out);
        self.last_was_start = false;
    }

    fn comment(&mut self, text: &str) {
        self.close_tag_if_open();
        self.newline_indent();
        self.out.push_str("<!--");
        self.out.push_str(text);
        self.out.push_str("-->");
        self.last_was_start = false;
    }

    fn pi(&mut self, target: &str, data: &str) {
        self.close_tag_if_open();
        self.newline_indent();
        self.out.push_str("<?");
        self.out.push_str(target);
        if !data.is_empty() {
            self.out.push(' ');
            self.out.push_str(data);
        }
        self.out.push_str("?>");
        self.last_was_start = false;
    }
}

/// Serialize a whole event stream to a string.
pub(crate) fn serialize_events<'a>(
    events: impl IntoIterator<Item = &'a XmlEvent>,
    opts: WriterOptions,
) -> Result<String> {
    let mut w = XmlWriter::new(opts);
    for ev in events {
        w.write(ev)?;
    }
    Ok(w.into_string())
}

/// Parse and re-serialize: the canonicalization used by roundtrip tests.
pub fn reserialize(input: &str) -> Result<String> {
    let events = crate::reader::parse_events(input)?;
    serialize_events(&events, WriterOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_events;

    #[test]
    fn roundtrip_simple() {
        let doc = r#"<a b="1"><c>text</c><d/></a>"#;
        assert_eq!(reserialize(doc).unwrap(), doc);
    }

    #[test]
    fn escaping_in_text_and_attrs() {
        let events = parse_events("<a b=\"&quot;&lt;\">x &amp; y &lt; z</a>").unwrap();
        let out = serialize_events(&events, WriterOptions::default()).unwrap();
        assert_eq!(out, "<a b=\"&quot;&lt;\">x &amp; y &lt; z</a>");
        // and it parses back to the same content
        assert_eq!(reserialize(&out).unwrap(), out);
    }

    #[test]
    fn namespace_decls_roundtrip() {
        let doc = r#"<b:a xmlns:b="urn:b" b:x="1"><b:c/></b:a>"#;
        assert_eq!(reserialize(doc).unwrap(), doc);
    }

    #[test]
    fn empty_element_collapses() {
        assert_eq!(reserialize("<a></a>").unwrap(), "<a/>");
        assert_eq!(reserialize("<a> </a>").unwrap(), "<a> </a>");
    }

    #[test]
    fn indentation() {
        let events = parse_events("<a><b><c/></b><d>t</d></a>").unwrap();
        let out = serialize_events(
            &events,
            WriterOptions {
                indent: Some("  ".into()),
                declaration: false,
            },
        )
        .unwrap();
        assert_eq!(out, "<a>\n  <b>\n    <c/>\n  </b>\n  <d>t</d>\n</a>");
    }

    #[test]
    fn declaration_emitted() {
        let events = parse_events("<a/>").unwrap();
        let out = serialize_events(
            &events,
            WriterOptions {
                indent: None,
                declaration: true,
            },
        )
        .unwrap();
        assert!(out.starts_with("<?xml version=\"1.0\""));
    }

    #[test]
    fn comment_and_pi_roundtrip() {
        let doc = "<a><!-- note --><?t d?></a>";
        assert_eq!(reserialize(doc).unwrap(), doc);
    }

    #[test]
    fn cdata_becomes_escaped_text() {
        assert_eq!(
            reserialize("<a><![CDATA[<x>&]]></a>").unwrap(),
            "<a>&lt;x&gt;&amp;</a>"
        );
    }

    #[test]
    fn mixed_content_not_reindented() {
        let events = parse_events("<p>one <b>two</b> three</p>").unwrap();
        let out = serialize_events(
            &events,
            WriterOptions {
                indent: Some("  ".into()),
                declaration: false,
            },
        )
        .unwrap();
        assert_eq!(out, "<p>one <b>two</b> three</p>");
    }
}
