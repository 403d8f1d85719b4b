//! Adapters between the three shapes of XML data: text, parser events,
//! and token streams.
//!
//! [`ParserTokenIterator`] is the "SAX parser as TokenIterator" slide: it
//! pulls events from the [`XmlReader`] on demand, so tokens flow before
//! the document is fully read — the property the streaming experiments
//! (E1) measure.

use crate::iterator::{TokenIterator, TokenResolve};
use crate::pool::StringPool;
use crate::stream::TokenStream;
use crate::token::{StrId, Token};
use std::collections::VecDeque;
use std::sync::Arc;
use xqr_xdm::{NamePool, QName, QueryGuard, Result};
use xqr_xmlparse::{WriterOptions, XmlEvent, XmlReader, XmlWriter};

/// Streaming adapter: XML text → tokens, one event at a time.
pub struct ParserTokenIterator<'a> {
    reader: XmlReader<'a>,
    pool: StringPool,
    names: Arc<NamePool>,
    queue: VecDeque<Token>,
    finished: bool,
    last_opened: bool,
    guard: Option<QueryGuard>,
}

impl<'a> ParserTokenIterator<'a> {
    pub fn new(input: &'a str, names: Arc<NamePool>) -> Self {
        ParserTokenIterator {
            reader: XmlReader::new(input),
            pool: StringPool::new(),
            names,
            queue: VecDeque::new(),
            finished: false,
            last_opened: false,
            guard: None,
        }
    }

    /// Guarded construction: the reader enforces depth/size limits and
    /// every token delivered (including skipped ones) charges the token
    /// budget, which also polls cancellation and the deadline.
    pub fn with_guard(input: &'a str, names: Arc<NamePool>, guard: QueryGuard) -> Self {
        let mut it = ParserTokenIterator::new(input, names);
        it.reader = XmlReader::new(input).with_guard(guard.clone());
        it.guard = Some(guard);
        it
    }

    /// Bytes of input consumed so far — lets tests assert that results
    /// appear before the input is exhausted.
    #[cfg(test)]
    fn bytes_consumed(&self) -> usize {
        self.reader.position()
    }

    fn enqueue_event(&mut self, ev: XmlEvent) {
        if event_to_tokens(&ev, &self.names, &mut self.pool, &mut self.queue) {
            self.finished = true;
        }
    }
}

/// The one mapping from parser events to data-model tokens, shared by the
/// pull adapter above, the push tokenizer, and the chunked-ingestion
/// channel consumer — every path MUST produce identical token sequences
/// (the chunked-vs-whole differential oracle depends on it). Returns true
/// when the event ends the document.
pub(crate) fn event_to_tokens(
    ev: &XmlEvent,
    names: &NamePool,
    pool: &mut StringPool,
    queue: &mut VecDeque<Token>,
) -> bool {
    match ev {
        XmlEvent::StartDocument => queue.push_back(Token::StartDocument),
        XmlEvent::EndDocument => {
            queue.push_back(Token::EndDocument);
            return true;
        }
        XmlEvent::StartElement {
            name,
            attributes,
            namespaces,
            ..
        } => {
            let n = names.intern(name);
            queue.push_back(Token::StartElement(n));
            for d in namespaces {
                let p = pool.intern(d.prefix.as_deref().unwrap_or(""));
                let u = pool.intern(&d.uri);
                queue.push_back(Token::NamespaceDecl(p, u));
            }
            for a in attributes {
                let an = names.intern(&a.name);
                let av = pool.intern(&a.value);
                queue.push_back(Token::Attribute(an, av));
            }
        }
        XmlEvent::EndElement { .. } => queue.push_back(Token::EndElement),
        XmlEvent::Text(t) => {
            let id = pool.intern(t);
            queue.push_back(Token::Text(id));
        }
        XmlEvent::Comment(c) => {
            let id = pool.intern(c);
            queue.push_back(Token::Comment(id));
        }
        XmlEvent::ProcessingInstruction { target, data } => {
            let tn = names.intern(&QName::local(target));
            let dd = pool.intern(data);
            queue.push_back(Token::ProcessingInstruction(tn, dd));
        }
    }
    false
}

impl TokenResolve for ParserTokenIterator<'_> {
    fn pooled_str(&self, id: StrId) -> Arc<str> {
        self.pool.get_arc(id)
    }

    fn names(&self) -> &Arc<NamePool> {
        &self.names
    }
}

impl<'a> TokenIterator for ParserTokenIterator<'a> {
    fn next_token(&mut self) -> Result<Option<Token>> {
        while self.queue.is_empty() {
            if self.finished {
                return Ok(None);
            }
            let ev = self.reader.next_event()?;
            self.enqueue_event(ev);
        }
        let t = self.queue.pop_front();
        if t.is_some() {
            if let Some(guard) = &self.guard {
                guard.note_tokens(1)?;
            }
        }
        self.last_opened = t.map(|t| t.opens()).unwrap_or(false);
        Ok(t)
    }

    fn skip_subtree(&mut self) -> Result<usize> {
        if !self.last_opened {
            return Ok(0);
        }
        // No links in a live parse: consume tokens, tracking depth. Still
        // avoids handing content to the consumer.
        let mut depth = 1usize;
        let mut skipped = 0usize;
        loop {
            let t = match self.next_token()? {
                Some(t) => t,
                None => return Ok(skipped),
            };
            skipped += 1;
            if t.opens() {
                depth += 1;
            } else if t.closes() {
                depth -= 1;
                if depth == 0 {
                    self.last_opened = false;
                    return Ok(skipped);
                }
            }
        }
    }
}

impl TokenStream {
    /// Materialize a whole XML document into a token stream.
    pub fn from_xml(input: &str, names: Arc<NamePool>) -> Result<TokenStream> {
        let mut it = ParserTokenIterator::new(input, names.clone());
        let mut b = TokenStream::builder(names);
        while let Some(t) = it.next_token()? {
            // Re-intern through the builder's own pool so ids are dense in
            // this stream.
            let t = match t {
                Token::Attribute(n, v) => Token::Attribute(n, b.intern_str(&it.pooled_str(v))),
                Token::NamespaceDecl(p, u) => {
                    let p2 = b.intern_str(&it.pooled_str(p));
                    let u2 = b.intern_str(&it.pooled_str(u));
                    Token::NamespaceDecl(p2, u2)
                }
                Token::Text(s) => Token::Text(b.intern_str(&it.pooled_str(s))),
                Token::Comment(s) => Token::Comment(b.intern_str(&it.pooled_str(s))),
                Token::ProcessingInstruction(n, d) => {
                    Token::ProcessingInstruction(n, b.intern_str(&it.pooled_str(d)))
                }
                other => other,
            };
            b.push(t);
        }
        b.finish()
    }
}

/// Convert a token iterator back into parser events (for serialization).
/// Groups trailing `Attribute`/`NamespaceDecl` tokens into their
/// `StartElement` event.
pub(crate) fn tokens_to_events(it: &mut dyn TokenIterator) -> Result<Vec<XmlEvent>> {
    let mut events: Vec<XmlEvent> = Vec::new();
    let mut pending: Option<(
        QName,
        Vec<xqr_xmlparse::Attribute>,
        Vec<xqr_xmlparse::NamespaceDecl>,
    )> = None;
    let mut names_stack: Vec<QName> = Vec::new();

    fn flush(
        events: &mut Vec<XmlEvent>,
        pending: &mut Option<(
            QName,
            Vec<xqr_xmlparse::Attribute>,
            Vec<xqr_xmlparse::NamespaceDecl>,
        )>,
    ) {
        if let Some((name, attributes, namespaces)) = pending.take() {
            events.push(XmlEvent::StartElement {
                name,
                attributes,
                namespaces,
                empty: false,
            });
        }
    }

    while let Some(t) = it.next_token()? {
        match t {
            Token::StartDocument => {
                flush(&mut events, &mut pending);
                events.push(XmlEvent::StartDocument);
            }
            Token::EndDocument => {
                flush(&mut events, &mut pending);
                events.push(XmlEvent::EndDocument);
            }
            Token::StartElement(n) => {
                flush(&mut events, &mut pending);
                let q = it.name(n).clone();
                names_stack.push(q.clone());
                pending = Some((q, Vec::new(), Vec::new()));
            }
            Token::Attribute(n, v) => {
                if let Some((_, attrs, _)) = pending.as_mut() {
                    attrs.push(xqr_xmlparse::Attribute {
                        name: it.name(n).clone(),
                        value: it.pooled_str(v),
                    });
                }
            }
            Token::NamespaceDecl(p, u) => {
                if let Some((_, _, decls)) = pending.as_mut() {
                    let prefix = it.pooled_str(p);
                    decls.push(xqr_xmlparse::NamespaceDecl {
                        prefix: if prefix.is_empty() {
                            None
                        } else {
                            Some(prefix)
                        },
                        uri: it.pooled_str(u),
                    });
                }
            }
            Token::EndElement => {
                flush(&mut events, &mut pending);
                let name = names_stack.pop().unwrap_or_else(|| QName::local(""));
                events.push(XmlEvent::EndElement { name });
            }
            Token::Text(s) => {
                flush(&mut events, &mut pending);
                events.push(XmlEvent::Text(it.pooled_str(s)));
            }
            Token::Comment(s) => {
                flush(&mut events, &mut pending);
                events.push(XmlEvent::Comment(it.pooled_str(s)));
            }
            Token::ProcessingInstruction(n, d) => {
                flush(&mut events, &mut pending);
                events.push(XmlEvent::ProcessingInstruction {
                    target: Arc::from(it.name(n).local_name()),
                    data: it.pooled_str(d),
                });
            }
        }
    }
    flush(&mut events, &mut pending);
    Ok(events)
}

/// Serialize a token iterator to XML text.
pub fn tokens_to_xml(it: &mut dyn TokenIterator, opts: WriterOptions) -> Result<String> {
    let events = tokens_to_events(it)?;
    let mut w = XmlWriter::new(opts);
    for ev in &events {
        w.write(ev)?;
    }
    Ok(w.into_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::drain;

    const DOC: &str =
        r#"<order id="4711"><date>2003-08-19</date><lineitem xmlns="www.boo.com"/></order>"#;

    #[test]
    fn parser_iterator_yields_talk_example_tokens() {
        // The talk's "Example Token Stream" slide, minus schema types.
        let names = Arc::new(NamePool::new());
        let mut it = ParserTokenIterator::new(DOC, names);
        let mut kinds = Vec::new();
        while let Some(t) = it.next_token().unwrap() {
            kinds.push(match t {
                Token::StartDocument => "SD",
                Token::EndDocument => "ED",
                Token::StartElement(_) => "SE",
                Token::EndElement => "EE",
                Token::Attribute(..) => "A",
                Token::NamespaceDecl(..) => "NS",
                Token::Text(_) => "T",
                Token::Comment(_) => "C",
                Token::ProcessingInstruction(..) => "PI",
            });
        }
        assert_eq!(
            kinds,
            vec!["SD", "SE", "A", "SE", "T", "EE", "SE", "NS", "EE", "EE", "ED"]
        );
    }

    #[test]
    fn roundtrip_through_tokens() {
        let names = Arc::new(NamePool::new());
        let s = TokenStream::from_xml(DOC, names).unwrap();
        let mut it = s.iter();
        let xml = tokens_to_xml(&mut it, WriterOptions::default()).unwrap();
        assert_eq!(xml, DOC);
    }

    #[test]
    fn streaming_consumes_input_incrementally() {
        // Build a document with a large tail; after reading the first
        // element the parser must not have consumed the whole input.
        let mut doc = String::from("<r><first>x</first>");
        for i in 0..10_000 {
            doc.push_str(&format!("<item>{i}</item>"));
        }
        doc.push_str("</r>");
        let names = Arc::new(NamePool::new());
        let mut it = ParserTokenIterator::new(&doc, names);
        // Pull tokens until the first </first>.
        let mut seen_first_end = 0;
        while let Some(t) = it.next_token().unwrap() {
            if matches!(t, Token::EndElement) {
                seen_first_end += 1;
                break;
            }
        }
        assert_eq!(seen_first_end, 1);
        assert!(
            it.bytes_consumed() < doc.len() / 100,
            "consumed {} of {}",
            it.bytes_consumed(),
            doc.len()
        );
    }

    #[test]
    fn parser_skip_counts_descendant_tokens() {
        let names = Arc::new(NamePool::new());
        let mut it = ParserTokenIterator::new("<a><b><c/><d/></b><e/></a>", names);
        it.next_token().unwrap(); // SD
        it.next_token().unwrap(); // <a>
        it.next_token().unwrap(); // <b>
        let skipped = it.skip_subtree().unwrap();
        assert_eq!(skipped, 5); // <c/>, </c>, <d/>, </d>, </b>
        let t = it.next_token().unwrap().unwrap();
        match t {
            Token::StartElement(n) => assert_eq!(it.name(n).local_name(), "e"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drain_counts() {
        let names = Arc::new(NamePool::new());
        let mut it = ParserTokenIterator::new("<a><b/></a>", names);
        assert_eq!(drain(&mut it).unwrap(), 6);
    }

    #[test]
    fn guarded_iterator_charges_every_token_including_skips() {
        use xqr_xdm::{ErrorCode, Limits, QueryGuard};
        let names = Arc::new(NamePool::new());
        let guard = QueryGuard::unlimited();
        let mut it =
            ParserTokenIterator::with_guard("<a><b><c/><d/></b><e/></a>", names, guard.clone());
        it.next_token().unwrap(); // SD
        it.next_token().unwrap(); // <a>
        it.next_token().unwrap(); // <b>
        it.skip_subtree().unwrap(); // 5 tokens consumed internally
        assert_eq!(guard.usage().tokens, 8);

        // And a tight budget trips mid-stream with the stable code.
        let names = Arc::new(NamePool::new());
        let guard = QueryGuard::new(Limits::unlimited().with_max_tokens(3));
        let mut it = ParserTokenIterator::with_guard("<a><b/><c/></a>", names, guard);
        let err = loop {
            match it.next_token() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("budget should trip before exhaustion"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.code, ErrorCode::Limit);
    }
}
