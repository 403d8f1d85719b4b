//! Adapters between the three shapes of XML data: text, parser events,
//! and token streams.
//!
//! [`ParserTokenIterator`] is the "SAX parser as TokenIterator" slide: it
//! pulls events from the [`XmlReader`] on demand, so tokens flow before
//! the document is fully read — the property the streaming experiments
//! (E1) measure.

use crate::iterator::{TokenIterator, TokenResolve};
use crate::pool::TextWindow;
use crate::stream::TokenStream;
use crate::token::{StrId, Token};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use xqr_xdm::{NameId, NamePool, QueryGuard, Result};
use xqr_xmlparse::{Name, TreeWriter, WriterOptions, XmlEvent, XmlReader, XmlWriter};

/// Streaming adapter: XML text → tokens, one event at a time.
pub struct ParserTokenIterator<'a> {
    reader: XmlReader<'a>,
    tokens: EventTokens,
    finished: bool,
    last_opened: bool,
    guard: Option<QueryGuard>,
}

impl<'a> ParserTokenIterator<'a> {
    pub fn new(input: &'a str, names: Arc<NamePool>) -> Self {
        ParserTokenIterator {
            reader: XmlReader::new(input),
            tokens: EventTokens::new(names),
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
}

/// The one mapping from parser events to data-model tokens, shared by
/// the pull adapter above and the push tokenizer: both paths produce
/// identical token sequences (the chunked-vs-whole differential oracle
/// depends on it). It keeps what the mapping needs from token to token,
/// so that a token costs no allocation and takes no lock once its name
/// has been seen. Its string window holds the queued tokens' strings
/// alone, recycled as the next event is queued, so a consumer resolves
/// a token's strings before pulling past it.
pub(crate) struct EventTokens {
    names: Arc<NamePool>,
    /// Names met so far, by the reader's namespace number and then the
    /// local part: a repeated name is one lookup here, and only a new
    /// one goes to the shared pool. The namespace number, not a URI or
    /// prefix, keys it, so a prefix rebound to another URI cannot find
    /// the name it spelled before.
    memo: Vec<HashMap<Box<str>, NameId>>,
    text: TextWindow,
    queue: VecDeque<Token>,
}

impl EventTokens {
    pub(crate) fn new(names: Arc<NamePool>) -> Self {
        EventTokens {
            names,
            memo: Vec::new(),
            text: TextWindow::default(),
            queue: VecDeque::new(),
        }
    }

    pub(crate) fn names(&self) -> &Arc<NamePool> {
        &self.names
    }

    pub(crate) fn str(&self, id: StrId) -> &str {
        self.text.get(id)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub(crate) fn pop(&mut self) -> Option<Token> {
        self.queue.pop_front()
    }

    fn name_id(&mut self, name: Name<'_>) -> NameId {
        let ns = name.ns as usize;
        if ns >= self.memo.len() {
            self.memo.resize_with(ns + 1, HashMap::new);
        }
        if let Some(&id) = self.memo[ns].get(name.local) {
            return id;
        }
        let uri = (ns != 0).then_some(name.uri);
        let id = self.names.intern_parts(uri, name.prefix, name.local);
        self.memo[ns].insert(name.local.into(), id);
        id
    }

    /// Queue the tokens of `ev`, the queue being empty; true when it
    /// ends the document. The tokens before it were consumed, so their
    /// strings are dropped.
    pub(crate) fn push(&mut self, ev: &XmlEvent<'_>) -> bool {
        debug_assert!(self.queue.is_empty());
        self.text.recycle();
        let token = match *ev {
            XmlEvent::StartDocument => Token::StartDocument,
            XmlEvent::EndDocument => {
                self.queue.push_back(Token::EndDocument);
                return true;
            }
            XmlEvent::StartElement(tag) => {
                let n = self.name_id(tag.name());
                self.queue.push_back(Token::StartElement(n));
                for d in tag.namespaces() {
                    let p = self.text.push(d.prefix.unwrap_or(""));
                    let u = self.text.push(d.uri);
                    self.queue.push_back(Token::NamespaceDecl(p, u));
                }
                for a in tag.attributes() {
                    let an = self.name_id(a.name);
                    let av = self.text.push(a.value);
                    self.queue.push_back(Token::Attribute(an, av));
                }
                return false;
            }
            XmlEvent::EndElement => Token::EndElement,
            XmlEvent::Text(t) => Token::Text(self.text.push(t)),
            XmlEvent::Comment(c) => Token::Comment(self.text.push(c)),
            XmlEvent::ProcessingInstruction { target, data } => {
                let target = Name {
                    ns: 0,
                    uri: "",
                    prefix: None,
                    local: target,
                };
                Token::ProcessingInstruction(self.name_id(target), self.text.push(data))
            }
        };
        self.queue.push_back(token);
        false
    }
}

impl TokenResolve for ParserTokenIterator<'_> {
    fn pooled_str(&self, id: StrId) -> Cow<'_, str> {
        Cow::Borrowed(self.tokens.str(id))
    }

    fn names(&self) -> &Arc<NamePool> {
        self.tokens.names()
    }
}

impl<'a> TokenIterator for ParserTokenIterator<'a> {
    fn next_token(&mut self) -> Result<Option<Token>> {
        while self.tokens.is_empty() {
            if self.finished {
                return Ok(None);
            }
            let ev = self.reader.next_event()?;
            self.finished = self.tokens.push(&ev);
        }
        let t = self.tokens.pop();
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
            let t = t.map_strs(|s| b.intern_str(&it.pooled_str(s)));
            b.push(t);
        }
        b.finish()
    }
}

/// Serialize a token iterator to XML text.
pub fn tokens_to_xml(it: &mut dyn TokenIterator, opts: WriterOptions) -> Result<String> {
    let mut w = XmlWriter::new(opts);
    while let Some(t) = it.next_token()? {
        match t {
            Token::StartDocument | Token::EndDocument => {}
            Token::StartElement(n) => w.start_element(it.name(n)),
            Token::Attribute(n, v) => w.attribute(it.name(n), &it.pooled_str(v)),
            Token::NamespaceDecl(p, u) => w.namespace(&it.pooled_str(p), &it.pooled_str(u)),
            Token::EndElement => w.end_element(),
            Token::Text(s) => w.text(&it.pooled_str(s)),
            Token::Comment(s) => w.comment(&it.pooled_str(s)),
            Token::ProcessingInstruction(n, d) => w.pi(it.name(n).local_name(), &it.pooled_str(d)),
        }
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
