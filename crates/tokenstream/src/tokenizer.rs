//! The tokenizer: XML text to tokens, one event at a time — the
//! paper's "SAX parser as TokenIterator", whether the text is a whole
//! string in hand or byte chunks arriving.
//!
//! [`Tokenizer`] pulls events from the [`XmlReader`] on demand, so
//! tokens flow before the document is fully read (E1). Over a whole
//! borrowed string ([`Tokenizer::new`]) the reader lexes in place;
//! an incremental one ([`Tokenizer::incremental`]) takes chunks split at
//! any byte boundary through [`Tokenizer::feed`]. Both run one loop, so
//! a document fed in chunks produces the exact token sequence (ids
//! aside) of the whole string — the invariant the chunked differential
//! oracle enforces.

use crate::iterator::{TokenIterator, TokenResolve};
use crate::pool::TextWindow;
use crate::stream::TokenStream;
use crate::token::{StrId, Token};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use xqr_xdm::{Error, Limits, NameId, NamePool, QueryGuard, Result};
use xqr_xmlparse::{Name, TreeWriter, WriterOptions, XmlEvent, XmlReader, XmlWriter};

/// XML text → tokens. Errors are sticky: once a call fails, every later
/// one returns the same error — a half-tokenized document must not look
/// like a short valid one.
pub struct Tokenizer<'a> {
    reader: XmlReader<'a>,
    tokens: EventTokens,
    /// `EndDocument` has been queued: the token stream is complete.
    done: bool,
    failed: Option<Error>,
    last_opened: bool,
    guard: Option<QueryGuard>,
}

/// The whole-string tokenizer's name since the paper: retires with the
/// perfbench freeze (ROADMAP item 1).
pub type ParserTokenIterator<'a> = Tokenizer<'a>;

/// The chunk-fed tokenizer's constructor under its former name: retires
/// with the perfbench freeze (ROADMAP item 1).
pub struct PushTokenizer;

impl PushTokenizer {
    #[allow(clippy::new_ret_no_self)]
    pub fn new(names: Arc<NamePool>) -> Tokenizer<'static> {
        Tokenizer::incremental(names)
    }
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer over the whole of `input`, lexed in place.
    pub fn new(input: &'a str, names: Arc<NamePool>) -> Self {
        Tokenizer::over(XmlReader::new(input), names)
    }

    fn over(reader: XmlReader<'a>, names: Arc<NamePool>) -> Self {
        Tokenizer {
            reader,
            tokens: EventTokens::new(names),
            done: false,
            failed: None,
            last_opened: false,
            guard: None,
        }
    }

    /// Guard the tokenizer: the reader enforces the guard's depth and
    /// size limits, and every token delivered (skipped ones included)
    /// charges the token budget, which also polls cancellation and the
    /// deadline. An unlimited guard still counts and can be cancelled.
    pub fn guarded(mut self, guard: QueryGuard) -> Self {
        self.reader = self.reader.with_guard(guard.clone());
        self.guard = Some(guard);
        self
    }

    /// Guard the tokenizer with a fresh guard under `limits`. With no
    /// limit set, nothing could trip it and no one holds its cancel
    /// handle, so the tokenizer stays unguarded and pays nothing.
    pub fn limited(self, limits: Limits) -> Self {
        if limits.is_unlimited() {
            self
        } else {
            self.guarded(QueryGuard::new(limits))
        }
    }

    fn fail<T>(&mut self, e: Error) -> Result<T> {
        self.failed = Some(e.clone());
        Err(e)
    }

    /// Run `step` on the reader unless a call failed before; a failure
    /// sticks.
    fn sticky(&mut self, step: impl FnOnce(&mut XmlReader<'a>) -> Result<()>) -> Result<()> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        step(&mut self.reader).or_else(|e| self.fail(e))
    }

    /// The next token. `Ok(None)` means the end of the stream, or, for
    /// an incremental tokenizer, that it needs more input first.
    pub fn poll_token(&mut self) -> Result<Option<Token>> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        while self.tokens.is_empty() {
            if self.done {
                return Ok(None);
            }
            match self.reader.poll_event() {
                Ok(Some(ev)) => self.done = self.tokens.push(&ev),
                Ok(None) => return Ok(None),
                Err(e) => return self.fail(e),
            }
        }
        let t = self.tokens.pop().expect("checked above");
        if let Some(guard) = &self.guard {
            if let Err(e) = guard.note_tokens(1) {
                return self.fail(e);
            }
        }
        self.last_opened = t.opens();
        Ok(Some(t))
    }

    /// Declare end-of-input; constructs waiting for more bytes resolve
    /// (a no-op over a whole string).
    pub fn finish(&mut self) -> Result<()> {
        self.sticky(XmlReader::finish)
    }

    /// Bytes buffered awaiting a complete syntactic unit.
    pub fn buffered_bytes(&self) -> usize {
        self.reader.buffered_bytes()
    }

    /// Bytes of input consumed so far — lets tests assert that results
    /// appear before the input is exhausted.
    #[cfg(test)]
    fn bytes_consumed(&self) -> usize {
        self.reader.position()
    }
}

impl Tokenizer<'static> {
    /// A tokenizer fed in chunks: [`Tokenizer::feed`] them, drain with
    /// [`Tokenizer::poll_token`], and [`Tokenizer::finish`] at the end.
    pub fn incremental(names: Arc<NamePool>) -> Self {
        Tokenizer::over(XmlReader::incremental(), names)
    }

    /// Append a chunk of document bytes (any boundary, including inside
    /// a multi-byte UTF-8 sequence). Cheap: no parsing happens here.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<()> {
        self.sticky(|reader| reader.feed(chunk))
    }
}

/// The one mapping from parser events to data-model tokens. It keeps
/// what the mapping needs from token to token, so that a token costs no
/// allocation and takes no lock once its name has been seen. Its string
/// window holds the queued tokens' strings alone, recycled as the next
/// event is queued, so a consumer resolves a token's strings before
/// pulling past it.
struct EventTokens {
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
    fn new(names: Arc<NamePool>) -> Self {
        EventTokens {
            names,
            memo: Vec::new(),
            text: TextWindow::default(),
            queue: VecDeque::new(),
        }
    }

    fn names(&self) -> &Arc<NamePool> {
        &self.names
    }

    fn str(&self, id: StrId) -> &str {
        self.text.get(id)
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn pop(&mut self) -> Option<Token> {
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
    fn push(&mut self, ev: &XmlEvent<'_>) -> bool {
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

impl TokenResolve for Tokenizer<'_> {
    fn pooled_str(&self, id: StrId) -> Cow<'_, str> {
        Cow::Borrowed(self.tokens.str(id))
    }

    fn names(&self) -> &Arc<NamePool> {
        self.tokens.names()
    }
}

/// A whole document's tokens; an incremental tokenizer's tokens so far.
impl TokenIterator for Tokenizer<'_> {
    fn next_token(&mut self) -> Result<Option<Token>> {
        self.poll_token()
    }

    fn skip_subtree(&mut self) -> Result<usize> {
        if !self.last_opened {
            return Ok(0);
        }
        // No links in a live parse: consume tokens, tracking depth. Still
        // avoids handing content to the consumer.
        let mut depth = 1usize;
        let mut skipped = 0usize;
        while let Some(t) = self.poll_token()? {
            skipped += 1;
            if t.opens() {
                depth += 1;
            } else if t.closes() {
                depth -= 1;
                if depth == 0 {
                    self.last_opened = false;
                    break;
                }
            }
        }
        Ok(skipped)
    }
}

impl TokenStream {
    /// Materialize a whole XML document into a token stream.
    pub fn from_xml(input: &str, names: Arc<NamePool>) -> Result<TokenStream> {
        let mut it = Tokenizer::new(input, names.clone());
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
    use xqr_xdm::{ErrorCode, Limits};

    const DOC: &str =
        r#"<order id="4711"><date>2003-08-19</date><lineitem xmlns="www.boo.com"/></order>"#;

    fn render(t: &Token, r: &impl TokenResolve) -> String {
        match t {
            Token::StartDocument => "SD".into(),
            Token::EndDocument => "ED".into(),
            Token::StartElement(n) => format!("SE({})", r.name(*n)),
            Token::EndElement => "EE".into(),
            Token::Attribute(n, v) => format!("A({}={})", r.name(*n), r.pooled_str(*v)),
            Token::NamespaceDecl(p, u) => {
                format!("NS({}={})", r.pooled_str(*p), r.pooled_str(*u))
            }
            Token::Text(s) => format!("T({})", r.pooled_str(*s)),
            Token::Comment(c) => format!("C({})", r.pooled_str(*c)),
            Token::ProcessingInstruction(n, d) => {
                format!("PI({} {})", r.name(*n), r.pooled_str(*d))
            }
        }
    }

    fn whole_tokens(doc: &str) -> Vec<String> {
        let mut it = Tokenizer::new(doc, Arc::new(NamePool::new()));
        let mut out = Vec::new();
        while let Some(t) = it.next_token().unwrap() {
            out.push(render(&t, &it));
        }
        out
    }

    fn chunked_tokens(doc: &str, chunk: usize) -> Vec<String> {
        let mut t = Tokenizer::incremental(Arc::new(NamePool::new()));
        let mut out = Vec::new();
        for c in doc.as_bytes().chunks(chunk.max(1)) {
            t.feed(c).unwrap();
            while let Some(tok) = t.poll_token().unwrap() {
                out.push(render(&tok, &t));
            }
        }
        t.finish().unwrap();
        while let Some(tok) = t.poll_token().unwrap() {
            out.push(render(&tok, &t));
        }
        out
    }

    /// Drain until the first error.
    fn first_error(t: &mut Tokenizer<'_>) -> Error {
        loop {
            match t.poll_token() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("should fail before the end"),
                Err(e) => break e,
            }
        }
    }

    #[test]
    fn parser_iterator_yields_talk_example_tokens() {
        // The talk's "Example Token Stream" slide, minus schema types.
        let kinds: Vec<String> = whole_tokens(DOC)
            .into_iter()
            .map(|t| t.split('(').next().unwrap().to_string())
            .collect();
        assert_eq!(
            kinds,
            vec!["SD", "SE", "A", "SE", "T", "EE", "SE", "NS", "EE", "EE", "ED"]
        );
    }

    #[test]
    fn chunks_equal_the_whole_string_at_any_size() {
        let want = whole_tokens(DOC);
        for chunk in [1, 2, 3, 7, 16, DOC.len()] {
            assert_eq!(chunked_tokens(DOC, chunk), want, "chunk size {chunk}");
        }
    }

    #[test]
    fn the_former_names_build_the_one_tokenizer() {
        let mut pull = ParserTokenIterator::new(DOC, Arc::new(NamePool::new()));
        let mut push = PushTokenizer::new(Arc::new(NamePool::new()));
        push.feed(DOC.as_bytes()).unwrap();
        push.finish().unwrap();
        assert_eq!(drain(&mut pull).unwrap(), 11);
        assert_eq!(drain(&mut push).unwrap(), 11);
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
        let mut it = Tokenizer::new(&doc, names);
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
        let mut it = Tokenizer::new("<a><b><c/><d/></b><e/></a>", names);
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
        let mut it = Tokenizer::new("<a><b/></a>", names);
        assert_eq!(drain(&mut it).unwrap(), 6);
    }

    #[test]
    fn errors_are_sticky() {
        let mut t = Tokenizer::incremental(Arc::new(NamePool::new()));
        t.feed(b"<a></b>").unwrap();
        let e1 = first_error(&mut t);
        assert_eq!(t.poll_token().unwrap_err(), e1);
        assert!(t.feed(b"<more/>").is_err());
        assert_eq!(t.finish().unwrap_err(), e1);

        let mut t = Tokenizer::new("<a></b>", Arc::new(NamePool::new()));
        let e1 = first_error(&mut t);
        assert_eq!(t.next_token().unwrap_err(), e1);
    }

    #[test]
    fn guarded_iterator_charges_every_token_including_skips() {
        let names = Arc::new(NamePool::new());
        let guard = QueryGuard::unlimited();
        let mut it = Tokenizer::new("<a><b><c/><d/></b><e/></a>", names).guarded(guard.clone());
        it.next_token().unwrap(); // SD
        it.next_token().unwrap(); // <a>
        it.next_token().unwrap(); // <b>
        it.skip_subtree().unwrap(); // 5 tokens consumed internally
        assert_eq!(guard.usage().tokens, 8);

        // And a tight budget trips mid-stream with the stable code,
        // whole or chunked, on a shared guard or on fresh limits.
        let limits = Limits::unlimited().with_max_tokens(3);
        let budget = || QueryGuard::new(limits);
        let names = Arc::new(NamePool::new());
        let mut it = Tokenizer::new("<a><b/><c/></a>", names.clone()).guarded(budget());
        assert_eq!(first_error(&mut it).code, ErrorCode::Limit);
        let mut it = Tokenizer::new("<a><b/><c/></a>", names.clone()).limited(limits);
        assert_eq!(first_error(&mut it).code, ErrorCode::Limit);
        let mut t = Tokenizer::incremental(names).guarded(budget());
        t.feed(b"<a><b/><c/></a>").unwrap();
        t.finish().unwrap();
        assert_eq!(first_error(&mut t).code, ErrorCode::Limit);
    }
}
