//! Push-mode tokenization: the resumable lexer as a token source.
//!
//! [`PushTokenizer`] is the chunked counterpart of
//! [`ParserTokenIterator`](crate::ParserTokenIterator): callers *push*
//! arbitrary byte chunks in with [`PushTokenizer::feed`] and drain
//! whatever tokens completed with [`PushTokenizer::poll_token`]. Both
//! adapters run the same event→token mapping, so a document fed in
//! chunks produces the exact token sequence (ids aside) the pull
//! adapter produces from the whole string — the invariant the chunked
//! differential oracle enforces.

use crate::adapter::EventTokens;
use crate::iterator::TokenResolve;
use crate::token::{StrId, Token};
use std::borrow::Cow;
use std::sync::Arc;
use xqr_xdm::{Error, NamePool, QueryGuard, Result};
use xqr_xmlparse::XmlReader;

/// Chunk-fed XML tokenizer. Errors are sticky: once `feed`, `finish` or
/// `poll_token` fails, every later call returns the same error — a
/// half-tokenized document must not look like a short valid one.
pub struct PushTokenizer {
    reader: XmlReader<'static>,
    tokens: EventTokens,
    /// EndDocument has been enqueued; the token stream is complete.
    done: bool,
    failed: Option<Error>,
    guard: Option<QueryGuard>,
}

impl PushTokenizer {
    pub fn new(names: Arc<NamePool>) -> Self {
        PushTokenizer {
            reader: XmlReader::incremental(),
            tokens: EventTokens::new(names),
            done: false,
            failed: None,
            guard: None,
        }
    }

    /// Guarded construction: the reader enforces depth/size limits and
    /// every token delivered charges the token budget (which also polls
    /// cancellation and the deadline), mirroring the pull adapter.
    pub fn with_guard(names: Arc<NamePool>, guard: QueryGuard) -> Self {
        let mut t = PushTokenizer::new(names);
        t.reader = XmlReader::incremental().with_guard(guard.clone());
        t.guard = Some(guard);
        t
    }

    fn check_failed(&self) -> Result<()> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn fail<T>(&mut self, e: Error) -> Result<T> {
        self.failed = Some(e.clone());
        Err(e)
    }

    /// Append a chunk of document bytes (any boundary, including inside
    /// a multi-byte UTF-8 sequence). Cheap: no parsing happens here.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<()> {
        self.check_failed()?;
        match self.reader.feed(chunk) {
            Ok(()) => Ok(()),
            Err(e) => self.fail(e),
        }
    }

    /// Declare end-of-input; constructs waiting for more bytes resolve.
    pub fn finish(&mut self) -> Result<()> {
        self.check_failed()?;
        match self.reader.finish() {
            Ok(()) => Ok(()),
            Err(e) => self.fail(e),
        }
    }

    /// Next completed token. `Ok(None)` means either "need more input"
    /// or, after the `EndDocument` token has been delivered, end of
    /// stream.
    pub fn poll_token(&mut self) -> Result<Option<Token>> {
        self.check_failed()?;
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
        let t = self.tokens.pop();
        if t.is_some() {
            if let Some(guard) = &self.guard {
                if let Err(e) = guard.note_tokens(1) {
                    return self.fail(e);
                }
            }
        }
        Ok(t)
    }

    /// Bytes buffered awaiting a complete syntactic unit.
    pub fn buffered_bytes(&self) -> usize {
        self.reader.buffered_bytes()
    }
}

impl TokenResolve for PushTokenizer {
    fn pooled_str(&self, id: StrId) -> Cow<'_, str> {
        Cow::Borrowed(self.tokens.str(id))
    }

    fn names(&self) -> &Arc<NamePool> {
        self.tokens.names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ParserTokenIterator;
    use crate::iterator::TokenIterator;

    const DOC: &str =
        r#"<order id="4711"><date>2003-08-19</date><lineitem xmlns="www.boo.com"/></order>"#;

    fn pull_tokens(doc: &str) -> Vec<String> {
        let names = Arc::new(NamePool::new());
        let mut it = ParserTokenIterator::new(doc, names);
        let mut out = Vec::new();
        while let Some(t) = it.next_token().unwrap() {
            out.push(render(&t, &it));
        }
        out
    }

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

    fn push_tokens(doc: &str, chunk: usize) -> Vec<String> {
        let mut t = PushTokenizer::new(Arc::new(NamePool::new()));
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

    #[test]
    fn push_equals_pull_at_any_chunk_size() {
        let want = pull_tokens(DOC);
        for chunk in [1, 2, 3, 7, 16, DOC.len()] {
            assert_eq!(push_tokens(DOC, chunk), want, "chunk size {chunk}");
        }
    }

    #[test]
    fn errors_are_sticky() {
        let mut t = PushTokenizer::new(Arc::new(NamePool::new()));
        t.feed(b"<a></b>").unwrap();
        let e1 = loop {
            match t.poll_token() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("should fail on mismatched tag"),
                Err(e) => break e,
            }
        };
        let e2 = t.poll_token().unwrap_err();
        assert_eq!(e1, e2);
        assert!(t.feed(b"<more/>").is_err());
    }

    #[test]
    fn token_budget_is_charged() {
        use xqr_xdm::{ErrorCode, Limits};
        let guard = QueryGuard::new(Limits::unlimited().with_max_tokens(3));
        let mut t = PushTokenizer::with_guard(Arc::new(NamePool::new()), guard);
        t.feed(b"<a><b/><c/></a>").unwrap();
        t.finish().unwrap();
        let err = loop {
            match t.poll_token() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("budget should trip before exhaustion"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.code, ErrorCode::Limit);
    }
}
