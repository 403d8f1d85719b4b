//! The materialized TokenStream and its O(1)-skip iterator.
//!
//! "Main memory: object representation ... special tokens represent whole
//! sub-trees" — we go one better than a special token: a side array of
//! skip links gives every `StartElement` the index just past its matching
//! `EndElement`, so `skip()` is a single assignment (exercised by
//! experiment E10).

use crate::iterator::{TokenIterator, TokenResolve};
use crate::pool::StringPool;
use crate::token::{StrId, Token};
use std::borrow::Cow;
use std::sync::Arc;
use xqr_xdm::{Error, NameId, NamePool, QName, Result};

/// A fully materialized token sequence with its string pool and the
/// shared name pool it was built against.
pub struct TokenStream {
    pub names: Arc<NamePool>,
    pool: StringPool,
    tokens: Vec<Token>,
    /// `skips[i]` = index just past the subtree opened at `i`
    /// (meaningful only where `tokens[i].opens()`).
    skips: Vec<u32>,
}

impl TokenStream {
    pub(crate) fn builder(names: Arc<NamePool>) -> TokenStreamBuilder {
        TokenStreamBuilder {
            stream: TokenStream {
                names,
                pool: StringPool::new(),
                tokens: Vec::new(),
                skips: Vec::new(),
            },
            open: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    pub fn pool(&self) -> &StringPool {
        &self.pool
    }

    pub(crate) fn get(&self, idx: usize) -> Option<Token> {
        self.tokens.get(idx).copied()
    }

    pub(crate) fn str(&self, id: StrId) -> &str {
        self.pool.get(id)
    }

    pub(crate) fn name(&self, id: NameId) -> &QName {
        self.names.resolve(id)
    }

    /// Index just past the subtree opened at `idx`.
    pub(crate) fn skip_target(&self, idx: usize) -> usize {
        self.skips[idx] as usize
    }

    /// Iterate from the beginning.
    pub fn iter(&self) -> StreamIterator<'_> {
        StreamIterator {
            stream: self,
            pos: 0,
            last: None,
        }
    }

    /// Approximate in-memory footprint in bytes (tokens + pooled strings
    /// + skip links); used by the representation experiment E3.
    pub fn memory_bytes(&self) -> usize {
        self.tokens.len() * std::mem::size_of::<Token>()
            + self.skips.len() * 4
            + self.pool.payload_bytes()
    }
}

impl std::fmt::Debug for TokenStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TokenStream({} tokens, {} pooled strings)",
            self.tokens.len(),
            self.pool.len()
        )
    }
}

/// Incremental builder that maintains the skip links.
pub(crate) struct TokenStreamBuilder {
    stream: TokenStream,
    open: Vec<usize>,
}

impl TokenStreamBuilder {
    pub(crate) fn intern_str(&mut self, s: &str) -> StrId {
        self.stream.pool.intern(s)
    }

    pub(crate) fn intern_name(&mut self, q: &QName) -> NameId {
        self.stream.names.intern(q)
    }

    pub(crate) fn push(&mut self, token: Token) {
        let idx = self.stream.tokens.len();
        self.stream.tokens.push(token);
        self.stream.skips.push(idx as u32 + 1);
        if token.opens() {
            self.open.push(idx);
        } else if token.closes() {
            if let Some(start) = self.open.pop() {
                self.stream.skips[start] = idx as u32 + 1;
            }
        }
    }

    /// Convenience for pushing a text token.
    pub(crate) fn text(&mut self, s: &str) {
        let id = self.intern_str(s);
        self.push(Token::Text(id));
    }

    pub(crate) fn start_element(&mut self, name: &QName) {
        let id = self.intern_name(name);
        self.push(Token::StartElement(id));
    }

    pub(crate) fn attribute(&mut self, name: &QName, value: &str) {
        let n = self.intern_name(name);
        let v = self.intern_str(value);
        self.push(Token::Attribute(n, v));
    }

    pub(crate) fn finish(self) -> Result<TokenStream> {
        if !self.open.is_empty() {
            return Err(Error::internal(
                "unbalanced token stream: unclosed subtrees",
            ));
        }
        Ok(self.stream)
    }
}

/// Iterator over a materialized stream; `skip()` is O(1) via skip links.
pub struct StreamIterator<'s> {
    stream: &'s TokenStream,
    pos: usize,
    /// Index of the token most recently returned (skip applies to it).
    last: Option<usize>,
}

impl<'s> StreamIterator<'s> {}

impl TokenResolve for StreamIterator<'_> {
    fn pooled_str(&self, id: StrId) -> Cow<'_, str> {
        Cow::Borrowed(self.stream.pool.get(id))
    }

    fn names(&self) -> &Arc<NamePool> {
        &self.stream.names
    }
}

impl<'s> TokenIterator for StreamIterator<'s> {
    fn next_token(&mut self) -> Result<Option<Token>> {
        match self.stream.get(self.pos) {
            Some(t) => {
                self.last = Some(self.pos);
                self.pos += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }

    fn skip_subtree(&mut self) -> Result<usize> {
        // Skip from the last-returned opener to just past its close.
        if let Some(last) = self.last {
            if self.stream.tokens[last].opens() {
                let target = self.stream.skip_target(last);
                let skipped = target.saturating_sub(self.pos);
                self.pos = target;
                return Ok(skipped);
            }
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TokenStream {
        // <a><b>x</b><c/></a>
        let mut b = TokenStream::builder(Arc::new(NamePool::new()));
        b.push(Token::StartDocument);
        b.start_element(&QName::local("a"));
        b.start_element(&QName::local("b"));
        b.text("x");
        b.push(Token::EndElement);
        b.start_element(&QName::local("c"));
        b.push(Token::EndElement);
        b.push(Token::EndElement);
        b.push(Token::EndDocument);
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_balanced_stream() {
        let s = sample();
        assert_eq!(s.len(), 9);
        let opens = s.tokens().iter().filter(|t| t.opens()).count();
        let closes = s.tokens().iter().filter(|t| t.closes()).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn unbalanced_stream_fails_finish() {
        let mut b = TokenStream::builder(Arc::new(NamePool::new()));
        b.start_element(&QName::local("a"));
        assert!(b.finish().is_err());
    }

    #[test]
    fn skip_links_point_past_subtree() {
        let s = sample();
        // token 1 is <a>: skip to index 8 (EndDocument)
        assert_eq!(s.skip_target(1), 8);
        // token 2 is <b>: subtree is tokens 2..=4, target 5
        assert_eq!(s.skip_target(2), 5);
        // token 0 is StartDocument: whole stream
        assert_eq!(s.skip_target(0), 9);
    }

    #[test]
    fn iterator_walks_all_tokens() {
        let s = sample();
        let mut it = s.iter();
        let mut count = 0;
        while it.next_token().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 9);
    }

    #[test]
    fn skip_jumps_over_subtree() {
        let s = sample();
        let mut it = s.iter();
        it.next_token().unwrap(); // StartDocument
        it.next_token().unwrap(); // <a>
        let t = it.next_token().unwrap().unwrap(); // <b>
        assert!(matches!(t, Token::StartElement(_)));
        let skipped = it.skip_subtree().unwrap();
        assert_eq!(skipped, 2); // text + EndElement
                                // Next is <c>
        let t = it.next_token().unwrap().unwrap();
        match t {
            Token::StartElement(n) => assert_eq!(s.name(n).local_name(), "c"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn skip_after_non_opener_is_noop() {
        let s = sample();
        let mut it = s.iter();
        it.next_token().unwrap(); // StartDocument
        it.next_token().unwrap(); // <a>
        it.next_token().unwrap(); // <b>
        it.next_token().unwrap(); // text
        assert_eq!(it.skip_subtree().unwrap(), 0);
    }

    #[test]
    fn memory_accounting_reflects_pooling() {
        let mut b = TokenStream::builder(Arc::new(NamePool::new()));
        b.push(Token::StartDocument);
        b.start_element(&QName::local("a"));
        for _ in 0..100 {
            b.text("same-text-repeated");
        }
        b.push(Token::EndElement);
        b.push(Token::EndDocument);
        let s = b.finish().unwrap();
        // 100 text tokens but one pooled payload.
        assert_eq!(s.pool().len(), 1);
        assert!(s.memory_bytes() < 104 * 16 + 100);
    }
}
