//! The buffer iterator factory — the talk's mechanism for common
//! sub-expressions and multiple consumers:
//!
//! "Buffer Iterator Factory ... result of common sub-expression, or
//! multiple occurrences of the same variable" — one upstream iterator is
//! pulled lazily; any number of consumers replay the buffered prefix and
//! extend the buffer on demand. Also demonstrates "materialization +
//! streaming possible": the buffer *is* a materialization point the
//! stream flows through.

use crate::iterator::TokenIterator;
use crate::token::{StrId, Token};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use xqr_xdm::{NameId, QName, Result};

struct Shared<I: TokenIterator> {
    upstream: I,
    buf: Vec<Token>,
    done: bool,
    /// How many tokens were pulled from upstream (== buf.len(); kept for
    /// instrumentation symmetry).
    pulled: usize,
}

impl<I: TokenIterator> Shared<I> {
    /// Ensure the buffer holds at least `n+1` tokens (or upstream is
    /// exhausted); returns the token at `n` if any.
    fn fill_to(&mut self, n: usize) -> Result<Option<Token>> {
        xqr_faults::faultpoint!("tokens.buffer");
        while self.buf.len() <= n && !self.done {
            match self.upstream.next_token()? {
                Some(t) => {
                    self.buf.push(t);
                    self.pulled += 1;
                }
                None => self.done = true,
            }
        }
        Ok(self.buf.get(n).copied())
    }
}

/// Factory handing out any number of replayable consumers of one
/// upstream token source.
pub struct BufferFactory<I: TokenIterator> {
    shared: Rc<RefCell<Shared<I>>>,
}

impl<I: TokenIterator> BufferFactory<I> {
    pub fn new(upstream: I) -> Self {
        BufferFactory {
            shared: Rc::new(RefCell::new(Shared {
                upstream,
                buf: Vec::new(),
                done: false,
                pulled: 0,
            })),
        }
    }

    /// A fresh consumer starting at the beginning of the stream.
    pub fn consumer(&self) -> BufferedIterator<I> {
        BufferedIterator {
            shared: self.shared.clone(),
            pos: 0,
            last: None,
        }
    }

    /// Tokens pulled from upstream so far — the memoization experiment
    /// (E12) asserts this stays at one stream's worth however many
    /// consumers run.
    pub fn upstream_pulled(&self) -> usize {
        self.shared.borrow().pulled
    }
}

/// One consumer's cursor over the shared buffer.
pub struct BufferedIterator<I: TokenIterator> {
    shared: Rc<RefCell<Shared<I>>>,
    pos: usize,
    last: Option<usize>,
}

impl<I: TokenIterator> TokenIterator for BufferedIterator<I> {
    fn next_token(&mut self) -> Result<Option<Token>> {
        let t = self.shared.borrow_mut().fill_to(self.pos)?;
        if t.is_some() {
            self.last = Some(self.pos);
            self.pos += 1;
        }
        Ok(t)
    }

    fn skip_subtree(&mut self) -> Result<usize> {
        let opened = match self.last {
            Some(i) => {
                let shared = self.shared.borrow();
                shared.buf.get(i).map(|t| t.opens()).unwrap_or(false)
            }
            None => false,
        };
        if !opened {
            return Ok(0);
        }
        let mut depth = 1usize;
        let mut skipped = 0usize;
        loop {
            let t = self.shared.borrow_mut().fill_to(self.pos)?;
            let t = match t {
                Some(t) => t,
                None => return Ok(skipped),
            };
            self.pos += 1;
            skipped += 1;
            if t.opens() {
                depth += 1;
            } else if t.closes() {
                depth -= 1;
                if depth == 0 {
                    self.last = None;
                    return Ok(skipped);
                }
            }
        }
    }

    fn pooled_str(&self, id: StrId) -> Arc<str> {
        self.shared.borrow().upstream.pooled_str(id)
    }

    fn name(&self, id: NameId) -> QName {
        self.shared.borrow().upstream.name(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ParserTokenIterator;
    use crate::iterator::drain;
    use xqr_xdm::NamePool;

    const DOC: &str = "<a><b>x</b><c>y</c></a>";

    fn factory(doc: &str) -> BufferFactory<ParserTokenIterator<'_>> {
        BufferFactory::new(ParserTokenIterator::new(doc, Arc::new(NamePool::new())))
    }

    #[test]
    fn two_consumers_share_one_upstream_pass() {
        let f = factory(DOC);
        let mut c1 = f.consumer();
        let mut c2 = f.consumer();
        let n1 = drain(&mut c1).unwrap();
        let n2 = drain(&mut c2).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(f.upstream_pulled(), n1, "upstream read exactly once");
    }

    #[test]
    fn interleaved_consumers_see_identical_streams() {
        let f = factory(DOC);
        let mut c1 = f.consumer();
        let mut c2 = f.consumer();
        loop {
            let a = c1.next_token().unwrap();
            let b = c2.next_token().unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn lazy_fill_only_buffers_what_is_read() {
        let f = factory(DOC);
        let mut c1 = f.consumer();
        c1.next_token().unwrap();
        c1.next_token().unwrap();
        assert_eq!(f.upstream_pulled(), 2);
    }

    #[test]
    fn skip_works_through_buffer() {
        let f = factory(DOC);
        let mut c = f.consumer();
        c.next_token().unwrap(); // SD
        c.next_token().unwrap(); // <a>
        c.next_token().unwrap(); // <b>
        let skipped = c.skip_subtree().unwrap();
        assert_eq!(skipped, 2); // x, </b>
        let t = c.next_token().unwrap().unwrap();
        match t {
            Token::StartElement(n) => assert_eq!(c.name(n).local_name(), "c"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn late_consumer_replays_from_start() {
        let f = factory(DOC);
        let mut c1 = f.consumer();
        drain(&mut c1).unwrap();
        let mut c2 = f.consumer();
        let first = c2.next_token().unwrap().unwrap();
        assert_eq!(first, Token::StartDocument);
    }
}
