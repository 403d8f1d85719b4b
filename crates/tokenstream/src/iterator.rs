//! The pull interface — the talk's TokenIterator:
//! "`open()`: prepare execution; `next()`: return next token; `skip()`:
//! skip all tokens until first token of sibling; `close()`: release
//! resources. Conceptually the same as in RDBMS — pull-based — but more
//! fine-grained."
//!
//! In Rust, `open`/`close` map onto construction and drop; `next` and
//! `skip` are the trait methods. Implementations must also resolve pooled
//! ids, because consumers downstream of a pipe only hold the iterator.

use crate::token::{StrId, Token};
use std::borrow::Cow;
use std::sync::Arc;
use xqr_xdm::{NameId, NamePool, QName, Result};

/// A pull source of data-model tokens; its ids resolve through the
/// [`TokenResolve`] half, because consumers downstream of a pipe only
/// hold the iterator.
pub trait TokenIterator: TokenResolve {
    /// Return the next token, or `None` at end of stream.
    fn next_token(&mut self) -> Result<Option<Token>>;

    /// If the most recently returned token opened a subtree, advance past
    /// the matching close and return how many tokens were skipped.
    /// Otherwise a no-op returning 0.
    fn skip_subtree(&mut self) -> Result<usize>;
}

/// Id resolution alone — what every token source offers.
///
/// Consumers handed tokens rather than pulling them (the automaton's
/// resumable run, the document builder) still resolve pooled ids
/// against whatever source produced them. Every `TokenIterator` is a
/// `TokenResolve`.
pub trait TokenResolve {
    /// Resolve a pooled string id from this source, borrowed where the
    /// source can lend it. A streaming source (the tokenizers) reuses
    /// its string storage once the queued tokens are consumed: resolve a
    /// token's strings before pulling the token after it.
    fn pooled_str(&self, id: StrId) -> Cow<'_, str>;

    /// The pool this source interns names into.
    fn names(&self) -> &Arc<NamePool>;

    /// Resolve an interned name id, borrowed from the pool: no refcount
    /// is touched per token.
    fn name(&self, id: NameId) -> &QName {
        self.names().resolve(id)
    }
}

/// Blanket impls so `Box<dyn TokenIterator>` composes.
impl<T: TokenResolve + ?Sized> TokenResolve for Box<T> {
    fn pooled_str(&self, id: StrId) -> Cow<'_, str> {
        (**self).pooled_str(id)
    }

    fn names(&self) -> &Arc<NamePool> {
        (**self).names()
    }
}

impl<T: TokenIterator + ?Sized> TokenIterator for Box<T> {
    fn next_token(&mut self) -> Result<Option<Token>> {
        (**self).next_token()
    }

    fn skip_subtree(&mut self) -> Result<usize> {
        (**self).skip_subtree()
    }
}

/// Drain an iterator, counting tokens (test/bench helper).
pub fn drain(it: &mut dyn TokenIterator) -> Result<usize> {
    let mut n = 0;
    while it.next_token()?.is_some() {
        n += 1;
    }
    Ok(n)
}
