//! # xqr-tokenstream — the TokenStream/TokenIterator substrate
//!
//! The paper's central representation decision: an XML data-model
//! instance is "a sequence of tokens/events" (an array), not a tree.
//! This crate provides:
//!
//! * [`Token`]/[`StrId`] — the compact event vocabulary with pooled
//!   strings and interned names (dictionary compression);
//! * [`TokenStream`] — the materialized array with O(1) `skip()` links;
//! * [`TokenIterator`] — the pull interface (`next`/`skip`), the
//!   execution substrate of the whole engine;
//! * [`Tokenizer`] — SAX-parser-as-TokenIterator, over a whole string or
//!   byte chunks as they arrive (streaming);
//! * [`BufferFactory`] — buffered sharing for common sub-expressions and
//!   multiply-used variables;
//! * [`encode()`](encode())/[`decode`] — the binary wire format with pragma-token
//!   dictionary compression (pooled) or naive inlining (unpooled).
//!
//! ```
//! use std::sync::Arc;
//! use xqr_tokenstream::{TokenStream, TokenIterator, Token};
//! use xqr_xdm::NamePool;
//!
//! let s = TokenStream::from_xml("<a><b>x</b><c/></a>", Arc::new(NamePool::new())).unwrap();
//! let mut it = s.iter();
//! it.next_token().unwrap(); // StartDocument
//! it.next_token().unwrap(); // <a>
//! it.next_token().unwrap(); // <b>
//! let skipped = it.skip_subtree().unwrap(); // O(1) jump past </b>
//! assert_eq!(skipped, 2);
//! assert!(matches!(it.next_token().unwrap(), Some(Token::StartElement(_)))); // <c>
//! ```

mod buffer;
pub mod encode;
mod iterator;
mod pool;
mod stream;
mod token;
mod tokenizer;

pub use buffer::BufferFactory;
pub use encode::{decode, encode};
pub use iterator::{drain, TokenIterator, TokenResolve};
pub use pool::StringPool;
pub use stream::TokenStream;
pub use token::{StrId, Token};
pub use tokenizer::{tokens_to_xml, ParserTokenIterator, PushTokenizer, Tokenizer};
