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
//! * [`ParserTokenIterator`] — SAX-parser-as-TokenIterator (streaming);
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

mod adapter;
mod buffer;
pub mod encode;
mod iterator;
mod pool;
mod push;
mod stream;
mod token;

pub use adapter::{tokens_to_xml, ParserTokenIterator};
pub use buffer::BufferFactory;
pub use encode::{decode, encode};
pub use iterator::{drain, TokenIterator, TokenResolve};
pub use pool::StringPool;
pub use push::PushTokenizer;
pub use stream::TokenStream;
pub use token::{StrId, Token};
