//! The token vocabulary: an XML data-model instance as a flat sequence of
//! small, copyable events — the talk's "array" representation ("each node
//! → sequence of tokens/events; linear representation of XML data;
//! pre-order traversal of the XML tree").
//!
//! Tokens reference pooled strings ([`StrId`]) and interned names
//! ([`NameId`]); the heavy data lives once in the pools (the talk's
//! "pooling: store strings only once — dictionary-based compression").

use xqr_xdm::NameId;

/// Index into a [`crate::pool::StringPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrId(pub u32);

/// One event of the linearized data model. `Copy` and 12 bytes: the whole
/// point of the array representation is that scanning is a tight loop
/// over these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Token {
    StartDocument,
    EndDocument,
    StartElement(NameId),
    /// End of the most recent unmatched `StartElement`.
    EndElement,
    /// Attribute of the immediately preceding `StartElement` (they appear
    /// between the start tag and its first child, like SAX).
    Attribute(NameId, StrId),
    /// Namespace binding on the preceding `StartElement`:
    /// (prefix string, uri string); prefix "" is the default namespace.
    NamespaceDecl(StrId, StrId),
    Text(StrId),
    Comment(StrId),
    /// (target name, data string).
    ProcessingInstruction(NameId, StrId),
}

impl Token {
    /// Does this token open a subtree that a matching `EndElement` /
    /// `EndDocument` closes?
    pub fn opens(self) -> bool {
        matches!(self, Token::StartElement(_) | Token::StartDocument)
    }

    pub fn closes(self) -> bool {
        matches!(self, Token::EndElement | Token::EndDocument)
    }

    /// This token with each string id mapped through `f`: how a token
    /// moves from its source's strings into another pool.
    pub(crate) fn map_strs(self, mut f: impl FnMut(StrId) -> StrId) -> Token {
        match self {
            Token::Attribute(n, v) => Token::Attribute(n, f(v)),
            Token::NamespaceDecl(p, u) => {
                let p = f(p);
                Token::NamespaceDecl(p, f(u))
            }
            Token::Text(s) => Token::Text(f(s)),
            Token::Comment(s) => Token::Comment(f(s)),
            Token::ProcessingInstruction(n, d) => Token::ProcessingInstruction(n, f(d)),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_small() {
        // The array representation's "low overhead" claim rests on this.
        assert!(
            std::mem::size_of::<Token>() <= 12,
            "{}",
            std::mem::size_of::<Token>()
        );
    }

    #[test]
    fn classification() {
        assert!(Token::StartElement(NameId(1)).opens());
        assert!(Token::EndElement.closes());
        assert!(!Token::Text(StrId(0)).opens());
    }
}
