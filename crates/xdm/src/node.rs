//! The seven node kinds of the XQuery data model.
//!
//! The node *kind* vocabulary is shared by every layer (parser events,
//! tokens, the store, kind tests in path steps), so it lives here at the
//! bottom of the crate graph. Actual node storage is `xqr-store`'s job.

use std::fmt;

/// `document | element | attribute | text | namespace | PI | comment` —
/// the seven kinds from the data-model slides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    Document,
    Element,
    Attribute,
    Text,
    Namespace,
    ProcessingInstruction,
    Comment,
}

impl NodeKind {
    /// The `node-kind` accessor string from the data-model slides.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            NodeKind::Document => "document",
            NodeKind::Element => "element",
            NodeKind::Attribute => "attribute",
            NodeKind::Text => "text",
            NodeKind::Namespace => "namespace",
            NodeKind::ProcessingInstruction => "processing-instruction",
            NodeKind::Comment => "comment",
        }
    }

    /// Kinds that carry a name.
    pub fn is_named(self) -> bool {
        matches!(
            self,
            NodeKind::Element
                | NodeKind::Attribute
                | NodeKind::Namespace
                | NodeKind::ProcessingInstruction
        )
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_properties() {
        assert!(NodeKind::Element.is_named());
        assert!(NodeKind::ProcessingInstruction.is_named());
        assert!(!NodeKind::Text.is_named());
        assert_eq!(
            NodeKind::ProcessingInstruction.as_str(),
            "processing-instruction"
        );
    }
}
