//! The materialized document store: struct-of-arrays in preorder, with
//! containment labels *(start, end, level)* on every node.
//!
//! This is the engine's "tree" half: the TokenStream is the wire/scan
//! representation, the store is what path navigation, document-order
//! comparison and structural joins run against. The node index *is* the
//! preorder/start position, so document order is an integer comparison
//! and the `(start, end)` interval test decides ancestorship in O(1) —
//! the labeling scheme behind the structural-join literature the talk
//! surveys (Al-Khalifa et al.).

use std::any::Any;
use std::sync::{Arc, OnceLock};
use xqr_tokenstream::{StringPool, Token, TokenIterator, TokenResolve, Tokenizer};
use xqr_xdm::{Error, NameId, NamePool, NodeKind, QName, Result};
use xqr_xmlparse::{TreeWriter, WriterOptions, XmlWriter};

/// Identifies a document within a [`crate::store::Store`].
///
/// An id is the slot the document occupies plus the store-wide sequence
/// number it was created under. The sequence number does two jobs. It
/// is the *generation check*: the store reuses the slot once nothing
/// holds its document any more (see `Store::lease_document`), and an id
/// of the earlier occupant fails the comparison with the slot's current
/// one instead of silently resolving to the wrong document. And it
/// is the *order*: ids compare by creation, never by slot, so the data
/// model's cross-document order is "older document first" for the life
/// of the store — a node constructed by a query always follows the
/// input documents it is unioned with, whichever freed slots the two
/// landed in.
///
/// The 64-bit sequence is held as two `u32` halves, high first, so the
/// derived field-order comparison is the numeric one while the id stays
/// 4-aligned (a [`crate::store::NodeRef`] is 16 bytes, not 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId {
    created_hi: u32,
    created_lo: u32,
    index: u32,
}

impl DocId {
    pub(crate) fn new(index: u32, created: u64) -> Self {
        DocId {
            created_hi: (created >> 32) as u32,
            created_lo: created as u32,
            index,
        }
    }

    /// The slot index within the store (stable while the document lives).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The store-wide creation sequence number: unique per document,
    /// increasing in load order, and what ids are ordered by.
    pub fn created(&self) -> u64 {
        (self.created_hi as u64) << 32 | self.created_lo as u64
    }
}

/// A node within one document: its preorder index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

pub const NO_NODE: u32 = u32::MAX;

/// A fully built, immutable document.
pub struct Document {
    pub names: Arc<NamePool>,
    kinds: Vec<NodeKind>,
    node_names: Vec<NameId>,
    parents: Vec<u32>,
    next_siblings: Vec<u32>,
    first_children: Vec<u32>,
    /// Index of the last node in this node's subtree (containment `end`;
    /// == own index for leaves).
    subtree_ends: Vec<u32>,
    levels: Vec<u16>,
    /// Pooled content: text of text/comment nodes, value of attributes,
    /// data of PIs, uri of namespace nodes. `NO_NODE` when absent.
    values: Vec<u32>,
    strings: StringPool,
    /// Set-once side data that lives exactly as long as the document:
    /// the structural index `xqr-index` builds (this crate cannot name
    /// its type).
    attachment: OnceLock<Box<dyn Any + Send + Sync>>,
    /// Base URI (document-uri); informational.
    pub uri: Option<String>,
}

impl Document {
    /// Parse XML text into a document (streaming through tokens).
    pub fn parse(input: &str, names: Arc<NamePool>) -> Result<Arc<Document>> {
        Self::parse_with_uri(input, names, None)
    }

    /// Parse with a document URI attached (for `fn:doc` lookup).
    pub fn parse_with_uri(
        input: &str,
        names: Arc<NamePool>,
        uri: Option<&str>,
    ) -> Result<Arc<Document>> {
        let mut it = Tokenizer::new(input, names.clone());
        Self::from_tokens_with_uri(&mut it, names, uri)
    }

    /// Guarded parse: the token pull charges `guard`'s token budget and
    /// the underlying reader enforces its depth/document-size limits.
    pub(crate) fn parse_guarded(
        input: &str,
        names: Arc<NamePool>,
        uri: Option<&str>,
        guard: &xqr_xdm::QueryGuard,
    ) -> Result<Arc<Document>> {
        let mut it = Tokenizer::new(input, names.clone()).guarded(guard.clone());
        Self::from_tokens_with_uri(&mut it, names, uri)
    }

    /// Build from any token iterator.
    pub fn from_tokens(it: &mut dyn TokenIterator, names: Arc<NamePool>) -> Result<Arc<Document>> {
        Self::from_tokens_with_uri(it, names, None)
    }

    pub(crate) fn from_tokens_with_uri(
        it: &mut dyn TokenIterator,
        names: Arc<NamePool>,
        uri: Option<&str>,
    ) -> Result<Arc<Document>> {
        let mut b = DocumentBuilder::new(names);
        if let Some(u) = uri {
            b = b.with_uri(u);
        }
        while let Some(t) = it.next_token()? {
            b.push_token(t, &*it);
        }
        b.finish()
    }

    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The document node (root of the tree). Every document has one.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.0 as usize]
    }

    pub fn name_id(&self, n: NodeId) -> NameId {
        self.node_names[n.0 as usize]
    }

    /// The node's name, borrowed from the pool's lock-free read side.
    pub fn name(&self, n: NodeId) -> Option<&QName> {
        let id = self.name_id(n);
        if id.is_none() && !self.kind(n).is_named() {
            None
        } else {
            Some(self.names.resolve(id))
        }
    }

    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parents[n.0 as usize];
        (p != NO_NODE).then_some(NodeId(p))
    }

    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        let c = self.first_children[n.0 as usize];
        (c != NO_NODE).then_some(NodeId(c))
    }

    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        let s = self.next_siblings[n.0 as usize];
        (s != NO_NODE).then_some(NodeId(s))
    }

    /// Containment label start (== preorder index).
    pub fn start(&self, n: NodeId) -> u32 {
        n.0
    }

    /// Containment label end: index of the last descendant.
    pub fn end(&self, n: NodeId) -> u32 {
        self.subtree_ends[n.0 as usize]
    }

    pub fn level(&self, n: NodeId) -> u16 {
        self.levels[n.0 as usize]
    }

    /// O(1) ancestorship via interval containment: is `a` an ancestor of `d`?
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        a.0 < d.0 && d.0 <= self.subtree_ends[a.0 as usize]
    }

    /// Raw content of a leaf-ish node (text, comment, PI data, attribute
    /// value, namespace uri).
    pub fn value(&self, n: NodeId) -> Option<&str> {
        let v = self.values[n.0 as usize];
        (v != NO_NODE).then(|| self.strings.get(xqr_tokenstream::StrId(v)))
    }

    /// `string-value` accessor: concatenated descendant text for
    /// elements/documents, content otherwise.
    pub fn string_value(&self, n: NodeId) -> String {
        match self.kind(n) {
            NodeKind::Element | NodeKind::Document => {
                let mut out = String::new();
                let end = self.end(n);
                let mut i = n.0 + 1;
                while i <= end {
                    if self.kinds[i as usize] == NodeKind::Text {
                        if let Some(v) = self.value(NodeId(i)) {
                            out.push_str(v);
                        }
                    }
                    i += 1;
                }
                out
            }
            _ => self.value(n).unwrap_or("").to_string(),
        }
    }

    /// All element node ids in document order.
    pub fn all_elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32)
            .map(NodeId)
            .filter(|&n| self.kind(n) == NodeKind::Element)
    }

    /// Attributes of an element: the Attribute/Namespace nodes stored
    /// directly after it.
    pub fn attributes(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut i = n.0 + 1;
        let len = self.len() as u32;
        std::iter::from_fn(move || {
            while i < len {
                let k = self.kinds[i as usize];
                if k == NodeKind::Attribute {
                    let id = NodeId(i);
                    i += 1;
                    return Some(id);
                } else if k == NodeKind::Namespace {
                    i += 1;
                    continue;
                }
                break;
            }
            None
        })
    }

    /// Namespace nodes of an element.
    pub(crate) fn namespaces(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut i = n.0 + 1;
        let len = self.len() as u32;
        std::iter::from_fn(move || {
            if i < len && self.kinds[i as usize] == NodeKind::Namespace {
                let id = NodeId(i);
                i += 1;
                return Some(id);
            }
            None
        })
    }

    /// Look up an attribute by name.
    pub fn attribute(&self, n: NodeId, name: &QName) -> Option<NodeId> {
        self.attributes(n).find(|&a| self.name(a) == Some(name))
    }

    /// Heap bytes the document holds: its arrays' capacities and its
    /// string pool (allocator overhead aside). What the catalog budget
    /// and the memory ledger charge; the representation experiment
    /// compares it against DOM and TokenStream figures.
    pub fn memory_bytes(&self) -> usize {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        heap(&self.kinds)
            + heap(&self.node_names)
            + heap(&self.parents)
            + heap(&self.next_siblings)
            + heap(&self.first_children)
            + heap(&self.subtree_ends)
            + heap(&self.levels)
            + heap(&self.values)
            + self.strings.memory_bytes()
    }

    /// The document's attachment, if one was set.
    pub fn attachment(&self) -> Option<&(dyn Any + Send + Sync)> {
        self.attachment.get().map(|a| &**a)
    }

    /// Set the attachment; `false` (and `value` dropped) if one was
    /// already set.
    pub fn attach(&self, value: Box<dyn Any + Send + Sync>) -> bool {
        self.attachment.set(value).is_ok()
    }

    /// Borrowed view of the struct-of-arrays, for serialization into a
    /// durable segment. Node id == array index throughout.
    pub fn raw_parts(&self) -> DocParts<'_> {
        DocParts {
            kinds: &self.kinds,
            node_names: &self.node_names,
            parents: &self.parents,
            next_siblings: &self.next_siblings,
            first_children: &self.first_children,
            subtree_ends: &self.subtree_ends,
            levels: &self.levels,
            values: &self.values,
            strings: &self.strings,
            uri: self.uri.as_deref(),
        }
    }

    /// Reassemble a document from deserialized arrays (the segment load
    /// path — skips parsing entirely). Validates the cross-array
    /// invariants that later accessors index on without bounds checks,
    /// so a logic error in a segment reader surfaces here as a coded
    /// error rather than a panic mid-query.
    pub fn from_raw_parts(names: Arc<NamePool>, parts: DocPartsOwned) -> Result<Arc<Document>> {
        let n = parts.kinds.len();
        if parts.node_names.len() != n
            || parts.parents.len() != n
            || parts.next_siblings.len() != n
            || parts.first_children.len() != n
            || parts.subtree_ends.len() != n
            || parts.levels.len() != n
            || parts.values.len() != n
        {
            return Err(Error::value("document arrays disagree on length"));
        }
        let n32 = n as u32;
        let in_range = |v: u32| v == NO_NODE || v < n32;
        let pool_len = parts.strings.len() as u32;
        let name_len = names.len() as u32;
        for i in 0..n {
            if !in_range(parts.parents[i])
                || !in_range(parts.next_siblings[i])
                || !in_range(parts.first_children[i])
                || parts.subtree_ends[i] >= n32
            {
                return Err(Error::value("document link out of range"));
            }
            let v = parts.values[i];
            if v != NO_NODE && v >= pool_len {
                return Err(Error::value("document value id out of range"));
            }
            if parts.node_names[i].0 >= name_len {
                return Err(Error::value("document name id out of range"));
            }
        }
        Ok(Arc::new(Document {
            names,
            kinds: parts.kinds,
            node_names: parts.node_names,
            parents: parts.parents,
            next_siblings: parts.next_siblings,
            first_children: parts.first_children,
            subtree_ends: parts.subtree_ends,
            levels: parts.levels,
            values: parts.values,
            strings: parts.strings,
            attachment: OnceLock::new(),
            uri: parts.uri,
        }))
    }

    /// Serialize the subtree rooted at `n` back to XML text.
    pub fn serialize_node(&self, n: NodeId) -> String {
        let mut w = XmlWriter::new(WriterOptions::default());
        self.write_subtree(n, &mut w);
        w.into_string()
    }

    /// Write the subtree rooted at `n` into `w`: the one tree walk
    /// behind serialization, pretty-printing and the deep copy a
    /// constructor makes of an enclosed node. A document node writes
    /// its children; an attribute or namespace node writes itself, which
    /// a writer with no element open takes as a standalone node.
    pub fn write_subtree<W: TreeWriter + ?Sized>(&self, n: NodeId, w: &mut W) {
        match self.kind(n) {
            NodeKind::Document => self.write_children(n, w),
            NodeKind::Element => {
                w.start_element(self.name(n).expect("elements are named"));
                for ns in self.namespaces(n) {
                    w.namespace(
                        self.name(ns).map_or("", |q| q.local_name()),
                        self.value(ns).unwrap_or(""),
                    );
                }
                for a in self.attributes(n) {
                    w.attribute(
                        self.name(a).expect("attributes are named"),
                        self.value(a).unwrap_or(""),
                    );
                }
                self.write_children(n, w);
                w.end_element();
            }
            NodeKind::Text => w.text(self.value(n).unwrap_or("")),
            NodeKind::Comment => w.comment(self.value(n).unwrap_or("")),
            NodeKind::ProcessingInstruction => {
                w.pi(
                    self.name(n).map_or("", |q| q.local_name()),
                    self.value(n).unwrap_or(""),
                );
            }
            NodeKind::Attribute => w.attribute(
                self.name(n).expect("attributes are named"),
                self.value(n).unwrap_or(""),
            ),
            NodeKind::Namespace => w.namespace(
                self.name(n).map_or("", |q| q.local_name()),
                self.value(n).unwrap_or(""),
            ),
        }
    }

    fn write_children<W: TreeWriter + ?Sized>(&self, n: NodeId, w: &mut W) {
        let mut c = self.first_child(n);
        while let Some(ch) = c {
            self.write_subtree(ch, w);
            c = self.next_sibling(ch);
        }
    }
}

impl std::fmt::Debug for Document {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Document({} nodes)", self.len())
    }
}

/// Borrowed struct-of-arrays view of a document (see
/// [`Document::raw_parts`]).
pub struct DocParts<'a> {
    pub kinds: &'a [NodeKind],
    pub node_names: &'a [NameId],
    pub parents: &'a [u32],
    pub next_siblings: &'a [u32],
    pub first_children: &'a [u32],
    pub subtree_ends: &'a [u32],
    pub levels: &'a [u16],
    pub values: &'a [u32],
    pub strings: &'a StringPool,
    pub uri: Option<&'a str>,
}

/// Owned struct-of-arrays for reassembly (see
/// [`Document::from_raw_parts`]).
pub struct DocPartsOwned {
    pub kinds: Vec<NodeKind>,
    pub node_names: Vec<NameId>,
    pub parents: Vec<u32>,
    pub next_siblings: Vec<u32>,
    pub first_children: Vec<u32>,
    pub subtree_ends: Vec<u32>,
    pub levels: Vec<u16>,
    pub values: Vec<u32>,
    pub strings: StringPool,
    pub uri: Option<String>,
}

/// Streaming builder producing the struct-of-arrays representation.
pub struct DocumentBuilder {
    doc: DocumentParts,
    /// Stack of open nodes (document + elements).
    open: Vec<u32>,
    /// Per open node: last child pushed (to wire next_sibling).
    last_child: Vec<u32>,
    started: bool,
}

struct DocumentParts {
    names: Arc<NamePool>,
    kinds: Vec<NodeKind>,
    node_names: Vec<NameId>,
    parents: Vec<u32>,
    next_siblings: Vec<u32>,
    first_children: Vec<u32>,
    subtree_ends: Vec<u32>,
    levels: Vec<u16>,
    values: Vec<u32>,
    strings: StringPool,
    uri: Option<String>,
}

impl DocumentBuilder {
    pub fn new(names: Arc<NamePool>) -> Self {
        DocumentBuilder {
            doc: DocumentParts {
                names,
                kinds: Vec::new(),
                node_names: Vec::new(),
                parents: Vec::new(),
                next_siblings: Vec::new(),
                first_children: Vec::new(),
                subtree_ends: Vec::new(),
                levels: Vec::new(),
                values: Vec::new(),
                strings: StringPool::new(),
                uri: None,
            },
            open: Vec::new(),
            last_child: Vec::new(),
            started: false,
        }
    }

    /// Name the document under construction (its `document-uri`).
    pub fn with_uri(mut self, uri: impl Into<String>) -> Self {
        self.doc.uri = Some(uri.into());
        self
    }

    /// `value`: the node's pooled content, `NO_NODE` for none.
    fn push_node(&mut self, kind: NodeKind, name: NameId, value: u32) -> u32 {
        let idx = self.doc.kinds.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_NODE);
        self.doc.kinds.push(kind);
        self.doc.node_names.push(name);
        self.doc.parents.push(parent);
        self.doc.next_siblings.push(NO_NODE);
        self.doc.first_children.push(NO_NODE);
        self.doc.subtree_ends.push(idx);
        self.doc.levels.push(self.open.len() as u16);
        self.doc.values.push(value);
        // Attribute/namespace nodes attach to the parent but do not chain
        // into the child list.
        let is_attrish = matches!(kind, NodeKind::Attribute | NodeKind::Namespace);
        if parent != NO_NODE && !is_attrish {
            let last = self.last_child.last_mut().expect("open stack in sync");
            if *last == NO_NODE {
                self.doc.first_children[parent as usize] = idx;
            } else {
                self.doc.next_siblings[*last as usize] = idx;
            }
            *last = idx;
        }
        idx
    }

    /// Add one token, its ids resolved through `src`, the source that
    /// produced it: the one token-to-node mapping every document built
    /// from tokens goes through.
    pub fn push_token<R: TokenResolve + ?Sized>(&mut self, tok: Token, src: &R) {
        match tok {
            Token::StartDocument => self.start_document(),
            Token::EndDocument | Token::EndElement => self.end(),
            Token::StartElement(n) => self.start_element_id(n),
            Token::Attribute(n, v) => self.attribute_id(n, &src.pooled_str(v)),
            Token::NamespaceDecl(p, u) => self.namespace(&src.pooled_str(p), &src.pooled_str(u)),
            Token::Text(s) => self.text(&src.pooled_str(s)),
            Token::Comment(s) => self.comment(&src.pooled_str(s)),
            Token::ProcessingInstruction(n, d) => {
                self.pi(src.name(n).local_name(), &src.pooled_str(d))
            }
        }
    }

    pub fn start_document(&mut self) {
        if !self.started {
            self.started = true;
            let idx = self.push_node(NodeKind::Document, NameId::NONE, NO_NODE);
            self.open.push(idx);
            self.last_child.push(NO_NODE);
        }
    }

    pub(crate) fn start_element(&mut self, name: &QName) {
        let id = self.doc.names.intern(name);
        self.start_element_id(id);
    }

    pub(crate) fn start_element_id(&mut self, name: NameId) {
        self.start_document();
        let idx = self.push_node(NodeKind::Element, name, NO_NODE);
        self.open.push(idx);
        self.last_child.push(NO_NODE);
    }

    /// Close the innermost open node (element or document).
    pub(crate) fn end(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.last_child.pop();
            let end = (self.doc.kinds.len() as u32).saturating_sub(1);
            self.doc.subtree_ends[idx as usize] = end;
        }
    }

    pub(crate) fn attribute(&mut self, name: &QName, value: &str) {
        let id = self.doc.names.intern(name);
        self.attribute_id(id, value);
    }

    pub(crate) fn attribute_id(&mut self, name: NameId, value: &str) {
        let value = self.doc.strings.intern(value).0;
        self.push_node(NodeKind::Attribute, name, value);
    }

    pub(crate) fn namespace(&mut self, prefix: &str, uri: &str) {
        let id = self.doc.names.intern(&QName::local(prefix));
        let uri = self.doc.strings.intern(uri).0;
        self.push_node(NodeKind::Namespace, id, uri);
    }

    pub(crate) fn text(&mut self, content: &str) {
        self.start_document();
        // Adjacent text nodes merge, per the data model.
        if let Some(&last) = self.last_child.last() {
            if last != NO_NODE
                && self.doc.kinds[last as usize] == NodeKind::Text
                && last == (self.doc.kinds.len() as u32 - 1)
            {
                let merged = format!(
                    "{}{}",
                    self.doc
                        .strings
                        .get(xqr_tokenstream::StrId(self.doc.values[last as usize])),
                    content
                );
                self.doc.values[last as usize] = self.doc.strings.intern(&merged).0;
                return;
            }
        }
        let content = self.doc.strings.intern(content).0;
        self.push_node(NodeKind::Text, NameId::NONE, content);
    }

    pub(crate) fn comment(&mut self, content: &str) {
        self.start_document();
        let content = self.doc.strings.intern(content).0;
        self.push_node(NodeKind::Comment, NameId::NONE, content);
    }

    pub(crate) fn pi(&mut self, target: &str, data: &str) {
        self.start_document();
        let id = self.doc.names.intern(&QName::local(target));
        let data = self.doc.strings.intern(data).0;
        self.push_node(NodeKind::ProcessingInstruction, id, data);
    }

    pub fn finish(mut self) -> Result<Arc<Document>> {
        if !self.started {
            self.start_document();
            self.open.pop();
            self.last_child.pop();
        }
        // Close anything left open (incl. the document node).
        while !self.open.is_empty() {
            if self.open.len() == 1 {
                self.end();
            } else {
                return Err(Error::internal(
                    "document builder finished with open elements",
                ));
            }
        }
        // A finished document only reads: it keeps no growth slack and
        // no interning map, so it holds (and is charged) what a segment
        // reload of it holds.
        let mut d = self.doc;
        d.kinds.shrink_to_fit();
        d.node_names.shrink_to_fit();
        d.levels.shrink_to_fit();
        for links in [
            &mut d.parents,
            &mut d.next_siblings,
            &mut d.first_children,
            &mut d.subtree_ends,
            &mut d.values,
        ] {
            links.shrink_to_fit();
        }
        d.strings.freeze();
        Ok(Arc::new(Document {
            names: d.names,
            kinds: d.kinds,
            node_names: d.node_names,
            parents: d.parents,
            next_siblings: d.next_siblings,
            first_children: d.first_children,
            subtree_ends: d.subtree_ends,
            levels: d.levels,
            values: d.values,
            strings: d.strings,
            attachment: OnceLock::new(),
            uri: d.uri,
        }))
    }
}

/// Deep copy: a subtree written into a builder becomes part of the
/// document under construction.
impl TreeWriter for DocumentBuilder {
    fn start_element(&mut self, name: &QName) {
        DocumentBuilder::start_element(self, name)
    }

    fn namespace(&mut self, prefix: &str, uri: &str) {
        DocumentBuilder::namespace(self, prefix, uri)
    }

    fn attribute(&mut self, name: &QName, value: &str) {
        DocumentBuilder::attribute(self, name, value)
    }

    fn end_element(&mut self) {
        self.end()
    }

    fn text(&mut self, text: &str) {
        DocumentBuilder::text(self, text)
    }

    fn comment(&mut self, text: &str) {
        DocumentBuilder::comment(self, text)
    }

    fn pi(&mut self, target: &str, data: &str) {
        DocumentBuilder::pi(self, target, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(xml: &str) -> Arc<Document> {
        Document::parse(xml, Arc::new(NamePool::new())).unwrap()
    }

    #[test]
    fn a_finished_document_charges_what_it_holds() {
        let body: String = (0..200).map(|i| format!("<e a='v{i}'>t{i}</e>")).collect();
        let xml = format!("<r>{body}</r>");
        let names = Arc::new(NamePool::new());
        let mut it = Tokenizer::new(&xml, names.clone());
        let mut b = DocumentBuilder::new(names);
        while let Some(t) = it.next_token().unwrap() {
            b.push_token(t, &it);
        }
        let interning = b.doc.strings.memory_bytes();
        let d = b.finish().unwrap();
        // `finish` drops the pool's interning map, a slot per string.
        let map = d.strings.len() * std::mem::size_of::<(Arc<str>, xqr_tokenstream::StrId)>();
        assert!(interning - d.strings.memory_bytes() >= map);
        // Every array slot, every pooled string and its `Arc` header.
        let slot = std::mem::size_of::<NodeKind>() + std::mem::size_of::<NameId>() + 4 * 5 + 2;
        let strings = d.strings.len() * (16 + std::mem::size_of::<Arc<str>>());
        let floor = d.len() * slot + d.strings.payload_bytes() + strings;
        assert!(d.memory_bytes() >= floor, "{} < {floor}", d.memory_bytes());
    }

    #[test]
    fn builds_structure() {
        let d = doc(
            r#"<book year="1967"><title>The politics of experience</title><author>R.D. Laing</author></book>"#,
        );
        // document + book + @year + title + text + author + text
        assert_eq!(d.len(), 7);
        let root = d.root();
        assert_eq!(d.kind(root), NodeKind::Document);
        let book = d.first_child(root).unwrap();
        assert_eq!(d.name(book).unwrap().local_name(), "book");
        let title = d.first_child(book).unwrap();
        assert_eq!(d.name(title).unwrap().local_name(), "title");
        let author = d.next_sibling(title).unwrap();
        assert_eq!(d.name(author).unwrap().local_name(), "author");
        assert!(d.next_sibling(author).is_none());
    }

    #[test]
    fn attributes_are_not_children() {
        let d = doc(r#"<a x="1" y="2"><b/></a>"#);
        let a = d.first_child(d.root()).unwrap();
        let attrs: Vec<_> = d.attributes(a).collect();
        assert_eq!(attrs.len(), 2);
        let b = d.first_child(a).unwrap();
        assert_eq!(d.name(b).unwrap().local_name(), "b");
        assert_eq!(d.value(attrs[0]), Some("1"));
        assert_eq!(d.parent(attrs[0]), Some(a));
    }

    #[test]
    fn containment_labels() {
        let d = doc("<a><b><c/></b><e/></a>");
        let a = d.first_child(d.root()).unwrap();
        let b = d.first_child(a).unwrap();
        let c = d.first_child(b).unwrap();
        let e = d.next_sibling(b).unwrap();
        assert!(d.is_ancestor(a, b));
        assert!(d.is_ancestor(a, c));
        assert!(d.is_ancestor(b, c));
        assert!(!d.is_ancestor(b, e));
        assert!(!d.is_ancestor(c, b));
        assert!(!d.is_ancestor(a, a));
        assert_eq!(d.level(a), 1);
        assert_eq!(d.level(c), 3);
        assert_eq!(d.end(a), e.0);
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let d = doc("<s>The great <title>P</title> facts</s>");
        let s = d.first_child(d.root()).unwrap();
        assert_eq!(d.string_value(s), "The great P facts");
    }

    #[test]
    fn adjacent_texts_merge() {
        let d = doc("<a>x<![CDATA[y]]>z</a>");
        let a = d.first_child(d.root()).unwrap();
        let t = d.first_child(a).unwrap();
        assert_eq!(d.kind(t), NodeKind::Text);
        assert_eq!(d.value(t), Some("xyz"));
        assert!(d.next_sibling(t).is_none());
    }

    #[test]
    fn serialize_roundtrip() {
        let xml = r#"<a x="1"><b>hi &amp; low</b><!--c--><?p d?></a>"#;
        let d = doc(xml);
        assert_eq!(d.serialize_node(d.root()), xml);
    }

    #[test]
    fn namespace_nodes_kept() {
        let d = doc(r#"<a xmlns:p="urn:p"><p:b/></a>"#);
        let a = d.first_child(d.root()).unwrap();
        let ns: Vec<_> = d.namespaces(a).collect();
        assert_eq!(ns.len(), 1);
        assert_eq!(d.value(ns[0]), Some("urn:p"));
        assert_eq!(
            d.serialize_node(d.root()),
            r#"<a xmlns:p="urn:p"><p:b/></a>"#
        );
    }

    #[test]
    fn attribute_lookup() {
        let d = doc(r#"<a year="1967"/>"#);
        let a = d.first_child(d.root()).unwrap();
        let y = d.attribute(a, &QName::local("year")).unwrap();
        assert_eq!(d.value(y), Some("1967"));
        assert!(d.attribute(a, &QName::local("nope")).is_none());
    }
}
