//! Node construction — the side-effecting operation of XQuery.
//!
//! A constructor writes its node into a tree target, and *which* target
//! decides whether the node gets an identity. Handed the reply
//! ([`crate::Reply`]) or an enclosing constructor's content
//! ([`Content`]), it writes its tags, attributes and content straight
//! into that writer and never exists as a node of its own: nothing can
//! bind, navigate or compare it. Anywhere else — a variable binding, a
//! path or ddo input, a function argument, a comparison operand, an
//! `order by` tuple — it mints a fresh store document, giving the node
//! the new identity those consumers can observe ("XML does not allow cut
//! and paste", as the talk's LET-folding slide puts it). The paper's
//! on-demand node identity is exactly this: identity is built only where
//! something will look at it.
//!
//! Content assembly follows the spec in one place, [`Content`], whatever
//! the target: attribute items must precede everything else and may not
//! repeat a name, adjacent atomic values join with a single space into
//! one text node, and enclosed nodes are deep-copied with
//! [`xqr_store::Document::write_subtree`].

use crate::env::ExecState;
use crate::eval::{Evaluator, Flow, Sink};
use crate::value::{atomize, Item};
use xqr_compiler::Core;
use xqr_store::{DocumentBuilder, NodeId, NodeRef};
use xqr_xdm::{Error, ErrorCode, NodeKind, QName, Result};
use xqr_xmlparse::TreeWriter;

/// A sink that takes constructed nodes as tree writes instead of as
/// items (see [`Sink::tree`]).
pub trait NodeTarget {
    /// Admit one node of `kind` — an attribute named `attr` — under this
    /// target's content rules, and hand back the writer it goes into.
    fn open(&mut self, kind: NodeKind, attr: Option<&QName>) -> Result<&mut dyn TreeWriter>;
    /// The node opened last is complete.
    fn close(&mut self, st: &mut ExecState) -> Result<()>;
}

/// Element or document content assembled item by item into a tree
/// writer: the [`Sink`] an element or document constructor evaluates its
/// content into, and the [`NodeTarget`] nested constructors write into.
pub(crate) struct Content<'w> {
    out: &'w mut dyn TreeWriter,
    /// Still in the leading-attribute phase (element content only).
    attributes_open: bool,
    /// Attribute names written so far, for the duplicate check.
    seen: Vec<QName>,
    /// Adjacent atomic values not yet written, joined by spaces.
    atoms: Option<String>,
}

impl<'w> Content<'w> {
    pub(crate) fn element(out: &'w mut dyn TreeWriter) -> Self {
        Content {
            out,
            attributes_open: true,
            seen: Vec::new(),
            atoms: None,
        }
    }

    pub(crate) fn document(out: &'w mut dyn TreeWriter) -> Self {
        Content {
            attributes_open: false,
            ..Content::element(out)
        }
    }

    /// End of content: write a trailing atomic run.
    pub(crate) fn finish(mut self) {
        self.flush_atoms();
    }

    fn flush_atoms(&mut self) {
        if let Some(run) = self.atoms.take() {
            if !run.is_empty() {
                self.out.text(&run);
            }
        }
    }

    fn admit(&mut self, kind: NodeKind, attr: Option<&QName>) -> Result<()> {
        self.flush_atoms();
        if kind != NodeKind::Attribute {
            self.attributes_open = false;
            return Ok(());
        }
        if !self.attributes_open {
            return Err(Error::new(
                ErrorCode::InvalidConstructor,
                "attribute node follows non-attribute content",
            ));
        }
        let name = attr.expect("attributes are named");
        if self.seen.contains(name) {
            return Err(Error::new(
                ErrorCode::DuplicateAttribute,
                format!("duplicate attribute {name}"),
            ));
        }
        self.seen.push(name.clone());
        Ok(())
    }
}

impl Sink for Content<'_> {
    fn accept(&mut self, _ev: &Evaluator<'_>, st: &mut ExecState, item: Item) -> Result<Flow> {
        match item {
            Item::Atomic(v) => {
                self.attributes_open = false;
                let s = v.string_value();
                match &mut self.atoms {
                    Some(run) => {
                        run.push(' ');
                        run.push_str(&s);
                    }
                    None => self.atoms = Some(s),
                }
            }
            Item::Node(n) => {
                let doc = st.leases.document(n.doc);
                let kind = doc.kind(n.node);
                let name = if kind == NodeKind::Attribute {
                    doc.name(n.node)
                } else {
                    None
                };
                self.admit(kind, name)?;
                doc.write_subtree(n.node, self.out);
            }
        }
        Ok(Flow::More)
    }

    fn tree(&mut self) -> Option<&mut dyn NodeTarget> {
        Some(self)
    }
}

impl NodeTarget for Content<'_> {
    fn open(&mut self, kind: NodeKind, attr: Option<&QName>) -> Result<&mut dyn TreeWriter> {
        self.admit(kind, attr)?;
        Ok(&mut *self.out)
    }

    fn close(&mut self, _st: &mut ExecState) -> Result<()> {
        Ok(())
    }
}

/// A constructor with its name and, for the leaf kinds, its value
/// evaluated and validated — everything that can fail before the node is
/// admitted to its target.
enum Ctor<'e> {
    Element {
        name: QName,
        namespaces: &'e [(Option<String>, String)],
        content: &'e [Core],
    },
    Document(&'e Core),
    Attribute(QName, String),
    Text(String),
    Comment(String),
    Pi(QName, String),
}

impl Ctor<'_> {
    fn kind(&self) -> NodeKind {
        match self {
            Ctor::Element { .. } => NodeKind::Element,
            Ctor::Document(_) => NodeKind::Document,
            Ctor::Attribute(..) => NodeKind::Attribute,
            Ctor::Text(_) => NodeKind::Text,
            Ctor::Comment(_) => NodeKind::Comment,
            Ctor::Pi(..) => NodeKind::ProcessingInstruction,
        }
    }
}

/// Evaluate the constructor `e` into `sink`: written straight into the
/// sink's tree when it has one, minted as a store document otherwise.
/// Every constructor kind is counted here, streamed or stored.
#[inline(never)]
pub(crate) fn construct(
    ev: &Evaluator<'_>,
    e: &Core,
    st: &mut ExecState,
    sink: &mut dyn Sink,
) -> Result<Flow> {
    let Some(ctor) = prepare(ev, e, st)? else {
        return Ok(Flow::More);
    };
    let counters = &ev.counters;
    counters
        .nodes_constructed
        .set(counters.nodes_constructed.get() + 1);
    let kind = ctor.kind();
    if let Some(target) = sink.tree() {
        let attr = match &ctor {
            Ctor::Attribute(name, _) => Some(name),
            _ => None,
        };
        let out = target.open(kind, attr)?;
        write(ev, ctor, st, out)?;
        target.close(st)?;
        return Ok(Flow::More);
    }
    let mut b = DocumentBuilder::new(st.store.names().clone());
    b.start_document();
    write(ev, ctor, st, &mut b)?;
    let id = st.hold(st.store.lease_document(b.finish()?));
    let root = if kind == NodeKind::Document {
        NodeId(0)
    } else {
        NodeId(1)
    };
    sink.accept(ev, st, Item::Node(NodeRef::new(id, root)))
}

/// Resolve and evaluate what the constructor needs before it writes.
/// `None` for a text constructor over the empty sequence, whose result
/// is the empty sequence.
fn prepare<'e>(ev: &Evaluator<'_>, e: &'e Core, st: &mut ExecState) -> Result<Option<Ctor<'e>>> {
    Ok(Some(match e {
        Core::ElemCtor {
            name,
            namespaces,
            content,
        } => Ctor::Element {
            name: canonical(ev.resolve_ctor_name(name, st)?, st),
            namespaces,
            content,
        },
        Core::DocCtor(inner) => Ctor::Document(inner),
        Core::AttrCtor { name, value } => {
            let name = canonical(ev.resolve_ctor_name(name, st)?, st);
            let value = attribute_value(ev, value, st)?;
            if name.local_name() == "xmlns" {
                return Err(Error::new(
                    ErrorCode::InvalidConstructor,
                    "cannot construct an attribute named xmlns",
                ));
            }
            Ctor::Attribute(name, value)
        }
        Core::TextCtor(inner) => {
            let items = ev.eval(inner, st)?;
            if items.is_empty() {
                return Ok(None);
            }
            Ctor::Text(joined(&items, st)?)
        }
        Core::CommentCtor(inner) => {
            let items = ev.eval(inner, st)?;
            let content = joined(&items, st)?;
            if content.contains("--") || content.ends_with('-') {
                return Err(Error::new(
                    ErrorCode::InvalidConstructor,
                    "comment content must not contain '--' or end with '-'",
                ));
            }
            Ctor::Comment(content)
        }
        Core::PiCtor { target, value } => {
            let target = ev.resolve_ctor_name(target, st)?;
            let items = ev.eval(value, st)?;
            let content = joined(&items, st)?;
            if target.local_name().eq_ignore_ascii_case("xml") {
                return Err(Error::new(
                    ErrorCode::InvalidConstructor,
                    "PI target 'xml' is reserved",
                ));
            }
            if content.contains("?>") {
                return Err(Error::new(
                    ErrorCode::InvalidConstructor,
                    "PI content must not contain '?>'",
                ));
            }
            Ctor::Pi(target, content)
        }
        other => return Err(Error::internal(format!("not a constructor: {other:?}"))),
    }))
}

/// Write the constructor's node into `out`, evaluating element and
/// document content through a [`Content`] sink over the same writer.
fn write(
    ev: &Evaluator<'_>,
    ctor: Ctor<'_>,
    st: &mut ExecState,
    out: &mut dyn TreeWriter,
) -> Result<()> {
    match ctor {
        Ctor::Element {
            name,
            namespaces,
            content,
        } => {
            out.start_element(&name);
            for (prefix, uri) in namespaces {
                out.namespace(prefix.as_deref().unwrap_or(""), uri);
            }
            let mut sink = Content::element(out);
            for part in content {
                ev.push(part, st, &mut sink)?;
            }
            sink.finish();
            out.end_element();
        }
        Ctor::Document(content) => {
            let mut sink = Content::document(out);
            ev.push(content, st, &mut sink)?;
            sink.finish();
        }
        Ctor::Attribute(name, value) => out.attribute(&name, &value),
        Ctor::Text(content) => out.text(&content),
        Ctor::Comment(content) => out.comment(&content),
        Ctor::Pi(target, content) => out.pi(target.local_name(), &content),
    }
    Ok(())
}

/// The store's spelling of `name`. Names compare by namespace and local
/// part, so the pool keeps the prefix it saw first; a stored node
/// serializes under that prefix, and a streamed one must too.
fn canonical(name: QName, st: &ExecState) -> QName {
    if name.namespace().is_none() {
        return name;
    }
    let names = st.store.names();
    names.resolve(names.intern(&name)).clone()
}

/// An attribute's value: literal template pieces concatenate directly,
/// enclosed pieces atomize and join with spaces.
fn attribute_value(ev: &Evaluator<'_>, parts: &[Core], st: &mut ExecState) -> Result<String> {
    let mut s = String::new();
    for part in parts {
        match part {
            Core::Const(v) => s.push_str(&v.string_value()),
            other => {
                let items = ev.eval(other, st)?;
                for (j, v) in atomize(&items, &st.leases)?.iter().enumerate() {
                    if j > 0 {
                        s.push(' ');
                    }
                    s.push_str(&v.string_value());
                }
            }
        }
    }
    Ok(s)
}

/// The string values of the atomized items, joined by single spaces.
fn joined(items: &[Item], st: &ExecState) -> Result<String> {
    Ok(atomize(items, &st.leases)?
        .iter()
        .map(|v| v.string_value())
        .collect::<Vec<_>>()
        .join(" "))
}
