//! The dynamic context (the talk's "dynamic context" slide: external
//! variable values, current item/position/size, current date and time,
//! implicit timezone, available documents) and the evaluator's variable
//! frame.

use crate::value::{Item, Sequence};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use xqr_compiler::VarId;
use xqr_store::{DocId, Document, Lease, NodeRef, Store};
use xqr_xdm::{DateTime, Error, ErrorCode, QName, QueryGuard, Result, TzOffset};

/// Values for the dynamic context, supplied by the application.
///
/// `Clone` so a caller can retry a failed submission with the same
/// bindings: every field is plain data (sequences are `Arc`-backed).
#[derive(Clone)]
pub struct DynamicContext {
    /// External variable bindings by name.
    pub variables: HashMap<QName, Sequence>,
    /// The initial context item (`.` at the top level).
    pub context_item: Option<Item>,
    /// `fn:current-dateTime()` — fixed for the whole execution, per spec.
    pub current_datetime: DateTime,
    /// Implicit timezone in minutes.
    pub implicit_timezone: TzOffset,
    /// XML texts available to `fn:doc`, by URI, for URIs the engine's
    /// [`DocumentMap`] does not name (parsed on demand, once per
    /// execution).
    pub documents: HashMap<String, String>,
    /// Default collection (`fn:collection()` with no args).
    pub default_collection: Vec<NodeRef>,
}

impl DynamicContext {
    /// An empty context.
    ///
    /// This sits on the service layer's per-request hot path (one fresh
    /// context per query), so it must stay allocation-free: empty
    /// `HashMap`s and `Vec`s defer their first allocation to the first
    /// insert, and every other field is plain data. Keep it that way —
    /// anything that needs to allocate belongs in a builder method, not
    /// here.
    pub fn new() -> Self {
        DynamicContext {
            variables: HashMap::new(),
            context_item: None,
            current_datetime: DateTime {
                year: 2004,
                month: 9,
                day: 14,
                hour: 0,
                minute: 0,
                second: 0,
                millis: 0,
                tz: Some(0),
            },
            implicit_timezone: 0,
            documents: HashMap::new(),
            default_collection: Vec::new(),
        }
    }

    pub fn bind_variable(&mut self, name: QName, value: Sequence) -> &mut Self {
        self.variables.insert(name, value);
        self
    }

    pub fn with_context_item(mut self, item: Item) -> Self {
        self.context_item = Some(item);
        self
    }

    pub fn add_document(&mut self, uri: impl Into<String>, xml: impl Into<String>) -> &mut Self {
        self.documents.insert(uri.into(), xml.into());
        self
    }
}

impl Default for DynamicContext {
    fn default() -> Self {
        Self::new()
    }
}

/// The available documents by name: the one place a document has a
/// name. The embedder owns it (the engine's own map, or the service's
/// catalog); the store only holds slots. `fn:doc` asks it once per URI
/// per execution.
pub trait DocumentMap: Send + Sync {
    /// Parse `xml` and name it `uri`. A version the name had before is
    /// un-named; it lives on only while a reader still leases it.
    fn put(&self, uri: &str, xml: &str) -> Result<DocId>;

    /// A lease on the document named `uri`; `Ok(None)` when the name is
    /// absent. An error (a quarantined segment's `XQRL0006`, say)
    /// propagates to the query.
    fn resolve(&self, uri: &str) -> Result<Option<Lease>>;
}

/// The variable frame: register file with save/restore semantics so a
/// register can be reused by sibling scopes (function inlining reuses
/// parameter registers).
pub struct Frame {
    slots: Vec<Option<Arc<Sequence>>>,
}

impl Frame {
    pub(crate) fn new(size: u32) -> Self {
        Frame {
            slots: vec![None; size as usize],
        }
    }

    pub(crate) fn get(&self, var: VarId) -> Result<Arc<Sequence>> {
        self.slots
            .get(var.0 as usize)
            .and_then(|s| s.clone())
            .ok_or_else(|| {
                Error::new(
                    ErrorCode::UndefinedName,
                    format!("unbound register ${}", var.0),
                )
            })
    }

    /// Bind a register, returning the previous value for restoration.
    pub(crate) fn bind(&mut self, var: VarId, value: Arc<Sequence>) -> Option<Arc<Sequence>> {
        let slot = &mut self.slots[var.0 as usize];
        slot.replace(value)
    }

    pub(crate) fn restore(&mut self, var: VarId, saved: Option<Arc<Sequence>>) {
        self.slots[var.0 as usize] = saved;
    }

    /// Grow to cover registers added by the optimizer.
    pub(crate) fn ensure(&mut self, size: u32) {
        if self.slots.len() < size as usize {
            self.slots.resize(size as usize, None);
        }
    }
}

/// The focus: context item, position and size (the talk's "current item,
/// current position and size").
#[derive(Debug, Clone)]
pub struct Focus {
    pub item: Item,
    pub position: i64,
    /// Context size; `None` when unknown (streaming filters compute it
    /// only when `last()` is used).
    pub size: Option<i64>,
}

/// The documents one execution reads, by store slot. Every node the
/// execution meets resolves here: a lookup is an index and an id
/// compare, with no lock and no count another thread touches. Two live
/// documents never share a slot, so one entry per slot suffices; the
/// id check catches a node of a document the table does not hold.
#[derive(Default)]
pub struct LeaseTable {
    /// `Rc` so a step can keep reading a document while the execution
    /// holds more ([`LeaseTable::pin`]): a count private to this thread.
    slots: Vec<Option<Rc<Lease>>>,
}

impl LeaseTable {
    /// A table holding `leases`.
    pub fn new(leases: impl IntoIterator<Item = Lease>) -> Self {
        let mut table = LeaseTable::default();
        for lease in leases {
            table.hold(lease);
        }
        table
    }

    /// Hold `lease`; a document already held keeps its first lease.
    fn hold(&mut self, lease: Lease) {
        let i = lease.id.index() as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, None);
        }
        match &self.slots[i] {
            Some(held) => assert_eq!(held.id, lease.id, "two live documents in one slot"),
            None => self.slots[i] = Some(Rc::new(lease)),
        }
    }

    fn entry(&self, id: DocId) -> Option<&Rc<Lease>> {
        self.slots
            .get(id.index() as usize)?
            .as_ref()
            .filter(|held| held.id == id)
    }

    fn holds(&self, id: DocId) -> bool {
        self.entry(id).is_some()
    }

    /// The lease on `id`. Panics when the table does not hold it: every
    /// node an execution reads comes from a document it leases, so a
    /// miss is a caller bug, never a race.
    fn held(&self, id: DocId) -> &Rc<Lease> {
        self.entry(id).unwrap_or_else(|| {
            panic!("stale DocId {id:?}: the execution holds no lease on the document")
        })
    }

    /// The document `id` names; panics when the table does not hold it.
    pub fn document(&self, id: DocId) -> &Document {
        &self.held(id).doc
    }

    /// [`LeaseTable::document`] as a handle that outlives the borrow of
    /// the table, for a reader that holds more documents as it goes.
    pub(crate) fn pin(&self, id: DocId) -> Rc<Lease> {
        self.held(id).clone()
    }

    fn into_leases(self) -> Vec<Lease> {
        self.slots
            .into_iter()
            .flatten()
            .map(|held| Rc::try_unwrap(held).unwrap_or_else(|held| (*held).clone()))
            .collect()
    }
}

/// Everything the evaluator threads through: the store, the dynamic
/// context, the focus stack and the per-execution resource guard.
pub struct ExecState {
    pub store: Arc<Store>,
    /// What `fn:doc` resolves names through; `None` names nothing.
    documents: Option<Arc<dyn DocumentMap>>,
    pub frame: Frame,
    pub focus: Vec<Focus>,
    /// Resource governance for this execution; `QueryGuard::unlimited()`
    /// when the embedder set no limits.
    pub guard: QueryGuard,
    /// Shared inverted-list scan cache for batch execution: when many
    /// queries run over the same document in one batch, the embedder
    /// installs one cache across all of them so path-filtered list
    /// builds for the same (document, name, root chain) happen once.
    /// `None` (the default) for standalone queries — no overhead.
    pub scan_cache: Option<Arc<crate::index_scan::ScanCache>>,
    /// A lease on every document a node of this execution can come
    /// from: the dynamic context's ([`ExecState::pin_context`]), each
    /// `fn:doc` URI's ([`ExecState::doc`]) and each one a constructor
    /// mints. Nodes are read through it, never through the store.
    /// Replacing, evicting or removing a document elsewhere never frees
    /// one this execution reads; the leases pass to the result
    /// ([`ExecState::take_leases`]) or drop with the state.
    pub(crate) leases: LeaseTable,
    /// `fn:doc`'s memo: URI → the document its first resolution leased.
    by_uri: HashMap<String, DocId>,
    /// Documents this execution resolved: context documents and
    /// `fn:doc` URIs, not constructed documents.
    pub(crate) store_resolutions: u64,
}

impl ExecState {
    pub fn with_guard(store: Arc<Store>, frame_size: u32, guard: QueryGuard) -> Self {
        ExecState {
            store,
            documents: None,
            frame: Frame::new(frame_size),
            focus: Vec::new(),
            guard,
            scan_cache: None,
            leases: LeaseTable::default(),
            by_uri: HashMap::new(),
            store_resolutions: 0,
        }
    }

    /// Resolve `fn:doc` names through `documents`.
    pub fn with_documents(mut self, documents: Arc<dyn DocumentMap>) -> Self {
        self.documents = Some(documents);
        self
    }

    /// Install a shared scan cache (batch execution).
    pub fn with_scan_cache(mut self, cache: Arc<crate::index_scan::ScanCache>) -> Self {
        self.scan_cache = Some(cache);
        self
    }

    /// Lease the document of every node the dynamic context supplies
    /// (context item, variables, default collection). A node whose
    /// document is already gone is `err:FODC0002`.
    pub(crate) fn pin_context(&mut self, ctx: &DynamicContext) -> Result<()> {
        let items = ctx
            .context_item
            .iter()
            .chain(ctx.variables.values().flatten());
        let nodes = items
            .filter_map(Item::as_node)
            .chain(ctx.default_collection.iter().copied());
        for n in nodes {
            if self.leases.holds(n.doc) {
                continue;
            }
            let doc = self.store.try_document(n.doc).ok_or_else(|| {
                Error::new(
                    ErrorCode::DocumentNotFound,
                    format!("the document of context node {n:?} is gone"),
                )
            })?;
            self.store_resolutions += 1;
            self.hold(Lease { id: n.doc, doc });
        }
        Ok(())
    }

    /// The document the [`DocumentMap`] names `uri`: the first call in
    /// this execution leases it, and every later one — `fn:doc` or an
    /// index scan anchored there — reads that same document, whatever
    /// the map names `uri` meanwhile.
    pub(crate) fn doc(&mut self, uri: &str) -> Result<DocId> {
        if let Some(&id) = self.by_uri.get(uri) {
            return Ok(id);
        }
        xqr_faults::faultpoint!("store.read");
        let lease = match &self.documents {
            Some(documents) => documents.resolve(uri)?,
            None => None,
        };
        let lease = lease.ok_or_else(|| {
            Error::new(
                ErrorCode::DocumentNotFound,
                format!("no document available at {uri:?}"),
            )
        })?;
        Ok(self.hold_as(uri, lease))
    }

    /// Hold `lease` for the rest of the execution, as what
    /// [`ExecState::doc`] answers for `uri` from now on.
    pub(crate) fn hold_as(&mut self, uri: &str, lease: Lease) -> DocId {
        self.by_uri.insert(uri.to_string(), lease.id);
        self.store_resolutions += 1;
        self.hold(lease)
    }

    /// Hold `lease` for the rest of the execution.
    pub(crate) fn hold(&mut self, lease: Lease) -> DocId {
        let id = lease.id;
        self.leases.hold(lease);
        id
    }

    /// Hand the leases to whoever keeps the result: the documents its
    /// nodes come from live exactly as long as that holder.
    pub fn take_leases(&mut self) -> Vec<Lease> {
        self.by_uri.clear();
        std::mem::take(&mut self.leases).into_leases()
    }

    pub(crate) fn focus(&self) -> Option<&Focus> {
        self.focus.last()
    }

    pub(crate) fn context_item(&self) -> Result<&Item> {
        self.focus
            .last()
            .map(|f| &f.item)
            .ok_or_else(|| Error::new(ErrorCode::MissingContext, "no context item"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_bind_and_restore() {
        let mut f = Frame::new(2);
        assert!(f.get(VarId(0)).is_err());
        let saved = f.bind(VarId(0), Arc::new(vec![Item::integer(1)]));
        assert_eq!(f.get(VarId(0)).unwrap()[0], Item::integer(1));
        let saved2 = f.bind(VarId(0), Arc::new(vec![Item::integer(2)]));
        assert_eq!(f.get(VarId(0)).unwrap()[0], Item::integer(2));
        f.restore(VarId(0), saved2);
        assert_eq!(f.get(VarId(0)).unwrap()[0], Item::integer(1));
        f.restore(VarId(0), saved);
        assert!(f.get(VarId(0)).is_err());
    }

    #[test]
    fn context_item_error_when_absent() {
        let state = ExecState::with_guard(Store::new(), 0, QueryGuard::unlimited());
        let e = state.context_item().unwrap_err();
        assert_eq!(e.code, ErrorCode::MissingContext);
    }

    #[test]
    fn the_table_reads_what_the_execution_holds() {
        let store = Store::new();
        let lease = store.lease_xml("<a/>", None).unwrap();
        let id = lease.id;
        let mut state = ExecState::with_guard(store.clone(), 0, QueryGuard::unlimited());
        state.hold(lease.clone());
        state.hold(lease);
        assert_eq!(state.leases.document(id).len(), 2);
        assert_eq!(state.take_leases().len(), 1, "one lease per document");
    }

    #[test]
    #[should_panic(expected = "stale DocId")]
    fn a_document_the_execution_does_not_hold_panics() {
        let store = Store::new();
        let other = store.lease_xml("<a/>", None).unwrap();
        let state = ExecState::with_guard(store, 0, QueryGuard::unlimited());
        // Alive in the store, but never leased by this execution.
        state.leases.document(other.id);
    }
}
