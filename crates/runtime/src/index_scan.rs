//! Answering `Core::IndexScan` patterns from a document's structural
//! index.
//!
//! The compiler's access-path selection guarantees the pattern is a pure
//! existence path/twig over named element/attribute steps, so the answer
//! is computable exactly from the index's tag/path inverted lists:
//!
//! * **linear** patterns are pure path-dictionary lookups — the matching
//!   path-id set selects a document-ordered sublist, no join at all;
//! * **branching** patterns run the holistic twig join from `xqr-joins`
//!   over per-node lists that are first path-filtered by each node's
//!   root chain (which also enforces the root edge `/a` vs `//a` that
//!   the join itself does not check). The join runs on the query's
//!   own thread and polls its guard as it goes.
//!
//! `Ok(None)` means "cannot answer here" — no context node, unknown
//! document, or no index attached — and the caller falls back to the
//! navigational plan. `Err` is a real execution error (cancellation,
//! deadline) and aborts the query;
//! falling back on those would mask the embedder's budget.
//!
//! Batch execution threads a [`ScanCache`] through [`ExecState`]: the
//! path-filtered list for a given (document, name, root chain) is built
//! once and shared by every query in the batch that touches it.

use crate::env::ExecState;
use crate::eval::Counters;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use xqr_compiler::access::{AccessAnchor, AccessEdge, AccessPattern};
use xqr_index::{index_on, DocIndex, PathStep};
use xqr_joins::{guard_tick, twig_stack_on, EdgeKind, Labeled, TwigPattern};
use xqr_parallel::lock_recover;
use xqr_store::{DocId, NodeRef};
use xqr_xdm::{NameId, Result};

fn map_edge(e: AccessEdge) -> EdgeKind {
    match e {
        AccessEdge::Child => EdgeKind::Child,
        AccessEdge::Descendant => EdgeKind::Descendant,
    }
}

/// One inverted-list scan, as cached across a batch: the document, the
/// step name, whether the step is an attribute, and the full root chain
/// that path-filters the list. Two queries producing the same key get
/// byte-identical lists, so sharing is sound.
type ScanKey = (DocId, NameId, bool, Vec<PathStep>);

/// Shared inverted-list scans for batch execution. One instance lives
/// for the duration of one `query_batch` call; queries in
/// the batch probe it before rebuilding a path-filtered list from the
/// index. Thread-safe so batch legs running on the service pool can
/// share one cache.
#[derive(Default)]
pub struct ScanCache {
    map: Mutex<HashMap<ScanKey, Arc<Vec<Labeled>>>>,
}

impl ScanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a scan, building and inserting it on miss (the builder
    /// receives the key's root chain). Counts a hit into `counters` only
    /// when the list was already present.
    fn get_or_build_keyed(
        &self,
        key: ScanKey,
        counters: &Counters,
        build: impl FnOnce(&[PathStep]) -> Vec<Labeled>,
    ) -> Arc<Vec<Labeled>> {
        if let Some(hit) = lock_recover(&self.map).get(&key).cloned() {
            counters
                .scan_cache_hits
                .set(counters.scan_cache_hits.get() + 1);
            return hit;
        }
        // Build outside the lock: list construction can be expensive and
        // concurrent batch legs must not serialize on it. Two racing
        // builders produce identical lists, so last-insert-wins is fine.
        let built = Arc::new(build(&key.3));
        lock_recover(&self.map).insert(key, built.clone());
        built
    }
}

/// Build (or fetch from the batch cache) the path-filtered inverted
/// list for pattern node `i`.
fn node_list(
    pattern: &AccessPattern,
    names: &[NameId],
    i: usize,
    doc_id: DocId,
    index: &DocIndex,
    st: &ExecState,
    counters: &Counters,
) -> Arc<Vec<Labeled>> {
    let n = &pattern.nodes[i];
    let chain = chain_to(pattern, names, i);
    let build = |chain: &[PathStep]| {
        if n.attribute {
            let (&(edge, name), owner_steps) = chain.split_last().expect("node i");
            index.linear_attributes(owner_steps, edge, name)
        } else {
            index.linear_elements(chain)
        }
    };
    match &st.scan_cache {
        Some(cache) => {
            let key = (doc_id, names[i], n.attribute, chain);
            cache.get_or_build_keyed(key, counters, build)
        }
        None => Arc::new(build(&chain)),
    }
}

/// Try to answer `pattern` from an attached index. `Ok(None)` = fall
/// back to navigation; `Err` = real execution error, abort the query.
pub(crate) fn try_index_scan(
    pattern: &AccessPattern,
    st: &mut ExecState,
    counters: &Counters,
) -> Result<Option<Vec<NodeRef>>> {
    // Resolve the anchored document.
    let doc_id = match &pattern.anchor {
        AccessAnchor::ContextRoot => match st.context_item().ok().and_then(|i| i.as_node()) {
            Some(node) => node.doc,
            None => return Ok(None),
        },
        // The execution's memo: the document `fn:doc(uri)` reads too.
        AccessAnchor::Doc(uri) => match st.doc(uri) {
            Ok(id) => id,
            Err(_) => return Ok(None),
        },
    };
    // The execution leases the document it scans: read its index there.
    let Some(index) = index_on(st.leases.document(doc_id)) else {
        return Ok(None);
    };

    // Resolve pattern names against the shared pool. A name that was
    // never interned occurs in no document, so the answer is exactly
    // empty — still an index hit.
    let names: Option<Vec<NameId>> = pattern
        .nodes
        .iter()
        .map(|n| st.store.names().get(&n.name))
        .collect();
    let Some(names) = names else {
        return Ok(Some(Vec::new()));
    };

    let nodes = if pattern.is_linear() {
        answer_linear(pattern, &names, doc_id, index, st, counters)
    } else {
        answer_twig(pattern, &names, doc_id, index, st, counters)?
    };
    Ok(Some(
        nodes.into_iter().map(|n| NodeRef::new(doc_id, n)).collect(),
    ))
}

/// Root-to-`i` chain of `(edge, name)` steps.
fn chain_to(pattern: &AccessPattern, names: &[NameId], i: usize) -> Vec<PathStep> {
    let mut steps = Vec::new();
    let mut cur = Some(i);
    while let Some(c) = cur {
        steps.push((map_edge(pattern.nodes[c].edge), names[c]));
        cur = pattern.nodes[c].parent;
    }
    steps.reverse();
    steps
}

fn answer_linear(
    pattern: &AccessPattern,
    names: &[NameId],
    doc_id: DocId,
    index: &DocIndex,
    st: &ExecState,
    counters: &Counters,
) -> Vec<xqr_store::NodeId> {
    let labels = node_list(pattern, names, pattern.output, doc_id, index, st, counters);
    labels.iter().map(|l| l.node).collect()
}

fn answer_twig(
    pattern: &AccessPattern,
    names: &[NameId],
    doc_id: DocId,
    index: &DocIndex,
    st: &ExecState,
    counters: &Counters,
) -> Result<Vec<xqr_store::NodeId>> {
    // Mirror the pattern as a TwigPattern (selection guarantees parents
    // precede children, and node 0 is the trunk root).
    let mut twig = TwigPattern::path(
        map_edge(pattern.nodes[0].edge),
        &[(map_edge(pattern.nodes[0].edge), names[0])],
    );
    for (i, n) in pattern.nodes.iter().enumerate().skip(1) {
        let parent = n.parent.expect("non-root pattern nodes have parents");
        let idx = twig.add_child(parent, map_edge(n.edge), names[i]);
        debug_assert_eq!(idx, i);
    }

    // Per-node input lists, path-filtered by each node's root chain.
    // The filter is a necessary condition (any witness's root path must
    // match), shrinks the join input, and enforces the root edge.
    let lists: Vec<Arc<Vec<Labeled>>> = (0..pattern.nodes.len())
        .map(|i| node_list(pattern, names, i, doc_id, index, st, counters))
        .collect();

    let slices: Vec<&[Labeled]> = lists.iter().map(|l| l.as_slice()).collect();
    let (tuples, _) = twig_stack_on(&twig, &slices, &mut guard_tick(&st.guard))?;
    let mut out: Vec<xqr_store::NodeId> =
        tuples.iter().map(|tuple| tuple[pattern.output]).collect();
    out.sort();
    out.dedup();
    Ok(out)
}
