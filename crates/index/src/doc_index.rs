//! The per-document structural index: tag/path inverted lists.
//!
//! For every element and attribute QName the index holds a flat,
//! document-ordered array of containment labels [`Labeled`] — exactly
//! the sorted input streams the structural/twig join algorithms in
//! `xqr-joins` consume — plus, in a parallel array, each entry's
//! [`PathId`] into the document's [`PathDict`]. One preorder pass builds
//! everything; lookups are then hash-probe + slice.

use crate::path_dict::{PathDict, PathId, PathStep};
use std::collections::HashMap;
use xqr_joins::{EdgeKind, Labeled};
use xqr_store::{Document, NodeId};
use xqr_xdm::{NameId, NodeKind, QueryGuard, Result};

/// The inverted list for one QName: labels sorted by `start`, with each
/// entry's path id alongside (for elements: the element's own path; for
/// attributes: the *owning element's* path).
#[derive(Debug, Default)]
pub struct Postings {
    labels: Vec<Labeled>,
    paths: Vec<PathId>,
}

impl Postings {
    pub fn labels(&self) -> &[Labeled] {
        &self.labels
    }

    pub fn paths(&self) -> &[PathId] {
        &self.paths
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The path-indexed sublist: entries whose path id is in `keep`
    /// (a membership vector from [`PathDict::matching`]). Preserves
    /// document order.
    pub(crate) fn filtered(&self, keep: &[bool]) -> Vec<Labeled> {
        self.labels
            .iter()
            .zip(&self.paths)
            .filter(|(_, p)| keep.get(p.0 as usize).copied().unwrap_or(false))
            .map(|(l, _)| *l)
            .collect()
    }

    fn push(&mut self, label: Labeled, path: PathId) {
        self.labels.push(label);
        self.paths.push(path);
    }
}

/// Read access to a document's inverted lists, as consumed by the join
/// operators: per-name sorted label streams plus path-filtered views.
///
/// Both the heap-built [`DocIndex`] and the mmap-backed segment view
/// implement this, so every index consumer (scan planner, catalog
/// accounting) works against `Arc<dyn IndexedAccess>` and never learns
/// whether the lists live on the heap or in a mapped file.
pub trait IndexedAccess: Send + Sync {
    /// All elements named `name`, document-ordered. Empty for unknown names.
    fn element_labels(&self, name: NameId) -> &[Labeled];
    /// All attributes named `name`, document-ordered.
    fn attribute_labels(&self, name: NameId) -> &[Labeled];
    /// The document's path dictionary.
    fn path_dict(&self) -> &PathDict;
    /// Elements named `name` restricted to paths in `keep`.
    fn elements_on_paths(&self, name: NameId, keep: &[bool]) -> Vec<Labeled>;
    /// Attributes named `name` whose owner's path is in `keep`.
    fn attributes_on_paths(&self, name: NameId, keep: &[bool]) -> Vec<Labeled>;
    /// Total indexed entries (elements + attributes).
    fn entry_count(&self) -> usize;
    /// Approximate footprint in bytes — heap for built indexes, mapped
    /// bytes for segment views; what the catalog charges its budget.
    fn memory_bytes(&self) -> usize;

    /// Downcast hook for serializers that need the concrete heap-built
    /// index (segment writers walk its postings maps directly). Mapped
    /// views return `None` — they already *are* serialized.
    fn as_doc_index(&self) -> Option<&DocIndex> {
        None
    }

    /// Range cursor: elements named `name` whose `start` label falls in
    /// `[lo, hi]` — the per-morsel window of a label-range-partitioned
    /// parallel join. Binary search over the sorted list; zero-copy.
    fn elements_in_range(&self, name: NameId, lo: u32, hi: u32) -> &[Labeled] {
        xqr_joins::range_by_start(self.element_labels(name), lo, hi)
    }

    /// Range cursor over an attribute inverted list.
    fn attributes_in_range(&self, name: NameId, lo: u32, hi: u32) -> &[Labeled] {
        xqr_joins::range_by_start(self.attribute_labels(name), lo, hi)
    }

    /// Answer a *linear* element pattern (`/a/b`, `//a//b`, …) entirely
    /// from the path dictionary: the result is the path-indexed sublist
    /// of the final step's name, already in document order and distinct.
    /// An empty pattern yields nothing (there is no element at the root
    /// path itself).
    fn linear_elements(&self, steps: &[PathStep]) -> Vec<Labeled> {
        let Some(&(_, last_name)) = steps.last() else {
            return Vec::new();
        };
        self.elements_on_paths(last_name, &self.path_dict().matching(steps))
    }

    /// Answer a linear pattern ending in an attribute step: `owner_steps`
    /// constrain the owning element's path (`attr_edge` says whether the
    /// attribute hangs off the last step directly (`/@a`) or off any
    /// descendant-or-self of it (`//@a`)).
    fn linear_attributes(
        &self,
        owner_steps: &[PathStep],
        attr_edge: EdgeKind,
        attr: NameId,
    ) -> Vec<Labeled> {
        let keep = match attr_edge {
            EdgeKind::Child => self.path_dict().matching(owner_steps),
            EdgeKind::Descendant => self.path_dict().matching_prefix(owner_steps),
        };
        self.attributes_on_paths(attr, &keep)
    }
}

/// The per-document structural index.
#[derive(Debug)]
pub struct DocIndex {
    paths: PathDict,
    elements: HashMap<NameId, Postings>,
    attributes: HashMap<NameId, Postings>,
    entry_count: usize,
    bytes: usize,
}

const EMPTY: &[Labeled] = &[];

impl DocIndex {
    /// Build the index with no resource guard (tests, benches).
    pub fn build(doc: &Document) -> Result<DocIndex> {
        Self::build_guarded(doc, &QueryGuard::unlimited())
    }

    /// Build the index in one guarded preorder pass: every indexed entry
    /// is charged against the guard's item budget and its deadline /
    /// cancellation checks, so a hostile document cannot blow past the
    /// caller's limits during the build.
    pub(crate) fn build_guarded(doc: &Document, guard: &QueryGuard) -> Result<DocIndex> {
        let mut paths = PathDict::new();
        let mut elements: HashMap<NameId, Postings> = HashMap::new();
        let mut attributes: HashMap<NameId, Postings> = HashMap::new();
        let mut entry_count = 0usize;
        // Stack of open subtrees: (subtree end, path id of the element;
        // `None` for the document node).
        let mut stack: Vec<(u32, Option<PathId>)> = Vec::new();
        for i in 0..doc.len() as u32 {
            let n = NodeId(i);
            while let Some(&(end, _)) = stack.last() {
                if end < i {
                    stack.pop();
                } else {
                    break;
                }
            }
            let label = Labeled {
                node: n,
                start: doc.start(n),
                end: doc.end(n),
                level: doc.level(n),
            };
            match doc.kind(n) {
                NodeKind::Document => stack.push((doc.end(n), None)),
                NodeKind::Element => {
                    guard.note_items(1)?;
                    let parent = stack.last().and_then(|&(_, p)| p);
                    let pid = paths.intern(parent, doc.name_id(n));
                    elements.entry(doc.name_id(n)).or_default().push(label, pid);
                    entry_count += 1;
                    stack.push((doc.end(n), Some(pid)));
                }
                NodeKind::Attribute => {
                    guard.note_items(1)?;
                    // Attributes appear immediately inside their owner's
                    // interval, so the stack top is the owning element.
                    let Some(&(_, Some(owner))) = stack.last() else {
                        continue;
                    };
                    attributes
                        .entry(doc.name_id(n))
                        .or_default()
                        .push(label, owner);
                    entry_count += 1;
                }
                _ => {}
            }
        }
        let mut index = DocIndex {
            paths,
            elements,
            attributes,
            entry_count,
            bytes: 0,
        };
        index.bytes = index.compute_bytes();
        Ok(index)
    }

    /// Total indexed entries (elements + attributes).
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Approximate heap footprint — what the catalog charges against its
    /// byte budget.
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    fn compute_bytes(&self) -> usize {
        let per_name = |m: &HashMap<NameId, Postings>| -> usize {
            m.values()
                .map(|p| {
                    p.labels.len() * std::mem::size_of::<Labeled>()
                        + p.paths.len() * std::mem::size_of::<PathId>()
                })
                .sum::<usize>()
                + m.len() * 64 // map entry + Vec headers
        };
        std::mem::size_of::<DocIndex>()
            + self.paths.memory_bytes()
            + per_name(&self.elements)
            + per_name(&self.attributes)
    }

    /// Iterate the element inverted lists (serialization order is
    /// unspecified; segment writers sort by name id for determinism).
    pub fn element_postings(&self) -> impl Iterator<Item = (NameId, &Postings)> {
        self.elements.iter().map(|(n, p)| (*n, p))
    }

    /// Iterate the attribute inverted lists.
    pub fn attribute_postings(&self) -> impl Iterator<Item = (NameId, &Postings)> {
        self.attributes.iter().map(|(n, p)| (*n, p))
    }
}

impl IndexedAccess for DocIndex {
    fn element_labels(&self, name: NameId) -> &[Labeled] {
        self.elements.get(&name).map_or(EMPTY, |p| p.labels())
    }

    fn attribute_labels(&self, name: NameId) -> &[Labeled] {
        self.attributes.get(&name).map_or(EMPTY, |p| p.labels())
    }

    fn path_dict(&self) -> &PathDict {
        &self.paths
    }

    fn elements_on_paths(&self, name: NameId, keep: &[bool]) -> Vec<Labeled> {
        self.elements
            .get(&name)
            .map_or_else(Vec::new, |p| p.filtered(keep))
    }

    fn attributes_on_paths(&self, name: NameId, keep: &[bool]) -> Vec<Labeled> {
        self.attributes
            .get(&name)
            .map_or_else(Vec::new, |p| p.filtered(keep))
    }

    fn entry_count(&self) -> usize {
        self.entry_count
    }

    fn memory_bytes(&self) -> usize {
        self.bytes
    }

    fn as_doc_index(&self) -> Option<&DocIndex> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use xqr_xdm::{Limits, NamePool, QName};

    const DOC: &str = r#"<a k="1"><b><c/></b><c k="2"/><b><d/><c/></b></a>"#;

    fn build() -> (Arc<Document>, DocIndex, Arc<NamePool>) {
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(DOC, names.clone()).unwrap();
        let index = DocIndex::build(&doc).unwrap();
        (doc, index, names)
    }

    fn nid(names: &NamePool, local: &str) -> NameId {
        names.get(&QName::local(local)).unwrap()
    }

    #[test]
    fn inverted_lists_match_document_scan() {
        let (doc, index, names) = build();
        for local in ["a", "b", "c", "d"] {
            let name = nid(&names, local);
            let scan = xqr_joins::element_list(&doc, name);
            assert_eq!(index.element_labels(name), &scan[..], "{local}");
        }
        let k = nid(&names, "k");
        assert_eq!(index.attribute_labels(k).len(), 2);
        assert!(index
            .element_labels(nid(&names, "a"))
            .windows(2)
            .all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn linear_patterns_answer_from_path_dictionary() {
        let (doc, index, names) = build();
        use EdgeKind::{Child, Descendant};
        let (a, b, c) = (nid(&names, "a"), nid(&names, "b"), nid(&names, "c"));
        // //b/c — the two c's under b, not the direct a/c child.
        let r = index.linear_elements(&[(Descendant, b), (Child, c)]);
        assert_eq!(r.len(), 2);
        for l in &r {
            let parent = doc.parent(l.node).unwrap();
            assert_eq!(doc.name_id(parent), b);
        }
        // /a/c — only the direct child.
        let r = index.linear_elements(&[(Child, a), (Child, c)]);
        assert_eq!(r.len(), 1);
        // //a//c — all three.
        assert_eq!(
            index
                .linear_elements(&[(Descendant, a), (Descendant, c)])
                .len(),
            3
        );
        // Unknown name → empty.
        assert!(index.linear_elements(&[(Child, NameId(999))]).is_empty());
    }

    #[test]
    fn attribute_lists_carry_owner_paths() {
        let (doc, index, names) = build();
        use EdgeKind::{Child, Descendant};
        let (a, c, k) = (nid(&names, "a"), nid(&names, "c"), nid(&names, "k"));
        // /a/@k — the root element's attribute only.
        let r = index.linear_attributes(&[(Child, a)], EdgeKind::Child, k);
        assert_eq!(r.len(), 1);
        assert_eq!(doc.parent(r[0].node).map(|p| doc.name_id(p)), Some(a));
        // //c/@k — the c-owned one.
        let r = index.linear_attributes(&[(Descendant, c)], EdgeKind::Child, k);
        assert_eq!(r.len(), 1);
        // //@k (empty owner pattern, descendant edge) — both.
        assert_eq!(
            index.linear_attributes(&[], EdgeKind::Descendant, k).len(),
            2
        );
        // /a//@k — both (owner at or below /a).
        assert_eq!(
            index
                .linear_attributes(&[(Child, a)], EdgeKind::Descendant, k)
                .len(),
            2
        );
    }

    #[test]
    fn range_cursors_slice_the_sorted_lists() {
        let (_doc, index, names) = build();
        let c = nid(&names, "c");
        let all = index.element_labels(c);
        assert_eq!(all.len(), 3);
        // Full window is the whole list, zero-copy.
        let full = index.elements_in_range(c, 0, u32::MAX);
        assert_eq!(full.as_ptr(), all.as_ptr());
        assert_eq!(full.len(), 3);
        // A window covering only the middle entry.
        let mid = index.elements_in_range(c, all[1].start, all[1].start);
        assert_eq!(mid, &all[1..2]);
        // Disjoint window → empty; unknown name → empty.
        assert!(index.elements_in_range(c, u32::MAX, u32::MAX).is_empty());
        assert!(index.elements_in_range(NameId(999), 0, u32::MAX).is_empty());
        // Attribute cursor.
        let k = nid(&names, "k");
        let ks = index.attribute_labels(k);
        assert_eq!(index.attributes_in_range(k, 0, u32::MAX), ks);
        assert_eq!(
            index.attributes_in_range(k, ks[1].start, u32::MAX),
            &ks[1..]
        );
    }

    #[test]
    fn guarded_build_respects_item_budget() {
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(DOC, names).unwrap();
        let tight = QueryGuard::new(Limits::unlimited().with_max_items(3));
        let err = DocIndex::build_guarded(&doc, &tight).unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::Limit);
        let roomy = QueryGuard::new(
            Limits::unlimited()
                .with_max_items(1000)
                .with_deadline(Duration::from_secs(5)),
        );
        assert!(DocIndex::build_guarded(&doc, &roomy).is_ok());
    }
}
