//! Containment labels as consumed by the join algorithms.
//!
//! The store assigns every node `(start, end, level)` (start = preorder
//! index); here we extract, per element name, the **sorted-by-start
//! inverted list** of labeled nodes that all structural join algorithms
//! take as input ("Structural Joins: A Primitive for Efficient XML Query
//! Pattern Matching", on the talk's reading list).

use xqr_store::{Document, NodeId};
use xqr_xdm::NameId;

/// A node with its containment label, detached from the store so join
/// kernels are pure functions over slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Labeled {
    pub node: NodeId,
    pub start: u32,
    pub end: u32,
    pub level: u16,
}

impl Labeled {
    /// Is `self` a (proper) ancestor of `d`?
    #[inline]
    pub(crate) fn contains(&self, d: &Labeled) -> bool {
        self.start < d.start && d.start <= self.end
    }

    /// Is `self` the parent of `d`?
    #[inline]
    pub(crate) fn is_parent_of(&self, d: &Labeled) -> bool {
        self.contains(d) && self.level + 1 == d.level
    }
}

/// The window of `list` (sorted by `start`) whose starts fall in
/// `[lo, hi]`, both ends inclusive, as a zero-copy subslice.
///
/// This is the range-splitting primitive of the parallel join executor:
/// containment labels guarantee that every non-root witness of a twig
/// match starts inside its root's `(start, end]` interval, so slicing
/// each input list to a root chunk's label window loses no match.
pub fn range_by_start(list: &[Labeled], lo: u32, hi: u32) -> &[Labeled] {
    let from = list.partition_point(|e| e.start < lo);
    let to = list.partition_point(|e| e.start <= hi);
    &list[from..to]
}

/// The inverted list for one element name, sorted by `start`: a scan of
/// the document's elements in document order. The indexed form of the
/// same list is `xqr-index`'s `DocIndex`.
pub fn element_list(doc: &Document, name: NameId) -> Vec<Labeled> {
    doc.all_elements()
        .filter(|&n| doc.name_id(n) == name)
        .map(|n| label(doc, n))
        .collect()
}

fn label(doc: &Document, n: NodeId) -> Labeled {
    Labeled {
        node: n,
        start: doc.start(n),
        end: doc.end(n),
        level: doc.level(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xqr_xdm::{NamePool, QName};

    #[test]
    fn lists_are_sorted_and_labeled() {
        let names = Arc::new(NamePool::new());
        let d = Document::parse("<a><b/><a><b/></a></a>", names.clone()).unwrap();
        let a = names.get(&QName::local("a")).unwrap();
        let b = names.get(&QName::local("b")).unwrap();
        let alist = element_list(&d, a);
        let blist = element_list(&d, b);
        assert_eq!(alist.len(), 2);
        assert_eq!(blist.len(), 2);
        assert!(alist.windows(2).all(|w| w[0].start < w[1].start));
        // outer a contains both b's, inner a contains only the second
        assert!(alist[0].contains(&blist[0]));
        assert!(alist[0].contains(&blist[1]));
        assert!(!alist[1].contains(&blist[0]));
        assert!(alist[1].contains(&blist[1]));
        // parenthood needs the level check
        assert!(alist[0].is_parent_of(&blist[0]));
        assert!(!alist[0].is_parent_of(&blist[1]));
        assert!(alist[1].is_parent_of(&blist[1]));
    }

    #[test]
    fn range_by_start_windows() {
        let l = |s: u32| Labeled {
            node: NodeId(s),
            start: s,
            end: s,
            level: 0,
        };
        let list: Vec<Labeled> = [1u32, 3, 5, 7, 9].iter().map(|&s| l(s)).collect();
        assert_eq!(range_by_start(&list, 3, 7).len(), 3);
        assert_eq!(range_by_start(&list, 0, 100).len(), 5);
        assert_eq!(range_by_start(&list, 4, 4).len(), 0);
        assert_eq!(range_by_start(&list, 9, 9).len(), 1);
        assert_eq!(range_by_start(&list, 10, 20).len(), 0);
        assert_eq!(range_by_start(&[], 0, 10).len(), 0);
    }
}
