//! PathStack (Bruno, Koudas, Srivastava: "Holistic twig joins: optimal
//! XML pattern matching") — evaluates a *linear* path pattern
//! `p1 → p2 → … → pn` over n sorted element lists with one linked stack
//! per pattern node, in O(Σ inputs + output) for ancestor-descendant
//! edges, never materializing binary-join intermediates.

use crate::label::Labeled;
use crate::twig::{EdgeKind, TwigPattern};
use xqr_store::NodeId;
use xqr_xdm::Result;

/// One stack entry: the element plus the height of the parent-pattern
/// stack at push time (the "pointer" of the paper).
#[derive(Debug, Clone, Copy)]
struct Entry {
    elem: Labeled,
    parent_top: usize,
}

/// Evaluate a linear path twig over the per-node element lists
/// (`lists[i]` sorted by start, matching `twig.nodes[i]`). Returns full
/// root-to-leaf match tuples of node ids.
///
/// Panics if the twig is not a pure path — callers route branching twigs
/// to [`crate::twigstack::twig_stack`].
pub fn path_stack(twig: &TwigPattern, lists: &[Vec<Labeled>]) -> Vec<Vec<NodeId>> {
    let slices: Vec<&[Labeled]> = lists.iter().map(|l| l.as_slice()).collect();
    path_stack_on(twig, &slices, &mut || Ok(())).expect("path_stack with a no-op tick cannot fail")
}

/// [`path_stack`] over borrowed list windows with a `tick` hook, as
/// [`crate::twigstack::twig_stack_on`] runs it for path twigs.
pub(crate) fn path_stack_on(
    twig: &TwigPattern,
    lists: &[&[Labeled]],
    tick: &mut impl FnMut() -> Result<()>,
) -> Result<Vec<Vec<NodeId>>> {
    assert!(twig.is_path(), "path_stack requires a linear pattern");
    let n = twig.len();
    assert_eq!(lists.len(), n);
    // Pattern order root..leaf is index order for a path twig.
    let mut cursors = vec![0usize; n];
    let mut stacks: Vec<Vec<Entry>> = vec![Vec::new(); n];
    let mut out: Vec<Vec<NodeId>> = Vec::new();

    loop {
        tick()?;
        // qmin = pattern node whose next element has minimal start.
        let mut qmin = None;
        let mut min_start = u32::MAX;
        for q in 0..n {
            if let Some(e) = lists[q].get(cursors[q]) {
                if e.start < min_start {
                    min_start = e.start;
                    qmin = Some(q);
                }
            }
        }
        let q = match qmin {
            Some(q) => q,
            None => break,
        };
        let next = lists[q][cursors[q]];
        cursors[q] += 1;

        // Pop entries that end before `next` starts, on every stack.
        for s in stacks.iter_mut() {
            while let Some(top) = s.last() {
                if top.elem.end < next.start {
                    s.pop();
                } else {
                    break;
                }
            }
        }
        // Push only if the parent stack can still provide an ancestor.
        if q > 0 && stacks[q - 1].is_empty() {
            continue;
        }
        let parent_top = if q == 0 { 0 } else { stacks[q - 1].len() };
        stacks[q].push(Entry {
            elem: next,
            parent_top,
        });
        if q == n - 1 {
            // Leaf push: emit all solutions ending at this element.
            emit_solutions(
                twig,
                &stacks,
                n - 1,
                stacks[n - 1].len() - 1,
                &mut Vec::new(),
                &mut out,
            );
            stacks[n - 1].pop();
        }
    }
    // Solutions are emitted leaf-ordered; normalize to sorted tuples.
    out.sort();
    out.dedup();
    Ok(out)
}

/// Recursively expand one leaf entry into all consistent ancestor chains.
fn emit_solutions(
    twig: &TwigPattern,
    stacks: &[Vec<Entry>],
    q: usize,
    entry_idx: usize,
    partial: &mut Vec<NodeId>,
    out: &mut Vec<Vec<NodeId>>,
) {
    let entry = stacks[q][entry_idx];
    partial.push(entry.elem.node);
    if q == 0 {
        let mut tuple: Vec<NodeId> = partial.clone();
        tuple.reverse();
        out.push(tuple);
    } else {
        let edge = twig.nodes[q].edge;
        // Candidate parents: entries of stack q-1 below the saved top.
        for pi in 0..entry.parent_top.min(stacks[q - 1].len()) {
            let parent = stacks[q - 1][pi];
            let ok = match edge {
                EdgeKind::Descendant => parent.elem.contains(&entry.elem),
                EdgeKind::Child => parent.elem.is_parent_of(&entry.elem),
            };
            if ok {
                emit_solutions(twig, stacks, q - 1, pi, partial, out);
            }
        }
    }
    partial.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::element_list;
    use crate::navigate::enumerate_matches;
    use std::sync::Arc;
    use xqr_store::Document;
    use xqr_xdm::NamePool;

    fn run(xml: &str, pattern: &str) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
        let names = Arc::new(NamePool::new());
        let d = Document::parse(xml, names.clone()).unwrap();
        let t = TwigPattern::parse(pattern, &names).unwrap();
        let lists: Vec<_> = t.nodes.iter().map(|n| element_list(&d, n.name)).collect();
        let mut want = enumerate_matches(&d, &t);
        want.sort();
        want.dedup();
        (path_stack(&t, &lists), want)
    }

    #[test]
    fn simple_descendant_path() {
        let (got, want) = run("<a><b/><x><b/></x></a>", "//a//b");
        assert_eq!(got, want);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn child_edges_respect_levels() {
        let (got, want) = run("<a><b/><x><b/></x></a>", "//a/b");
        assert_eq!(got, want);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn three_level_path_on_recursive_data() {
        let xml = "<a><b><a><b><c/></b></a><c/></b></a>";
        let (got, want) = run(xml, "//a//b//c");
        assert_eq!(got, want);
        assert!(got.len() >= 4, "{got:?}");
    }

    #[test]
    fn deeply_nested_same_name() {
        let mut xml = String::new();
        for _ in 0..10 {
            xml.push_str("<a>");
        }
        for _ in 0..10 {
            xml.push_str("</a>");
        }
        let (got, want) = run(&xml, "//a//a");
        assert_eq!(got, want);
        assert_eq!(got.len(), 45); // C(10,2)
    }

    #[test]
    fn mixed_edges() {
        let xml = "<r><a><m><b><c/></b></m></a><a><b><x><c/></x></b></a></r>";
        let (got, want) = run(xml, "//a//b/c");
        assert_eq!(got, want);
        let (got2, want2) = run(xml, "//a/b//c");
        assert_eq!(got2, want2);
    }

    #[test]
    fn empty_when_any_list_empty() {
        let (got, want) = run("<a><b/></a>", "//a//zz");
        assert_eq!(got, want);
        assert!(got.is_empty());
    }
}
