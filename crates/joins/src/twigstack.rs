//! TwigStack (Bruno, Koudas, Srivastava) — holistic evaluation of a
//! *branching* twig pattern. `getNext` only lets an element onto its
//! stack when it is guaranteed to participate in a root-to-leaf path
//! solution (exact for descendant-only twigs), so the intermediate
//! result — the set of path solutions — stays proportional to the
//! output, unlike a plan of binary structural joins. Experiment E6
//! measures precisely that gap.

use crate::label::Labeled;
use crate::pathstack;
use crate::twig::{EdgeKind, TwigPattern};
use std::collections::HashMap;
use xqr_store::NodeId;
use xqr_xdm::{Error, QueryGuard, Result};

/// Instrumentation for the optimality claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwigStats {
    /// Path solutions emitted before the merge phase.
    pub path_solutions: usize,
    /// Full twig matches after merging.
    pub merged: usize,
    /// Elements pushed onto stacks (work measure).
    pub pushes: usize,
}

struct State<'a> {
    twig: &'a TwigPattern,
    lists: &'a [&'a [Labeled]],
    cursors: Vec<usize>,
    stacks: Vec<Vec<(Labeled, usize)>>,
    /// Path solutions per leaf twig node: tuples along `path_to(leaf)`.
    solutions: Vec<Vec<Vec<NodeId>>>,
    /// Leaf node indices (computed once).
    leaves: Vec<usize>,
    /// Precomputed root-to-node paths per twig node.
    paths: Vec<Vec<usize>>,
    stats: TwigStats,
}

impl<'a> State<'a> {
    fn next_start(&self, q: usize) -> u32 {
        self.lists[q]
            .get(self.cursors[q])
            .map(|e| e.start)
            .unwrap_or(u32::MAX)
    }

    fn next_end(&self, q: usize) -> u32 {
        self.lists[q]
            .get(self.cursors[q])
            .map(|e| e.end)
            .unwrap_or(u32::MAX)
    }

    fn exhausted(&self, q: usize) -> bool {
        self.cursors[q] >= self.lists[q].len()
    }

    /// All leaf streams exhausted → no further solutions possible.
    fn ended(&self) -> bool {
        self.leaves.iter().all(|&l| self.exhausted(l))
    }

    /// Every stream in q's subtree is fully consumed.
    fn subtree_exhausted(&self, q: usize) -> bool {
        self.exhausted(q)
            && self.twig.nodes[q]
                .children
                .iter()
                .all(|&c| self.subtree_exhausted(c))
    }

    fn get_next(&mut self, q: usize) -> usize {
        if self.twig.nodes[q].children.is_empty() {
            return q;
        }
        // Children whose subtrees are spent can neither block nor supply
        // further elements; skipping them keeps the join draining the
        // remaining branches (e.g. `//book[author/last]/price` once the
        // last `last` has streamed but `price` elements are pending).
        let mut live: Vec<usize> = Vec::new();
        let mut any_spent = false;
        for i in 0..self.twig.nodes[q].children.len() {
            let qi = self.twig.nodes[q].children[i];
            if self.subtree_exhausted(qi) {
                any_spent = true;
                continue;
            }
            let ni = self.get_next(qi);
            if ni != qi {
                return ni;
            }
            live.push(qi);
        }
        if any_spent {
            // Streams are consumed in document order, so every remaining
            // q element starts after all elements of the spent subtree
            // and can never contain one — no new q element can complete
            // a match. Existing stack entries still serve other leaves.
            self.cursors[q] = self.lists[q].len();
        }
        let Some(&first) = live.first() else {
            return q;
        };
        let mut qmin = first;
        let mut qmax = first;
        for &qi in &live {
            if self.next_start(qi) < self.next_start(qmin) {
                qmin = qi;
            }
            if self.next_start(qi) > self.next_start(qmax) {
                qmax = qi;
            }
        }
        // Advance q past elements that cannot contain qmax's head.
        while self.next_end(q) < self.next_start(qmax) {
            self.cursors[q] += 1;
        }
        if self.next_start(q) < self.next_start(qmin) {
            q
        } else {
            qmin
        }
    }

    fn clean_stack(&mut self, q: usize, next_start: u32) {
        while let Some((top, _)) = self.stacks[q].last() {
            if top.end < next_start {
                self.stacks[q].pop();
            } else {
                break;
            }
        }
    }

    /// Emit the path solutions for a just-pushed leaf entry, walking the
    /// saved parent pointers like PathStack.
    fn emit_leaf(&mut self, leaf: usize) {
        let path = std::mem::take(&mut self.paths[leaf]);
        let leaf_slot = path.len() - 1;
        let mut partial: Vec<Option<NodeId>> = vec![None; path.len()];
        let entry_idx = self.stacks[leaf].len() - 1;
        let mut found: Vec<Vec<NodeId>> = Vec::new();
        self.expand(&path, leaf_slot, entry_idx, &mut partial, &mut found);
        self.paths[leaf] = path;
        let leaf_pos = self.leaves.iter().position(|&l| l == leaf).expect("leaf");
        self.stats.path_solutions += found.len();
        self.solutions[leaf_pos].extend(found);
    }

    fn expand(
        &self,
        path: &[usize],
        slot: usize,
        entry_idx: usize,
        partial: &mut Vec<Option<NodeId>>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let q = path[slot];
        let (elem, parent_top) = self.stacks[q][entry_idx];
        partial[slot] = Some(elem.node);
        if slot == 0 {
            out.push(partial.iter().map(|n| n.expect("full path")).collect());
        } else {
            let pq = path[slot - 1];
            let edge = self.twig.nodes[q].edge;
            for pi in 0..parent_top.min(self.stacks[pq].len()) {
                let (pelem, _) = self.stacks[pq][pi];
                let ok = match edge {
                    EdgeKind::Descendant => pelem.contains(&elem),
                    EdgeKind::Child => pelem.is_parent_of(&elem),
                };
                if ok {
                    self.expand(path, slot - 1, pi, partial, out);
                }
            }
        }
        partial[slot] = None;
    }
}

/// Run TwigStack over per-twig-node sorted element lists. Returns full
/// match tuples (indexed by twig node) and the instrumentation.
pub fn twig_stack(twig: &TwigPattern, lists: &[Vec<Labeled>]) -> (Vec<Vec<NodeId>>, TwigStats) {
    let slices: Vec<&[Labeled]> = lists.iter().map(|l| l.as_slice()).collect();
    twig_stack_on(twig, &slices, &mut || Ok(())).expect("twig_stack with a no-op tick cannot fail")
}

/// Join advances between cancellation polls in [`guard_tick`]. The flag
/// is an atomic, but even an uncontended load per advance is measurable
/// on microsecond joins; strided, the tick is a counter increment and a
/// predictable branch almost always.
const CANCEL_STRIDE: u32 = 16;

/// Join advances between full guard polls (cancellation and deadline)
/// in [`guard_tick`]: a multiple of [`CANCEL_STRIDE`], so the check
/// actually fires, and below the guard's own deadline stride.
const DEADLINE_STRIDE: u32 = 64;

/// The [`twig_stack_on`] tick that keeps a join under `guard`: every
/// 16th advance polls cancellation (`err:XQRL0003`), every 64th also the
/// deadline (`err:XQRL0002`).
pub fn guard_tick(guard: &QueryGuard) -> impl FnMut() -> Result<()> + '_ {
    let mut n: u32 = 0;
    move || {
        n = n.wrapping_add(1);
        if !n.is_multiple_of(CANCEL_STRIDE) {
            return Ok(());
        }
        if guard.is_cancelled() {
            return Err(Error::cancelled("query cancelled by embedder"));
        }
        if n.is_multiple_of(DEADLINE_STRIDE) {
            guard.check_startup()?;
        }
        Ok(())
    }
}

/// [`twig_stack`] over borrowed list windows with a cooperative
/// interruption hook (`tick`, called once per main-loop iteration; an
/// `Err` aborts the join) — the form index-fed queries run under
/// [`guard_tick`], and the morsel kernel once per label-range slice.
pub fn twig_stack_on(
    twig: &TwigPattern,
    lists: &[&[Labeled]],
    tick: &mut impl FnMut() -> Result<()>,
) -> Result<(Vec<Vec<NodeId>>, TwigStats)> {
    assert_eq!(lists.len(), twig.len());
    // Fast path: PathStack already handles linear patterns.
    if twig.is_path() {
        let sols = pathstack::path_stack_on(twig, lists, tick)?;
        let stats = TwigStats {
            path_solutions: sols.len(),
            merged: sols.len(),
            pushes: 0,
        };
        return Ok((sols, stats));
    }
    let leaves = twig.leaves();
    let paths: Vec<Vec<usize>> = (0..twig.len()).map(|i| twig.path_to(i)).collect();
    let mut st = State {
        twig,
        lists,
        cursors: vec![0; twig.len()],
        stacks: vec![Vec::new(); twig.len()],
        solutions: vec![Vec::new(); leaves.len()],
        leaves: leaves.clone(),
        paths,
        stats: TwigStats::default(),
    };

    while !st.ended() {
        tick()?;
        let q = st.get_next(0);
        if st.exhausted(q) {
            break;
        }
        let next = st.lists[q][st.cursors[q]];
        let parent = st.twig.nodes[q].parent;
        if let Some(p) = parent {
            st.clean_stack(p, next.start);
        }
        if parent.is_none_or(|p| !st.stacks[p].is_empty()) {
            st.clean_stack(q, next.start);
            let parent_top = parent.map(|p| st.stacks[p].len()).unwrap_or(0);
            st.stacks[q].push((next, parent_top));
            st.stats.pushes += 1;
            st.cursors[q] += 1;
            if st.twig.nodes[q].children.is_empty() {
                st.emit_leaf(q);
                st.stacks[q].pop();
            }
        } else {
            st.cursors[q] += 1;
        }
    }

    let merged = merge_path_solutions(twig, &leaves, &st.solutions);
    st.stats.merged = merged.len();
    Ok((merged, st.stats))
}

/// Merge per-leaf path solutions into full twig matches: tuples must
/// agree on every shared (branching) twig node. Hash-joins each leaf's
/// solutions against the accumulated partials on the shared twig
/// indices, so the merge is linear in inputs + output.
fn merge_path_solutions(
    twig: &TwigPattern,
    leaves: &[usize],
    solutions: &[Vec<Vec<NodeId>>],
) -> Vec<Vec<NodeId>> {
    // Partials are twig-indexed assignments (None = unbound yet).
    let mut partials: Vec<Vec<Option<NodeId>>> = vec![vec![None; twig.len()]];
    let mut bound: Vec<bool> = vec![false; twig.len()];
    for (li, &leaf) in leaves.iter().enumerate() {
        let path = twig.path_to(leaf);
        // Twig indices this path shares with what is already bound.
        let shared: Vec<usize> = path.iter().copied().filter(|&t| bound[t]).collect();
        // Index the new solutions by their values at the shared indices.
        let mut by_key: HashMap<Vec<NodeId>, Vec<&Vec<NodeId>>> = HashMap::new();
        for sol in &solutions[li] {
            let key: Vec<NodeId> = shared
                .iter()
                .map(|&t| {
                    let slot = path.iter().position(|&p| p == t).expect("shared on path");
                    sol[slot]
                })
                .collect();
            by_key.entry(key).or_default().push(sol);
        }
        let mut next: Vec<Vec<Option<NodeId>>> = Vec::new();
        for partial in &partials {
            let key: Vec<NodeId> = shared
                .iter()
                .map(|&t| partial[t].expect("bound index"))
                .collect();
            if let Some(sols) = by_key.get(&key) {
                for sol in sols {
                    let mut merged = partial.clone();
                    for (slot, &t) in path.iter().enumerate() {
                        merged[t] = Some(sol[slot]);
                    }
                    next.push(merged);
                }
            }
        }
        partials = next;
        if partials.is_empty() {
            return Vec::new();
        }
        for &t in &path {
            bound[t] = true;
        }
    }
    let mut out: Vec<Vec<NodeId>> = partials
        .into_iter()
        .map(|m| {
            m.into_iter()
                .map(|n| n.expect("all twig nodes bound"))
                .collect()
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::element_list;
    use crate::navigate::enumerate_matches;
    use std::sync::Arc;
    use xqr_store::Document;
    use xqr_xdm::NamePool;

    fn run(xml: &str, pattern: &str) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>, TwigStats) {
        let names = Arc::new(NamePool::new());
        let d = Document::parse(xml, names.clone()).unwrap();
        let t = TwigPattern::parse(pattern, &names).unwrap();
        let lists: Vec<_> = t.nodes.iter().map(|n| element_list(&d, n.name)).collect();
        let (got, stats) = twig_stack(&t, &lists);
        let mut want = enumerate_matches(&d, &t);
        want.sort();
        want.dedup();
        (got, want, stats)
    }

    #[test]
    fn branching_twig_matches_oracle() {
        let xml = "<bib><book><author/><title/></book><book><title/></book></bib>";
        let (got, want, stats) = run(xml, "//book[author]/title");
        assert_eq!(got, want);
        assert_eq!(stats.merged, 1);
    }

    #[test]
    fn multiple_solutions() {
        let xml = "<bib><book><author/><author/><title/><title/></book></bib>";
        let (got, want, _) = run(xml, "//book[author]/title");
        assert_eq!(got, want);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn descendant_edges_recursive_data() {
        let xml = "<a><b/><a><c/><b/><a><b/><c/></a></a></a>";
        let (got, want, _) = run(xml, "//a[//b]//c");
        assert_eq!(got, want);
    }

    #[test]
    fn three_way_branch() {
        let xml = "<r><p><x/><y/><z/></p><p><x/><z/></p></r>";
        let (got, want, _) = run(xml, "//p[x][y]/z");
        assert_eq!(got, want);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn no_solution_when_branch_missing() {
        let xml = "<r><p><x/></p></r>";
        let (got, want, _) = run(xml, "//p[x][y]/z");
        assert_eq!(got, want);
        assert!(got.is_empty());
    }

    /// Regression: a multi-level branch (`author/last`) whose subtree
    /// closes before the output leaf (`price`) starts used to abort the
    /// join — `get_next` kept bubbling the exhausted `last` stream up
    /// and the main loop broke with `price` elements still pending.
    #[test]
    fn branch_subtree_closing_before_output_leaf() {
        for (xml, pattern, n) in [
            (
                "<bib><book><author><last/></author><price/></book></bib>",
                "//book[author/last]/price",
                1,
            ),
            (
                "<bib><book><author><last/></author><price/></book>\
                 <book><author><last/></author><price/></book></bib>",
                "//book[author/last]/price",
                2,
            ),
            (
                "<bib><book><author><x><last/></x></author><price/></book></bib>",
                "//book[author//last]/price",
                1,
            ),
            // Output leaf before the branch: already worked, keep pinned.
            (
                "<bib><book><price/><author><last/></author></book></bib>",
                "//book[author/last]/price",
                1,
            ),
        ] {
            let (got, want, _) = run(xml, pattern);
            assert_eq!(got, want, "{pattern} on {xml}");
            assert_eq!(got.len(), n, "{pattern} on {xml}");
        }
    }

    #[test]
    fn linear_pattern_delegates_to_pathstack() {
        let (got, want, _) = run("<a><b><c/></b></a>", "//a/b/c");
        assert_eq!(got, want);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn path_solution_count_bounded_for_descendant_twigs() {
        // For descendant-only twigs TwigStack's path solutions are all
        // mergeable: path_solutions ≈ useful work.
        let mut xml = String::from("<r>");
        for _ in 0..20 {
            xml.push_str("<p><x/><y/></p>");
        }
        xml.push_str("</r>");
        let (got, want, stats) = run(&xml, "//p[//x]//y");
        assert_eq!(got, want);
        assert_eq!(got.len(), 20);
        // 2 path solutions per match (one per leaf), all useful.
        assert_eq!(stats.path_solutions, 40);
    }

    #[test]
    fn deep_recursion_stress() {
        let mut xml = String::new();
        for _ in 0..30 {
            xml.push_str("<a><b/>");
        }
        xml.push_str("<c/>");
        for _ in 0..30 {
            xml.push_str("</a>");
        }
        let (got, want, _) = run(&xml, "//a[b]//c");
        assert_eq!(got, want);
        assert_eq!(got.len(), 30);
    }
}
