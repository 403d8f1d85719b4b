//! The path-id dictionary: every distinct root-to-element tag path in a
//! document gets a small dense [`PathId`]. Inverted-list entries carry
//! their path id, so linear `//a/b` / `/a//b` patterns are answered by
//! matching the *dictionary* (a few dozen entries) against the pattern
//! and then selecting the postings whose path id is in the matching set
//! — no per-node ancestry re-verification.
//!
//! This is the DataGuide-style summary RadegastXDB and friends pair with
//! labeled inverted lists: the number of distinct paths is tiny compared
//! to the number of nodes, so pattern matching over the dictionary is
//! effectively free.

use std::collections::HashMap;
use xqr_joins::EdgeKind;
use xqr_xdm::NameId;

/// Dense identifier of a distinct root-to-element tag path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

const NO_PARENT: u32 = u32::MAX;

/// One linear step of a path pattern: edge + element/attribute name.
pub type PathStep = (EdgeKind, NameId);

/// Interned set of root-to-element paths. Entry `i` records the path's
/// last tag name and its parent path (or the document root).
#[derive(Debug, Default)]
pub struct PathDict {
    parent: Vec<u32>,
    name: Vec<NameId>,
    depth: Vec<u16>,
    map: HashMap<(u32, NameId), PathId>,
}

impl PathDict {
    pub fn new() -> PathDict {
        PathDict::default()
    }

    /// Intern the path `parent / name` (idempotent).
    pub fn intern(&mut self, parent: Option<PathId>, name: NameId) -> PathId {
        let pkey = parent.map_or(NO_PARENT, |p| p.0);
        if let Some(&id) = self.map.get(&(pkey, name)) {
            return id;
        }
        let id = PathId(self.parent.len() as u32);
        self.parent.push(pkey);
        self.name.push(name);
        self.depth
            .push(parent.map_or(1, |p| self.depth[p.0 as usize].saturating_add(1)));
        self.map.insert((pkey, name), id);
        id
    }

    /// Number of distinct paths.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The path's last tag name.
    pub fn name(&self, p: PathId) -> NameId {
        self.name[p.0 as usize]
    }

    /// The parent path, or `None` for paths of root elements.
    pub fn parent(&self, p: PathId) -> Option<PathId> {
        let raw = self.parent[p.0 as usize];
        (raw != NO_PARENT).then_some(PathId(raw))
    }

    /// Number of tags on the path (root element = 1).
    pub(crate) fn depth(&self, p: PathId) -> u16 {
        self.depth[p.0 as usize]
    }

    /// The root-first tag sequence of the path.
    pub(crate) fn tag_sequence(&self, p: PathId) -> Vec<NameId> {
        let mut seq = Vec::with_capacity(self.depth(p) as usize);
        let mut cur = Some(p);
        while let Some(c) = cur {
            seq.push(self.name(c));
            cur = self.parent(c);
        }
        seq.reverse();
        seq
    }

    /// Paths whose full tag sequence matches `steps` (the pattern's last
    /// step must align with the path's last tag): the answer set for a
    /// linear element pattern. Returned as a membership vector indexed
    /// by `PathId`.
    pub fn matching(&self, steps: &[PathStep]) -> Vec<bool> {
        self.match_table(steps, true)
    }

    /// Paths whose tag sequence matches `steps` against a *prefix* (the
    /// pattern may end strictly above the path's last tag). Used for the
    /// owner constraint of `…//@attr` steps, where the attribute's owner
    /// may be any descendant-or-self of the last element step.
    pub fn matching_prefix(&self, steps: &[PathStep]) -> Vec<bool> {
        self.match_table(steps, false)
    }

    /// One top-down pass over the path *tree*: each path's NFA state set
    /// is derived from its parent's in O(1) bit operations, instead of
    /// re-running a DP over the full tag chain per path. Bit `k` of
    /// `exact[p]` = "steps[0..k] consume exactly the chain of `p`";
    /// `active[p]` additionally keeps states reached at any ancestor
    /// (they can fire later only through descendant-edged steps).
    /// Parents are interned before children, so ids ascend the tree.
    fn match_table(&self, steps: &[PathStep], require_end: bool) -> Vec<bool> {
        let m = steps.len();
        if m >= 64 {
            // Bitmask width exceeded (never by compiler-planted
            // patterns): per-path DP fallback.
            return (0..self.len())
                .map(|i| self.path_matches(PathId(i as u32), steps, require_end))
                .collect();
        }
        let full: u64 = 1 << m;
        // fire[name] = steps matching that tag name; desc_edges = steps
        // reachable across skipped tags.
        let mut fire: HashMap<NameId, u64> = HashMap::new();
        let mut desc_edges: u64 = 0;
        for (k, &(edge, name)) in steps.iter().enumerate() {
            *fire.entry(name).or_insert(0) |= 1 << k;
            if edge == EdgeKind::Descendant {
                desc_edges |= 1 << k;
            }
        }
        let child_edges = !desc_edges;
        let mut exact = vec![0u64; self.len()];
        let mut active = vec![0u64; self.len()];
        let mut out = vec![false; self.len()];
        for i in 0..self.len() {
            let (pe, pa) = match self.parent[i] {
                NO_PARENT => (1, 1), // bit 0: nothing consumed at the doc root
                p => {
                    debug_assert!((p as usize) < i, "parents intern first");
                    (exact[p as usize], active[p as usize])
                }
            };
            // A child-edged step fires only from a state reached exactly
            // at the parent; a descendant-edged step from any ancestor.
            let avail = (pe & child_edges) | (pa & desc_edges);
            let fired = avail & fire.get(&self.name[i]).copied().unwrap_or(0);
            exact[i] = fired << 1;
            active[i] = exact[i] | pa;
            out[i] = if require_end {
                exact[i] & full != 0
            } else {
                active[i] & full != 0
            };
        }
        out
    }

    /// Match one path against a linear pattern with `/` and `//` edges.
    /// Positions are tracked as a boolean set over "last matched tag
    /// index" (`pos[i+1]` = pattern consumed up to tag `i`; `pos[0]` =
    /// nothing consumed, i.e. sitting on the document root).
    fn path_matches(&self, p: PathId, steps: &[PathStep], require_end: bool) -> bool {
        let seq = self.tag_sequence(p);
        let n = seq.len();
        let mut pos = vec![false; n + 1];
        pos[0] = true;
        for (edge, name) in steps {
            let mut next = vec![false; n + 1];
            match edge {
                EdgeKind::Child => {
                    for i in 0..n {
                        if pos[i] && seq[i] == *name {
                            next[i + 1] = true;
                        }
                    }
                }
                EdgeKind::Descendant => {
                    let mut reachable = false;
                    for i in 0..n {
                        reachable |= pos[i];
                        if reachable && seq[i] == *name {
                            next[i + 1] = true;
                        }
                    }
                }
            }
            pos = next;
        }
        if require_end {
            pos[n]
        } else {
            pos.iter().any(|&b| b)
        }
    }

    /// Approximate heap footprint.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.parent.len() * (4 + 4 + 2) + self.map.len() * (8 + 4 + std::mem::size_of::<usize>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> (PathDict, NameId, NameId, NameId) {
        // Paths: /a, /a/b, /a/b/c, /a/c
        let (a, b, c) = (NameId(1), NameId(2), NameId(3));
        let mut d = PathDict::new();
        let pa = d.intern(None, a);
        let pab = d.intern(Some(pa), b);
        d.intern(Some(pab), c);
        d.intern(Some(pa), c);
        (d, a, b, c)
    }

    #[test]
    fn interning_is_idempotent() {
        let (mut d, a, b, _) = dict();
        let before = d.len();
        let pa = d.intern(None, a);
        assert_eq!(pa, PathId(0));
        d.intern(Some(pa), b);
        assert_eq!(d.len(), before);
        assert_eq!(d.tag_sequence(PathId(2)), vec![a, b, NameId(3)]);
        assert_eq!(d.depth(PathId(2)), 3);
    }

    #[test]
    fn child_and_descendant_edges_match_expected_paths() {
        let (d, a, b, c) = dict();
        use EdgeKind::{Child, Descendant};
        // //c — both c paths
        assert_eq!(
            d.matching(&[(Descendant, c)]),
            vec![false, false, true, true]
        );
        // /a/c — only the shallow one
        assert_eq!(
            d.matching(&[(Child, a), (Child, c)]),
            vec![false, false, false, true]
        );
        // //b//c and /a//c
        assert_eq!(
            d.matching(&[(Descendant, b), (Descendant, c)]),
            vec![false, false, true, false]
        );
        assert_eq!(
            d.matching(&[(Child, a), (Descendant, c)]),
            vec![false, false, true, true]
        );
        // /b — no path starts with b
        assert_eq!(d.matching(&[(Child, b)]), vec![false; 4]);
    }

    #[test]
    fn tree_dp_agrees_with_per_path_dp() {
        // A dictionary with repeated tags and both recursive shapes, so
        // child/descendant edges and skipped levels all get exercised.
        let (a, b, c) = (NameId(1), NameId(2), NameId(3));
        let mut d = PathDict::new();
        let pa = d.intern(None, a);
        let pab = d.intern(Some(pa), b);
        let paba = d.intern(Some(pab), a);
        d.intern(Some(paba), c);
        d.intern(Some(pab), c);
        let pac = d.intern(Some(pa), c);
        d.intern(Some(pac), b);
        use EdgeKind::{Child, Descendant};
        let patterns: Vec<Vec<PathStep>> = vec![
            vec![],
            vec![(Descendant, c)],
            vec![(Child, a), (Descendant, c)],
            vec![(Descendant, a), (Child, b), (Descendant, c)],
            vec![(Descendant, a), (Descendant, a)],
            vec![(Child, a), (Child, b), (Child, a), (Child, c)],
            vec![(Descendant, b), (Child, c)],
        ];
        for steps in &patterns {
            for require_end in [true, false] {
                let fast = d.match_table(steps, require_end);
                let slow: Vec<bool> = (0..d.len())
                    .map(|i| d.path_matches(PathId(i as u32), steps, require_end))
                    .collect();
                assert_eq!(fast, slow, "{steps:?} require_end={require_end}");
            }
        }
    }

    #[test]
    fn prefix_matching_accepts_descendants_of_the_match() {
        let (d, a, b, _) = dict();
        use EdgeKind::{Child, Descendant};
        // Owner constraint for //a/b//@x: any path at-or-below /…/a/b.
        assert_eq!(
            d.matching_prefix(&[(Descendant, a), (Child, b)]),
            vec![false, true, true, false]
        );
        // Empty pattern (bare //@x): every owner qualifies.
        assert_eq!(d.matching_prefix(&[]), vec![true; 4]);
        // Exact matching with an empty pattern never selects an element.
        assert_eq!(d.matching(&[]), vec![false; 4]);
    }
}
