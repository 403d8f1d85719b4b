//! Twig patterns: the tree-shaped queries that structural and holistic
//! joins evaluate ("From Tree Patterns to Generalized Tree Patterns",
//! "Holistic twig joins: optimal XML pattern matching" — both on the
//! talk's reading list).
//!
//! A twig is a small tree of name tests connected by child (`/`) or
//! descendant (`//`) edges. `//a//b[c]/d` becomes a four-node twig.

use xqr_xdm::{NameId, NamePool, QName, Result};

/// Edge type between a twig node and its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// `/` — parent-child.
    Child,
    /// `//` — ancestor-descendant.
    Descendant,
}

/// One node of a twig pattern.
#[derive(Debug, Clone)]
pub struct TwigNode {
    /// Element name to match.
    pub name: NameId,
    /// How this node connects to its parent (ignored for the root).
    pub edge: EdgeKind,
    /// Children in the pattern tree.
    pub children: Vec<usize>,
    /// Parent index; `None` for the root.
    pub parent: Option<usize>,
}

/// A parsed twig pattern. Node 0 is the root.
#[derive(Debug, Clone)]
pub struct TwigPattern {
    pub nodes: Vec<TwigNode>,
    /// Root edge: how the root relates to the document root.
    pub root_edge: EdgeKind,
}

impl TwigPattern {
    /// Build a linear path twig: `//a/b//c` style. `steps` are
    /// `(edge, name)` pairs applied in order.
    pub fn path(root_edge: EdgeKind, steps: &[(EdgeKind, NameId)]) -> TwigPattern {
        assert!(!steps.is_empty(), "a twig needs at least one node");
        let mut nodes = Vec::with_capacity(steps.len());
        for (i, &(edge, name)) in steps.iter().enumerate() {
            nodes.push(TwigNode {
                name,
                edge,
                children: if i + 1 < steps.len() {
                    vec![i + 1]
                } else {
                    vec![]
                },
                parent: if i == 0 { None } else { Some(i - 1) },
            });
        }
        TwigPattern {
            nodes,
            root_edge: if steps.len() == 1 {
                root_edge
            } else {
                steps[0].0
            },
        }
        .with_root_edge(root_edge)
    }

    fn with_root_edge(mut self, e: EdgeKind) -> Self {
        self.root_edge = e;
        self
    }

    /// Add a branch under `parent`, returning the new node's index.
    pub fn add_child(&mut self, parent: usize, edge: EdgeKind, name: NameId) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(TwigNode {
            name,
            edge,
            children: vec![],
            parent: Some(parent),
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Parse a compact textual form: `//a/b[//c]/d` — name tests joined
    /// by `/` or `//`, with `[...]` branches. Only element names (the
    /// join experiments don't need more).
    pub fn parse(pattern: &str, names: &NamePool) -> Result<TwigPattern> {
        let mut p = Parser {
            src: pattern.as_bytes(),
            pos: 0,
            names,
        };
        p.parse_twig()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Indices of leaf nodes.
    pub(crate) fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].children.is_empty())
            .collect()
    }

    /// Is the pattern a pure path (no branching)?
    pub fn is_path(&self) -> bool {
        self.nodes.iter().all(|n| n.children.len() <= 1)
    }

    /// Root-to-node path of twig indices.
    pub(crate) fn path_to(&self, mut idx: usize) -> Vec<usize> {
        let mut path = vec![idx];
        while let Some(p) = self.nodes[idx].parent {
            path.push(p);
            idx = p;
        }
        path.reverse();
        path
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    names: &'a NamePool,
}

impl<'a> Parser<'a> {
    fn parse_twig(&mut self) -> Result<TwigPattern> {
        let root_edge = self.parse_edge()?;
        let mut twig = TwigPattern {
            nodes: Vec::new(),
            root_edge,
        };
        self.parse_steps(&mut twig, None)?;
        if twig.nodes.is_empty() {
            return Err(xqr_xdm::Error::syntax("empty twig pattern"));
        }
        if self.pos != self.src.len() {
            return Err(xqr_xdm::Error::syntax(format!(
                "trailing input in twig pattern at {}",
                self.pos
            )));
        }
        Ok(twig)
    }

    fn parse_edge(&mut self) -> Result<EdgeKind> {
        if self.eat(b"//") {
            Ok(EdgeKind::Descendant)
        } else if self.eat(b"/") {
            Ok(EdgeKind::Child)
        } else {
            Err(xqr_xdm::Error::syntax(
                "twig pattern must start with / or //",
            ))
        }
    }

    fn eat(&mut self, s: &[u8]) -> bool {
        if self.src[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn parse_steps(&mut self, twig: &mut TwigPattern, parent: Option<usize>) -> Result<()> {
        let mut parent = parent;
        let mut edge = if parent.is_none() {
            twig.root_edge
        } else {
            self.parse_edge()?
        };
        loop {
            let name = self.parse_name()?;
            let idx = twig.nodes.len();
            twig.nodes.push(TwigNode {
                name,
                edge,
                children: vec![],
                parent,
            });
            if let Some(p) = parent {
                twig.nodes[p].children.push(idx);
            }
            // Branches.
            while self.eat(b"[") {
                let branch_edge = self.parse_edge().unwrap_or(EdgeKind::Child);
                let saved = twig.root_edge;
                twig.root_edge = branch_edge;
                self.parse_branch(twig, idx, branch_edge)?;
                twig.root_edge = saved;
                if !self.eat(b"]") {
                    return Err(xqr_xdm::Error::syntax("unterminated twig branch"));
                }
            }
            if self.pos >= self.src.len() || self.src[self.pos] == b']' {
                return Ok(());
            }
            edge = self.parse_edge()?;
            parent = Some(idx);
        }
    }

    fn parse_branch(
        &mut self,
        twig: &mut TwigPattern,
        parent: usize,
        first_edge: EdgeKind,
    ) -> Result<()> {
        let mut parent = parent;
        let mut edge = first_edge;
        loop {
            let name = self.parse_name()?;
            let idx = twig.nodes.len();
            twig.nodes.push(TwigNode {
                name,
                edge,
                children: vec![],
                parent: Some(parent),
            });
            twig.nodes[parent].children.push(idx);
            while self.eat(b"[") {
                let branch_edge = self.parse_edge().unwrap_or(EdgeKind::Child);
                self.parse_branch(twig, idx, branch_edge)?;
                if !self.eat(b"]") {
                    return Err(xqr_xdm::Error::syntax("unterminated twig branch"));
                }
            }
            if self.pos >= self.src.len() || self.src[self.pos] == b']' {
                return Ok(());
            }
            edge = self.parse_edge()?;
            parent = idx;
        }
    }

    fn parse_name(&mut self) -> Result<NameId> {
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric()
                || matches!(self.src[self.pos], b'_' | b'-' | b'.'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(xqr_xdm::Error::syntax("expected a name in twig pattern"));
        }
        let local = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| xqr_xdm::Error::syntax("non-UTF8 twig pattern"))?;
        Ok(self.names.intern(&QName::local(local)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> NamePool {
        NamePool::new()
    }

    #[test]
    fn parse_linear_path() {
        let names = pool();
        let t = TwigPattern::parse("//a/b//c", &names).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.root_edge, EdgeKind::Descendant);
        assert_eq!(t.nodes[1].edge, EdgeKind::Child);
        assert_eq!(t.nodes[2].edge, EdgeKind::Descendant);
        assert!(t.is_path());
        assert_eq!(t.leaves(), vec![2]);
    }

    #[test]
    fn parse_branching_twig() {
        let names = pool();
        let t = TwigPattern::parse("//book[author]/title", &names).unwrap();
        assert_eq!(t.len(), 3);
        assert!(!t.is_path());
        assert_eq!(t.nodes[0].children.len(), 2);
        assert_eq!(t.leaves().len(), 2);
        // path_to title goes through book
        let title_idx = t
            .nodes
            .iter()
            .position(|n| names.resolve(n.name).local_name() == "title")
            .unwrap();
        assert_eq!(t.path_to(title_idx), vec![0, title_idx]);
    }

    #[test]
    fn parse_nested_branches() {
        let names = pool();
        let t = TwigPattern::parse("//a[b[//c]]/d", &names).unwrap();
        assert_eq!(t.len(), 4);
        let b = 1;
        assert_eq!(t.nodes[b].children.len(), 1);
        assert_eq!(t.nodes[t.nodes[b].children[0]].edge, EdgeKind::Descendant);
    }

    #[test]
    fn parse_rejects_garbage() {
        let names = pool();
        assert!(TwigPattern::parse("a/b", &names).is_err());
        assert!(TwigPattern::parse("//", &names).is_err());
        assert!(TwigPattern::parse("//a[b", &names).is_err());
        assert!(TwigPattern::parse("//a]b", &names).is_err());
        assert!(TwigPattern::parse("", &names).is_err());
    }

    #[test]
    fn programmatic_construction() {
        let names = pool();
        let a = names.intern(&QName::local("a"));
        let b = names.intern(&QName::local("b"));
        let c = names.intern(&QName::local("c"));
        let mut t = TwigPattern::path(EdgeKind::Descendant, &[(EdgeKind::Descendant, a)]);
        let bi = t.add_child(0, EdgeKind::Child, b);
        t.add_child(bi, EdgeKind::Descendant, c);
        assert_eq!(t.len(), 3);
        assert_eq!(t.path_to(2), vec![0, 1, 2]);
    }
}
