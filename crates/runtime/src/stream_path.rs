//! Token-level streaming evaluation of simple path queries — the
//! XQRL/BEA headline: "start computation BEFORE the entire data input is
//! received; output parts of the result BEFORE the entire input is read;
//! minimize the memory footprint".
//!
//! When the compiled query is a forward path of child/descendant name
//! steps (the message-broker use case: "simple path expressions, single
//! input message"), the engine bypasses the store entirely: the path is
//! extracted here as a [`StreamPattern`] and run by the automaton in
//! [`crate::automaton`] over the token stream, emitting matched subtrees
//! as serialized XML as their end tags arrive — and `skip()`ping whole
//! subtrees that no pattern state can match.

use xqr_compiler::Core;
use xqr_xdm::{Error, QName, Result};
use xqr_xqparser::ast::{AxisName, NodeTest};

/// One step of a streamable pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStep {
    /// True = descendant axis, false = child.
    pub descendant: bool,
    /// Element name to match (`None` = any element).
    pub name: Option<QName>,
}

/// A streamable pattern: a chain of steps from the document root.
/// Streaming it yields every matching element in document order, nested
/// matches included — the node set materialized evaluation returns.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPattern {
    pub steps: Vec<StreamStep>,
}

impl StreamPattern {
    /// Try to recognize the compiled core as a streamable path rooted at
    /// the document: nests of `Ddo(PathMap(..))` over `Root` with
    /// child/descendant(-or-self) element name steps and no predicates.
    pub fn extract(core: &Core) -> Option<StreamPattern> {
        let mut steps = Vec::new();
        let mut pending_dos = false;
        if !collect(core, &mut steps, &mut pending_dos) {
            return None;
        }
        // A trailing descendant-or-self::node() pseudo-step never merged
        // into a following named step: the streaming encoding would match
        // descendant *elements* only, while materialized evaluation also
        // returns the context node itself and non-element nodes.
        if pending_dos {
            return None;
        }
        if steps.is_empty() {
            return None;
        }
        Some(StreamPattern { steps })
    }

    /// [`StreamPattern::extract`] for callers that have already decided
    /// the plan is streamable: a non-streamable core is an internal
    /// error (`err:XQRL0000`), never a panic.
    pub fn extract_required(core: &Core) -> Result<StreamPattern> {
        StreamPattern::extract(core)
            .ok_or_else(|| Error::internal(format!("not streamable: {core:?}")))
    }
}

fn collect(core: &Core, steps: &mut Vec<StreamStep>, pending_dos: &mut bool) -> bool {
    match core {
        Core::Root => true,
        Core::Ddo(inner) => collect(inner, steps, pending_dos),
        // An index-backed plan streams via its navigational fallback: the
        // streaming path never consults the store (or its indexes) at all.
        Core::IndexScan { fallback, .. } => collect(fallback, steps, pending_dos),
        Core::PathMap { input, step } => {
            if !collect(input, steps, pending_dos) {
                return false;
            }
            match &**step {
                Core::Step { axis, test } => {
                    let descendant = match axis {
                        AxisName::Child => false,
                        AxisName::Descendant => true,
                        AxisName::DescendantOrSelf => {
                            // dos::node() as an intermediate (the `//`
                            // expansion): mark the *next* step descendant.
                            // The flag — not a pushed pseudo-step — so a
                            // genuine `descendant::*` step can never be
                            // mistaken for one and wrongly merged.
                            if *pending_dos {
                                return false;
                            }
                            *pending_dos = true;
                            return matches!(test, NodeTest::AnyKind);
                        }
                        _ => return false,
                    };
                    let name = match test {
                        NodeTest::Name(q) => Some(q.clone()),
                        NodeTest::AnyName => None,
                        _ => return false,
                    };
                    if *pending_dos {
                        *pending_dos = false;
                        if descendant {
                            // dos::node()/descendant::x has no single-step
                            // streaming encoding: the self component of
                            // dos makes x reachable one level shallower
                            // than `descendant, then descendant` allows.
                            return false;
                        }
                        steps.push(StreamStep {
                            descendant: true,
                            name,
                        });
                    } else {
                        steps.push(StreamStep { descendant, name });
                    }
                    true
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Instrumentation the streaming experiments read.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamStats {
    pub tokens_seen: u64,
    pub tokens_skipped: u64,
    pub matches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_compiler::{compile, CompileOptions};

    fn pattern(query: &str) -> StreamPattern {
        let q = compile(query, &CompileOptions::default()).unwrap();
        StreamPattern::extract_required(&q.module.body).unwrap()
    }

    #[test]
    fn extract_recognizes_simple_paths() {
        assert_eq!(pattern("/a/b").steps.len(), 2);
        let p = pattern("//item");
        assert_eq!(p.steps.len(), 1);
        assert!(p.steps[0].descendant);
        let p = pattern("/bib//book/title");
        assert_eq!(p.steps.len(), 3);
        assert!(!p.steps[0].descendant);
        assert!(p.steps[1].descendant);
        assert!(!p.steps[2].descendant);
    }

    #[test]
    fn extract_rejects_non_streamable() {
        let q = compile("1 + 1", &CompileOptions::default()).unwrap();
        assert!(StreamPattern::extract(&q.module.body).is_none());
        let q = compile("//book[3]", &CompileOptions::default()).unwrap();
        assert!(StreamPattern::extract(&q.module.body).is_none());
    }

    #[test]
    fn extract_required_reports_internal_error() {
        let q = compile("1 + 1", &CompileOptions::default()).unwrap();
        let e = StreamPattern::extract_required(&q.module.body).unwrap_err();
        assert_eq!(e.code, xqr_xdm::ErrorCode::Internal);
        assert!(e.to_string().contains("not streamable"));
    }

    #[test]
    fn dos_node_pseudo_step_merges_into_next_child_step() {
        // `/a/descendant-or-self::node()/b` is exactly `a//b`: the
        // pseudo-step must merge into one descendant step, not linger.
        let q = compile(
            "/a/descendant-or-self::node()/b",
            &CompileOptions::default(),
        )
        .unwrap();
        let p = StreamPattern::extract(&q.module.body).expect("streamable");
        assert_eq!(p.steps.len(), 2);
        assert!(!p.steps[0].descendant);
        assert!(p.steps[1].descendant);
        assert_eq!(p.steps[1].name.as_ref().unwrap().local_name(), "b");
    }

    #[test]
    fn trailing_dos_node_is_not_streamable() {
        // With no following step to merge into, dos::node() has no
        // element-step encoding (materialized evaluation returns the
        // context node itself plus text/comment descendants).
        let q = compile("/a/descendant-or-self::node()", &CompileOptions::default()).unwrap();
        assert!(StreamPattern::extract(&q.module.body).is_none());
        // Likewise dos::node() followed by an explicit descendant step:
        // the self component makes the target reachable one level
        // shallower than two chained descendant steps allow.
        let q = compile(
            "/a/descendant-or-self::node()/descendant::b",
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(StreamPattern::extract(&q.module.body).is_none());
    }

    #[test]
    fn explicit_descendant_wildcard_does_not_merge() {
        // `/a/descendant::*/b` requires b at depth >= 3: an element
        // strictly below a, then a b child. The old pseudo-step merge
        // collapsed this to `a//b`, wrongly matching `<a><b/></a>`.
        let q = compile("/a/descendant::*/b", &CompileOptions::default()).unwrap();
        let p = StreamPattern::extract(&q.module.body).expect("streamable");
        assert_eq!(p.steps.len(), 3);
        assert!(p.steps[1].descendant && p.steps[1].name.is_none());
        assert!(!p.steps[2].descendant);
    }

    #[test]
    fn wildcard_steps_extract_without_a_name() {
        let p = pattern("//*");
        assert_eq!(p.steps.len(), 1);
        assert!(p.steps[0].descendant && p.steps[0].name.is_none());
        assert_eq!(pattern("/a/*").steps[1].name, None);
    }
}
