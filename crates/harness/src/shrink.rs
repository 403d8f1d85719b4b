//! Greedy structural shrinking of divergent cases.
//!
//! When the oracle flags a case, the raw query is typically a deep
//! random expression over a thousand-node document. The shrinker
//! reduces both, preserving the divergence at every step:
//!
//! * **query**: repeatedly try replacing the body (or any subexpression,
//!   found by a top-down pass) with one of its children, dropping FLWOR
//!   clauses / predicates / sequence items, or substituting trivial
//!   leaves — keep a candidate only if the shrunken case still
//!   diverges;
//! * **document**: regenerate from the same [`RandomTreeConfig`] with
//!   the node budget halved and the depth reduced, as long as the
//!   divergence survives.
//!
//! Shrinking uses fresh oracles per probe (never the run's main oracle)
//! so probe traffic does not pollute the run's service statistics.

use crate::oracle::{CaseVerdict, Oracle};
use xqr_xmlgen::RandomTreeConfig;
use xqr_xqparser::ast::{Expr, FlworClause, Module};
use xqr_xqparser::printer::print_module;

/// Does this (query, document) pair still diverge?
fn still_diverges(module: &Module, xml: &str, mutate: bool) -> bool {
    let text = print_module(module);
    let mut oracle = Oracle::new(mutate);
    matches!(
        oracle.run_case(&text, xml).verdict,
        CaseVerdict::Diverged(_)
    )
}

/// Candidate single-step reductions of an expression: every child
/// subexpression (of any sort — all print as valid queries), plus
/// structurally smaller versions of the same node.
fn reductions(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    match e {
        Expr::Arith(_, a, b, _)
        | Expr::Comparison(_, a, b, _)
        | Expr::And(a, b, _)
        | Expr::Or(a, b, _)
        | Expr::Union(a, b, _)
        | Expr::Intersect(a, b, _)
        | Expr::Except(a, b, _)
        | Expr::Path(a, b, _)
        | Expr::Range(a, b, _) => {
            out.push((**a).clone());
            out.push((**b).clone());
        }
        Expr::Neg(a, _)
        | Expr::Ordered(a, _)
        | Expr::Unordered(a, _)
        | Expr::ComputedText(a, _)
        | Expr::ComputedComment(a, _)
        | Expr::ComputedDocument(a, _)
        | Expr::InstanceOf(a, _, _)
        | Expr::CastAs(a, _, _)
        | Expr::CastableAs(a, _, _)
        | Expr::TreatAs(a, _, _) => out.push((**a).clone()),
        Expr::Sequence(items, pos) => {
            out.extend(items.iter().cloned());
            for i in 0..items.len() {
                let mut fewer = items.clone();
                fewer.remove(i);
                out.push(Expr::Sequence(fewer, *pos));
            }
        }
        Expr::Filter(base, preds, pos) => {
            out.push((**base).clone());
            for i in 0..preds.len() {
                let mut fewer = preds.clone();
                fewer.remove(i);
                out.push(Expr::Filter(base.clone(), fewer, *pos));
            }
        }
        Expr::AxisStep {
            axis,
            test,
            predicates,
            pos,
        } if !predicates.is_empty() => {
            for i in 0..predicates.len() {
                let mut fewer = predicates.clone();
                fewer.remove(i);
                out.push(Expr::AxisStep {
                    axis: *axis,
                    test: test.clone(),
                    predicates: fewer,
                    pos: *pos,
                });
            }
        }
        Expr::FunctionCall(_, args, _) => out.extend(args.iter().cloned()),
        Expr::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            out.push((**cond).clone());
            out.push((**then_branch).clone());
            out.push((**else_branch).clone());
        }
        Expr::Flwor {
            clauses,
            where_clause,
            order_by,
            stable,
            return_clause,
            pos,
        } => {
            out.push((**return_clause).clone());
            for c in clauses {
                match c {
                    FlworClause::For { source, .. } => out.push(source.clone()),
                    FlworClause::Let { value, .. } => out.push(value.clone()),
                }
            }
            // Drop one clause at a time. A dropped binder whose variable
            // is still referenced makes the probe fail to compile — the
            // divergence predicate then rejects the candidate, which is
            // exactly the behaviour we want.
            for i in 0..clauses.len() {
                if clauses.len() == 1 {
                    break; // a FLWOR needs at least one clause
                }
                let mut fewer = clauses.clone();
                fewer.remove(i);
                out.push(Expr::Flwor {
                    clauses: fewer,
                    where_clause: where_clause.clone(),
                    order_by: order_by.clone(),
                    stable: *stable,
                    return_clause: return_clause.clone(),
                    pos: *pos,
                });
            }
            if where_clause.is_some() || !order_by.is_empty() {
                out.push(Expr::Flwor {
                    clauses: clauses.clone(),
                    where_clause: None,
                    order_by: Vec::new(),
                    stable: *stable,
                    return_clause: return_clause.clone(),
                    pos: *pos,
                });
            }
        }
        Expr::Quantified {
            bindings,
            satisfies,
            ..
        } => {
            out.push((**satisfies).clone());
            for (_, _, src) in bindings {
                out.push(src.clone());
            }
        }
        Expr::DirectElement { content, .. } => {
            for c in content {
                match c {
                    xqr_xqparser::ast::DirContent::Enclosed(e)
                    | xqr_xqparser::ast::DirContent::Child(e) => out.push(e.clone()),
                    xqr_xqparser::ast::DirContent::Text(_) => {}
                }
            }
        }
        Expr::ComputedElement {
            content: Some(body),
            ..
        }
        | Expr::ComputedAttribute {
            content: Some(body),
            ..
        } => out.push((**body).clone()),
        _ => {}
    }
    out
}

/// Rewrite the first subexpression (pre-order) for which `replace`
/// yields a candidate; used to apply reductions below the root.
fn map_first<F: FnMut(&Expr) -> Option<Expr>>(e: &Expr, replace: &mut F) -> Option<Expr> {
    if let Some(new) = replace(e) {
        return Some(new);
    }
    // Only recurse into the shapes the generator emits with nested
    // expression positions that matter for shrinking.
    match e {
        Expr::Path(a, b, pos) => {
            if let Some(na) = map_first(a, replace) {
                return Some(Expr::Path(Box::new(na), b.clone(), *pos));
            }
            map_first(b, replace).map(|nb| Expr::Path(a.clone(), Box::new(nb), *pos))
        }
        Expr::Filter(base, preds, pos) => {
            map_first(base, replace).map(|nb| Expr::Filter(Box::new(nb), preds.clone(), *pos))
        }
        Expr::Flwor {
            clauses,
            where_clause,
            order_by,
            stable,
            return_clause,
            pos,
        } => map_first(return_clause, replace).map(|nr| Expr::Flwor {
            clauses: clauses.clone(),
            where_clause: where_clause.clone(),
            order_by: order_by.clone(),
            stable: *stable,
            return_clause: Box::new(nr),
            pos: *pos,
        }),
        _ => None,
    }
}

/// The shrunken form of a divergent case.
pub struct Shrunk {
    pub module: Module,
    pub text: String,
    pub xml: String,
    /// Reduction steps that were accepted.
    pub steps: usize,
}

/// Greedily shrink a divergent case. `probes` bounds the number of
/// oracle invocations (each probe runs the full lattice).
pub fn shrink(
    module: &Module,
    xml: &str,
    doc_config: Option<&RandomTreeConfig>,
    mutate: bool,
    probes: usize,
) -> Shrunk {
    let mut best = module.clone();
    let mut best_xml = xml.to_string();
    let mut steps = 0usize;
    let mut budget = probes;

    // Document first: a smaller tree makes every query probe cheaper.
    if let Some(cfg) = doc_config {
        let mut cfg = cfg.clone();
        while cfg.nodes > 4 && budget > 0 {
            let smaller = RandomTreeConfig {
                nodes: cfg.nodes / 2,
                max_depth: cfg.max_depth.saturating_sub(1).max(2),
                ..cfg.clone()
            };
            let candidate = xqr_xmlgen::random_tree(&smaller);
            budget -= 1;
            if still_diverges(&best, &candidate, mutate) {
                best_xml = candidate;
                cfg = smaller;
                steps += 1;
            } else {
                break;
            }
        }
    }

    // Query: root reductions first, then one level down via `map_first`.
    'outer: while budget > 0 {
        let mut candidates: Vec<Module> = reductions(&best.body)
            .into_iter()
            .map(|body| Module {
                prolog: best.prolog.clone(),
                body,
            })
            .collect();
        // Second-tier candidates: apply each child's reductions in place.
        let root_reds = reductions(&best.body);
        for c in &root_reds {
            for r in reductions(c) {
                let mut replace = |e: &Expr| if *e == *c { Some(r.clone()) } else { None };
                if let Some(body) = map_first(&best.body, &mut replace) {
                    candidates.push(Module {
                        prolog: best.prolog.clone(),
                        body,
                    });
                }
            }
        }

        for cand in candidates {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if still_diverges(&cand, &best_xml, mutate) {
                best = cand;
                steps += 1;
                continue 'outer; // restart from the new, smaller body
            }
        }
        break; // no candidate preserved the divergence — fixpoint
    }

    let text = print_module(&best);
    Shrunk {
        module: best,
        text,
        xml: best_xml,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xqparser::parse_query;

    #[test]
    fn shrinks_mutated_divergence_to_the_subtraction() {
        // Under the deliberate miscompile, a query embedding `7 - 3`
        // inside noise shrinks toward the constant subtraction.
        let module = parse_query("(//a, <r>{ (7 - 3) + count(//d) }</r>)").unwrap();
        let xml = "<root><a/><d/><d/></root>";
        assert!(still_diverges(&module, xml, true));
        let shrunk = shrink(&module, xml, None, true, 60);
        assert!(shrunk.steps > 0, "no reduction accepted");
        assert!(
            shrunk.text.len() < xqr_xqparser::print_module(&module).len(),
            "did not get smaller: {}",
            shrunk.text
        );
        // The shrunken case must itself still diverge.
        assert!(still_diverges(&shrunk.module, &shrunk.xml, true));
    }

    #[test]
    fn document_shrinking_respects_divergence() {
        let module = parse_query("5 - 2").unwrap();
        let cfg = RandomTreeConfig {
            nodes: 200,
            ..Default::default()
        };
        let xml = xqr_xmlgen::random_tree(&cfg);
        let shrunk = shrink(&module, &xml, Some(&cfg), true, 30);
        assert!(shrunk.xml.len() < xml.len(), "document did not shrink");
        assert!(still_diverges(&shrunk.module, &shrunk.xml, true));
    }
}
