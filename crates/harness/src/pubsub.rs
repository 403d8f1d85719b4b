//! The pub/sub leg of the oracle: standing subscriptions vs one-shot
//! queries.
//!
//! The invariant `xqr-subscribe` must uphold, with and without injected
//! faults:
//!
//! > **N standing subscriptions over a document stream ≡ N independent
//! > one-shot queries per document** — byte-for-byte, or the same
//! > stable coded error, never cross-contamination.
//!
//! Each case derives a subscription set (a mix of random path
//! expressions, which ride the shared combined-automaton pass, and
//! grammar-generated queries, which mostly fall back to one-shot
//! evaluation) and a small document stream from one seed. The reference
//! outcome for every `(subscription, document)` pair is computed
//! un-faulted via [`Engine::query_xml`]; then every document is
//! published at the whole set and the per-subscription outcomes are
//! compared.
//!
//! In faulted mode a seeded `FaultSchedule` (weighted toward the
//! `subscribe.deliver` site) is installed around the publishes, and the
//! judgement switches to the chaos rules: each subscription ends
//! **correct or coded** — a different successful answer is a violation,
//! `err:XQRL0000` requires a scheduled panic, and an injected delivery
//! fault may degrade its victim subscription but never the pass, a
//! neighbour, or the store (leak-checked after every case).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::gen::stream_case;
use crate::schedule::{gen_schedule, panics_scheduled, SiteWeights};
use crate::verdict::{judge, outcome, Contract, Outcome, Verdict, Violation};
use crate::{case_limits, Case};
use xqr_core::{contain_panic, Engine};
use xqr_subscribe::{CollectingSink, SubId, SubscriptionRegistry};

/// Faultpoint sites on the publish path, `subscribe.deliver` first —
/// the first rule picks it half the time so delivery isolation is
/// exercised constantly, not occasionally. Not listed, because no
/// publish reaches them: `store.read` (fallback queries read their
/// context document, never `fn:doc`) and `tokens.buffer` (only
/// `BufferFactory` fills a token buffer).
pub const SITES: SiteWeights = SiteWeights {
    sites: &[
        "subscribe.deliver",
        "xml.read",
        "store.load",
        "index.build",
        "eval.next",
    ],
    favoured: (1, 0.5),
    kinds: [5, 2, 1, 1, 1],
    max_skip: 8,
    hit_once: &[],
};

/// Tally one comparison's verdict under the labels every
/// comparison-counting leg prints.
pub(crate) fn tally(case: &mut Case, at: String, verdict: Verdict) {
    match verdict {
        Verdict::Agree => case.add("comparisons agreed", 1),
        Verdict::Coded(_) => case.add("coded", 1),
        Verdict::Skipped => case.add("skipped", 1),
        Verdict::Violation(detail) => case.violations.push(Violation::new(at, detail)),
    }
}

/// Run one seeded case: un-faulted (strict equivalence with independent
/// one-shot queries), then again with a derived schedule installed
/// around the publishes (correct or coded). Tallies: `comparisons
/// agreed`, `coded`, `skipped`, `injections fired`, plus `shared pass`
/// and `fallback` (subscriptions on each route, last publish).
pub fn run_case(seed: u64) -> Case {
    let mut case = Case::tallying(&["comparisons agreed", "coded", "skipped", "injections fired"]);
    for faulted in [false, true] {
        run_leg(seed, faulted, &mut case);
    }
    case
}

fn run_leg(seed: u64, faulted: bool, case: &mut Case) {
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = Engine::new();
    let tag = if faulted { " [faulted]" } else { "" };

    let (docs, queries) = stream_case(&mut rng, seed, 0xD0C, 7, 0.5);

    // Reference outcomes, un-faulted: one independent one-shot query
    // per (subscription, document) pair.
    let reference: Vec<Vec<Outcome>> = queries
        .iter()
        .map(|q| {
            docs.iter()
                .map(|d| outcome(contain_panic(|| engine.query_xml(d, q))))
                .collect()
        })
        .collect();

    // Register the set. A query the subscribe path refuses to compile
    // must be one the one-shot path refuses identically.
    let reg = SubscriptionRegistry::new();
    let mut subs: Vec<Option<(SubId, Arc<CollectingSink>)>> = Vec::new();
    for (si, q) in queries.iter().enumerate() {
        match engine.compile_shared(q) {
            Ok(plan) => {
                let sink = CollectingSink::new();
                let id = reg.register(q, plan, case_limits(), Some(sink.clone()));
                subs.push(Some((id, sink)));
            }
            Err(e) => {
                for (di, r) in reference[si].iter().enumerate() {
                    if !matches!(r, Err((code, _)) if *code == e.code) {
                        case.violations.push(Violation::new(
                            format!("sub {si} doc {di}"),
                            format!(
                                "subscribe rejected {q:?} with {} but one-shot said {r:?}",
                                e.code.as_str()
                            ),
                        ));
                    }
                }
                subs.push(None);
            }
        }
    }

    let schedule = faulted.then(|| gen_schedule(&mut rng, seed, &SITES));
    let contract = match &schedule {
        Some(s) => Contract::Faulted {
            panics_scheduled: panics_scheduled(s),
        },
        None => Contract::Strict,
    };
    let (mut shared_pass, mut fallback) = (0, 0);

    {
        let _guard = schedule.map(xqr_faults::install);
        for (di, xml) in docs.iter().enumerate() {
            let report =
                contain_panic(|| reg.publish(&engine, &format!("doc-{di}"), xml, case_limits()));
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    // The whole publish failed (the document itself was
                    // unreadable under injection): that is every live
                    // subscription's outcome for this document.
                    let failed = outcome(Err(e));
                    for (si, _) in subs.iter().enumerate().filter(|(_, s)| s.is_some()) {
                        let at = format!("sub {si} doc {di}{tag}");
                        tally(case, at, judge(contract, &reference[si][di], &failed));
                    }
                    continue;
                }
            };
            (shared_pass, fallback) = (report.shared_pass, report.fallback);
            for (si, entry) in subs.iter().enumerate() {
                let Some((id, sink)) = entry else { continue };
                let at = format!("sub {si} doc {di}{tag}");
                let Some(got) = report.result_for(*id) else {
                    case.violations.push(Violation::new(
                        at,
                        "live subscription missing from the report",
                    ));
                    continue;
                };
                let got = outcome(got.clone());
                // Sink agreement: un-faulted, every publish delivers
                // exactly one outcome and it equals the report's.
                if !faulted {
                    let received = sink.take();
                    if received.len() != 1 || outcome(received[0].1.clone()) != got {
                        case.violations.push(Violation::new(
                            at.clone(),
                            format!("sink saw {received:?}, report says {got:?}"),
                        ));
                    }
                }
                tally(case, at, judge(contract, &reference[si][di], &got));
            }
        }
        case.add("injections fired", xqr_faults::fires());
        // Guard drops here; the leak check below runs un-faulted.
    }
    case.add("shared pass", shared_pass as u64);
    case.add("fallback", fallback as u64);
    case.notes.push(format!(
        "subs={} (shared {shared_pass} / fallback {fallback}) docs={}{tag}",
        queries.len(),
        docs.len()
    ));

    // No publish may leak a fallback materialization into the store.
    if engine.store().doc_count() != 0 {
        case.violations.push(Violation::new(
            "store",
            format!(
                "publish leaked {} document(s) into the store",
                engine.store().doc_count()
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_case_agrees_with_and_without_faults() {
        let case = run_case(1);
        assert!(case.violations.is_empty(), "{:?}", case.violations);
        assert!(case.count("comparisons agreed") + case.count("coded") + case.count("skipped") > 0);
    }
}
