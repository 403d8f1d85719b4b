//! The chunked-ingestion leg of the oracle: a document fed as byte
//! chunks must be indistinguishable from the same document handed over
//! whole.
//!
//! The invariant, enforced per case:
//!
//! > **Publishing a document through `publish_chunked` — re-split at
//! > arbitrary byte boundaries, including mid-tag, mid-entity, and
//! > mid-UTF-8 — produces a report identical to `publish`**: the same
//! > per-subscription results or the same coded errors, the same match
//! > counts, the same stream statistics, and the same shared-pass /
//! > fallback split. Never a different answer, never a leaked store
//! > document.
//!
//! Each case derives a subscription set (random paths riding the
//! shared automaton pass plus grammar-generated queries on the
//! fallback) and a few random documents from one seed. Every document
//! is published whole for the reference report, then re-published
//! through the chunked session under several seeded chunkings — a
//! degenerate 1-byte split is always among them, which drags every
//! token construct across a boundary. Every streamable subscription
//! query additionally runs alone through the service's
//! `open_stream_query` under the same re-splits and must equal its
//! one-shot evaluation — result or error code.
//!
//! In faulted mode the same traffic runs through the *service* chunk
//! sessions with a schedule over the ingestion faultpoints
//! (`ingest.chunk`, `ingest.flush`, plus the parse/deliver sites
//! below them). The judgement relaxes to the chaos rules: every
//! session ends correct or coded, a failed session is removed (no
//! leaked sessions, no store residue), and `err:XQRL0000` appears only
//! when a panic was scheduled.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::stream_case;
use crate::pubsub::tally;
use crate::schedule::{gen_schedule, panics_scheduled, SiteWeights};
use crate::verdict::{judge, outcome, Contract, Outcome, Violation};
use crate::{case_limits, Case};
use xqr_core::{contain_panic, Engine};
use xqr_service::{QueryService, ServiceConfig};
use xqr_subscribe::{PublishReport, SubId, SubscriptionRegistry};
use xqr_xdm::{Error, ErrorCode};

/// Faultpoint sites on the chunked-ingestion path, the two
/// ingest-specific ones first — the first rule draws from them six
/// times in ten, so mid-chunk failure handling is exercised constantly.
/// No budget trips: the path has no budget of its own to trip. Not
/// listed, because no case reaches them: `tokens.buffer` (only
/// `BufferFactory` fills a token buffer) and `subscribe.deliver` (the
/// leg's subscriptions have no sink).
pub const SITES: SiteWeights = SiteWeights {
    sites: &["ingest.chunk", "ingest.flush", "xml.read", "store.load"],
    favoured: (2, 0.6),
    kinds: [6, 2, 1, 1, 0],
    max_skip: 8,
    hit_once: &[],
};

/// Split `len` bytes into seeded chunk lengths: mostly small (1–16
/// bytes, crossing every construct), occasionally large.
fn chunk_lens(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let mut lens = Vec::new();
    let mut left = len;
    while left > 0 {
        let l = if rng.gen_bool(0.2) {
            rng.gen_range(1..left.min(512) + 1)
        } else {
            rng.gen_range(1..left.min(16) + 1)
        };
        lens.push(l);
        left -= l;
    }
    lens
}

fn chunks<'a>(bytes: &'a [u8], lens: &[usize]) -> Vec<&'a [u8]> {
    let mut out = Vec::with_capacity(lens.len());
    let mut pos = 0;
    for &l in lens {
        out.push(&bytes[pos..pos + l]);
        pos += l;
    }
    out
}

/// One subscription's entry in a publish report, as an [`Outcome`].
fn result_for(report: &PublishReport, id: SubId) -> Outcome {
    outcome(match report.result_for(id) {
        Some(r) => r.clone(),
        None => Err(Error::internal("live subscription missing from the report")),
    })
}

/// Run one seeded case: un-faulted (strict chunked-vs-whole report
/// equivalence at the registry layer), then service chunk sessions
/// under an ingestion fault schedule, judged correct-or-coded with
/// cleanup checks. Tallies: `chunked publishes`, `chunked stream
/// queries`, `comparisons agreed`, `coded`, `skipped`, `injections
/// fired`.
pub fn run_case(seed: u64) -> Case {
    let mut case = Case::tallying(&[
        "chunked publishes",
        "chunked stream queries",
        "comparisons agreed",
        "coded",
        "skipped",
        "injections fired",
    ]);
    for faulted in [false, true] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (docs, queries) = stream_case(&mut rng, seed, 0x1A6E57, 6, 0.6);
        if faulted {
            run_faulted(&mut rng, seed, &docs, &queries, &mut case);
        } else {
            run_strict(&mut rng, &docs, &queries, &mut case);
        }
    }
    case
}

/// Un-faulted leg: `publish_chunked` vs `publish` on one registry, then
/// each streamable query alone through `open_stream_query` vs one-shot
/// evaluation.
fn run_strict(rng: &mut StdRng, docs: &[String], queries: &[String], case: &mut Case) {
    let engine = Engine::new();
    let reg = SubscriptionRegistry::new();
    let svc = QueryService::new(ServiceConfig {
        per_query_limits: case_limits(),
        ..Default::default()
    });
    let mut subs: Vec<(usize, SubId)> = Vec::new();
    let mut streamable: Vec<(usize, &str)> = Vec::new();
    for (si, q) in queries.iter().enumerate() {
        // Compile rejections are the pubsub leg's business; here only
        // registered subscriptions matter.
        if let Ok(plan) = engine.compile_shared(q) {
            if plan.is_streamable() {
                streamable.push((si, q));
            }
            subs.push((si, reg.register(q, plan, case_limits(), None)));
        }
    }

    for (di, xml) in docs.iter().enumerate() {
        let name = format!("doc-{di}");
        let whole = contain_panic(|| reg.publish(&engine, &name, xml, case_limits()));

        // Three seeded chunkings plus the 1-byte degenerate split.
        let mut lens_list: Vec<Vec<usize>> = (0..3).map(|_| chunk_lens(rng, xml.len())).collect();
        lens_list.push(vec![1; xml.len()]);

        for (ci, lens) in lens_list.iter().enumerate() {
            case.add("chunked publishes", 1);
            let split = chunks(xml.as_bytes(), lens);
            let chunked = contain_panic(|| {
                reg.publish_chunked(&engine, &name, split.iter().copied(), case_limits())
            });
            let at = format!("doc {di} chunking {ci}");
            match (&whole, &chunked) {
                (Ok(w), Ok(c)) => {
                    for &(si, id) in &subs {
                        let verdict =
                            judge(Contract::Strict, &result_for(w, id), &result_for(c, id));
                        tally(case, format!("sub {si} {at}"), verdict);
                    }
                    if (w.stats.tokens_seen, w.stats.tokens_skipped, w.stats.matches)
                        != (c.stats.tokens_seen, c.stats.tokens_skipped, c.stats.matches)
                        || w.shared_pass != c.shared_pass
                        || w.fallback != c.fallback
                    {
                        case.violations.push(Violation::new(
                            at,
                            format!(
                                "report drift: whole stats {:?} pass {}/{} vs \
                                 chunked stats {:?} pass {}/{}",
                                w.stats,
                                w.shared_pass,
                                w.fallback,
                                c.stats,
                                c.shared_pass,
                                c.fallback
                            ),
                        ));
                    }
                }
                // The document itself was refused: identically, or not.
                (Err(we), Err(ce)) if we.code == ce.code => case.add("coded", 1),
                (w, c) => case.violations.push(Violation::new(
                    at,
                    format!("outcome drift: whole {w:?} vs chunked {c:?}"),
                )),
            }
        }

        for &(si, q) in &streamable {
            let one_shot = outcome(contain_panic(|| svc.engine().query_xml(xml, q)));
            for (ci, lens) in lens_list.iter().enumerate() {
                case.add("chunked stream queries", 1);
                let chunked = outcome(contain_panic(|| {
                    let mut sq = svc.open_stream_query(q)?;
                    for c in chunks(xml.as_bytes(), lens) {
                        sq.feed(c)?;
                    }
                    sq.finish()
                }));
                tally(
                    case,
                    format!("stream query {si} doc {di} chunking {ci}"),
                    judge(Contract::Strict, &one_shot, &chunked),
                );
            }
        }
    }

    if engine.store().doc_count() != 0 {
        case.violations.push(Violation::new(
            "store",
            format!(
                "chunked publishes leaked {} document(s)",
                engine.store().doc_count()
            ),
        ));
    }
}

/// Faulted leg: service chunk sessions under an ingestion schedule.
/// Chaos rules: correct or coded, sessions cleaned up, no store leak,
/// `XQRL0000` only with a scheduled panic.
fn run_faulted(rng: &mut StdRng, seed: u64, docs: &[String], queries: &[String], case: &mut Case) {
    let svc = QueryService::new(ServiceConfig {
        per_query_limits: case_limits(),
        max_chunk_sessions: 8,
        ..Default::default()
    });
    let mut subs: Vec<(usize, SubId)> = Vec::new();
    for (si, q) in queries.iter().enumerate() {
        if let Ok(id) = svc.subscribe(q) {
            subs.push((si, id));
        }
    }
    // References computed un-faulted on the service's own engine.
    let reference: Vec<Vec<Outcome>> = queries
        .iter()
        .map(|q| {
            docs.iter()
                .map(|d| outcome(contain_panic(|| svc.engine().query_xml(d, q))))
                .collect()
        })
        .collect();

    let schedule = gen_schedule(rng, seed, &SITES);
    let panics = panics_scheduled(&schedule);
    let contract = Contract::Faulted {
        panics_scheduled: panics,
    };
    let lens_list: Vec<Vec<usize>> = docs.iter().map(|d| chunk_lens(rng, d.len())).collect();

    {
        let _guard = xqr_faults::install(schedule);
        for (di, xml) in docs.iter().enumerate() {
            case.add("chunked publishes", 1);
            let session = contain_panic(|| {
                let sid = svc.open_chunk_session(&format!("doc-{di}"))?;
                for c in chunks(xml.as_bytes(), &lens_list[di]) {
                    svc.feed_chunk(sid, c)?;
                }
                svc.finish_chunk_session(sid)
            });
            match session {
                Ok(report) => {
                    for &(si, id) in &subs {
                        let verdict = judge(contract, &reference[si][di], &result_for(&report, id));
                        tally(case, format!("sub {si} doc {di} [faulted]"), verdict);
                    }
                }
                Err(e) if e.code == ErrorCode::Internal && !panics => {
                    case.violations.push(Violation::new(
                        format!("doc {di} [faulted]"),
                        format!("XQRL0000 without a scheduled panic: {e}"),
                    ));
                }
                Err(_) => case.add("coded", 1),
            }
        }
        case.add("injections fired", xqr_faults::fires());
    }

    // Cleanup invariants, checked un-faulted: a failed session is
    // removed, and nothing reached the store.
    if svc.chunk_sessions() != 0 {
        case.violations.push(Violation::new(
            "sessions",
            format!("{} chunk session(s) leaked", svc.chunk_sessions()),
        ));
    }
    if svc.engine().store().doc_count() != 0 {
        case.violations.push(Violation::new(
            "store",
            format!(
                "faulted sessions leaked {} document(s)",
                svc.engine().store().doc_count()
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_case_upholds_both_contracts() {
        let case = run_case(7);
        assert!(case.violations.is_empty(), "{:?}", case.violations);
        assert!(case.count("comparisons agreed") + case.count("coded") > 0);
        assert!(
            case.count("chunked publishes") >= 5,
            "1-byte split, seeded chunkings and a faulted session"
        );
        assert!(
            case.count("chunked stream queries") >= 4,
            "seed 7 has a streamable query"
        );
    }

    #[test]
    fn chunk_lens_cover_the_document_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1usize, 2, 17, 400] {
            let lens = chunk_lens(&mut rng, len);
            assert_eq!(lens.iter().sum::<usize>(), len);
            assert!(lens.iter().all(|&l| l >= 1));
        }
    }
}
