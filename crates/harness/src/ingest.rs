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
use std::time::Duration;

use crate::gen::{GenConfig, QueryGen};
use crate::pubsub::{case_limits, doc_config, random_path, Violation};
use xqr_core::{contain_panic, Engine};
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_service::{QueryService, ServiceConfig};
use xqr_subscribe::{SubId, SubscriptionRegistry};
use xqr_xdm::ErrorCode;
use xqr_xmlgen::random_tree;

/// Faultpoint sites on the chunked-ingestion path, the two
/// ingest-specific ones first — the schedule generator favours them so
/// mid-chunk failure handling is exercised constantly.
pub const INGEST_SITES: &[&str] = &[
    "ingest.chunk",
    "ingest.flush",
    "xml.read",
    "tokens.buffer",
    "subscribe.deliver",
    "store.load",
];

/// Everything one ingest case reports.
#[derive(Debug)]
pub struct IngestCase {
    pub seed: u64,
    pub faulted: bool,
    pub subscriptions: usize,
    pub documents: usize,
    /// Chunked publishes compared against their whole-document twin.
    pub chunkings: u64,
    /// Chunked stream queries compared against one-shot evaluation.
    pub stream_queries: u64,
    /// Comparisons that ended byte-identical (results and stats).
    pub agreed: u64,
    /// Comparisons that ended in matching (or fault-coded) errors.
    pub coded: u64,
    /// Injections that fired (faulted mode).
    pub fired: u64,
    pub violations: Vec<Violation>,
}

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

/// Derive a fault schedule for the ingestion path: one or two rules,
/// the first over `ingest.chunk`/`ingest.flush` most of the time.
pub fn gen_schedule(rng: &mut StdRng, seed: u64) -> FaultSchedule {
    let mut schedule = FaultSchedule::new(seed);
    for rule_no in 0..rng.gen_range(1..3u32) {
        let site = if rule_no == 0 && rng.gen_bool(0.6) {
            INGEST_SITES[rng.gen_range(0..2)]
        } else {
            INGEST_SITES[rng.gen_range(0..INGEST_SITES.len())]
        };
        let kind = match rng.gen_range(0..10u32) {
            0..=5 => FaultKind::ErrorReturn,
            6 | 7 => FaultKind::Panic,
            8 => FaultKind::Delay(Duration::from_millis(rng.gen_range(1..4))),
            _ => FaultKind::Cancel,
        };
        let mut rule = FaultRule::new(site, kind)
            .one_in(rng.gen_range(1..6))
            .skip_first(rng.gen_range(0..8));
        if rng.gen_range(0..4u32) > 0 {
            rule = rule.max_fires(rng.gen_range(1..4));
        }
        schedule = schedule.rule(rule);
    }
    schedule
}

type Outcome = Result<String, ErrorCode>;

fn outcome(r: &xqr_xdm::Result<String>) -> Outcome {
    r.clone().map_err(|e| e.code)
}

/// Run one seeded case. Un-faulted: strict chunked-vs-whole report
/// equivalence at the registry layer. Faulted: service chunk sessions
/// under an ingestion fault schedule, judged correct-or-coded with
/// cleanup checks.
pub fn run_case(seed: u64, faulted: bool) -> IngestCase {
    let mut rng = StdRng::seed_from_u64(seed);

    let n_docs = rng.gen_range(1usize..4);
    let docs: Vec<String> = (0..n_docs)
        .map(|i| random_tree(&doc_config(&mut rng, seed ^ (0x1A6E57 + i as u64))))
        .collect();
    let n_subs = rng.gen_range(1usize..6);
    let queries: Vec<String> = (0..n_subs)
        .map(|_| {
            if rng.gen_bool(0.6) {
                random_path(&mut rng)
            } else {
                QueryGen::new(&mut rng, GenConfig::default())
                    .generate()
                    .text
            }
        })
        .collect();

    let mut case = IngestCase {
        seed,
        faulted,
        subscriptions: n_subs,
        documents: n_docs,
        chunkings: 0,
        stream_queries: 0,
        agreed: 0,
        coded: 0,
        fired: 0,
        violations: Vec::new(),
    };

    if faulted {
        run_faulted(&mut rng, seed, &docs, &queries, &mut case);
    } else {
        run_strict(&mut rng, &docs, &queries, &mut case);
    }
    case
}

/// Un-faulted leg: `publish_chunked` vs `publish` on one registry, then
/// each streamable query alone through `open_stream_query` vs one-shot
/// evaluation.
fn run_strict(rng: &mut StdRng, docs: &[String], queries: &[String], case: &mut IngestCase) {
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
            case.chunkings += 1;
            let split = chunks(xml.as_bytes(), lens);
            let chunked = contain_panic(|| {
                reg.publish_chunked(&engine, &name, split.iter().copied(), case_limits())
            });
            let at = format!("doc {di} chunking {ci}");
            match (&whole, &chunked) {
                (Ok(w), Ok(c)) => {
                    for &(si, id) in &subs {
                        let wr = w.result_for(id).map(outcome);
                        let cr = c.result_for(id).map(outcome);
                        if wr == cr {
                            case.agreed += 1;
                        } else {
                            case.violations.push(Violation {
                                at: format!("sub {si} {at}"),
                                detail: format!("whole {wr:?} vs chunked {cr:?}"),
                            });
                        }
                    }
                    if (w.stats.tokens_seen, w.stats.tokens_skipped, w.stats.matches)
                        != (c.stats.tokens_seen, c.stats.tokens_skipped, c.stats.matches)
                        || w.shared_pass != c.shared_pass
                        || w.fallback != c.fallback
                    {
                        case.violations.push(Violation {
                            at,
                            detail: format!(
                                "report drift: whole stats {:?} pass {}/{} vs \
                                 chunked stats {:?} pass {}/{}",
                                w.stats,
                                w.shared_pass,
                                w.fallback,
                                c.stats,
                                c.shared_pass,
                                c.fallback
                            ),
                        });
                    }
                }
                (Err(we), Err(ce)) => {
                    if we.code == ce.code {
                        case.coded += 1;
                    } else {
                        case.violations.push(Violation {
                            at,
                            detail: format!(
                                "error drift: whole {} vs chunked {}",
                                we.code.as_str(),
                                ce.code.as_str()
                            ),
                        });
                    }
                }
                (w, c) => {
                    case.violations.push(Violation {
                        at,
                        detail: format!("outcome drift: whole {w:?} vs chunked {c:?}"),
                    });
                }
            }
        }

        for &(si, q) in &streamable {
            let one_shot = outcome(&contain_panic(|| svc.engine().query_xml(xml, q)));
            for (ci, lens) in lens_list.iter().enumerate() {
                case.stream_queries += 1;
                let chunked = outcome(&contain_panic(|| {
                    let mut sq = svc.open_stream_query(q)?;
                    for c in chunks(xml.as_bytes(), lens) {
                        sq.feed(c)?;
                    }
                    sq.finish()
                }));
                match (&one_shot, &chunked) {
                    (a, b) if a != b => case.violations.push(Violation {
                        at: format!("stream query {si} doc {di} chunking {ci}"),
                        detail: format!("one-shot {a:?} vs chunked {b:?}"),
                    }),
                    (Ok(_), _) => case.agreed += 1,
                    (Err(_), _) => case.coded += 1,
                }
            }
        }
    }

    if engine.store().doc_count() != 0 {
        case.violations.push(Violation {
            at: "store".into(),
            detail: format!(
                "chunked publishes leaked {} document(s)",
                engine.store().doc_count()
            ),
        });
    }
}

/// Faulted leg: service chunk sessions under an ingestion schedule.
/// Chaos rules: correct or coded, sessions cleaned up, no store leak,
/// `XQRL0000` only with a scheduled panic.
fn run_faulted(
    rng: &mut StdRng,
    seed: u64,
    docs: &[String],
    queries: &[String],
    case: &mut IngestCase,
) {
    let svc = QueryService::new(ServiceConfig {
        per_query_limits: case_limits(),
        max_chunk_sessions: 8,
        ..Default::default()
    });
    let mut subs: Vec<(usize, xqr_subscribe::SubId)> = Vec::new();
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
                .map(|d| outcome(&contain_panic(|| svc.engine().query_xml(d, q))))
                .collect()
        })
        .collect();

    let schedule = gen_schedule(rng, seed);
    let panics_scheduled = schedule
        .rules
        .iter()
        .any(|r| matches!(r.kind, FaultKind::Panic));
    let lens_list: Vec<Vec<usize>> = docs.iter().map(|d| chunk_lens(rng, d.len())).collect();

    {
        let _guard = xqr_faults::install(schedule);
        for (di, xml) in docs.iter().enumerate() {
            case.chunkings += 1;
            let at = |si: usize| format!("sub {si} doc {di} [faulted]");
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
                        let got = report.result_for(id).map(outcome);
                        match got {
                            Some(Ok(v)) => match &reference[si][di] {
                                Ok(want) if *want == v => case.agreed += 1,
                                Ok(want) => case.violations.push(Violation {
                                    at: at(si),
                                    detail: format!(
                                        "wrong answer under injection: want {want:?}, got {v:?}"
                                    ),
                                }),
                                // The un-faulted reference failed but the
                                // faulted session succeeded: resource
                                // verdicts aside this cannot happen; be
                                // lenient like the chaos judge and count
                                // it as coded agreement.
                                Err(_) => case.coded += 1,
                            },
                            Some(Err(code)) => {
                                if code == ErrorCode::Internal && !panics_scheduled {
                                    case.violations.push(Violation {
                                        at: at(si),
                                        detail: "XQRL0000 without a scheduled panic".into(),
                                    });
                                } else {
                                    case.coded += 1;
                                }
                            }
                            None => case.violations.push(Violation {
                                at: at(si),
                                detail: "live subscription missing from the report".into(),
                            }),
                        }
                    }
                }
                Err(e) => {
                    if e.code == ErrorCode::Internal && !panics_scheduled {
                        case.violations.push(Violation {
                            at: format!("doc {di} [faulted]"),
                            detail: format!("XQRL0000 without a scheduled panic: {e}"),
                        });
                    } else {
                        case.coded += 1;
                    }
                }
            }
        }
        case.fired = xqr_faults::fires();
    }

    // Cleanup invariants, checked un-faulted: a failed session is
    // removed, and nothing reached the store.
    if svc.chunk_sessions() != 0 {
        case.violations.push(Violation {
            at: "sessions".into(),
            detail: format!("{} chunk session(s) leaked", svc.chunk_sessions()),
        });
    }
    if svc.engine().store().doc_count() != 0 {
        case.violations.push(Violation {
            at: "store".into(),
            detail: format!(
                "faulted sessions leaked {} document(s)",
                svc.engine().store().doc_count()
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_unfaulted_case_agrees() {
        let case = run_case(7, false);
        assert!(case.violations.is_empty(), "{:?}", case.violations);
        assert!(case.agreed + case.coded > 0);
        assert!(case.chunkings >= 4, "1-byte split plus seeded chunkings");
        assert!(case.stream_queries >= 4, "seed 7 has a streamable query");
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
