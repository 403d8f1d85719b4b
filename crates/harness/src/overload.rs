//! Open-loop overload runner: a ceiling-governed [`QueryService`]
//! under a seeded mixed workload offered at roughly 10× its capacity.
//!
//! Where the chaos leg ([`crate::chaos`]) injects *faults* into a
//! lightly loaded service, this runner injects *load* into a healthy
//! one and asserts the overload-governance contract end to end:
//!
//! 1. **bounded memory** — a watcher thread samples the memory ledger
//!    throughout the run; the sampled total never exceeds
//!    `ceiling + slack` (the slack absorbs in-flight charges that were
//!    admitted just below a watermark);
//! 2. **correct or coded** — every operation either succeeds or fails
//!    with a stable coded error from the documented overload set
//!    (`XQRL0004` sheds, `XQRL0002` deadline drops, `XQRL0001`/
//!    `XQRL0003`/`XQRL0005` budgets and faults, `FODC0002` for a
//!    document a sibling thread removed); `err:XQRL0000 Internal`
//!    or a panic is always a violation;
//! 3. **accounting closes** — after the run drains,
//!    `dropped_expired + executed == admitted` at the service level;
//! 4. **return to Green** — once load stops, the pressure state walks
//!    back to Green and every transient ledger category (sessions,
//!    channels, query output, publish buffers) drains to
//!    zero bytes. Brownout is a mode, not a ratchet. The resident
//!    categories close as well: the ledger's catalog share equals the
//!    catalog's own byte count, and nothing stays charged once the
//!    service has dropped.
//!
//! Hangs are covered operationally, like the chaos suite: a wedged run
//! blows the CI timeout. Leak detection at the *process* level (a
//! counting allocator) lives in the binary (`src/bin/harness.rs`),
//! because a `#[global_allocator]` must be installed by the final
//! artifact, not a library.
//!
//! Determinism: each producer thread derives its op stream from
//! `case_seed(seed, thread_index)`, so a failing run replays from its
//! printed seed. Interleaving is scheduler-dependent — the invariants
//! above are exactly the ones that hold under *every* interleaving.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::verdict::{is_resource, Violation};
use crate::{case_seed, Case};
use xqr_pressure::{Category, PressureConfig, PressureState};
use xqr_service::{QueryService, ServiceConfig};
use xqr_xdm::{Error, ErrorCode, Limits};

/// Shape of one overload run.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Ledger ceiling handed to [`PressureConfig::with_ceiling`].
    pub ceiling: u64,
    /// Producer threads hammering the service concurrently. With
    /// `max_concurrent` worker threads below, offered query load is
    /// `producers / max_concurrent` times capacity before counting the
    /// publish/ingest/batch traffic each producer interleaves.
    pub producers: usize,
    /// Operations each producer performs before stopping.
    pub ops_per_producer: usize,
    /// Worker threads in the service pool (the "capacity").
    pub max_concurrent: usize,
    /// Allowed overshoot of the sampled ledger total past the ceiling:
    /// `charge` is deliberately non-blocking for admitted work, so
    /// charges racing a transition can land just past a watermark.
    pub slack: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            // Sized against the fixed-seed workload's natural footprint
            // so the run actually crosses Yellow and Red watermarks and
            // recovers, rather than idling in Green (the sampled peak
            // under an unreachable ceiling is ~56 KiB).
            ceiling: 56 << 10,
            producers: 20,
            ops_per_producer: 150,
            max_concurrent: 2,
            slack: 512 * 1024,
        }
    }
}

/// Error codes an overloaded-but-correct service may return: the
/// resource verdicts, plus `FODC0002` for a document a sibling thread
/// removed. Anything else — above all `Internal` — is a violation.
fn acceptable(err: &Error) -> bool {
    is_resource(err.code) || err.code == ErrorCode::DocumentNotFound
}

/// Ledger categories that must drain to zero once load stops. Resident
/// state (catalog documents, cached plans) legitimately persists.
const TRANSIENT: &[Category] = &[
    Category::ChunkSessions,
    Category::IngestChannels,
    Category::Subscriptions,
    Category::QueryOutput,
];

/// Queries the producers draw from: a mix of cheap lookups, indexable
/// path scans, and output-heavy joins so the pool, the plan cache and
/// the output charges all see traffic.
const QUERIES: &[&str] = &[
    "1 + 1",
    "count(doc(\"base0.xml\")//item)",
    "doc(\"base1.xml\")//item[@k = \"3\"]",
    "string-join(for $i in 1 to 400 return \"x\", \"\")",
    "sum(for $i in 1 to 2000 return $i)",
    "doc(\"base0.xml\")//item[position() <= 2]",
];

fn doc_xml(items: usize) -> String {
    let mut xml = String::from("<r>");
    for i in 0..items {
        xml.push_str(&format!("<item k=\"{i}\">payload {i}</item>"));
    }
    xml.push_str("</r>");
    xml
}

/// Run one seeded overload session and check every invariant the
/// governance stack promises. See the module docs for the contract.
/// Tallies: `ops`, `ok`, `shed` (`XQRL0004`), `expired` (`XQRL0002`),
/// `other-coded`, `pressure transitions`; the ledger peaks are a note.
pub fn run_overload(seed: u64, cfg: &OverloadConfig) -> Case {
    let svc = Arc::new(QueryService::new(ServiceConfig {
        max_concurrent: cfg.max_concurrent,
        max_queued: 8,
        max_chunk_sessions: 8,
        plan_cache_capacity: 64,
        per_query_limits: Limits::unlimited().with_deadline(Duration::from_millis(250)),
        pressure: PressureConfig::with_ceiling(cfg.ceiling),
        ..Default::default()
    }));

    // Resident base state: documents the queries target and standing
    // subscriptions so publishes do real matching work.
    for i in 0..3 {
        svc.load_document(&format!("base{i}.xml"), &doc_xml(8))
            .unwrap();
    }
    svc.subscribe("/r/item").unwrap();
    svc.subscribe("//item[@k = \"2\"]").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let tallies: Arc<[AtomicU64; 5]> = Arc::new(Default::default());
    const OPS: usize = 0;
    const OK: usize = 1;
    const SHED: usize = 2;
    const EXPIRED: usize = 3;
    const OTHER: usize = 4;

    // Contract breaches found after the producers stop; theirs (and the
    // watcher's) go through the shared list.
    let mut breaches: Vec<String> = Vec::new();
    let violations: Arc<std::sync::Mutex<Vec<String>>> = Arc::new(Default::default());

    // Watcher: sample the ledger total against ceiling + slack while
    // the producers run.
    let watcher = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        let violations = Arc::clone(&violations);
        let (ceiling, slack) = (cfg.ceiling, cfg.slack);
        thread::spawn(move || {
            let mut peak = 0u64;
            let mut breached = false;
            while !stop.load(Ordering::Relaxed) {
                let total = svc.ledger().total();
                peak = peak.max(total);
                if total > ceiling + slack && !breached {
                    breached = true;
                    violations.lock().unwrap().push(format!(
                        "ledger total {total} exceeded ceiling {ceiling} + slack {slack}"
                    ));
                }
                thread::sleep(Duration::from_micros(500));
            }
            peak
        })
    };

    let producers: Vec<_> = (0..cfg.producers)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let tallies = Arc::clone(&tallies);
            let violations = Arc::clone(&violations);
            let ops = cfg.ops_per_producer;
            let tseed = case_seed(seed, t as u64);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(tseed);
                for _ in 0..ops {
                    tallies[OPS].fetch_add(1, Ordering::Relaxed);
                    let outcome: Result<(), Error> = match rng.gen_range(0..10u32) {
                        // Queries dominate the mix, as they would in a
                        // real overload: ~half the traffic.
                        0..=4 => {
                            let q = QUERIES[rng.gen_range(0..QUERIES.len())];
                            svc.submit(q, Default::default())
                                .and_then(|t| t.wait())
                                .map(drop)
                        }
                        5 => {
                            let name = format!("pub{}.xml", rng.gen_range(0..4u32));
                            svc.publish(&name, &doc_xml(rng.gen_range(1..20))).map(drop)
                        }
                        6 => {
                            svc.run_batch("base0.xml", &["count(//item)", "1 + 1"])
                                .map(|results| {
                                    for r in results {
                                        if let Err(e) = r {
                                            if !acceptable(&e) {
                                                violations
                                                    .lock()
                                                    .unwrap()
                                                    .push(format!("batch entry: unacceptable {e}"));
                                            }
                                        }
                                    }
                                })
                        }
                        7 => svc.open_chunk_session("chunked").and_then(|id| {
                            let payload = doc_xml(rng.gen_range(1..30));
                            let fed = payload
                                .as_bytes()
                                .chunks(64)
                                .try_for_each(|chunk| svc.feed_chunk(id, chunk))
                                .and_then(|()| svc.finish_chunk_session(id).map(drop));
                            if fed.is_err() {
                                // A failed session must not hold its
                                // slot (or its ledger bytes) hostage.
                                svc.abort_chunk_session(id);
                            }
                            fed
                        }),
                        8 => svc.open_stream_query("/r/item").and_then(|mut q| {
                            let payload = doc_xml(rng.gen_range(1..15));
                            for chunk in payload.as_bytes().chunks(64) {
                                q.feed(chunk)?;
                            }
                            q.finish().map(drop)
                        }),
                        // Churn resident state: load a scratch document
                        // and remove it so catalog charges move both
                        // ways under load.
                        _ => {
                            let name = format!("scratch{t}.xml");
                            let r = svc
                                .load_document(&name, &doc_xml(rng.gen_range(1..10)))
                                .map(drop);
                            svc.remove_document(&name);
                            r
                        }
                    };
                    match outcome {
                        Ok(()) => drop(tallies[OK].fetch_add(1, Ordering::Relaxed)),
                        Err(e) if e.code == ErrorCode::Overloaded => {
                            tallies[SHED].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.code == ErrorCode::Timeout => {
                            tallies[EXPIRED].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if acceptable(&e) => {
                            tallies[OTHER].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => violations
                            .lock()
                            .unwrap()
                            .push(format!("unacceptable error: {e}")),
                    }
                }
            })
        })
        .collect();

    for (i, p) in producers.into_iter().enumerate() {
        if p.join().is_err() {
            violations
                .lock()
                .unwrap()
                .push(format!("producer {i} panicked"));
        }
    }
    stop.store(true, Ordering::Relaxed);
    let peak_sampled = watcher.join().unwrap_or(0);

    // Load has stopped: the ledger must walk back to Green and every
    // transient category must drain. Charges are released by RAII on
    // paths we just joined, so this converges quickly; the deadline
    // only bounds a genuine leak.
    let drained = |svc: &QueryService| {
        let snap = svc.ledger().snapshot();
        snap.state == PressureState::Green
            && TRANSIENT.iter().all(|&c| snap.category(c).current == 0)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !drained(&svc) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    let snap = svc.ledger().snapshot();
    if snap.state != PressureState::Green {
        breaches.push(format!(
            "pressure did not return to Green after load stopped: {} ({} bytes held)",
            snap.state.as_str(),
            snap.total
        ));
    }
    for &c in TRANSIENT {
        let held = snap.category(c).current;
        if held != 0 {
            breaches.push(format!(
                "transient category {} leaked {held} bytes after drain",
                c.as_str()
            ));
        }
    }

    // Service-level accounting must close now that every ticket has
    // been waited on: a queued query either executed (and recorded a
    // latency) or was dropped at its deadline — never both, never
    // neither.
    let stats = svc.stats();
    if stats.dropped_expired + stats.latency_count != stats.admitted {
        breaches.push(format!(
            "admission accounting leak: dropped {} + executed {} != admitted {}",
            stats.dropped_expired, stats.latency_count, stats.admitted
        ));
    }

    // The two resident categories close too, charged directly where
    // the bytes change: the catalog's share is exactly what it holds,
    // and every cached plan carries at least its fixed 1 KiB estimate.
    let resident = snap.category(Category::CatalogResident).current;
    if resident != svc.catalog().total_bytes() {
        breaches.push(format!(
            "ledger holds {resident} catalog bytes, the catalog {}",
            svc.catalog().total_bytes()
        ));
    }
    let plan_bytes = snap.category(Category::PlanCache).current;
    let plans = stats.plan_entries;
    if plan_bytes < plans * 1024 || (plans == 0 && plan_bytes != 0) {
        breaches.push(format!(
            "ledger holds {plan_bytes} plan-cache bytes for {plans} cached plans"
        ));
    }

    // Every thread holding the service was joined: dropping it now
    // drops the catalog and the plan cache, which hand their bytes back.
    let ledger = Arc::clone(svc.ledger());
    drop(svc);
    if ledger.total() != 0 {
        breaches.push(format!(
            "{} bytes still charged after the service dropped",
            ledger.total()
        ));
    }

    breaches.extend(violations.lock().unwrap().drain(..));
    let unacceptable = breaches
        .iter()
        .filter(|v| v.contains("unacceptable"))
        .count() as u64;

    let mut case = Case::default();
    for (label, slot) in [
        ("ops", OPS),
        ("ok", OK),
        ("shed", SHED),
        ("expired", EXPIRED),
        ("other-coded", OTHER),
    ] {
        case.add(label, tallies[slot].load(Ordering::Relaxed));
    }
    case.add(
        "pressure transitions",
        stats.pressure_to_yellow + stats.pressure_to_red,
    );
    case.notes.push(format!(
        "ledger: peak-sampled {peak_sampled}  peak {}",
        snap.peak
    ));
    // Sanity on the tally algebra itself.
    if case.count("ok")
        + case.count("shed")
        + case.count("expired")
        + case.count("other-coded")
        + unacceptable
        > case.count("ops")
    {
        breaches.push("tally overflow: more outcomes than operations".into());
    }
    case.violations = breaches
        .into_iter()
        .map(|v| Violation::new("overload", v))
        .collect();
    case
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature run — the CI smoke drives the full-size one.
    #[test]
    fn small_overload_run_holds_every_invariant() {
        let case = run_overload(
            7,
            &OverloadConfig {
                producers: 6,
                ops_per_producer: 25,
                ..Default::default()
            },
        );
        assert!(case.violations.is_empty(), "{:?}", case.violations);
        assert_eq!(case.count("ops"), 6 * 25);
        assert!(case.count("ok") > 0, "some work must get through: {case:?}");
    }
}
