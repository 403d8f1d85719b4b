//! The chaos leg of the oracle: seeded fault schedules against the
//! engine and the resilient service.
//!
//! Where the differential oracle ([`crate::oracle`]) asks "do all
//! configurations *mean* the same thing?", the chaos runner asks "does
//! any configuration *misbehave* when its substrate fails?" Each case
//! derives a random (query, document) pair **and** a random
//! [`FaultSchedule`] from one seed, computes the un-faulted reference
//! outcome, then replays the case with the schedule installed through
//! three faulted legs: a bare engine, the retrying/degrading
//! [`QueryService`], and (when the plan is streamable) the
//! token-streaming automaton.
//!
//! The invariant every leg must uphold under injection:
//!
//! 1. **correct or coded** — the leg returns either the reference
//!    result byte-for-byte (the fault was retried or degraded away) or
//!    a stable coded error; a *different successful answer* is always a
//!    violation;
//! 2. **no wrong `Internal`** — `err:XQRL0000` is acceptable only when
//!    the schedule injects panics (contained panics legitimately carry
//!    that code); any other path to it is an engine bug;
//! 3. **no escape** — a panic unwinding out of a public API (past the
//!    engine's containment, the pool's catch, the service's load
//!    boundary) is a violation even though the test harness catches it;
//! 4. **no leak** — after the case's documents are removed, the service
//!    store's document count and resident bytes return to their
//!    pre-case baseline.
//!
//! Deadlocks are covered operationally rather than in-process: a wedged
//! case hangs the run, and the chaos smoke job runs under a CI timeout.
//!
//! Determinism: schedules fire as a pure function of
//! `(seed, site, hit index)` and backoff jitter is seeded, so a failing
//! case replays from its printed seed alone (`chaos --seed S+i
//! --cases 1` replays case `i` of master seed `S`, like the fuzz
//! driver).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

use crate::gen::{GenConfig, QueryGen};
use xqr_core::{contain_panic, context_with_doc, Engine, EngineOptions, Item, NodeId, NodeRef};
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_runtime::DynamicContext;
use xqr_service::{QueryService, RetryPolicy, ServiceConfig};
use xqr_xdm::{Error, ErrorCode, Limits};
use xqr_xmlgen::{random_tree, RandomTreeConfig};

/// Every faultpoint site compiled into the stack, bottom to top.
pub const SITES: &[&str] = &[
    "xml.read",
    "tokens.buffer",
    "store.load",
    "store.read",
    "store.remove",
    "index.build",
    "eval.next",
    "catalog.load",
    "plans.insert",
    "pool.dispatch",
    "parallel.morsel",
    "subscribe.deliver",
    "ingest.chunk",
    "ingest.flush",
    "pressure.charge",
];

/// Budgets for chaos cases: the fuzz budgets, minus most of the
/// deadline — injected delays should not stretch a case to seconds.
fn chaos_limits() -> Limits {
    Limits::unlimited()
        .with_deadline(Duration::from_secs(10))
        .with_max_items(200_000)
        .with_max_output_bytes(4 * 1024 * 1024)
}

/// How one faulted leg ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LegEnd {
    /// Matched the reference result (possibly after retry/degradation).
    Correct,
    /// A stable coded error.
    Coded(ErrorCode),
}

/// An invariant violation — the chaos suite's only failure mode.
#[derive(Debug, Clone)]
pub struct Violation {
    pub leg: &'static str,
    pub detail: String,
}

/// Everything one chaos case reports.
#[derive(Debug)]
pub struct ChaosCase {
    pub seed: u64,
    /// The schedule this case installed — printed on violation so a
    /// failure is diagnosable without re-deriving it from the seed.
    pub schedule: FaultSchedule,
    /// Injections that actually fired during the faulted legs.
    pub fired: u64,
    /// Per-leg endings (leg name, ending) for legs that ran.
    pub legs: Vec<(&'static str, LegEnd)>,
    /// Service-side retries observed during this case.
    pub retries: u64,
    pub violations: Vec<Violation>,
}

impl ChaosCase {
    /// Did some leg absorb a fault and still produce the correct
    /// answer? The resilience story in one bit.
    pub fn survived_injection(&self) -> bool {
        self.fired > 0 && self.legs.iter().any(|(_, e)| *e == LegEnd::Correct)
    }
}

/// Derive a fault schedule from a case RNG: one or two rules over the
/// site list, error-class kinds most common, firing bounded more often
/// than not (a bounded rule is what makes "correct after retry"
/// reachable).
pub fn gen_schedule(rng: &mut StdRng, seed: u64) -> FaultSchedule {
    let mut schedule = FaultSchedule::new(seed);
    for _ in 0..rng.gen_range(1..3u32) {
        let site = SITES[rng.gen_range(0..SITES.len())];
        let kind = match rng.gen_range(0..10u32) {
            0..=4 => FaultKind::ErrorReturn,
            5 | 6 => FaultKind::Panic,
            7 => FaultKind::Delay(Duration::from_millis(rng.gen_range(1..4))),
            8 => FaultKind::Cancel,
            _ => FaultKind::BudgetTrip,
        };
        let mut rule = FaultRule::new(site, kind)
            .one_in(rng.gen_range(1..6))
            .skip_first(rng.gen_range(0..12));
        if rng.gen_range(0..4u32) > 0 {
            rule = rule.max_fires(rng.gen_range(1..4));
        }
        schedule = schedule.rule(rule);
    }
    schedule
}

fn doc_config(rng: &mut StdRng, seed: u64) -> RandomTreeConfig {
    RandomTreeConfig {
        seed,
        nodes: rng.gen_range(20usize..120),
        max_depth: rng.gen_range(3usize..8),
        alphabet: 4,
        p_ancestor: 0.15,
        p_descendant: 0.2,
        p_text: 0.3,
        p_attribute: 0.25,
    }
}

/// The chaos runner: a long-lived resilient service (so breakers, the
/// plan cache, and lock-poison state carry *across* cases, the way a
/// production process would) plus per-case engines.
pub struct ChaosRunner {
    options: EngineOptions,
    service: QueryService,
    case_no: u64,
}

impl Default for ChaosRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ChaosRunner {
    pub fn new() -> ChaosRunner {
        let limits = chaos_limits();
        let mut options = EngineOptions::default();
        options.runtime.limits = limits;
        // Force the morsel executor on (split even tiny lists, 3 ways)
        // so the `parallel.morsel` site actually fires on the suite's
        // small documents — default heuristics would run them serially.
        options.runtime.parallel = xqr_runtime::ParallelConfig::forced(3);
        let service = QueryService::new(ServiceConfig {
            engine: options.clone(),
            plan_cache_capacity: 64,
            plan_cache_shards: 4,
            catalog_max_bytes: Some(16 * 1024 * 1024),
            max_concurrent: 2,
            max_queued: 8,
            per_query_limits: limits,
            retry: RetryPolicy::default(),
            persist_dir: None,
            ..Default::default()
        });
        ChaosRunner {
            options,
            service,
            case_no: 0,
        }
    }

    pub fn service_stats(&self) -> xqr_service::ServiceStats {
        self.service.stats()
    }

    /// Run one seeded chaos case through every faulted leg and check
    /// the invariant. See the module docs for the rules.
    pub fn run_case(&mut self, seed: u64) -> ChaosCase {
        self.case_no += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let dcfg = doc_config(&mut rng, seed ^ 0xD0C);
        let xml = random_tree(&dcfg);
        let query = QueryGen::new(&mut rng, GenConfig::default())
            .generate()
            .text;
        let schedule = gen_schedule(&mut rng, seed);
        let panics_scheduled = schedule
            .rules
            .iter()
            .any(|r| matches!(r.kind, FaultKind::Panic));

        // Un-faulted reference on a throwaway engine.
        let reference = {
            let engine = Engine::with_options(self.options.clone());
            outcome(contain_panic(|| {
                let ctx = context_with_doc(&engine, "chaos.xml", &xml)?;
                engine
                    .compile(&query)?
                    .execute(&engine, &ctx)?
                    .serialize_guarded()
            }))
        };

        let mut case = ChaosCase {
            seed,
            schedule: schedule.clone(),
            fired: 0,
            legs: Vec::new(),
            retries: 0,
            violations: Vec::new(),
        };
        let stats_before = self.service.stats();
        let store = self.service.engine().store().clone();
        let doc_name = format!("chaos-{}.xml", self.case_no);

        // Un-faulted whole-document publish: the reference for the
        // chunked-ingestion leg. The engine reference above cannot
        // anchor it — cross-document node order (a constructed node
        // unioned with stored ones) is implementation-defined and
        // depends on the store's doc-id history, so a subscription
        // evaluated on the long-lived service can legitimately order a
        // union differently from a throwaway engine. The ingest
        // invariant is *chunked == whole on the same service*, and
        // that is what gets judged.
        let ingest_reference = outcome(match contain_panic(|| self.service.subscribe(&query)) {
            Ok(sub) => {
                let run = contain_panic(|| {
                    let report = self.service.publish(&doc_name, &xml)?;
                    report
                        .result_for(sub)
                        .ok_or_else(|| {
                            xqr_xdm::Error::internal(
                                "live subscription missing from the whole-document report",
                            )
                        })?
                        .clone()
                });
                self.service.unsubscribe(sub);
                run
            }
            Err(e) => Err(e),
        });

        // Baseline for the leak check, taken before any faulted work.
        let (base_docs, base_bytes) = (store.doc_count(), store.live_bytes());

        {
            let _guard = xqr_faults::install(schedule);

            // Leg 1: bare engine, everything behind the panic boundary.
            let engine_leg = {
                let engine = Engine::with_options(self.options.clone());
                outcome(contain_panic(|| {
                    let ctx = context_with_doc(&engine, "chaos.xml", &xml)?;
                    let guard = xqr_xdm::QueryGuard::new(chaos_limits());
                    engine
                        .compile(&query)?
                        .execute_guarded(&engine, &ctx, guard)?
                        .serialize_guarded()
                }))
            };
            self.judge(
                &mut case,
                "engine",
                &reference,
                engine_leg,
                panics_scheduled,
            );

            // Leg 2: the resilient service — retry, breakers, poison
            // recovery, and degradation all in the path.
            let service_leg = outcome(contain_panic(|| {
                let id = self.service.load_document(&doc_name, &xml)?;
                let mut ctx = DynamicContext::new();
                ctx.context_item = Some(Item::Node(NodeRef::new(id, NodeId(0))));
                self.service.run_with_context(&query, ctx)
            }));
            self.judge(
                &mut case,
                "service",
                &reference,
                service_leg,
                panics_scheduled,
            );

            // Leg 3: token streaming, for every streamable plan — it
            // emits the node set materialized evaluation returns, so the
            // reference applies.
            let streaming_engine = Engine::with_options(self.options.clone());
            if let Ok(prepared) = streaming_engine.compile(&query) {
                if prepared.is_streamable() {
                    let mut out = String::new();
                    let streamed = outcome(contain_panic(|| {
                        prepared
                            .execute_streaming(&streaming_engine, &xml, |m| out.push_str(m))
                            .map(|_| out.clone())
                    }));
                    self.judge(
                        &mut case,
                        "streaming",
                        &reference,
                        streamed,
                        panics_scheduled,
                    );
                }
            }

            // Leg 4: chunked ingestion — the query rides a standing
            // subscription, the document arrives split into small
            // chunks through a service chunk session. `ingest.chunk`
            // and `ingest.flush` fire here; any fault must end the
            // session with a stable coded error and leave no session
            // (checked below) and no store residue (leak check below).
            let chunk_len = rng.gen_range(1usize..33);
            let ingest_leg = outcome(match contain_panic(|| self.service.subscribe(&query)) {
                Ok(sub) => {
                    // The session ops get their own containment so the
                    // unsubscribe below runs even when an injected panic
                    // unwinds out of a feed or finish.
                    let run = contain_panic(|| {
                        let sid = self.service.open_chunk_session(&doc_name)?;
                        for c in xml.as_bytes().chunks(chunk_len) {
                            self.service.feed_chunk(sid, c)?;
                        }
                        let report = self.service.finish_chunk_session(sid)?;
                        report
                            .result_for(sub)
                            .ok_or_else(|| {
                                xqr_xdm::Error::internal(
                                    "live subscription missing from the chunked report",
                                )
                            })?
                            .clone()
                    });
                    self.service.unsubscribe(sub);
                    run
                }
                Err(e) => Err(e),
            });
            self.judge(
                &mut case,
                "ingest",
                &ingest_reference,
                ingest_leg,
                panics_scheduled,
            );

            case.fired = xqr_faults::fires();
            // Guard drops here: later cleanup runs un-faulted.
        }

        // A failed chunk session must be cleaned up, not leaked.
        if self.service.chunk_sessions() != 0 {
            case.violations.push(Violation {
                leg: "ingest",
                detail: format!(
                    "{} chunk session(s) leaked past the case",
                    self.service.chunk_sessions()
                ),
            });
        }

        // Cleanup + leak check: with injection off, removal must restore
        // the store to its baseline exactly. A transient publish doc
        // whose removal was panicked mid-case is parked on the orphan
        // list; the un-faulted reap here must reclaim it.
        self.service.reap_orphaned_documents();
        self.service.remove_document(&doc_name);
        if store.doc_count() != base_docs || store.live_bytes() != base_bytes {
            case.violations.push(Violation {
                leg: "store",
                detail: format!(
                    "store leak: docs {} -> {}, bytes {} -> {}",
                    base_docs,
                    store.doc_count(),
                    base_bytes,
                    store.live_bytes()
                ),
            });
        }

        case.retries = self.service.stats().retries - stats_before.retries;
        case
    }

    /// Apply the invariant to one leg's outcome.
    fn judge(
        &self,
        case: &mut ChaosCase,
        leg: &'static str,
        reference: &Result<String, (ErrorCode, String)>,
        actual: Result<String, (ErrorCode, String)>,
        panics_scheduled: bool,
    ) {
        match actual {
            Ok(got) => match reference {
                Ok(want) if *want == got => case.legs.push((leg, LegEnd::Correct)),
                Ok(want) => case.violations.push(Violation {
                    leg,
                    detail: format!("wrong answer under injection: want {want:?}, got {got:?}"),
                }),
                // A resource verdict in the reference (deadline, budget,
                // shedding) is timing-dependent, so a leg succeeding is
                // legal. Erasing a *deterministic* error is not: the
                // faulted legs run the same configuration, so injection
                // can only add failures, never remove them.
                Err((code, _)) if is_resource(*code) => case.legs.push((leg, LegEnd::Correct)),
                Err((code, _)) => case.violations.push(Violation {
                    leg,
                    detail: format!(
                        "fault injection erased a deterministic error: reference failed \
                         with {} but the leg succeeded with {got:?}",
                        code.as_str()
                    ),
                }),
            },
            Err((ErrorCode::Internal, msg)) if !panics_scheduled => {
                case.violations.push(Violation {
                    leg,
                    detail: format!("err:XQRL0000 without a scheduled panic — engine bug: {msg}"),
                });
            }
            Err((code, _)) => case.legs.push((leg, LegEnd::Coded(code))),
        }
    }
}

fn outcome(r: Result<String, Error>) -> Result<String, (ErrorCode, String)> {
    r.map_err(|e| (e.code, e.to_string()))
}

/// Timing-dependent resource verdicts (mirrors the oracle's skip class).
fn is_resource(code: ErrorCode) -> bool {
    matches!(
        code,
        ErrorCode::Limit
            | ErrorCode::Timeout
            | ErrorCode::Cancelled
            | ErrorCode::Overloaded
            | ErrorCode::Unavailable
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let mk = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = gen_schedule(&mut rng, seed);
            s.rules
                .iter()
                .map(|r| (r.site.clone(), r.one_in, r.skip_first, r.max_fires))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }
}
