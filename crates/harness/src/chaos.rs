//! The chaos leg of the oracle: seeded fault schedules against the
//! engine and the resilient service.
//!
//! Where the differential oracle ([`crate::oracle`]) asks "do all
//! configurations *mean* the same thing?", the chaos runner asks "does
//! any configuration *misbehave* when its substrate fails?" Each case
//! derives a random (query, document) pair **and** a random
//! `FaultSchedule` from one seed, computes the un-faulted reference
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
//! --cases 1` replays case `i` of master seed `S`, like every leg).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{doc_config, GenConfig, QueryGen};
use crate::schedule::{gen_schedule, panics_scheduled, SiteWeights};
use crate::verdict::{judge, outcome, Contract, Outcome, Verdict, Violation};
use crate::{case_limits, Case};
use xqr_core::{contain_panic, context_with_doc, Engine, EngineOptions, Item, NodeId, NodeRef};
use xqr_runtime::DynamicContext;
use xqr_service::{QueryService, RetryPolicy, ServiceConfig};
use xqr_xmlgen::random_tree;

/// Every faultpoint site a running service passes through, bottom to
/// top, drawn uniformly (the persistence sites are the recover leg's).
pub const SITES: SiteWeights = SiteWeights {
    sites: &[
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
        "subscribe.deliver",
        "ingest.chunk",
        "ingest.flush",
        "pressure.charge",
    ],
    favoured: (0, 0.0),
    kinds: [5, 2, 1, 1, 1],
    max_skip: 12,
};

/// The chaos runner: a long-lived resilient service (so the plan
/// cache, the catalog and lock-poison state carry *across* cases, the
/// way a production process would) plus per-case engines.
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
        let limits = case_limits();
        let mut options = EngineOptions::default();
        options.runtime.limits = limits;
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

    /// The run-level summary line: what the long-lived service's
    /// degradation ladder did across every case.
    pub fn finish(&self) -> Vec<String> {
        let stats = self.service.stats();
        vec![format!(
            "service: retries={} uncached-compiles={} build-failures={} lock-recoveries={}",
            stats.retries,
            stats.uncached_compiles,
            stats.index_build_failures,
            stats.lock_recoveries
        )]
    }

    /// What `query` receives, as a standing subscription, from the one
    /// document `deliver` publishes. The delivery gets its own
    /// containment so the unsubscribe runs even when an injected panic
    /// unwinds out of it.
    fn subscribed(
        &self,
        query: &str,
        deliver: impl FnOnce() -> xqr_xdm::Result<xqr_subscribe::PublishReport>,
    ) -> Outcome {
        let sub = match contain_panic(|| self.service.subscribe(query)) {
            Ok(sub) => sub,
            Err(e) => return outcome(Err(e)),
        };
        let received = contain_panic(|| {
            deliver()?
                .result_for(sub)
                .ok_or_else(|| {
                    xqr_xdm::Error::internal("live subscription missing from the report")
                })?
                .clone()
        });
        self.service.unsubscribe(sub);
        outcome(received)
    }

    /// Run one seeded chaos case through every faulted leg and check
    /// the invariant. See the module docs for the rules. Tallies:
    /// `injections fired`, `legs correct`, `legs coded-error` and
    /// `cases surviving injection` (some leg absorbed a fault and still
    /// answered correctly — the resilience story in one bit).
    pub fn run_case(&mut self, seed: u64) -> Case {
        self.case_no += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let dcfg = doc_config(&mut rng, seed ^ 0xD0C, 120, 8);
        let xml = random_tree(&dcfg);
        let query = QueryGen::new(&mut rng, GenConfig::default())
            .generate()
            .text;
        let schedule = gen_schedule(&mut rng, seed, &SITES);
        let contract = Contract::Faulted {
            panics_scheduled: panics_scheduled(&schedule),
        };

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

        let mut case = Case::tallying(&[
            "injections fired",
            "legs correct",
            "legs coded-error",
            "cases surviving injection",
        ]);
        let retries_before = self.service.stats().retries;
        let store = self.service.engine().store().clone();
        let doc_name = format!("chaos-{}.xml", self.case_no);

        // Un-faulted whole-document publish: the reference for the
        // chunked-ingestion leg, whose invariant is *chunked == whole
        // on the same service* — so that is what gets judged, not the
        // throwaway engine's answer above.
        let ingest_reference = self.subscribed(&query, || self.service.publish(&doc_name, &xml));

        // Baseline for the leak check, taken before any faulted work.
        let (base_docs, base_bytes) = (store.doc_count(), store.live_bytes());

        {
            let _guard = xqr_faults::install(schedule.clone());

            // Leg 1: bare engine, everything behind the panic boundary.
            let engine_leg = {
                let engine = Engine::with_options(self.options.clone());
                outcome(contain_panic(|| {
                    let ctx = context_with_doc(&engine, "chaos.xml", &xml)?;
                    let guard = xqr_xdm::QueryGuard::new(case_limits());
                    engine
                        .compile(&query)?
                        .execute_guarded(&engine, &ctx, guard)?
                        .serialize_guarded()
                }))
            };
            tally(&mut case, contract, "engine", &reference, engine_leg);

            // Leg 2: the resilient service — retry, poison recovery and
            // the degradation ladder all in the path.
            let service_leg = outcome(contain_panic(|| {
                let id = self.service.load_document(&doc_name, &xml)?;
                let mut ctx = DynamicContext::new();
                ctx.context_item = Some(Item::Node(NodeRef::new(id, NodeId(0))));
                self.service.run_with_context(&query, ctx)
            }));
            tally(&mut case, contract, "service", &reference, service_leg);

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
                    tally(&mut case, contract, "streaming", &reference, streamed);
                }
            }

            // Leg 4: chunked ingestion — the query rides a standing
            // subscription, the document arrives split into small
            // chunks through a service chunk session. `ingest.chunk`
            // and `ingest.flush` fire here; any fault must end the
            // session with a stable coded error and leave no session
            // (checked below) and no store residue (leak check below).
            let chunk_len = rng.gen_range(1usize..33);
            let ingest_leg = self.subscribed(&query, || {
                let sid = self.service.open_chunk_session(&doc_name)?;
                for c in xml.as_bytes().chunks(chunk_len) {
                    self.service.feed_chunk(sid, c)?;
                }
                self.service.finish_chunk_session(sid)
            });
            tally(&mut case, contract, "ingest", &ingest_reference, ingest_leg);

            case.add("injections fired", xqr_faults::fires());
            // Guard drops here: later cleanup runs un-faulted.
        }

        // A failed chunk session must be cleaned up, not leaked.
        if self.service.chunk_sessions() != 0 {
            case.violations.push(Violation::new(
                "ingest",
                format!(
                    "{} chunk session(s) leaked past the case",
                    self.service.chunk_sessions()
                ),
            ));
        }

        // Cleanup + leak check: with injection off, removing the case's
        // document must restore the store to its baseline exactly —
        // every transient and constructed document died with its lease,
        // whatever the faults did.
        self.service.remove_document(&doc_name);
        if store.doc_count() != base_docs || store.live_bytes() != base_bytes {
            case.violations.push(Violation::new(
                "store",
                format!(
                    "store leak: docs {} -> {}, bytes {} -> {}",
                    base_docs,
                    store.doc_count(),
                    base_bytes,
                    store.live_bytes()
                ),
            ));
        }

        let retries = self.service.stats().retries - retries_before;
        if retries > 0 {
            case.notes.push(format!("service retried {retries}x"));
        }
        let survived = case.count("injections fired") > 0 && case.count("legs correct") > 0;
        case.add("cases surviving injection", survived as u64);
        if !case.violations.is_empty() {
            // Printed with the violation, so a failure is diagnosable
            // without re-deriving the schedule from the seed.
            case.violations
                .push(Violation::new("schedule", format!("{schedule:?}")));
        }
        case
    }
}

/// Hold one faulted leg's outcome to the contract and tally its ending.
fn tally(
    case: &mut Case,
    contract: Contract,
    leg: &'static str,
    reference: &Outcome,
    actual: Outcome,
) {
    match judge(contract, reference, &actual) {
        // A timing-dependent reference cannot convict a leg that
        // answered: it counts with the correct endings.
        Verdict::Agree | Verdict::Skipped => case.add("legs correct", 1),
        Verdict::Coded(code) => {
            case.add("legs coded-error", 1);
            case.notes.push(format!("{leg} -> {}", code.as_str()));
        }
        Verdict::Violation(detail) => case.violations.push(Violation::new(leg, detail)),
    }
}
