//! The multi-configuration execution oracle.
//!
//! One case = one query text + one document. The oracle executes the
//! case through every leg of the configuration lattice and compares
//! outcomes against the **reference** leg (materialized, unoptimized
//! engine) under [`Contract::Optimizer`]: optimizations may avoid errors
//! but may never introduce them, and may never change a successful
//! result. [`Fuzz`] is the leg the driver runs: generate a case from a
//! seed, put it through the oracle, shrink what diverges.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use crate::gen::{doc_config, GenConfig, QueryGen};
use crate::report::RunReport;
use crate::verdict::{judge, outcome, Contract, Outcome, Verdict, Violation};
use crate::{shrink, Case};
use xqr_compiler::{CompileOptions, RewriteConfig, RewriteStats};
use xqr_core::{Engine, EngineOptions, Item, NodeId, NodeRef};
use xqr_runtime::{DynamicContext, RuntimeOptions};
use xqr_service::{QueryService, ServiceConfig};
use xqr_xdm::{ErrorCode, Limits, QueryGuard};
use xqr_xmlgen::random_tree;

/// Budgets applied to every leg of every case. Generous enough that a
/// legitimate case never trips them; tight enough that a pathological
/// generated query (cartesian `//node()` products…) cannot wedge a run.
pub fn fuzz_limits() -> Limits {
    Limits::unlimited()
        .with_deadline(Duration::from_secs(10))
        .with_max_items(1_000_000)
        .with_max_output_bytes(8 * 1024 * 1024)
}

/// How one case ended across the whole lattice.
#[derive(Debug)]
pub enum CaseVerdict {
    /// Every leg agreed with the reference (all `Ok`, equal bytes).
    Agree,
    /// The reference failed; every leg either failed too or legally
    /// avoided the error.
    AgreeError(ErrorCode),
    /// A resource budget fired somewhere — not comparable.
    Skipped(&'static str),
    /// Disagreement: the named leg broke the contract.
    Diverged(Divergence),
}

#[derive(Debug)]
pub struct Divergence {
    /// Which leg disagreed (`optimized`, `indexed`, `service`,
    /// `service-cached`, `streaming`).
    pub leg: &'static str,
    pub reference: Outcome,
    pub actual: Outcome,
    /// [`judge`]'s account of how the contract broke.
    pub detail: String,
}

/// Everything the oracle learned about one case.
pub struct CaseResult {
    pub verdict: CaseVerdict,
    /// Optimizer rule firings for the optimized compilation (empty when
    /// compilation failed).
    pub rewrite_stats: RewriteStats,
    /// The optimized plan's `explain()` (empty when compilation failed).
    pub plan: String,
    /// Whether the streaming leg ran (the plan is streamable).
    pub streamed: bool,
}

/// The oracle: owns a long-lived [`QueryService`] (so its plan cache
/// sees the whole run and cycles through eviction) plus the engine
/// options for the per-case reference and optimized legs.
pub struct Oracle {
    ref_options: EngineOptions,
    opt_options: EngineOptions,
    idx_options: EngineOptions,
    service: QueryService,
    case_no: u64,
}

impl Oracle {
    /// `mutate` switches on the deliberate constant-folding miscompile
    /// (`RewriteConfig::debug_miscompile_sub`) in every *optimized* leg,
    /// for the harness's own sanity check: a run with `mutate` that
    /// reports zero divergences means the oracle is blind.
    pub fn new(mutate: bool) -> Oracle {
        let limits = fuzz_limits();
        let mut ref_options = EngineOptions::unoptimized();
        ref_options.runtime.limits = limits;
        let mut rewrite = RewriteConfig::all();
        rewrite.debug_miscompile_sub = mutate;
        // Optimized leg: full rewrites + access-path selection, but NO
        // document indexes — every planted `IndexScan` misses and takes
        // its navigational fallback, so the fallback path is fuzzed too.
        let opt_options = EngineOptions {
            compile: CompileOptions {
                rewrite,
                ..Default::default()
            },
            runtime: RuntimeOptions {
                limits,
                ..Default::default()
            },
            index_documents: false,
        };
        // Indexed leg: same plans, but documents carry structural
        // indexes, so index-eligible subtrees are answered from the
        // tag/path inverted lists instead of navigation.
        let idx_options = EngineOptions {
            index_documents: true,
            ..opt_options.clone()
        };
        let service = QueryService::new(ServiceConfig {
            engine: opt_options.clone(),
            // Small on purpose: a few hundred distinct queries per run
            // cycle the LRU through plenty of evictions.
            plan_cache_capacity: 64,
            plan_cache_shards: 4,
            catalog_max_bytes: Some(16 * 1024 * 1024),
            max_concurrent: 2,
            max_queued: 8,
            per_query_limits: limits,
            // No retries in the differential oracle: a transient code is
            // already a *skip* verdict, and retrying would hide how often
            // legs shed. The chaos harness turns retries on explicitly.
            retry: xqr_service::RetryPolicy::none(),
            persist_dir: None,
            ..Default::default()
        });
        Oracle {
            ref_options,
            opt_options,
            idx_options,
            service,
            case_no: 0,
        }
    }

    /// Aggregate service-side statistics (plan cache, catalog, pool).
    pub fn service_stats(&self) -> xqr_service::ServiceStats {
        self.service.stats()
    }

    /// Run one (query, document) case through every leg and compare.
    pub fn run_case(&mut self, query: &str, xml: &str) -> CaseResult {
        self.case_no += 1;
        // Reference: materialized, unoptimized.
        let reference = run_engine(&self.ref_options, query, xml);
        let mut result = CaseResult {
            verdict: CaseVerdict::Agree,
            rewrite_stats: RewriteStats::default(),
            plan: String::new(),
            streamed: false,
        };
        let doc_name = format!("fuzz-{}.xml", self.case_no);
        let legs = self.run_legs(query, xml, &doc_name, &reference, &mut result);
        self.service.remove_document(&doc_name);
        result.verdict = match (legs, &reference) {
            (Err(decided), _) => decided,
            (Ok(()), Ok(_)) => CaseVerdict::Agree,
            (Ok(()), Err((code, _))) => CaseVerdict::AgreeError(*code),
        };
        result
    }

    /// Every leg in turn, stopping at the first that decides the case
    /// (a skip or a divergence). Fills in `found`'s rewrite stats, plan
    /// and streamed flag; its verdict is the caller's.
    fn run_legs(
        &self,
        query: &str,
        xml: &str,
        doc_name: &str,
        reference: &Outcome,
        found: &mut CaseResult,
    ) -> Result<(), CaseVerdict> {
        // Optimized engine. Keep the prepared query around for the
        // streaming leg, the rewrite stats and the plan.
        let opt_engine = Engine::with_options(self.opt_options.clone());
        let optimized = outcome((|| {
            let prepared = opt_engine.compile(query)?;
            found.rewrite_stats = prepared.compiled().stats.clone();
            found.plan = prepared.explain();
            let ctx = xqr_core::context_with_doc(&opt_engine, "fuzz.xml", xml)?;
            let guard = QueryGuard::new(opt_engine.options().runtime.limits);
            prepared
                .execute_serialized(&opt_engine, &ctx, guard, None)
                .map(|(out, _)| out)
        })());
        compare("optimized", reference, &optimized)?;

        // Indexed: identical compilation, but the document is loaded
        // with a structural index attached, so index-backed access paths
        // actually fire instead of falling back.
        let indexed = run_engine(&self.idx_options, query, xml);
        compare("indexed", reference, &indexed)?;

        // Service legs: same plan text twice — the second run is a plan
        // cache hit by construction (capacity 64 ≫ 1 case in flight).
        for leg in ["service", "service-cached"] {
            let served = outcome((|| {
                let id = self.service.load_document(doc_name, xml)?;
                let mut ctx = DynamicContext::new();
                ctx.context_item = Some(Item::Node(NodeRef::new(id, NodeId(0))));
                self.service.run_with_context(query, ctx)
            })());
            compare(leg, reference, &served)?;
        }

        // Streaming leg: every streamable plan, descendant patterns
        // included — streaming emits every match in document order.
        if let Ok(prepared) = opt_engine.compile(query) {
            if prepared.is_streamable() {
                found.streamed = true;
                let mut out = String::new();
                let streaming = outcome(
                    prepared
                        .execute_streaming(&opt_engine, xml, |m| out.push_str(m))
                        .map(|_| out),
                );
                compare("streaming", reference, &streaming)?;
            }
        }
        Ok(())
    }
}

/// Hold one leg to the optimizer contract. `Err` decides the case.
fn compare(leg: &'static str, reference: &Outcome, actual: &Outcome) -> Result<(), CaseVerdict> {
    match judge(Contract::Optimizer, reference, actual) {
        Verdict::Agree | Verdict::Coded(_) => Ok(()),
        Verdict::Skipped => Err(CaseVerdict::Skipped(leg)),
        Verdict::Violation(detail) => Err(CaseVerdict::Diverged(Divergence {
            leg,
            reference: reference.clone(),
            actual: actual.clone(),
            detail,
        })),
    }
}

/// Run a case on a fresh engine with the given options.
pub fn run_engine(options: &EngineOptions, query: &str, xml: &str) -> Outcome {
    let engine = Engine::with_options(options.clone());
    outcome((|| {
        let prepared = engine.compile(query)?;
        let ctx = xqr_core::context_with_doc(&engine, "fuzz.xml", xml)?;
        prepared.execute(&engine, &ctx)?.serialize_guarded()
    })())
}

/// The differential leg as the driver runs it: one seeded (query,
/// document) pair per case through the [`Oracle`], divergences shrunk,
/// coverage accumulated for the end-of-run report.
pub struct Fuzz {
    oracle: Oracle,
    report: RunReport,
    mutate: bool,
}

impl Fuzz {
    /// `mutate` plants the deliberate miscompile (see [`Oracle::new`]);
    /// the driver then *requires* a divergence.
    pub fn new(mutate: bool) -> Fuzz {
        Fuzz {
            oracle: Oracle::new(mutate),
            report: RunReport::default(),
            mutate,
        }
    }

    /// Tallies: `agreed`, `agreed-error`, `skipped`, `streamed`. A
    /// divergence is the case's violation, shrunk and ready to paste.
    pub fn run_case(&mut self, seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let dcfg = doc_config(&mut rng, seed ^ 0xD0C, 200, 9);
        let xml = random_tree(&dcfg);
        let q = QueryGen::new(&mut rng, GenConfig::default()).generate();

        let mut case = Case::tallying(&["agreed", "agreed-error", "skipped", "streamed"]);
        case.notes.push(q.text.replace('\n', " "));
        let result = self.oracle.run_case(&q.text, &xml);
        self.report.note_kinds(&q.kinds);
        self.report.note_rewrites(&result.rewrite_stats);
        self.report.plans.note(&result.plan);
        case.add("streamed", result.streamed as u64);
        match result.verdict {
            CaseVerdict::Agree => case.add("agreed", 1),
            CaseVerdict::AgreeError(code) => {
                case.add("agreed-error", 1);
                self.report.note_error(code);
            }
            CaseVerdict::Skipped(_) => case.add("skipped", 1),
            CaseVerdict::Diverged(d) => {
                let shrunk = shrink::shrink(&q.module, &xml, Some(&dcfg), self.mutate, 200);
                // The generator only emits ASCII documents, so byte
                // slicing is char-safe here.
                let doc = &shrunk.xml[..shrunk.xml.len().min(400)];
                case.violations.push(Violation::new(
                    d.leg,
                    format!(
                        "{}\nquery:\n{}\nreference: {:?}\nactual:    {:?}\n\
                         shrunk ({} steps, {} query bytes, {} doc bytes):\n  \
                         query: {}\n  doc:   {doc}",
                        d.detail,
                        q.text,
                        d.reference,
                        d.actual,
                        shrunk.steps,
                        shrunk.text.len(),
                        shrunk.xml.len(),
                        shrunk.text.replace('\n', " "),
                    ),
                ));
            }
        }
        case
    }

    /// Coverage (error codes, expression kinds, rewrite rules), the plan
    /// digest and the long-lived service's plan-cache traffic.
    pub fn finish(&self) -> Vec<String> {
        let stats = self.oracle.service_stats();
        vec![
            self.report.render(),
            format!(
                "service: served={} failed={} plan lookups={} hits={} misses={} evictions={}",
                stats.served,
                stats.failed,
                stats.plan_lookups,
                stats.plan_hits,
                stats.plan_misses,
                stats.plan_evictions
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "<root><a><d>x</d></a><a/><d>y</d></root>";

    #[test]
    fn all_legs_agree_on_directed_cases() {
        let mut oracle = Oracle::new(false);
        for q in [
            "/root/a/d",
            "count(//d)",
            "for $v0 in //a where exists($v0/d) return <r>{$v0/d}</r>",
            "some $v0 in //d satisfies $v0 = \"x\"",
            "(//a)[2]",
            "//d[position() < 2]",
            // Index-eligible shapes: the `indexed` leg answers these
            // from the structural index.
            "//a[d]",
            "/root//d",
            "//a[d]/d",
        ] {
            let r = oracle.run_case(q, DOC);
            assert!(
                matches!(r.verdict, CaseVerdict::Agree),
                "{q}: {:?}",
                r.verdict
            );
        }
    }

    #[test]
    fn errors_agree_as_errors() {
        let mut oracle = Oracle::new(false);
        // Division by zero: deterministic FOAR0001 in every leg.
        let r = oracle.run_case("1 idiv 0", DOC);
        assert!(
            matches!(
                r.verdict,
                CaseVerdict::AgreeError(ErrorCode::DivisionByZero)
            ),
            "{:?}",
            r.verdict
        );
    }

    #[test]
    fn streaming_leg_runs_for_child_and_descendant_paths() {
        let mut oracle = Oracle::new(false);
        for query in ["/root/a", "//a", "/root//*"] {
            let r = oracle.run_case(query, DOC);
            assert!(
                matches!(r.verdict, CaseVerdict::Agree),
                "{query}: {:?}",
                r.verdict
            );
            assert!(r.streamed, "{query}");
        }
    }

    #[test]
    fn mutated_optimizer_is_caught() {
        // The mutation sanity check in miniature: with the deliberate
        // constant-folding miscompile switched on, a constant `a - b`
        // must diverge between the reference and the optimized leg.
        let mut oracle = Oracle::new(true);
        let r = oracle.run_case("7 - 3", DOC);
        match r.verdict {
            CaseVerdict::Diverged(d) => {
                assert_eq!(d.leg, "optimized");
                assert_eq!(d.reference.as_deref(), Ok("4"));
                assert_eq!(d.actual.as_deref(), Ok("-4"));
            }
            other => panic!("mutation not caught: {other:?}"),
        }
    }
}
