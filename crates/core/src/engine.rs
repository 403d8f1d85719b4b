//! The engine facade: compile once, execute many times, stream when the
//! query allows it.

use crate::explain::explain;
use std::sync::Arc;
use xqr_compiler::{compile, CompileOptions, CompiledQuery};
use xqr_runtime::{
    pull, serialize_sequence, CombinedAutomaton, CombinedRun, Counters, DynamicContext, Evaluator,
    ExecState, Item, ParallelConfig, RuntimeOptions, ScanCache, Sequence, StreamPattern,
    StreamStats,
};
use xqr_store::{DocId, NodeRef, Store};
use xqr_tokenstream::ParserTokenIterator;
use xqr_xdm::{Error, NamePool, QName, QueryGuard, Result};
use xqr_xmlparse;

/// Render a panic payload (the engine's fault-containment boundary turns
/// panics into `err:XQRL0000` instead of aborting the embedder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` with panics contained: a panic becomes `err:XQRL0000`.
///
/// Public because panic containment is a boundary concern: every API an
/// embedder calls directly (the service's catalog loads, say) wants the
/// same "a panic is an internal error, not an abort" conversion the
/// engine applies around evaluation.
pub fn contain_panic<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(Error::internal(format!(
            "evaluation panicked: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

/// Stack for the evaluation thread: recursive-descent evaluation over
/// deep queries/documents is stack-hungry in unoptimized builds.
const EVAL_STACK_BYTES: usize = 256 * 1024 * 1024;

/// Engine-level options.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    pub compile: CompileOptions,
    pub runtime: RuntimeOptions,
    /// Build a structural index for every document registered through
    /// [`Engine::load_document`], enabling index-backed access paths.
    /// Transient `query_xml` inputs are never indexed. Default: `true`.
    pub index_documents: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            compile: CompileOptions::default(),
            runtime: RuntimeOptions::default(),
            index_documents: true,
        }
    }
}

impl EngineOptions {
    /// Options with the optimizer disabled (the materializing baseline
    /// for the benches): no rewrites, no access-path selection, no
    /// document indexing.
    pub fn unoptimized() -> Self {
        EngineOptions {
            compile: CompileOptions {
                rewrite: xqr_compiler::RewriteConfig::none(),
                access_paths: false,
                ..Default::default()
            },
            runtime: RuntimeOptions::default(),
            index_documents: false,
        }
    }

    /// A stable fingerprint of everything that affects what
    /// [`Engine::compile`] produces — plan caches key on
    /// `(query text, fingerprint)` so a cached plan is only reused under
    /// options that would have compiled it identically.
    ///
    /// Derived from the `Debug` rendering of the options, which covers
    /// every field (rewrite rule set, typing, memoization, call depth,
    /// limits); any new option field automatically perturbs the print.
    /// Formatting costs microseconds: per-lookup callers read the value
    /// an engine computed once, [`Engine::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", self.compile).hash(&mut h);
        format!("{:?}", self.runtime).hash(&mut h);
        h.finish()
    }

    /// Set the morsel-parallel join configuration (builder form).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.runtime.parallel = parallel;
        self
    }

    /// Is morsel-parallel join execution enabled?
    pub fn parallel_joins(&self) -> bool {
        self.runtime.parallel.enabled
    }
}

/// The query engine: a document store plus compilation options.
pub struct Engine {
    store: Arc<Store>,
    options: EngineOptions,
    /// `options.fingerprint()`; the options never change after
    /// construction.
    fingerprint: u64,
}

impl Engine {
    pub fn new() -> Engine {
        Engine::with_options(EngineOptions::default())
    }

    pub fn with_options(mut options: EngineOptions) -> Engine {
        // The evaluation thread has a large stack; allow deep recursion.
        if options.runtime.max_call_depth == RuntimeOptions::default().max_call_depth {
            options.runtime.max_call_depth = 2048;
        }
        Engine {
            store: Store::new(),
            fingerprint: options.fingerprint(),
            options,
        }
    }

    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// [`EngineOptions::fingerprint`] of this engine's options, computed
    /// once at construction — the plan-cache key component.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub fn names(&self) -> &Arc<NamePool> {
        self.store.names()
    }

    /// Parse and register a document under a URI (for `fn:doc`).
    ///
    /// When [`EngineOptions::index_documents`] is set, a structural index
    /// is built and attached so index-eligible queries take index-backed
    /// access paths. The build is guarded by the engine's limits; a build
    /// that trips its budget leaves the document loaded but unindexed —
    /// queries then fall back to navigation.
    pub fn load_document(&self, uri: &str, xml: &str) -> Result<DocId> {
        let id = self.store.load_xml(xml, Some(uri))?;
        if self.options.index_documents {
            let guard = QueryGuard::new(self.options.runtime.limits);
            let _ = xqr_index::ensure_indexed(&self.store, id, &guard);
        }
        Ok(id)
    }

    /// Compile a query with the engine's options.
    pub fn compile(&self, query: &str) -> Result<PreparedQuery> {
        let compiled = compile(query, &self.options.compile)?;
        let streamable = StreamPattern::extract(&compiled.module.body);
        // `count(//path)` runs in streaming counting mode: matches are
        // counted, never serialized.
        let streamable_count = match &compiled.module.body {
            xqr_compiler::Core::Builtin("count", args) if args.len() == 1 => {
                StreamPattern::extract(&args[0])
            }
            _ => None,
        };
        Ok(PreparedQuery {
            compiled,
            streamable,
            streamable_count,
            runtime: self.options.runtime.clone(),
        })
    }

    /// One-shot convenience: run `query` against `xml` bound as the
    /// context item, returning the serialized result.
    ///
    /// The input document is removed from the store once the result is
    /// serialized, so repeated one-shot queries run in bounded memory
    /// instead of growing the store by one document per call.
    pub fn query_xml(&self, xml: &str, query: &str) -> Result<String> {
        let prepared = self.compile(query)?;
        let doc = self.store.load_xml(xml, None)?;
        let mut ctx = DynamicContext::new();
        ctx.context_item = Some(Item::Node(NodeRef::new(doc, xqr_store::NodeId(0))));
        // Serialize before removing: result items may reference nodes of
        // the input document.
        let out = prepared
            .execute(self, &ctx)
            .and_then(|result| result.serialize_guarded());
        self.store.remove_document(doc);
        out
    }

    /// One-shot convenience without input.
    pub fn query(&self, query: &str) -> Result<String> {
        let prepared = self.compile(query)?;
        let result = prepared.execute(self, &DynamicContext::new())?;
        result.serialize_guarded()
    }

    /// [`Engine::compile`] wrapped in an [`Arc`], the form plan caches
    /// hand out: a [`PreparedQuery`] is immutable and `Send + Sync`, so
    /// one compilation can serve concurrent executions on many threads.
    pub fn compile_shared(&self, query: &str) -> Result<Arc<PreparedQuery>> {
        self.compile(query).map(Arc::new)
    }

    /// Run many queries over one document in a single pass, sharing
    /// inverted-list scans: the document is loaded (and, when
    /// [`EngineOptions::index_documents`] is set, indexed) **once**, and
    /// queries touching the same QNames reuse each other's path-filtered
    /// lists through a batch-scoped [`ScanCache`] instead of rebuilding
    /// them. Per-query failures are per-slot `Err`s — one bad query does
    /// not fail its batch siblings. The document is removed when the
    /// batch completes, like [`Engine::query_xml`].
    pub fn query_batch(&self, xml: &str, queries: &[&str]) -> Vec<Result<String>> {
        let doc = match self.store.load_xml(xml, None) {
            Ok(doc) => doc,
            Err(e) => return queries.iter().map(|_| Err(e.clone())).collect(),
        };
        if self.options.index_documents {
            let guard = QueryGuard::new(self.options.runtime.limits);
            let _ = xqr_index::ensure_indexed(&self.store, doc, &guard);
        }
        let cache = Arc::new(ScanCache::new());
        let mut ctx = DynamicContext::new();
        ctx.context_item = Some(Item::Node(NodeRef::new(doc, xqr_store::NodeId(0))));
        let out = queries
            .iter()
            .map(|query| {
                let prepared = self.compile(query)?;
                let guard = QueryGuard::new(prepared.runtime.limits);
                prepared
                    .execute_shared_scans(self, &ctx, guard, cache.clone())
                    .and_then(|result| result.serialize_guarded())
            })
            .collect();
        self.store.remove_document(doc);
        out
    }
}

// The service layer shares these across threads; breaking `Send + Sync`
// on any of them is a compile error here, not a runtime surprise.
const _: () = {
    #[allow(dead_code)]
    fn assert_send_sync<T: Send + Sync>() {}
    #[allow(dead_code)]
    fn assert_send<T: Send>() {}
    #[allow(dead_code)]
    fn _assertions() {
        assert_send_sync::<Engine>();
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<Store>();
        assert_send_sync::<xqr_xdm::CancelHandle>();
        assert_send_sync::<xqr_xdm::QueryGuard>();
        // `QueryResult` carries per-execution `Cell` counters: it moves
        // between threads (worker → caller) but is not shared.
        assert_send::<QueryResult>();
    }
};

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// A compiled, reusable query.
pub struct PreparedQuery {
    compiled: CompiledQuery,
    streamable: Option<StreamPattern>,
    streamable_count: Option<StreamPattern>,
    runtime: RuntimeOptions,
}

impl PreparedQuery {
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }

    /// Can this query run in token-streaming mode (E1)?
    pub fn is_streamable(&self) -> bool {
        self.streamable.is_some()
    }

    /// The extracted streamable pattern, if any. Streaming runs it as a
    /// one-pattern automaton; the subscription subsystem compiles many
    /// into one shared-prefix automaton so one document pass serves
    /// every standing query.
    pub fn stream_pattern(&self) -> Option<&StreamPattern> {
        self.streamable.as_ref()
    }

    /// Is this a `count(//path)` query that can stream-count?
    pub fn is_streamable_count(&self) -> bool {
        self.streamable_count.is_some()
    }

    /// Stream-count matches over XML text without materializing anything
    /// (for `count(//path)`-shaped queries). Returns (count, stats).
    pub fn execute_streaming_count(
        &self,
        engine: &Engine,
        xml: &str,
    ) -> Result<(u64, StreamStats)> {
        let pattern = self.streamable_count.as_ref().ok_or_else(|| {
            xqr_xdm::Error::new(
                xqr_xdm::ErrorCode::Internal,
                "query is not a streamable count; use execute()",
            )
        })?;
        let automaton = CombinedAutomaton::build(std::slice::from_ref(pattern));
        let mut run = CombinedRun::counting(&automaton);
        self.pull_over(engine, xml, &automaton, &mut run, |_| Ok(()))?;
        let stats = *run.stats();
        Ok((stats.matches, stats))
    }

    /// Pull `xml` through `run` under this plan's limits: the token
    /// budget rides on the iterator, the output-byte budget is charged
    /// per match, and a panic surfaces as `err:XQRL0000`.
    fn pull_over(
        &self,
        engine: &Engine,
        xml: &str,
        automaton: &CombinedAutomaton,
        run: &mut CombinedRun,
        on_ready: impl FnMut(&mut CombinedRun) -> Result<()>,
    ) -> Result<()> {
        let guard = QueryGuard::new(self.runtime.limits);
        let mut it = if guard.is_unlimited() {
            ParserTokenIterator::new(xml, engine.names().clone())
        } else {
            ParserTokenIterator::with_guard(xml, engine.names().clone(), guard.clone())
        };
        contain_panic(|| {
            pull(
                automaton,
                run,
                &mut it,
                |_, bytes| guard.note_output_bytes(bytes),
                on_ready,
            )
        })
    }

    /// Whether execution needs node identities (E11's analysis).
    pub fn needs_node_ids(&self) -> bool {
        self.compiled.needs_node_ids
    }

    /// Human-readable plan.
    pub fn explain(&self) -> String {
        let mut text = explain(&self.compiled);
        match &self.streamable {
            Some(p) => text.push_str(&format!("streamable: true (steps: {})\n", p.steps.len())),
            None => text.push_str("streamable: false\n"),
        }
        text.push_str(&format!("limits: {}\n", self.runtime.limits));
        text.push_str(&format!("parallel: {}\n", self.runtime.parallel));
        text
    }

    /// Execute against the engine's store, on a dedicated evaluation
    /// thread with a roomy stack. Budgets come from the engine's
    /// [`RuntimeOptions::limits`]; use [`PreparedQuery::execute_guarded`]
    /// to supply a guard whose [`xqr_xdm::CancelHandle`] another thread
    /// holds.
    pub fn execute(&self, engine: &Engine, ctx: &DynamicContext) -> Result<QueryResult> {
        self.execute_guarded(engine, ctx, QueryGuard::new(self.runtime.limits))
    }

    /// [`PreparedQuery::execute`] with a caller-supplied guard.
    ///
    /// The guard carries the deadline, budgets and cancellation flag for
    /// this one execution; obtain a [`xqr_xdm::CancelHandle`] from it
    /// *before* calling and trigger it from any other thread to stop the
    /// query with `err:XQRL0003`. Panics on the evaluation thread are
    /// contained and surface as `err:XQRL0000` — they never abort the
    /// embedding process.
    pub fn execute_guarded(
        &self,
        engine: &Engine,
        ctx: &DynamicContext,
        guard: QueryGuard,
    ) -> Result<QueryResult> {
        self.execute_inner(engine, ctx, guard, None)
    }

    /// [`PreparedQuery::execute_guarded`] with a batch-scoped scan cache
    /// installed: inverted-list scans this execution builds are shared
    /// with (and reused from) every other query holding the same cache.
    /// The batch APIs ([`Engine::query_batch`], the service's
    /// `run_batch`) call this; standalone executions skip the cache
    /// entirely.
    pub fn execute_shared_scans(
        &self,
        engine: &Engine,
        ctx: &DynamicContext,
        guard: QueryGuard,
        scans: Arc<ScanCache>,
    ) -> Result<QueryResult> {
        self.execute_inner(engine, ctx, guard, Some(scans))
    }

    fn execute_inner(
        &self,
        engine: &Engine,
        ctx: &DynamicContext,
        guard: QueryGuard,
        scans: Option<Arc<ScanCache>>,
    ) -> Result<QueryResult> {
        // A guard that expired (or was cancelled) while the query waited
        // in a run queue must fail here, deterministically — the charge
        // stride never polls the clock on a query this cheap.
        guard.check_startup()?;
        let store = engine.store.clone();
        let compiled = &self.compiled;
        let runtime = self.runtime.clone();
        let faults = xqr_faults::current();
        std::thread::scope(|scope| {
            let handle = std::thread::Builder::new()
                .name("xqr-eval".into())
                .stack_size(EVAL_STACK_BYTES)
                .spawn_scoped(scope, move || -> Result<QueryResult> {
                    let _faults = faults.enter();
                    let ev = Evaluator::new(&compiled.module, ctx).with_options(runtime);
                    let mut st =
                        ExecState::with_guard(store.clone(), compiled.module.var_count, guard);
                    if let Some(cache) = scans {
                        st = st.with_scan_cache(cache);
                    }
                    let items = ev.eval_module(&mut st);
                    ev.counters.record_guard_usage(&st.guard.usage());
                    // On success the constructed-document ledger
                    // transfers to the result (freed when it drops); on
                    // error or panic, `ExecState::drop` frees it.
                    let items = items?;
                    let mut counters = ev.counters;
                    counters.constructed_docs = st.take_constructed_docs();
                    Ok(QueryResult {
                        items,
                        store,
                        counters,
                        guard: st.guard.clone(),
                    })
                })
                .map_err(|e| Error::internal(format!("failed to spawn eval thread: {e}")))?;
            match handle.join() {
                Ok(result) => result,
                Err(payload) => Err(Error::internal(format!(
                    "evaluation thread panicked: {}",
                    panic_message(payload.as_ref())
                ))),
            }
        })
    }

    /// Execute in token-streaming mode directly over XML text, invoking
    /// `on_match` for each serialized result subtree — every match, in
    /// document order, exactly what [`PreparedQuery::execute`] returns —
    /// as soon as its end tag is parsed and no match opened before it is
    /// still open. Errors if the query is not streamable.
    pub fn execute_streaming<F: FnMut(&str)>(
        &self,
        engine: &Engine,
        xml: &str,
        mut on_match: F,
    ) -> Result<StreamStats> {
        let pattern = self.streamable.as_ref().ok_or_else(|| {
            xqr_xdm::Error::new(
                xqr_xdm::ErrorCode::Internal,
                "query is not streamable; use execute()",
            )
        })?;
        let automaton = CombinedAutomaton::build(std::slice::from_ref(pattern));
        let mut run = CombinedRun::new(&automaton);
        self.pull_over(engine, xml, &automaton, &mut run, |run| {
            for m in run.take_matches(0)? {
                on_match(&m);
            }
            Ok(())
        })?;
        Ok(*run.stats())
    }
}

/// The materialized result of one execution.
///
/// Owns the store documents its constructors allocated: node identities
/// created by the query (element/document/attribute/text/comment/PI
/// constructors, plus context documents loaded by `fn:doc`) live exactly
/// as long as the result and are freed from the store when it drops. In
/// a long-lived shared store (the query service) they would otherwise
/// accumulate forever. Extract what you need — usually via
/// [`QueryResult::serialize_guarded`] — before dropping it.
#[derive(Debug)]
pub struct QueryResult {
    pub items: Sequence,
    pub store: Arc<Store>,
    pub counters: Counters,
    /// The execution's guard, kept so serialization can charge the
    /// output-byte budget.
    guard: QueryGuard,
}

impl QueryResult {
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Serialize per the sequence serialization rules, charging the
    /// execution's output-byte budget: errors with `err:XQRL0001` when
    /// the serialized form exceeds the cap set in
    /// [`xqr_xdm::Limits::with_max_output_bytes`].
    pub fn serialize_guarded(&self) -> Result<String> {
        let out = serialize_sequence(&self.items, &self.store);
        self.guard.note_output_bytes(out.len() as u64)?;
        Ok(out)
    }

    /// The string values of the items.
    pub fn string_values(&self) -> Vec<String> {
        self.items
            .iter()
            .map(|i| i.string_value(&self.store))
            .collect()
    }

    /// Serialize with pretty-printed (indented) node items.
    pub fn serialize_pretty(&self) -> Result<String> {
        let opts = xqr_xmlparse::WriterOptions {
            indent: Some("  ".into()),
            declaration: false,
        };
        let mut out = String::new();
        let mut prev_atomic = false;
        for item in &self.items {
            match item {
                Item::Atomic(_) => {
                    if prev_atomic {
                        out.push(' ');
                    }
                    out.push_str(&item.string_value(&self.store));
                    prev_atomic = true;
                }
                Item::Node(n) => {
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    let doc = self.store.doc_of(*n);
                    out.push_str(&doc.serialize_node_opts(n.node, opts.clone())?);
                    prev_atomic = false;
                }
            }
        }
        Ok(out)
    }
}

impl Drop for QueryResult {
    fn drop(&mut self) {
        // Constructed documents live exactly as long as their result.
        // Each removal is panic-contained: drops can run mid-unwind,
        // where a second panic (injected faults target the removal
        // path) would abort the process. A removal that panicked is
        // parked on the store's orphan list and retried by a later
        // sweep — a bounded, recoverable leak, never a permanent one.
        for id in std::mem::take(&mut self.counters.constructed_docs) {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.store.remove_document(id)
            }))
            .is_err()
            {
                self.store.park_orphan(id);
            }
        }
    }
}

/// Build a dynamic context bound to a document loaded in an engine.
pub fn context_with_doc(engine: &Engine, uri: &str, xml: &str) -> Result<DynamicContext> {
    let id = engine.load_document(uri, xml)?;
    let mut ctx = DynamicContext::new();
    ctx.context_item = Some(Item::Node(NodeRef::new(id, xqr_store::NodeId(0))));
    ctx.add_document(uri, xml);
    Ok(ctx)
}

/// Bind a variable by local name (test convenience).
pub fn bind(ctx: &mut DynamicContext, name: &str, value: Sequence) {
    ctx.bind_variable(QName::local(name), value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_queries() {
        let engine = Engine::new();
        assert_eq!(engine.query("1 + 1").unwrap(), "2");
        assert_eq!(
            engine.query_xml("<a><b>x</b></a>", "string(/a/b)").unwrap(),
            "x"
        );
    }

    #[test]
    fn prepared_queries_are_reusable() {
        let engine = Engine::new();
        let q = engine
            .compile("declare variable $n external; $n * 2")
            .unwrap();
        for i in 1..5 {
            let mut ctx = DynamicContext::new();
            bind(&mut ctx, "n", vec![Item::integer(i)]);
            assert_eq!(
                q.execute(&engine, &ctx)
                    .unwrap()
                    .serialize_guarded()
                    .unwrap(),
                (i * 2).to_string()
            );
        }
    }

    #[test]
    fn one_shot_queries_run_in_bounded_memory() {
        // Regression: `query_xml` used to load the input document into
        // the shared store on every call and never remove it.
        let engine = Engine::new();
        for i in 0..1000 {
            let xml = format!("<a><b>{i}</b></a>");
            assert_eq!(
                engine.query_xml(&xml, "string(/a/b)").unwrap(),
                i.to_string()
            );
        }
        assert_eq!(engine.store().doc_count(), 0);
        // The input document is removed even when execution fails.
        assert!(engine.query_xml("<a/>", "1 idiv 0").is_err());
        assert_eq!(engine.store().doc_count(), 0);
    }

    #[test]
    fn one_prepared_plan_shared_across_eight_threads() {
        let engine = Engine::new();
        engine
            .load_document(
                "bib.xml",
                "<bib><book><price>7</price></book><book><price>35</price></book></bib>",
            )
            .unwrap();
        let q = engine
            .compile(r#"sum(for $p in doc("bib.xml")//price return xs:integer($p))"#)
            .unwrap();
        let q = std::sync::Arc::new(q);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let q = q.clone();
                    let engine = &engine;
                    scope.spawn(move || {
                        (0..20)
                            .map(|_| {
                                q.execute(engine, &DynamicContext::new())
                                    .unwrap()
                                    .serialize_guarded()
                                    .unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for out in h.join().unwrap() {
                    assert_eq!(out, "42");
                }
            }
        });
    }

    #[test]
    fn doc_function_through_engine() {
        let engine = Engine::new();
        engine
            .load_document("bib.xml", "<bib><b/><b/></bib>")
            .unwrap();
        assert_eq!(engine.query(r#"count(doc("bib.xml")//b)"#).unwrap(), "2");
    }

    #[test]
    fn streamable_detection_and_streaming_run() {
        let engine = Engine::new();
        let q = engine.compile("/list/item").unwrap();
        assert!(q.is_streamable());
        let mut hits = Vec::new();
        let stats = q
            .execute_streaming(
                &engine,
                "<list><item>1</item><x><item>no</item></x><item>2</item></list>",
                |m| hits.push(m.to_string()),
            )
            .unwrap();
        assert_eq!(hits, vec!["<item>1</item>", "<item>2</item>"]);
        assert_eq!(stats.matches, 2);
        let q2 = engine.compile("1 + 1").unwrap();
        assert!(!q2.is_streamable());
        assert!(q2.execute_streaming(&engine, "<a/>", |_| {}).is_err());
    }

    #[test]
    fn streaming_and_materialized_agree() {
        let engine = Engine::new();
        let xml = "<r><a><b>1</b></a><b>2</b><c><b>3</b></c></r>";
        let q = engine.compile("//b").unwrap();
        let mut streamed = Vec::new();
        q.execute_streaming(&engine, xml, |m| streamed.push(m.to_string()))
            .unwrap();
        let out = engine.query_xml(xml, "//b").unwrap();
        assert_eq!(streamed.join(""), out);
    }

    #[test]
    fn deep_recursion_allowed_on_engine_thread() {
        let engine = Engine::new();
        let out = engine
            .query(
                "declare function local:sum($n as xs:integer) as xs:integer {
                   if ($n le 0) then 0 else $n + local:sum($n - 1)
                 };
                 local:sum(2000)",
            )
            .unwrap();
        assert_eq!(out, "2001000");
    }

    #[test]
    fn explain_is_exposed() {
        let engine = Engine::new();
        let q = engine.compile("//a[3]").unwrap();
        let text = q.explain();
        assert!(text.contains("streamable: false"), "{text}");
        assert!(text.contains("skip-enabled"), "{text}");
    }

    #[test]
    fn injected_panic_becomes_internal_error() {
        use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
        let engine = Engine::new();
        // Installed here, fires on the `xqr-eval` thread: the hand-off
        // in `execute_inner` carries the schedule across.
        let err = {
            let _faults = xqr_faults::install(
                FaultSchedule::new(1).rule(FaultRule::new("eval.next", FaultKind::Panic)),
            );
            let err = engine.query("1 + 1").unwrap_err();
            assert!(xqr_faults::fires_at("eval.next") > 0);
            err
        };
        assert_eq!(err.code, xqr_xdm::ErrorCode::Internal);
        assert!(err.to_string().contains("panicked"), "{err}");
        // The process survived; a normal engine still works.
        assert_eq!(Engine::new().query("2 + 2").unwrap(), "4");
    }

    #[test]
    fn explain_reports_limits() {
        let engine = Engine::new();
        let q = engine.compile("1").unwrap();
        assert!(q.explain().contains("limits: unlimited"), "{}", q.explain());
        let engine = Engine::with_options(EngineOptions {
            runtime: RuntimeOptions {
                limits: xqr_xdm::Limits::unlimited().with_max_items(10),
                ..Default::default()
            },
            ..Default::default()
        });
        let q = engine.compile("1").unwrap();
        assert!(q.explain().contains("items: 10"), "{}", q.explain());
    }

    #[test]
    fn cancel_handle_stops_execution_from_another_thread() {
        use xqr_xdm::{ErrorCode, Limits, QueryGuard};
        let engine = Engine::new();
        // Unbounded-enough work that only cancellation can stop it.
        let q = engine.compile("sum(1 to 10000000000)").unwrap();
        let guard = QueryGuard::new(Limits::unlimited());
        let handle = guard.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            handle.cancel();
        });
        let err = q
            .execute_guarded(&engine, &DynamicContext::new(), guard)
            .unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err.code, ErrorCode::Cancelled);
    }

    #[test]
    fn explain_reports_parallel_config() {
        let engine = Engine::new();
        let q = engine.compile("1").unwrap();
        assert!(
            q.explain().contains("parallel: on (morsels: auto"),
            "{}",
            q.explain()
        );
        let engine = Engine::with_options(
            EngineOptions::default().with_parallel(xqr_runtime::ParallelConfig::off()),
        );
        assert!(!engine.options().parallel_joins());
        let q = engine.compile("1").unwrap();
        assert!(q.explain().contains("parallel: off"), "{}", q.explain());
    }

    #[test]
    fn parallel_config_perturbs_fingerprint() {
        let on = EngineOptions::default();
        let off = EngineOptions::default().with_parallel(xqr_runtime::ParallelConfig::off());
        assert_ne!(on.fingerprint(), off.fingerprint());
        // The engine's cached print is the print of the options it
        // actually runs with (construction adjusts the call depth).
        let engine = Engine::with_options(off);
        assert_eq!(engine.fingerprint(), engine.options().fingerprint());
    }

    #[test]
    fn query_batch_shares_one_document() {
        let engine = Engine::new();
        let xml = "<r><a><b>1</b></a><a><b>2</b></a><c>9</c></r>";
        let out = engine.query_batch(xml, &["count(//a/b)", "string(/r/c)", "count(//a)"]);
        let out: Vec<String> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(out, ["2", "9", "2"]);
        // The batch document is transient, exactly like query_xml's.
        assert_eq!(engine.store().doc_count(), 0);
    }

    #[test]
    fn query_batch_isolates_per_query_failures() {
        let engine = Engine::new();
        let out = engine.query_batch("<a/>", &["1 idiv 0", "((", "2 + 2"]);
        assert!(out[0].is_err());
        assert!(out[1].is_err());
        assert_eq!(out[2].as_deref().unwrap(), "4");
        assert_eq!(engine.store().doc_count(), 0);
    }

    #[test]
    fn counters_surface() {
        let engine = Engine::new();
        let q = engine.compile("<a>{1}</a>").unwrap();
        let r = q.execute(&engine, &DynamicContext::new()).unwrap();
        assert_eq!(r.counters.nodes_constructed.get(), 1);
        assert!(!q.needs_node_ids());
    }
}
