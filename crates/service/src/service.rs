//! [`QueryService`]: the composed service facade.
//!
//! One object an embedder shares across threads (`Arc<QueryService>` or
//! `&QueryService` — everything inside is `Sync`): documents go in via
//! the byte-budgeted catalog, queries go through the sharded plan cache
//! and the admission-controlled worker pool, and a [`ServiceStats`]
//! snapshot reports how the service is doing.
//!
//! Per-request governance: every admitted query gets its own
//! [`QueryGuard`] built from [`ServiceConfig::per_query_limits`], and
//! its deadline clock starts at *submission* — time spent waiting in the
//! run queue counts against the budget, which is the service-level
//! meaning of a deadline.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::catalog::DocumentCatalog;
use crate::plan_cache::PlanCache;
use crate::resilience::RetryPolicy;
use xqr_core::{Engine, EngineOptions, PreparedQuery};
use xqr_parallel::WorkerPool;
use xqr_pressure::{Category, Charge, MemoryLedger, PressureConfig, PressureState};
use xqr_runtime::{DynamicContext, Item, StreamStats};
use xqr_store::{DocId, Lease};
use xqr_subscribe::{PublishReport, SubId, SubscriptionRegistry, SubscriptionSink};
use xqr_xdm::{CancelHandle, Error, ErrorCode, LatencyHistogram, Limits, QueryGuard, Result};

/// Configuration for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Compile/runtime options for the underlying engine. Part of the
    /// plan-cache key via [`EngineOptions::fingerprint`].
    pub engine: EngineOptions,
    /// Total plans the cache may hold before evicting LRU entries.
    pub plan_cache_capacity: usize,
    /// Independently locked cache shards (contention divider).
    pub plan_cache_shards: usize,
    /// Total in-memory bytes of catalog documents; `None` = unbounded.
    pub catalog_max_bytes: Option<u64>,
    /// Worker threads — queries executing at once.
    pub max_concurrent: usize,
    /// Admitted queries that may wait for a worker; beyond this,
    /// submissions fail with `err:XQRL0004 Overloaded`.
    pub max_queued: usize,
    /// Budgets applied to every query (deadline measured from
    /// submission, so queue wait is included).
    pub per_query_limits: Limits,
    /// Retry policy for [`QueryService::run`]-family calls: transient
    /// failures (`XQRL0002/0004/0005`) are retried with exponential
    /// backoff; deterministic errors are returned immediately.
    pub retry: RetryPolicy,
    /// Directory for the durable segment store. `None` (the default)
    /// keeps the catalog purely in-memory; `Some(dir)` makes every
    /// loaded document crash-safe on disk and lets a restarted service
    /// recover its corpus by replaying the manifest — construct with
    /// [`QueryService::open`] to observe recovery errors.
    pub persist_dir: Option<PathBuf>,
    /// Live chunked-ingestion sessions the service will hold at once;
    /// opening past this (after reaping idle sessions) fails with
    /// `err:XQRL0004 Overloaded`.
    pub max_chunk_sessions: usize,
    /// Chunk sessions idle this long are reaped: the next admission
    /// sweep (or an explicit `QueryService::reap_idle_sessions`)
    /// frees their slots and their buffered state.
    pub chunk_session_idle: Duration,
    /// Process-wide memory governance: ceiling, watermark fractions and
    /// hysteresis for the service's [`MemoryLedger`]. The default has no
    /// ceiling — every category is tracked, nothing is shed. With a
    /// ceiling, Yellow triggers the brownout ladder (no new index
    /// builds, plan-cache shrink, catalog demotion) and Red sheds new chunk sessions, publishes and batch
    /// jobs with `err:XQRL0004`.
    pub pressure: PressureConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineOptions::default(),
            plan_cache_capacity: 256,
            plan_cache_shards: 8,
            catalog_max_bytes: None,
            max_concurrent: std::thread::available_parallelism().map_or(4, |n| n.get()),
            max_queued: 64,
            per_query_limits: Limits::unlimited(),
            retry: RetryPolicy::default(),
            persist_dir: None,
            max_chunk_sessions: 64,
            chunk_session_idle: Duration::from_secs(30),
            pressure: PressureConfig::default(),
        }
    }
}

struct ServiceShared {
    engine: Arc<Engine>,
    plans: PlanCache,
    limits: Limits,
    retry: RetryPolicy,
    served: AtomicU64,
    failed: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
    /// Inverted-list scans served from a batch's shared scan cache.
    scan_shared_hits: AtomicU64,
    /// `run_batch` calls admitted.
    batches: AtomicU64,
    /// Queries executed inside batches.
    batch_queries: AtomicU64,
    /// Transient-failure re-submissions by the `run` family.
    retries: AtomicU64,
    /// De-synchronizes concurrent retriers' jittered backoff.
    retry_salt: AtomicU64,
    /// Plans compiled for one execution because the cache's insert side
    /// failed.
    uncached_compiles: AtomicU64,
    latency: LatencyHistogram,
    /// Streaming-pass gauges, fed by the publish path's shared automaton
    /// pass.
    stream_tokens_seen: AtomicU64,
    stream_tokens_skipped: AtomicU64,
    stream_matches: AtomicU64,
    /// Process-wide memory governance: every subsystem charges here.
    ledger: Arc<MemoryLedger>,
    /// Configured plan-cache capacity — the shrink rung's reference.
    plan_cache_capacity: usize,
    /// Yellow/Red transitions already acted on by the brownout ladder.
    brownouts_seen: AtomicU64,
    /// Work shed at admission because the ledger was Red.
    pressure_sheds: AtomicU64,
}

impl ServiceShared {
    /// Get a plan for `query` through the plan cache.
    ///
    /// A cache whose *insert* side is failing (`err:XQRL0005`, e.g. an
    /// injected fault at `plans.insert`) must not take query execution
    /// down with it: the failed lookup falls back to an uncached
    /// compile. Deterministic compile errors are the query's own
    /// problem and pass through untouched.
    fn acquire_plan(&self, query: &str) -> Result<Arc<PreparedQuery>> {
        match self.plans.get_or_compile(&self.engine, query) {
            Err(e) if e.code == ErrorCode::Unavailable => {
                self.uncached_compiles.fetch_add(1, Ordering::Relaxed);
                self.engine.compile_shared(query)
            }
            plan => plan,
        }
    }

    /// Fold one execution's per-query counters into the service gauges.
    fn record_counters(&self, counters: &xqr_runtime::Counters) {
        self.index_hits
            .fetch_add(counters.index_hits.get(), Ordering::Relaxed);
        self.index_misses
            .fetch_add(counters.index_misses.get(), Ordering::Relaxed);
        self.scan_shared_hits
            .fetch_add(counters.scan_cache_hits.get(), Ordering::Relaxed);
    }

    fn record_stream(&self, stats: &StreamStats) {
        self.stream_tokens_seen
            .fetch_add(stats.tokens_seen, Ordering::Relaxed);
        self.stream_tokens_skipped
            .fetch_add(stats.tokens_skipped, Ordering::Relaxed);
        self.stream_matches
            .fetch_add(stats.matches, Ordering::Relaxed);
    }

    /// Red-state admission check for sheddable work (chunk sessions,
    /// publishes, batch jobs). Queries themselves are *not* shed here —
    /// the pool's bounded queue plus deadline-aware dequeue govern them.
    fn check_red(&self, what: &str) -> Result<()> {
        if self.ledger.state() == PressureState::Red {
            self.pressure_sheds.fetch_add(1, Ordering::Relaxed);
            let snap = self.ledger.snapshot();
            return Err(Error::overloaded(format!(
                "memory pressure is red ({} of {} bytes): {what} shed at admission",
                snap.total, snap.ceiling
            )));
        }
        Ok(())
    }
}

/// A thread-safe query service over one engine. See the crate docs.
pub struct QueryService {
    shared: Arc<ServiceShared>,
    catalog: Arc<DocumentCatalog>,
    pool: WorkerPool,
    subs: SubscriptionRegistry,
    ingest: crate::ingest::IngestState,
}

/// An admitted, in-flight query. Obtain from [`QueryService::submit`];
/// call [`QueryTicket::wait`] for the result, or cancel from any thread
/// via the [`CancelHandle`].
pub struct QueryTicket {
    rx: mpsc::Receiver<Result<String>>,
    cancel: CancelHandle,
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket")
            .field("cancelled", &self.cancel.is_cancelled())
            .finish()
    }
}

impl QueryTicket {
    /// A handle that stops this query with `err:XQRL0003` when
    /// triggered; clonable and safe to move to another thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel.clone()
    }

    /// Block until the query finishes and return its serialized result.
    pub fn wait(self) -> Result<String> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(Error::cancelled("service shut down before the query ran")))
    }
}

impl QueryService {
    /// Build an in-memory service. Panics if [`ServiceConfig::persist_dir`]
    /// is set and opening the segment store fails (an I/O or recovery
    /// error); use [`QueryService::open`] to handle that case.
    pub fn new(config: ServiceConfig) -> Self {
        Self::open(config).expect("service construction failed")
    }

    /// Build a service, opening (or creating) the durable segment store
    /// when [`ServiceConfig::persist_dir`] is set. Recovery is O(manifest):
    /// documents persisted by earlier incarnations are adopted lazily and
    /// mmapped — checksum-verified — on first `doc("name")` touch.
    pub fn open(config: ServiceConfig) -> Result<Self> {
        let engine = Arc::new(Engine::with_options(config.engine.clone()));
        // Catalog loads build structural indexes under the same budgets
        // queries run with; an index build is bounded work, like a query.
        let index_limits = config
            .engine
            .index_documents
            .then_some(config.per_query_limits);
        // Every subsystem that holds memory is born with the one ledger.
        let ledger = Arc::new(MemoryLedger::new(config.pressure));
        let catalog = DocumentCatalog::open(
            engine.store().clone(),
            config.catalog_max_bytes,
            index_limits,
            config.persist_dir.clone(),
            Arc::clone(&ledger),
        )?;
        let plans = PlanCache::new(
            config.plan_cache_capacity,
            config.plan_cache_shards,
            Arc::clone(&ledger),
        );
        let pool = WorkerPool::new(config.max_concurrent, config.max_queued);
        pool.set_pressure(Arc::clone(&ledger));
        Ok(QueryService {
            shared: Arc::new(ServiceShared {
                engine,
                plans,
                limits: config.per_query_limits,
                retry: config.retry,
                served: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                index_hits: AtomicU64::new(0),
                index_misses: AtomicU64::new(0),
                scan_shared_hits: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                batch_queries: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                retry_salt: AtomicU64::new(0),
                uncached_compiles: AtomicU64::new(0),
                latency: LatencyHistogram::new(),
                stream_tokens_seen: AtomicU64::new(0),
                stream_tokens_skipped: AtomicU64::new(0),
                stream_matches: AtomicU64::new(0),
                ledger,
                plan_cache_capacity: config.plan_cache_capacity,
                brownouts_seen: AtomicU64::new(0),
                pressure_sheds: AtomicU64::new(0),
            }),
            catalog,
            pool,
            subs: SubscriptionRegistry::new(),
            ingest: crate::ingest::IngestState::new(
                config.max_chunk_sessions,
                config.chunk_session_idle,
            ),
        })
    }

    pub(crate) fn ingest_state(&self) -> &crate::ingest::IngestState {
        &self.ingest
    }

    pub(crate) fn subs_registry(&self) -> &SubscriptionRegistry {
        &self.subs
    }

    pub(crate) fn limits(&self) -> Limits {
        self.shared.limits
    }

    pub(crate) fn acquire_plan_for_ingest(&self, query: &str) -> Result<Arc<PreparedQuery>> {
        self.shared.acquire_plan(query)
    }

    /// The service's memory ledger: live bytes per category, pressure
    /// state, transition counters. Embedders can watch it directly;
    /// everything it reports also surfaces in [`QueryService::stats`].
    pub fn ledger(&self) -> &Arc<MemoryLedger> {
        &self.shared.ledger
    }

    pub(crate) fn check_red(&self, what: &str) -> Result<()> {
        self.shared.check_red(what)
    }

    /// Apply the once-per-transition brownout rungs: on each *new*
    /// Yellow/Red transition, shrink the plan cache to half capacity and
    /// (under persistence, where demotion is lossless) shed cold catalog
    /// residents to half their bytes. Steady-state pressure costs one
    /// atomic read per call; the rungs re-arm every time pressure
    /// re-enters Yellow.
    fn enforce_brownout(&self) {
        let snap = self.shared.ledger.snapshot();
        let seen = snap.to_yellow + snap.to_red;
        let prev = self.shared.brownouts_seen.swap(seen, Ordering::Relaxed);
        if seen > prev && snap.state >= PressureState::Yellow {
            self.shared
                .plans
                .shrink_to(self.shared.plan_cache_capacity / 2);
            if self.catalog.persist_dir().is_some() {
                self.catalog.shed_cold(self.catalog.total_bytes() / 2);
            }
        }
    }

    pub(crate) fn record_publish_stream(&self, stats: &StreamStats) {
        self.shared.record_stream(stats);
    }

    pub(crate) fn note_stream_query_outcome(&self, outcome: &Result<String>) {
        match outcome {
            Ok(_) => self.shared.served.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.shared.failed.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// The engine the service runs on (e.g. for `explain` output).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The document catalog (direct access for eviction-sensitive
    /// embedders; [`QueryService::load_document`] is the common path).
    pub fn catalog(&self) -> &DocumentCatalog {
        &self.catalog
    }

    /// Load `xml` under `name`, reachable from queries as `doc("name")`.
    /// May evict least-recently-used documents to fit the byte budget.
    ///
    /// Panic-contained: a panic during parse/index/evict (injected or
    /// otherwise) surfaces as `err:XQRL0000`, never unwinds into the
    /// embedder. The catalog keeps its accounting consistent either way.
    pub fn load_document(&self, name: &str, xml: &str) -> Result<DocId> {
        xqr_core::contain_panic(|| self.catalog.put(name, xml))
    }

    /// Remove a named document. `false` if not loaded. Panic-contained
    /// like [`QueryService::load_document`]; a contained panic reports
    /// `false` (the entry, if any, survives for a later retry).
    pub fn remove_document(&self, name: &str) -> bool {
        xqr_core::contain_panic(|| Ok(self.catalog.remove(name))).unwrap_or(false)
    }

    /// Compile through the plan cache without executing (warm-up path).
    pub fn prepare(&self, query: &str) -> Result<Arc<PreparedQuery>> {
        self.shared.plans.get_or_compile(&self.shared.engine, query)
    }

    /// Render `query`'s compiled plan plus the service's pressure
    /// posture — why a join would run inline or an admission would shed
    /// is explainable from this output alone.
    pub fn explain(&self, query: &str) -> Result<String> {
        let plan = self.shared.acquire_plan(query)?;
        let snap = self.shared.ledger.snapshot();
        let mut text = plan.explain();
        text.push_str(&format!(
            "pressure: {} ({} of {} bytes, peak {}; transitions green: {} yellow: {} red: {})\n",
            snap.state.as_str(),
            snap.total,
            snap.ceiling,
            snap.peak,
            snap.to_green,
            snap.to_yellow,
            snap.to_red,
        ));
        for cat in Category::ALL {
            let c = snap.category(cat);
            text.push_str(&format!(
                "  memory {}: {} (peak {})\n",
                cat.as_str(),
                c.current,
                c.peak
            ));
        }
        Ok(text)
    }

    /// Register a standing query: every subsequent
    /// [`QueryService::publish`] evaluates it against the published
    /// document. Compiles through the plan cache, so a hot subscription
    /// query and its one-shot twin share one plan. The subscription
    /// runs under [`ServiceConfig::per_query_limits`] per document.
    pub fn subscribe(&self, query: &str) -> Result<SubId> {
        self.subscribe_with_sink(query, None)
    }

    /// [`QueryService::subscribe`] with a delivery sink: the sink
    /// receives this subscription's outcome (matches or its coded
    /// error) for every published document, on the publishing thread.
    /// A panicking or failing sink degrades only this subscription.
    pub(crate) fn subscribe_with_sink(
        &self,
        query: &str,
        sink: Option<Arc<dyn SubscriptionSink>>,
    ) -> Result<SubId> {
        let plan = self.shared.acquire_plan(query)?;
        Ok(self.subs.register(query, plan, self.shared.limits, sink))
    }

    /// Remove a standing query. `false` for stale ids (already
    /// unsubscribed, or the slot was reused) — never affects the
    /// slot's current tenant.
    pub fn unsubscribe(&self, id: SubId) -> bool {
        self.subs.unregister(id)
    }

    /// Publish a transient document at every standing subscription:
    /// one tokenization pass drives the combined automaton for all
    /// streamable subscriptions; non-streamable ones share a single
    /// materialized (and, where the build succeeds, indexed) copy routed
    /// through the catalog's accounting, leased for the publish and
    /// freed before this returns. The document is NOT retained — it is
    /// never reachable via `doc("name")`.
    pub fn publish(&self, name: &str, xml: &str) -> Result<PublishReport> {
        self.enforce_brownout();
        self.shared.check_red("publish")?;
        // The tokenization pass and any transient fallback copy are this
        // publish's footprint; released when the report is delivered.
        let _charge = Charge::new(
            Arc::clone(&self.shared.ledger),
            Category::Subscriptions,
            xml.len() as u64,
        );
        let report = self.subs.publish_with_doc(
            &self.shared.engine,
            name,
            xml,
            self.shared.limits,
            || self.catalog.load_transient_indexed(xml),
        )?;
        self.shared.record_stream(&report.stats);
        Ok(report)
    }

    /// [`QueryService::publish`] + retention: the document also
    /// becomes (or replaces) catalog entry `name`, queryable afterwards
    /// as `doc("name")`. Fallback subscriptions evaluate against the
    /// retained copy, so nothing is parsed twice.
    pub fn publish_retained(&self, name: &str, xml: &str) -> Result<PublishReport> {
        self.enforce_brownout();
        self.shared.check_red("publish")?;
        let _charge = Charge::new(
            Arc::clone(&self.shared.ledger),
            Category::Subscriptions,
            xml.len() as u64,
        );
        let id = self.load_document(name, xml)?;
        let report = self.subs.publish_with_doc(
            &self.shared.engine,
            name,
            xml,
            self.shared.limits,
            || {
                // Whatever replaced or evicted `name` since the load, this
                // publish evaluates the version it loaded, if still alive.
                let doc = self.engine().store().try_document(id).ok_or_else(|| {
                    Error::new(
                        ErrorCode::DocumentNotFound,
                        format!("{name:?} was dropped before its publish evaluated it"),
                    )
                })?;
                Ok(Lease { id, doc })
            },
        )?;
        self.shared.record_stream(&report.stats);
        Ok(report)
    }

    /// Admit a query for execution, or fail fast with `err:XQRL0004`
    /// when the workers and the run queue are both full. Compilation
    /// (or the cache hit) happens on the worker, so a shed query costs
    /// the service nothing but the admission check.
    pub fn submit(&self, query: &str, ctx: DynamicContext) -> Result<QueryTicket> {
        self.enforce_brownout();
        let shared = self.shared.clone();
        let query = query.to_string();
        let guard = QueryGuard::new(shared.limits);
        let cancel = guard.cancel_handle();
        let deadline = guard.deadline_at();
        let submitted = Instant::now();
        let (tx, rx) = mpsc::channel();
        // Deadline-aware admission: if this query's deadline passes
        // while it waits in the run queue, the pool drops it without
        // executing and this closure fails the ticket — over-deadline
        // work is not worth a worker slot.
        let expire = deadline.map(|_| {
            let tx = tx.clone();
            let shared = self.shared.clone();
            Box::new(move || {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(Err(Error::timeout(
                    "deadline expired while queued: dropped at admission, never executed",
                )));
            }) as Box<dyn FnOnce() + Send>
        });
        self.pool.submit_governed(deadline, expire, move || {
            let outcome = shared
                .acquire_plan(&query)
                .and_then(|plan| plan.execute_serialized(&shared.engine, &ctx, guard, None))
                .map(|(out, counters)| {
                    shared.record_counters(&counters);
                    out
                });
            shared.latency.record(submitted.elapsed());
            match &outcome {
                Ok(_) => shared.served.fetch_add(1, Ordering::Relaxed),
                Err(_) => shared.failed.fetch_add(1, Ordering::Relaxed),
            };
            // The serialized result is this service's until the waiter
            // is handed it; charge it for exactly that window (released
            // before the send, so a waiter never observes its own
            // result still charged).
            let charge = outcome.as_ref().ok().map(|s| {
                Charge::new(
                    Arc::clone(&shared.ledger),
                    Category::QueryOutput,
                    s.len() as u64,
                )
            });
            // Deliver in the publish phase: the worker slot is free by the
            // time the waiter wakes, so "wait, then submit" never sheds.
            // The submitter may have stopped waiting; that's fine.
            Some(Box::new(move || {
                drop(charge);
                let _ = tx.send(outcome);
            }) as Box<dyn FnOnce() + Send>)
        })?;
        Ok(QueryTicket { rx, cancel })
    }

    /// Run a query to completion with an empty dynamic context,
    /// retrying transient failures per [`ServiceConfig::retry`].
    pub fn run(&self, query: &str) -> Result<String> {
        self.run_with_context(query, DynamicContext::new())
    }

    /// Run a query to completion with the given context (external
    /// variable bindings, context item, …).
    ///
    /// Transient failures — shed at admission (`XQRL0004`), a starved
    /// deadline (`XQRL0002`), or a subsystem fault (`XQRL0005`) — are
    /// re-submitted up to [`RetryPolicy::max_retries`] times with
    /// jittered exponential backoff. Deterministic errors (type errors,
    /// budget trips, cancellation) return immediately: retrying them
    /// would burn capacity to get the same answer.
    pub fn run_with_context(&self, query: &str, ctx: DynamicContext) -> Result<String> {
        let policy = self.shared.retry;
        let salt = self.shared.retry_salt.fetch_add(1, Ordering::Relaxed);
        let mut attempt = 0u32;
        loop {
            let outcome = self.submit(query, ctx.clone()).and_then(|t| t.wait());
            match outcome {
                Err(e) if e.is_retryable() && attempt < policy.max_retries => {
                    attempt += 1;
                    self.shared.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(policy.backoff(attempt, salt));
                }
                other => return other,
            }
        }
    }

    /// Run `query` against `xml` bound as the context item; the
    /// transient document is leased for the call and freed with it.
    pub(crate) fn run_on_xml(&self, query: &str, xml: &str) -> Result<String> {
        let doc = self.shared.engine.store().lease_xml(xml, None)?;
        self.run_with_context(
            query,
            DynamicContext::new().with_context_item(Item::Node(doc.root())),
        )
    }

    /// Run many queries against one catalog document in a single pass,
    /// sharing inverted-list scans across them.
    ///
    /// The whole batch is **one pool admission**: it occupies one worker
    /// slot (or is shed as a unit with `err:XQRL0004`), and inside it
    /// every query gets its own plan-cache acquisition, its own
    /// [`QueryGuard`] from [`ServiceConfig::per_query_limits`], and its
    /// own result slot — one failing query never poisons its batch
    /// siblings. Queries touching the same QNames reuse each other's
    /// path-filtered inverted lists through a batch-scoped scan cache,
    /// which is where the shared-scan speedup comes from.
    ///
    /// The outer `Err` covers batch-level failures only: an unknown or
    /// quarantined document, or admission shedding.
    pub fn run_batch(&self, doc: &str, queries: &[&str]) -> Result<Vec<Result<String>>> {
        self.enforce_brownout();
        self.shared.check_red("batch job")?;
        // Held from here to the batch's last query: replacing or
        // evicting `doc` meanwhile never changes what the batch reads.
        let doc = self.catalog.resolve(doc)?.ok_or_else(|| {
            Error::new(
                ErrorCode::DocumentNotFound,
                format!("run_batch: no catalog document named {doc:?}"),
            )
        })?;
        let shared = self.shared.clone();
        let queries: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
        let submitted = Instant::now();
        let (tx, rx) = mpsc::channel();
        self.pool.submit_with_publish(move || {
            let scans = Arc::new(xqr_runtime::ScanCache::new());
            let ctx = DynamicContext::new().with_context_item(Item::Node(doc.root()));
            shared.batches.fetch_add(1, Ordering::Relaxed);
            let outcomes: Vec<Result<String>> = queries
                .iter()
                .map(|query| {
                    shared.batch_queries.fetch_add(1, Ordering::Relaxed);
                    let outcome = shared
                        .acquire_plan(query)
                        .and_then(|plan| {
                            plan.execute_serialized(
                                &shared.engine,
                                &ctx,
                                QueryGuard::new(shared.limits),
                                Some(scans.clone()),
                            )
                        })
                        .map(|(out, counters)| {
                            shared.record_counters(&counters);
                            out
                        });
                    match &outcome {
                        Ok(_) => shared.served.fetch_add(1, Ordering::Relaxed),
                        Err(_) => shared.failed.fetch_add(1, Ordering::Relaxed),
                    };
                    outcome
                })
                .collect();
            shared.latency.record(submitted.elapsed());
            Some(Box::new(move || {
                let _ = tx.send(outcomes);
            }) as Box<dyn FnOnce() + Send>)
        })?;
        rx.recv()
            .map_err(|_| Error::cancelled("service shut down before the batch ran"))
    }

    /// A consistent-enough snapshot of every service counter. Individual
    /// gauges are read with relaxed ordering, so a snapshot taken while
    /// queries are in flight may be mid-update; quiescent snapshots are
    /// exact.
    pub fn stats(&self) -> ServiceStats {
        let plans = self.shared.plans.stats();
        let catalog = self.catalog.stats();
        let pool = self.pool.stats();
        let subs = self.subs.stats();
        let ingest = self.ingest.snapshot();
        let ledger = self.shared.ledger.snapshot();
        let queue_wait = self.pool.queue_wait();
        let mut memory_category_peak = [0u64; Category::ALL.len()];
        for (slot, cat) in memory_category_peak.iter_mut().zip(Category::ALL) {
            *slot = ledger.category(cat).peak;
        }
        ServiceStats {
            served: self.shared.served.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            rejected: pool.rejected,
            active: pool.active,
            queued: pool.queued,
            max_concurrent: self.pool.workers() as u64,
            max_queued: self.pool.max_queued() as u64,
            plan_lookups: plans.lookups,
            plan_hits: plans.hits,
            plan_misses: plans.misses,
            plan_evictions: plans.evictions,
            plan_entries: plans.entries,
            catalog_docs: catalog.docs,
            catalog_bytes: catalog.bytes,
            catalog_evictions: catalog.evictions,
            segments_written: catalog.segments_written,
            segments_recovered: catalog.segments_recovered,
            segments_quarantined: catalog.segments_quarantined,
            cold_start_load: Duration::from_nanos(catalog.cold_start_nanos),
            index_builds: catalog.index_builds,
            index_bytes: catalog.index_bytes,
            index_build_time: Duration::from_nanos(catalog.index_build_nanos),
            index_hits: self.shared.index_hits.load(Ordering::Relaxed),
            index_misses: self.shared.index_misses.load(Ordering::Relaxed),
            scan_shared_hits: self.shared.scan_shared_hits.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            batch_queries: self.shared.batch_queries.load(Ordering::Relaxed),
            retries: self.shared.retries.load(Ordering::Relaxed),
            uncached_compiles: self.shared.uncached_compiles.load(Ordering::Relaxed),
            index_build_failures: catalog.index_build_failures,
            lock_recoveries: xqr_parallel::lock_recoveries(),
            subscriptions_active: subs.active,
            documents_published: subs.documents_published,
            matches_delivered: subs.matches_delivered,
            shared_pass_evals: subs.shared_pass_evals,
            fallback_evals: subs.fallback_evals,
            delivery_failures: subs.delivery_failures,
            stream_tokens_seen: self.shared.stream_tokens_seen.load(Ordering::Relaxed),
            stream_tokens_skipped: self.shared.stream_tokens_skipped.load(Ordering::Relaxed),
            stream_matches: self.shared.stream_matches.load(Ordering::Relaxed),
            ingest_sessions_opened: ingest.opened,
            ingest_sessions_active: ingest.active,
            ingest_sessions_finished: ingest.finished,
            ingest_sessions_aborted: ingest.aborted,
            ingest_sessions_reaped: ingest.reaped,
            ingest_sessions_failed: ingest.failed,
            ingest_chunks: ingest.chunks,
            ingest_bytes: ingest.bytes,
            ingest_stream_queries: ingest.stream_queries,
            latency_count: self.shared.latency.count(),
            latency_mean: self.shared.latency.mean(),
            latency_p50: self.shared.latency.p50(),
            latency_p99: self.shared.latency.p99(),
            pressure_state: ledger.state,
            memory_bytes: ledger.total,
            memory_peak: ledger.peak,
            memory_ceiling: ledger.ceiling,
            pressure_to_green: ledger.to_green,
            pressure_to_yellow: ledger.to_yellow,
            pressure_to_red: ledger.to_red,
            memory_rejected: ledger.rejected,
            pressure_sheds: self.shared.pressure_sheds.load(Ordering::Relaxed),
            memory_category_peak,
            quarantined_bytes: catalog.quarantined_bytes,
            pressure_no_index: catalog.pressure_no_index,
            admitted: pool.admitted,
            dropped_expired: pool.dropped_expired,
            queue_wait_count: queue_wait.count(),
            queue_wait_mean: queue_wait.mean(),
            queue_wait_p50: queue_wait.p50(),
            queue_wait_p99: queue_wait.p99(),
        }
    }

    /// [`QueryService::stats`] rendered as `explain`-style text.
    pub fn stats_text(&self) -> String {
        self.stats().to_string()
    }
}

/// Point-in-time snapshot of the service counters and gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries that completed successfully.
    pub served: u64,
    /// Queries that completed with a coded error (including budget
    /// trips, timeouts, and cancellations).
    pub failed: u64,
    /// Queries shed at admission with `err:XQRL0004`.
    pub rejected: u64,
    /// Queries executing right now.
    pub active: u64,
    /// Queries admitted and waiting for a worker.
    pub queued: u64,
    pub max_concurrent: u64,
    pub max_queued: u64,
    pub plan_lookups: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    pub plan_entries: u64,
    pub catalog_docs: u64,
    pub catalog_bytes: u64,
    pub catalog_evictions: u64,
    /// Durable segments written by catalog loads (persistent catalogs).
    pub segments_written: u64,
    /// Segments reloaded from disk (cold-start touches and post-eviction
    /// re-reads).
    pub segments_recovered: u64,
    /// Segments quarantined after failing integrity verification.
    pub segments_quarantined: u64,
    /// Wall-clock cost of opening the segment store: manifest replay,
    /// orphan sweep and lazy adoption — not any document load.
    pub cold_start_load: Duration,
    /// Structural indexes built by catalog loads.
    pub index_builds: u64,
    /// Live structural-index bytes (part of `catalog_bytes`).
    pub index_bytes: u64,
    /// Total wall-clock time spent building structural indexes.
    pub index_build_time: Duration,
    /// `IndexScan` operators answered from a structural index.
    pub index_hits: u64,
    /// `IndexScan` operators that fell back to navigation.
    pub index_misses: u64,
    /// Inverted-list scans served from a batch's shared scan cache.
    pub scan_shared_hits: u64,
    /// [`QueryService::run_batch`] calls admitted.
    pub batches: u64,
    /// Queries executed inside batches.
    pub batch_queries: u64,
    /// Transient-failure re-submissions by the `run` family.
    pub retries: u64,
    /// Plans compiled for one execution only because the plan cache's
    /// insert side failed with `err:XQRL0005`.
    pub uncached_compiles: u64,
    /// Structural-index builds that failed (their documents stay live,
    /// unindexed).
    pub index_build_failures: u64,
    /// Poisoned-lock recoveries in the service layer (process-wide).
    pub lock_recoveries: u64,
    /// Live standing subscriptions.
    pub subscriptions_active: u64,
    /// Documents pushed through [`QueryService::publish`] (and
    /// `publish_retained`).
    pub documents_published: u64,
    /// Per-subscription match deliveries that charged a budget
    /// successfully, summed over publishes.
    pub matches_delivered: u64,
    /// Subscriptions served by the combined shared pass, summed over
    /// publishes.
    pub shared_pass_evals: u64,
    /// Subscriptions served by one-shot fallback, summed over publishes.
    pub fallback_evals: u64,
    /// Sink deliveries that errored or panicked (each degraded only its
    /// own subscription).
    pub delivery_failures: u64,
    /// Tokens inspected by the publish path's shared streaming pass.
    pub stream_tokens_seen: u64,
    /// Tokens pruned by `skip()` without inspection.
    pub stream_tokens_skipped: u64,
    /// Matches emitted by streaming passes.
    pub stream_matches: u64,
    /// Chunk sessions opened ([`QueryService::open_chunk_session`]).
    pub ingest_sessions_opened: u64,
    /// Chunk sessions live right now.
    pub ingest_sessions_active: u64,
    /// Chunk sessions finished (document delivered to subscriptions).
    pub ingest_sessions_finished: u64,
    /// Chunk sessions dropped by [`QueryService::abort_chunk_session`].
    pub ingest_sessions_aborted: u64,
    /// Idle chunk sessions reclaimed by the reaper.
    pub ingest_sessions_reaped: u64,
    /// Chunk sessions removed by a feed/finish failure (lexing error,
    /// budget trip, injected fault).
    pub ingest_sessions_failed: u64,
    /// Chunks accepted across all sessions.
    pub ingest_chunks: u64,
    /// Bytes accepted across all sessions.
    pub ingest_bytes: u64,
    /// Stream queries opened ([`QueryService::open_stream_query`]).
    pub ingest_stream_queries: u64,
    pub latency_count: u64,
    pub latency_mean: Duration,
    pub latency_p50: Duration,
    pub latency_p99: Duration,
    /// Ledger pressure state at snapshot time.
    pub pressure_state: PressureState,
    /// Live ledger-tracked bytes across every category.
    pub memory_bytes: u64,
    /// High-water mark of `memory_bytes`.
    pub memory_peak: u64,
    /// Configured memory ceiling; 0 when governance is off.
    pub memory_ceiling: u64,
    /// Pressure-state transitions, by destination.
    pub pressure_to_green: u64,
    pub pressure_to_yellow: u64,
    pub pressure_to_red: u64,
    /// `try_charge` refusals at the hard ceiling.
    pub memory_rejected: u64,
    /// Publishes, batch jobs and chunk sessions shed at admission
    /// because the ledger was Red.
    pub pressure_sheds: u64,
    /// Per-category ledger peaks, in [`Category::ALL`] order.
    pub memory_category_peak: [u64; Category::ALL.len()],
    /// Disk bytes held by quarantined segments (observability gauge —
    /// never charged against the catalog budget).
    pub quarantined_bytes: u64,
    /// Catalog loads served unindexed because the ledger was at Yellow
    /// or worse.
    pub pressure_no_index: u64,
    /// Jobs admitted into the worker pool (ran or expired in queue).
    pub admitted: u64,
    /// Queued jobs dropped unexecuted because their deadline passed.
    pub dropped_expired: u64,
    /// Queue-wait distribution over every dequeue, including drops.
    pub queue_wait_count: u64,
    pub queue_wait_mean: Duration,
    pub queue_wait_p50: Duration,
    pub queue_wait_p99: Duration,
}

impl ServiceStats {
    /// Fraction of plan lookups served from cache, in `[0, 1]`.
    pub fn plan_hit_rate(&self) -> f64 {
        if self.plan_lookups == 0 {
            0.0
        } else {
            self.plan_hits as f64 / self.plan_lookups as f64
        }
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "service: served: {} failed: {} rejected: {}",
            self.served, self.failed, self.rejected
        )?;
        writeln!(
            f,
            "plans:   lookups: {} hits: {} misses: {} evictions: {} entries: {} hit-rate: {:.1}%",
            self.plan_lookups,
            self.plan_hits,
            self.plan_misses,
            self.plan_evictions,
            self.plan_entries,
            self.plan_hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "catalog: docs: {} bytes: {} evictions: {}",
            self.catalog_docs, self.catalog_bytes, self.catalog_evictions
        )?;
        writeln!(
            f,
            "segments: written: {} recovered: {} quarantined: {} cold-start: {:?}",
            self.segments_written,
            self.segments_recovered,
            self.segments_quarantined,
            self.cold_start_load
        )?;
        writeln!(
            f,
            "indexes: builds: {} bytes: {} build-time: {:?} hits: {} misses: {}",
            self.index_builds,
            self.index_bytes,
            self.index_build_time,
            self.index_hits,
            self.index_misses
        )?;
        writeln!(
            f,
            "pool:    active: {} queued: {} max-concurrent: {} max-queued: {} admitted: {} \
dropped-expired: {}",
            self.active,
            self.queued,
            self.max_concurrent,
            self.max_queued,
            self.admitted,
            self.dropped_expired
        )?;
        writeln!(
            f,
            "queue-wait: n: {} mean: {:?} p50: {:?} p99: {:?}",
            self.queue_wait_count, self.queue_wait_mean, self.queue_wait_p50, self.queue_wait_p99
        )?;
        writeln!(
            f,
            "batch:   scan-shared-hits: {} batches: {} batch-queries: {}",
            self.scan_shared_hits,
            self.batches,
            self.batch_queries
        )?;
        writeln!(
            f,
            "resilience: retries: {} uncached-compiles: {} build-failures: {} lock-recoveries: {}",
            self.retries, self.uncached_compiles, self.index_build_failures, self.lock_recoveries
        )?;
        writeln!(
            f,
            "pubsub:  subscriptions: {} published: {} matches: {} shared-pass: {} fallback: {} \
delivery-failures: {}",
            self.subscriptions_active,
            self.documents_published,
            self.matches_delivered,
            self.shared_pass_evals,
            self.fallback_evals,
            self.delivery_failures
        )?;
        writeln!(
            f,
            "stream:  tokens-seen: {} tokens-skipped: {} matches: {}",
            self.stream_tokens_seen, self.stream_tokens_skipped, self.stream_matches
        )?;
        writeln!(
            f,
            "ingest:  sessions: {} active: {} finished: {} aborted: {} reaped: {} failed: {} \
chunks: {} bytes: {} stream-queries: {}",
            self.ingest_sessions_opened,
            self.ingest_sessions_active,
            self.ingest_sessions_finished,
            self.ingest_sessions_aborted,
            self.ingest_sessions_reaped,
            self.ingest_sessions_failed,
            self.ingest_chunks,
            self.ingest_bytes,
            self.ingest_stream_queries
        )?;
        writeln!(
            f,
            "pressure: state: {} bytes: {} peak: {} ceiling: {} to-green: {} to-yellow: {} \
to-red: {} rejected: {} sheds: {} no-index: {} quarantined-bytes: {}",
            self.pressure_state.as_str(),
            self.memory_bytes,
            self.memory_peak,
            self.memory_ceiling,
            self.pressure_to_green,
            self.pressure_to_yellow,
            self.pressure_to_red,
            self.memory_rejected,
            self.pressure_sheds,
            self.pressure_no_index,
            self.quarantined_bytes
        )?;
        write!(f, "memory: ")?;
        for (cat, peak) in Category::ALL.iter().zip(self.memory_category_peak) {
            write!(f, " {}: {}", cat.as_str(), peak)?;
        }
        writeln!(f, " (peak bytes)")?;
        write!(
            f,
            "latency: n: {} mean: {:?} p50: {:?} p99: {:?}",
            self.latency_count, self.latency_mean, self.latency_p50, self.latency_p99
        )
    }
}

// The whole point of the service is cross-thread sharing; hold the
// compiler to it.
const _: () = {
    #[allow(dead_code)]
    fn assert_send_sync<T: Send + Sync>() {}
    #[allow(dead_code)]
    fn _assertions() {
        assert_send_sync::<QueryService>();
        assert_send_sync::<ServiceConfig>();
        assert_send_sync::<ServiceStats>();
        assert_send_sync::<DynamicContext>();
    }
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_queries_and_counts_them() {
        let service = QueryService::new(ServiceConfig::default());
        assert_eq!(service.run("1 + 1").unwrap(), "2");
        assert_eq!(service.run("1 + 1").unwrap(), "2");
        assert_eq!(service.run("2 * 3").unwrap(), "6");
        let s = service.stats();
        assert_eq!(s.served, 3);
        assert_eq!(s.failed, 0);
        assert_eq!(s.plan_lookups, 3);
        assert_eq!(s.plan_hits, 1);
        assert_eq!(s.plan_misses, 2);
        assert_eq!(s.latency_count, 3);
        assert!(s.latency_p50 > Duration::ZERO);
    }

    #[test]
    fn documents_reach_queries_through_the_catalog() {
        let service = QueryService::new(ServiceConfig::default());
        service
            .load_document("bib.xml", "<bib><book/><book/></bib>")
            .unwrap();
        assert_eq!(service.run(r#"count(doc("bib.xml")//book)"#).unwrap(), "2");
        assert!(service.remove_document("bib.xml"));
        let err = service.run(r#"doc("bib.xml")"#).unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::DocumentNotFound);
    }

    #[test]
    fn failed_queries_count_as_failed() {
        let service = QueryService::new(ServiceConfig::default());
        assert!(service.run("1 idiv 0").is_err());
        assert!(service.run("1 +").is_err());
        let s = service.stats();
        assert_eq!(s.served, 0);
        assert_eq!(s.failed, 2);
    }

    #[test]
    fn per_query_limits_apply() {
        let service = QueryService::new(ServiceConfig {
            per_query_limits: Limits::unlimited().with_max_items(100),
            ..Default::default()
        });
        let err = service
            .run("for $x in 1 to 100000000 return $x")
            .unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::Limit);
        assert_eq!(service.stats().failed, 1);
    }

    #[test]
    fn tickets_cancel_from_another_thread() {
        let service = QueryService::new(ServiceConfig::default());
        let ticket = service
            .submit("sum(1 to 10000000000)", DynamicContext::new())
            .unwrap();
        let handle = ticket.cancel_handle();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            handle.cancel();
        });
        let err = ticket.wait().unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::Cancelled);
    }

    #[test]
    fn stats_text_renders_every_section() {
        let service = QueryService::new(ServiceConfig::default());
        service.run("1").unwrap();
        let text = service.stats_text();
        for section in [
            "service:",
            "plans:",
            "catalog:",
            "segments:",
            "indexes:",
            "pool:",
            "batch:",
            "resilience:",
            "pubsub:",
            "stream:",
            "ingest:",
            "pressure:",
            "memory:",
            "queue-wait:",
            "latency:",
        ] {
            assert!(text.contains(section), "{text}");
        }
    }

    #[test]
    fn standing_subscriptions_receive_published_documents() {
        let service = QueryService::new(ServiceConfig::default());
        let streamed = service.subscribe("/bib/book/title").unwrap();
        let fallback = service.subscribe("count(//book)").unwrap();
        assert_eq!(service.stats().subscriptions_active, 2);

        let xml = "<bib><book><title>a</title></book><book><title>b</title></book></bib>";
        let report = service.publish("feed-1", xml).unwrap();
        assert_eq!(
            report.result_for(streamed).unwrap().as_ref().unwrap(),
            "<title>a</title><title>b</title>"
        );
        assert_eq!(report.result_for(fallback).unwrap().as_ref().unwrap(), "2");

        // Transient publish: the fallback copy must not linger in the
        // store or the catalog.
        assert_eq!(service.engine().store().doc_count(), 0);
        assert!(service
            .run(r#"doc("feed-1")"#)
            .is_err_and(|e| e.code == ErrorCode::DocumentNotFound));

        assert!(service.unsubscribe(streamed));
        assert!(!service.unsubscribe(streamed), "stale id is a no-op");
        let report = service.publish("feed-2", xml).unwrap();
        assert!(report.result_for(streamed).is_none());
        assert_eq!(service.stats().subscriptions_active, 1);

        let s = service.stats();
        assert_eq!(s.subscriptions_active, 1);
        assert_eq!(s.documents_published, 2);
        assert_eq!(s.shared_pass_evals, 1);
        assert_eq!(s.fallback_evals, 2);
        assert!(s.matches_delivered >= 3);
        assert!(s.stream_tokens_seen > 0, "{s}");
    }

    #[test]
    fn publish_retained_keeps_the_document_queryable() {
        let service = QueryService::new(ServiceConfig::default());
        let id = service.subscribe("//title").unwrap();
        let report = service
            .publish_retained("bib.xml", "<bib><book><title>t</title></book></bib>")
            .unwrap();
        assert_eq!(
            report.result_for(id).unwrap().as_ref().unwrap(),
            "<title>t</title>"
        );
        assert_eq!(
            service.run(r#"doc("bib.xml")//title"#).unwrap(),
            "<title>t</title>"
        );
        assert_eq!(service.stats().catalog_docs, 1);
    }

    #[test]
    fn publish_skips_subtrees_no_subscription_can_match() {
        let service = QueryService::new(ServiceConfig::default());
        service.subscribe("/a/b/c").unwrap();
        // The <z> subtree can never match /a/b/c: the combined pass
        // must prune it rather than walk its tokens.
        let xml = "<a><b><c>hit</c></b><z><w/><w/><w/><w/></z></a>";
        service.publish("d", xml).unwrap();
        let s = service.stats();
        assert!(
            s.stream_tokens_skipped > 0,
            "publish pass must prune dead subtrees: {s}"
        );
        assert_eq!(s.stream_matches, 1);
    }

    #[test]
    fn persistent_service_recovers_corpus_after_restart() {
        let dir = std::env::temp_dir().join(format!(
            "xqr-service-restart-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            persist_dir: Some(dir.clone()),
            ..Default::default()
        };

        let service = QueryService::open(config.clone()).unwrap();
        service
            .load_document("bib.xml", "<bib><book><title>t</title></book><book/></bib>")
            .unwrap();
        let before = service.run(r#"doc("bib.xml")//title"#).unwrap();
        assert_eq!(service.stats().segments_written, 1);
        drop(service);

        // A fresh incarnation: nothing is loaded until a query touches
        // the document, then the answer must be byte-identical.
        let service = QueryService::open(config).unwrap();
        let s = service.stats();
        assert_eq!((s.catalog_docs, s.segments_recovered), (1, 0));
        assert_eq!(service.run(r#"doc("bib.xml")//title"#).unwrap(), before);
        let s = service.stats();
        assert_eq!(s.segments_recovered, 1);
        assert!(text_has_segment_counters(&service.stats_text()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn text_has_segment_counters(text: &str) -> bool {
        text.contains("segments: written: 0 recovered: 1 quarantined: 0")
    }

    #[test]
    fn run_batch_shares_scans_and_isolates_failures() {
        let service = QueryService::new(ServiceConfig::default());
        service
            .load_document(
                "bib.xml",
                "<bib><book><author/><title>a</title></book>\
                 <book><title>b</title></book></bib>",
            )
            .unwrap();
        let out = service
            .run_batch(
                "bib.xml",
                &[
                    "count(//book/title)",
                    "count(//book/title)", // same scans as the first
                    "1 idiv 0",            // fails alone
                    "count(//book[author]/title)",
                ],
            )
            .unwrap();
        assert_eq!(out[0].as_deref().unwrap(), "2");
        assert_eq!(out[1].as_deref().unwrap(), "2");
        assert!(out[2].is_err());
        assert_eq!(out[3].as_deref().unwrap(), "1");
        let s = service.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_queries, 4);
        assert_eq!(s.served, 3);
        assert_eq!(s.failed, 1);
        assert!(
            s.scan_shared_hits > 0,
            "repeated scans must hit the batch cache: {s}"
        );
        // Unknown documents fail the batch as a unit.
        let err = service.run_batch("nope.xml", &["1"]).unwrap_err();
        assert_eq!(err.code, ErrorCode::DocumentNotFound);
    }

    #[test]
    fn catalog_loads_feed_index_backed_queries() {
        let service = QueryService::new(ServiceConfig::default());
        service
            .load_document(
                "bib.xml",
                "<bib><book><author/><title>t</title></book><book><title/></book></bib>",
            )
            .unwrap();
        assert_eq!(
            service
                .run(r#"count(doc("bib.xml")//book[author]/title)"#)
                .unwrap(),
            "1"
        );
        let s = service.stats();
        assert_eq!(s.index_builds, 1);
        assert!(s.index_bytes > 0);
        assert!(s.index_hits >= 1, "query was answered from the index: {s}");
        // Disabling indexing on the engine disables catalog builds too.
        let service = QueryService::new(ServiceConfig {
            engine: EngineOptions {
                index_documents: false,
                ..Default::default()
            },
            ..Default::default()
        });
        service.load_document("bib.xml", "<bib/>").unwrap();
        assert_eq!(service.run(r#"count(doc("bib.xml")//x)"#).unwrap(), "0");
        let s = service.stats();
        assert_eq!(s.index_builds, 0);
        assert!(s.index_hits == 0 && s.index_misses >= 1, "{s}");
    }
}
