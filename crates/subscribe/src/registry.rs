//! Subscription lifecycle and the publish path.
//!
//! Clients register compiled queries once; documents then arrive as a
//! stream. Each publish tokenizes the document a single time and drives
//! the [`CombinedAutomaton`](crate::CombinedAutomaton) over that one
//! pass for every *streamable* subscription; subscriptions whose plans
//! are not streamable fall back to one-shot evaluation, all of them
//! sharing one materialized (and, when enabled, indexed) copy of the
//! document.
//!
//! # Isolation
//!
//! Every subscription carries its own [`Limits`]-derived
//! [`QueryGuard`]: a budget trip, evaluation error, panicking sink, or
//! injected delivery fault degrades that subscription alone — it gets a
//! stable `XQRL000x` coded error while the shared pass and every other
//! subscription proceed untouched. Results are never cross-delivered:
//! a subscription only ever sees matches for its own `SubId`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use xqr_core::{contain_panic, Engine, Item, NodeId, NodeRef, PreparedQuery};
use xqr_runtime::{
    run_document, CombinedAutomaton, CombinedOutcome, Counters, DynamicContext, StreamPattern,
    StreamStats, StreamingPass,
};
use xqr_store::DocId;
use xqr_tokenstream::ParserTokenIterator;
use xqr_xdm::{Error, Limits, QueryGuard, Result};

/// Generation-checked subscription handle: slots are reused, but a
/// stale id (unsubscribed, then the slot re-registered) never aliases
/// the new subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId {
    slot: u32,
    generation: u32,
}

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}g{}", self.slot, self.generation)
    }
}

/// One delivery to a subscription sink: the per-subscription outcome of
/// one published document.
#[derive(Debug)]
pub struct Delivery<'a> {
    pub sub: SubId,
    /// The name the document was published under.
    pub document: &'a str,
    /// Serialized matches (concatenated, document order) or this
    /// subscription's coded error for this document.
    pub outcome: &'a Result<String>,
}

/// Where a subscription's results go. Implementations must be cheap and
/// non-blocking: delivery runs on the publishing thread. A panic or
/// error here is contained and degrades only this subscription's result
/// for the current document.
pub trait SubscriptionSink: Send + Sync {
    fn deliver(&self, delivery: &Delivery<'_>) -> Result<()>;
}

/// A sink that buffers `(document, outcome)` pairs — tests and the
/// harness read them back with [`CollectingSink::take`].
#[derive(Debug, Default)]
pub struct CollectingSink {
    received: Mutex<Vec<(String, Result<String>)>>,
}

impl CollectingSink {
    pub fn new() -> Arc<CollectingSink> {
        Arc::new(CollectingSink::default())
    }

    pub fn take(&self) -> Vec<(String, Result<String>)> {
        std::mem::take(&mut lock_unpoisoned(&self.received))
    }
}

impl SubscriptionSink for CollectingSink {
    fn deliver(&self, delivery: &Delivery<'_>) -> Result<()> {
        lock_unpoisoned(&self.received)
            .push((delivery.document.to_string(), delivery.outcome.clone()));
        Ok(())
    }
}

/// One registered standing query.
struct Subscription {
    query: String,
    plan: Arc<PreparedQuery>,
    /// Streamable pattern, if the plan has one — decides the shared-pass
    /// vs fallback route at publish-plan build time.
    pattern: Option<StreamPattern>,
    limits: Limits,
    sink: Option<Arc<dyn SubscriptionSink>>,
}

struct SlotEntry {
    generation: u32,
    sub: Option<Arc<Subscription>>,
}

/// The compiled shape of the current subscription set, shared by
/// publishes without holding the registry lock. `PatternId` in the
/// automaton is the index into `streamed`.
struct PublishPlan {
    automaton: CombinedAutomaton,
    streamed: Vec<(SubId, Arc<Subscription>)>,
    fallback: Vec<(SubId, Arc<Subscription>)>,
}

#[derive(Default)]
struct Inner {
    slots: Vec<SlotEntry>,
    free: Vec<u32>,
    /// Rebuilt lazily after any register/unregister.
    plan: Option<Arc<PublishPlan>>,
}

/// Counter snapshot for the service stats surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscribeStats {
    pub active: u64,
    pub documents_published: u64,
    pub matches_delivered: u64,
    /// Subscriptions served by the combined shared pass, summed over
    /// publishes.
    pub shared_pass_evals: u64,
    /// Subscriptions served by one-shot fallback, summed over publishes.
    pub fallback_evals: u64,
    pub delivery_failures: u64,
    pub stream_tokens_seen: u64,
    pub stream_tokens_skipped: u64,
    pub stream_matches: u64,
}

/// Register/unregister standing queries; publish documents at them.
#[derive(Default)]
pub struct SubscriptionRegistry {
    inner: Mutex<Inner>,
    documents_published: AtomicU64,
    matches_delivered: AtomicU64,
    shared_pass_evals: AtomicU64,
    fallback_evals: AtomicU64,
    delivery_failures: AtomicU64,
    stream_tokens_seen: AtomicU64,
    stream_tokens_skipped: AtomicU64,
    stream_matches: AtomicU64,
}

/// Mutex recovery without the service crate's `lock_recover`: registry
/// state is only mutated under short, panic-free critical sections, so
/// a poisoned lock's data is sound to adopt.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// What one publish did — per-subscription outcomes plus the shared
/// pass's instrumentation.
#[derive(Debug)]
pub struct PublishReport {
    /// The name the document was published under.
    pub document: String,
    /// `(subscription, serialized matches or its coded error)`, one
    /// entry per live subscription, streamed set first.
    pub results: Vec<(SubId, Result<String>)>,
    /// Shared-pass instrumentation (zeroes when no subscription was
    /// streamable).
    pub stats: StreamStats,
    /// Subscriptions served by the combined automaton this publish.
    pub shared_pass: usize,
    /// Subscriptions served by one-shot fallback this publish.
    pub fallback: usize,
    /// Match deliveries that charged a budget successfully.
    pub matches: u64,
    /// Sink deliveries that errored or panicked.
    pub delivery_failures: u64,
    /// The standard execution-counter surface: stream gauges carry the
    /// shared pass's [`StreamStats`].
    pub counters: Counters,
}

impl PublishReport {
    pub fn result_for(&self, id: SubId) -> Option<&Result<String>> {
        self.results
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, r)| r)
    }
}

impl SubscriptionRegistry {
    pub fn new() -> SubscriptionRegistry {
        SubscriptionRegistry::default()
    }

    /// Register a standing query. The plan's streamable pattern (if
    /// any) routes it onto the shared pass; anything else falls back to
    /// per-document one-shot evaluation. `limits` caps each document's
    /// work for this subscription alone.
    pub fn register(
        &self,
        query: &str,
        plan: Arc<PreparedQuery>,
        limits: Limits,
        sink: Option<Arc<dyn SubscriptionSink>>,
    ) -> SubId {
        let pattern = plan.stream_pattern().cloned();
        let sub = Arc::new(Subscription {
            query: query.to_string(),
            plan,
            pattern,
            limits,
            sink,
        });
        let mut inner = lock_unpoisoned(&self.inner);
        inner.plan = None;
        if let Some(slot) = inner.free.pop() {
            let entry = &mut inner.slots[slot as usize];
            entry.generation += 1;
            entry.sub = Some(sub);
            SubId {
                slot,
                generation: entry.generation,
            }
        } else {
            inner.slots.push(SlotEntry {
                generation: 0,
                sub: Some(sub),
            });
            SubId {
                slot: (inner.slots.len() - 1) as u32,
                generation: 0,
            }
        }
    }

    /// Remove a subscription. Returns false for ids that are stale
    /// (already unsubscribed, or their slot was reused) — never touches
    /// the current occupant of a reused slot.
    pub fn unregister(&self, id: SubId) -> bool {
        let mut inner = lock_unpoisoned(&self.inner);
        match inner.slots.get_mut(id.slot as usize) {
            Some(entry) if entry.generation == id.generation && entry.sub.is_some() => {
                entry.sub = None;
                inner.free.push(id.slot);
                inner.plan = None;
                true
            }
            _ => false,
        }
    }

    /// Live subscription count.
    pub fn active(&self) -> usize {
        let inner = lock_unpoisoned(&self.inner);
        inner.slots.iter().filter(|s| s.sub.is_some()).count()
    }

    /// The registered query text, if the id is live (diagnostics).
    pub fn query_of(&self, id: SubId) -> Option<String> {
        let inner = lock_unpoisoned(&self.inner);
        inner
            .slots
            .get(id.slot as usize)
            .filter(|e| e.generation == id.generation)
            .and_then(|e| e.sub.as_ref())
            .map(|s| s.query.clone())
    }

    fn plan(&self) -> Arc<PublishPlan> {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(plan) = &inner.plan {
            return plan.clone();
        }
        let mut streamed = Vec::new();
        let mut fallback = Vec::new();
        for (slot, entry) in inner.slots.iter().enumerate() {
            let Some(sub) = &entry.sub else { continue };
            let id = SubId {
                slot: slot as u32,
                generation: entry.generation,
            };
            if sub.pattern.is_some() {
                streamed.push((id, sub.clone()));
            } else {
                fallback.push((id, sub.clone()));
            }
        }
        let patterns: Vec<StreamPattern> = streamed
            .iter()
            .map(|(_, s)| s.pattern.clone().expect("streamed subs have patterns"))
            .collect();
        let plan = Arc::new(PublishPlan {
            automaton: CombinedAutomaton::build(&patterns),
            streamed,
            fallback,
        });
        inner.plan = Some(plan.clone());
        plan
    }

    /// Publish a document: one tokenization feeds every streamable
    /// subscription through the combined automaton; non-streamable
    /// subscriptions each run one-shot against a single shared
    /// materialized+indexed copy. `publish_limits` bounds the shared
    /// work (tokenization, materialization); each subscription's own
    /// limits bound its output.
    ///
    /// This convenience materializes via the engine store directly; the
    /// service routes through its catalog instead (see
    /// `publish_with_doc`) so budgets and breakers apply.
    pub fn publish(
        &self,
        engine: &Engine,
        name: &str,
        xml: &str,
        publish_limits: Limits,
    ) -> Result<PublishReport> {
        self.publish_with_doc(engine, name, xml, publish_limits, || {
            let id = engine.store().load_xml(xml, None)?;
            if engine.options().index_documents {
                // Best-effort: an index-build failure (budget trip,
                // injected fault) falls back to navigation, exactly like
                // the catalog's degraded mode. Panic-contained so an
                // injected panic mid-build cannot leak the just-loaded
                // document out of this closure's ownership.
                let guard = QueryGuard::new(publish_limits);
                let _ = contain_panic(|| {
                    xqr_index::ensure_indexed(engine.store(), id, &guard).map(|_| ())
                });
            }
            Ok((id, true))
        })
    }

    /// [`SubscriptionRegistry::publish`] with caller-controlled
    /// materialization: `materialize` is invoked only when at least one
    /// non-streamable subscription needs the document, and returns
    /// `(doc, owned)` — `owned` means the publish removes the document
    /// from the store when done.
    pub fn publish_with_doc<F>(
        &self,
        engine: &Engine,
        name: &str,
        xml: &str,
        publish_limits: Limits,
        materialize: F,
    ) -> Result<PublishReport>
    where
        F: FnOnce() -> Result<(DocId, bool)>,
    {
        let plan = self.plan();

        // Shared pass: tokenize once, match every streamable pattern.
        let shared = if plan.streamed.is_empty() {
            None
        } else {
            let guards: Vec<QueryGuard> = plan
                .streamed
                .iter()
                .map(|(_, s)| QueryGuard::new(s.limits))
                .collect();
            let pass_guard = QueryGuard::new(publish_limits);
            Some(contain_panic(|| {
                let mut it = if pass_guard.is_unlimited() {
                    ParserTokenIterator::new(xml, engine.names().clone())
                } else {
                    ParserTokenIterator::with_guard(xml, engine.names().clone(), pass_guard.clone())
                };
                run_document(&plan.automaton, &mut it, |pid, bytes| {
                    guards[pid as usize].note_output_bytes(bytes)
                })
            })?)
        };

        self.complete_publish(engine, name, &plan, shared, materialize)
    }

    /// Everything downstream of the shared pass: fallback evaluation,
    /// delivery, counters, and the report. Shared between the
    /// whole-document path above and [`PublishSession::finish`], so the
    /// chunked path cannot drift from it.
    fn complete_publish<F>(
        &self,
        engine: &Engine,
        name: &str,
        plan: &PublishPlan,
        shared: Option<CombinedOutcome>,
        materialize: F,
    ) -> Result<PublishReport>
    where
        F: FnOnce() -> Result<(DocId, bool)>,
    {
        // Self-healing: reclaim any document left behind by an earlier
        // removal that panicked (a query result's constructed doc, a
        // previous publish's transient).
        engine.store().reap_orphans();
        let counters = Counters::default();
        let mut results: Vec<(SubId, Arc<Subscription>, Result<String>)> = Vec::new();
        let mut stats = StreamStats::default();
        let mut matches = 0u64;

        if let Some(outcome) = shared {
            stats = outcome.stats;
            matches += stats.matches;
            for ((id, sub), matched) in plan.streamed.iter().zip(outcome.per_pattern) {
                results.push((*id, sub.clone(), matched.map(|m| m.concat())));
            }
            self.shared_pass_evals
                .fetch_add(plan.streamed.len() as u64, Ordering::Relaxed);
        }

        // Fallback: one shared materialized document, one guarded
        // one-shot evaluation per non-streamable subscription.
        if !plan.fallback.is_empty() {
            // `contain_panic` so an injected panic in the caller's
            // materialization (e.g. the catalog.load failpoint) degrades
            // the fallback set, not the whole publish.
            match contain_panic(materialize) {
                Ok((doc, owned)) => {
                    let mut ctx = DynamicContext::new();
                    ctx.context_item = Some(Item::Node(NodeRef::new(doc, NodeId(0))));
                    for (id, sub) in &plan.fallback {
                        let r = contain_panic(|| {
                            sub.plan
                                .execute_guarded(engine, &ctx, QueryGuard::new(sub.limits))?
                                .serialize_guarded()
                        });
                        if let Ok(out) = &r {
                            if !out.is_empty() {
                                matches += 1;
                            }
                        }
                        results.push((*id, sub.clone(), r));
                    }
                    if owned {
                        // Contained so an injected panic at the remove
                        // site never unwinds out of publish. A document
                        // whose removal panicked is parked on the orphan
                        // list and reclaimed by a later pass — the fault
                        // degrades to a bounded, recoverable leak, not a
                        // permanent one.
                        let removed = contain_panic(|| {
                            engine.store().remove_document(doc);
                            Ok(())
                        });
                        if removed.is_err() {
                            engine.store().park_orphan(doc);
                        }
                    }
                }
                Err(e) => {
                    // The document could not be materialized: every
                    // fallback subscription gets that coded error; the
                    // shared-pass results above stand.
                    for (id, sub) in &plan.fallback {
                        results.push((*id, sub.clone(), Err(e.clone())));
                    }
                }
            }
            self.fallback_evals
                .fetch_add(plan.fallback.len() as u64, Ordering::Relaxed);
        }

        // Delivery: per-subscription, fault-isolated. A failing sink
        // replaces only its own outcome — never another subscription's,
        // never the pass.
        let mut delivery_failures = 0u64;
        for (id, sub, outcome) in &mut results {
            if let Err(e) = deliver_one(sub, *id, name, outcome) {
                delivery_failures += 1;
                if outcome.is_ok() {
                    *outcome = Err(e);
                }
            }
        }

        counters.record_stream_stats(&stats);
        self.documents_published.fetch_add(1, Ordering::Relaxed);
        self.matches_delivered.fetch_add(matches, Ordering::Relaxed);
        self.delivery_failures
            .fetch_add(delivery_failures, Ordering::Relaxed);
        self.stream_tokens_seen
            .fetch_add(stats.tokens_seen, Ordering::Relaxed);
        self.stream_tokens_skipped
            .fetch_add(stats.tokens_skipped, Ordering::Relaxed);
        self.stream_matches
            .fetch_add(stats.matches, Ordering::Relaxed);

        Ok(PublishReport {
            document: name.to_string(),
            results: results.into_iter().map(|(id, _, r)| (id, r)).collect(),
            stats,
            shared_pass: plan.streamed.len(),
            fallback: plan.fallback.len(),
            matches,
            delivery_failures,
            counters,
        })
    }

    /// Does the current subscription set contain non-streamable
    /// queries? (The service pre-materializes through its catalog only
    /// when true.)
    pub fn needs_fallback_doc(&self) -> bool {
        !self.plan().fallback.is_empty()
    }

    /// Start a *chunked* publish: the returned session accepts the
    /// document as byte chunks split at any boundary and matches
    /// streamable subscriptions incrementally, while bytes are still
    /// arriving. [`PublishSession::finish`] then runs exactly the same
    /// fallback/delivery tail as [`SubscriptionRegistry::publish`] —
    /// the two paths produce identical reports (results, coded errors,
    /// stream stats), which the chunked differential oracle enforces.
    ///
    /// The session pins the publish plan at creation:
    /// register/unregister during a chunked publish affects later
    /// publishes, not this one (same as the whole-document path, which
    /// snapshots the plan on entry).
    pub fn begin_publish(
        &self,
        engine: &Engine,
        name: &str,
        publish_limits: Limits,
    ) -> PublishSession {
        let plan = self.plan();
        // No streamable subscription: nothing to match incrementally.
        // The whole-document path never tokenizes in that case (the
        // fallback materialization does its own parse), so the chunked
        // path must not either — a parse error must surface as the
        // fallback subscriptions' per-subscription error, not a
        // top-level publish failure.
        let streaming = if plan.streamed.is_empty() {
            None
        } else {
            let guards: Vec<QueryGuard> = plan
                .streamed
                .iter()
                .map(|(_, s)| QueryGuard::new(s.limits))
                .collect();
            Some(StreamingPass::new(
                &plan.automaton,
                engine.names().clone(),
                QueryGuard::new(publish_limits),
                guards,
            ))
        };
        let fallback_buf = if plan.fallback.is_empty() {
            None
        } else {
            Some(Vec::new())
        };
        PublishSession {
            plan,
            document: name.to_string(),
            streaming,
            fallback_buf,
            failed: None,
            bytes_fed: 0,
        }
    }

    /// Convenience chunked publish over an in-memory chunk list — the
    /// differential oracle's entry point. Materializes fallback
    /// documents exactly like [`SubscriptionRegistry::publish`].
    pub fn publish_chunked<'a, C>(
        &self,
        engine: &Engine,
        name: &str,
        chunks: C,
        publish_limits: Limits,
    ) -> Result<PublishReport>
    where
        C: IntoIterator<Item = &'a [u8]>,
    {
        let mut session = self.begin_publish(engine, name, publish_limits);
        for chunk in chunks {
            session.feed(chunk)?;
        }
        session.finish(self, engine, |xml| {
            let id = engine.store().load_xml(xml, None)?;
            if engine.options().index_documents {
                let guard = QueryGuard::new(publish_limits);
                let _ = contain_panic(|| {
                    xqr_index::ensure_indexed(engine.store(), id, &guard).map(|_| ())
                });
            }
            Ok((id, true))
        })
    }

    pub fn stats(&self) -> SubscribeStats {
        SubscribeStats {
            active: self.active() as u64,
            documents_published: self.documents_published.load(Ordering::Relaxed),
            matches_delivered: self.matches_delivered.load(Ordering::Relaxed),
            shared_pass_evals: self.shared_pass_evals.load(Ordering::Relaxed),
            fallback_evals: self.fallback_evals.load(Ordering::Relaxed),
            delivery_failures: self.delivery_failures.load(Ordering::Relaxed),
            stream_tokens_seen: self.stream_tokens_seen.load(Ordering::Relaxed),
            stream_tokens_skipped: self.stream_tokens_skipped.load(Ordering::Relaxed),
            stream_matches: self.stream_matches.load(Ordering::Relaxed),
        }
    }
}

/// An in-flight chunked publish (see
/// [`SubscriptionRegistry::begin_publish`]). Feed byte chunks as they
/// arrive; streamable subscriptions are matched incrementally against
/// whatever tokens complete, with memory bounded by the largest single
/// syntactic unit — the document is buffered in full only when a
/// non-streamable subscription will need a materialized copy.
///
/// Errors are sticky: a failed feed poisons the session, and
/// [`PublishSession::finish`] returns the same error the whole-document
/// publish would have (the oracle's contract).
pub struct PublishSession {
    plan: Arc<PublishPlan>,
    document: String,
    /// The incremental half: push tokenizer plus resumable automaton
    /// run, present only when at least one streamable subscription
    /// exists.
    streaming: Option<StreamingPass>,
    /// Raw document bytes, accumulated only when `plan.fallback` is
    /// non-empty (a materialized copy will be needed at finish).
    fallback_buf: Option<Vec<u8>>,
    failed: Option<Error>,
    bytes_fed: u64,
}

impl PublishSession {
    fn check_failed(&self) -> Result<()> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn fail<T>(&mut self, e: Error) -> Result<T> {
        self.failed = Some(e.clone());
        Err(e)
    }

    /// The name this document is being published under.
    pub fn document(&self) -> &str {
        &self.document
    }

    /// Total bytes fed so far (for byte budgets and stats).
    pub fn bytes_fed(&self) -> u64 {
        self.bytes_fed
    }

    /// Bytes parked in the lexer awaiting a complete syntactic unit.
    pub fn buffered_bytes(&self) -> usize {
        self.streaming
            .as_ref()
            .map(|s| s.buffered_bytes())
            .unwrap_or(0)
    }

    /// Matches delivered to streamable subscriptions so far — visible
    /// while bytes are still arriving, which is the point.
    pub fn matches_so_far(&self) -> u64 {
        self.streaming
            .as_ref()
            .map(|s| s.stats().matches)
            .unwrap_or(0)
    }

    /// Will `finish` need the full document text (non-streamable
    /// subscriptions present)?
    pub fn needs_fallback_doc(&self) -> bool {
        self.fallback_buf.is_some()
    }

    /// Feed one chunk, split at any byte boundary. Streamable
    /// subscriptions advance by however many tokens completed.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<()> {
        self.check_failed()?;
        self.bytes_fed += chunk.len() as u64;
        if let Some(buf) = &mut self.fallback_buf {
            buf.extend_from_slice(chunk);
        }
        let Some(pass) = &mut self.streaming else {
            return Ok(());
        };
        match contain_panic(|| pass.feed(&self.plan.automaton, chunk)) {
            Ok(()) => Ok(()),
            Err(e) => self.fail(e),
        }
    }

    /// End of input: resolve constructs waiting on more bytes, run the
    /// fallback evaluations (materializing via `materialize`, which
    /// receives the full document text), deliver every outcome, and
    /// report — identically to the whole-document publish.
    pub fn finish<F>(
        mut self,
        registry: &SubscriptionRegistry,
        engine: &Engine,
        materialize: F,
    ) -> Result<PublishReport>
    where
        F: FnOnce(&str) -> Result<(DocId, bool)>,
    {
        self.check_failed()?;
        let shared = match self.streaming.take() {
            Some(pass) => match contain_panic(|| pass.finish(&self.plan.automaton)) {
                Ok(outcome) => Some(outcome),
                Err(e) => return self.fail(e),
            },
            None => None,
        };
        let doc_text = match self.fallback_buf.take() {
            Some(buf) => match String::from_utf8(buf) {
                Ok(s) => Some(s),
                // A streaming pass would have caught this in feed; with
                // only fallback subscriptions it surfaces here, as the
                // materialization failure those subscriptions report.
                Err(_) => {
                    return registry.complete_publish(
                        engine,
                        &self.document,
                        &self.plan,
                        shared,
                        || Err(Error::syntax("invalid UTF-8 in document")),
                    )
                }
            },
            None => None,
        };
        registry.complete_publish(engine, &self.document, &self.plan, shared, || {
            materialize(doc_text.as_deref().unwrap_or(""))
        })
    }
}

/// Deliver one outcome through the subscription's sink, behind the
/// `subscribe.deliver` failpoint and the panic boundary.
fn deliver_one(
    sub: &Subscription,
    id: SubId,
    document: &str,
    outcome: &Result<String>,
) -> Result<()> {
    let Some(sink) = &sub.sink else {
        return Ok(());
    };
    contain_panic(|| {
        xqr_faults::faultpoint!("subscribe.deliver");
        sink.deliver(&Delivery {
            sub: id,
            document,
            outcome,
        })
    })
}
