//! Subscription lifecycle and the publish path.
//!
//! Clients register compiled queries once; documents then arrive as a
//! stream. Each publish tokenizes the document a single time and drives
//! the [`CombinedAutomaton`](crate::CombinedAutomaton) over that one
//! pass for every *streamable* subscription; subscriptions whose plans
//! are not streamable fall back to one-shot evaluation, all of them
//! sharing one materialized (and, when enabled, indexed) copy of the
//! document, built from the same pass's tokens.
//!
//! # Isolation
//!
//! Every subscription carries its own [`Limits`]-derived
//! [`QueryGuard`]: a budget trip, evaluation error, panicking sink, or
//! injected delivery fault degrades that subscription alone — it gets a
//! stable `XQRL000x` coded error while the shared pass and every other
//! subscription proceed untouched. Results are never cross-delivered:
//! a subscription only ever sees matches for its own `SubId`.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xqr_core::{contain_panic, Engine, Item, PreparedQuery};
use xqr_faults::deep_stack::on_deep_stack;
use xqr_parallel::lock_recover;
use xqr_runtime::{
    CombinedAutomaton, CombinedOutcome, Counters, DynamicContext, StreamPattern, StreamStats,
    StreamingPass,
};
use xqr_store::{Document, DocumentBuilder, Lease};
use xqr_tokenstream::Tokenizer;
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
        std::mem::take(&mut lock_recover(&self.received))
    }
}

impl SubscriptionSink for CollectingSink {
    fn deliver(&self, delivery: &Delivery<'_>) -> Result<()> {
        lock_recover(&self.received)
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

impl PublishPlan {
    fn is_empty(&self) -> bool {
        self.streamed.is_empty() && self.fallback.is_empty()
    }

    /// One output budget per streamable subscription, indexed by its
    /// `PatternId`.
    fn guards(&self) -> Vec<QueryGuard> {
        self.streamed
            .iter()
            .map(|(_, s)| QueryGuard::new(s.limits))
            .collect()
    }
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
        let mut inner = lock_recover(&self.inner);
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
        let mut inner = lock_recover(&self.inner);
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
        let inner = lock_recover(&self.inner);
        inner.slots.iter().filter(|s| s.sub.is_some()).count()
    }

    /// The registered query text, if the id is live (diagnostics).
    pub fn query_of(&self, id: SubId) -> Option<String> {
        let inner = lock_recover(&self.inner);
        inner
            .slots
            .get(id.slot as usize)
            .filter(|e| e.generation == id.generation)
            .and_then(|e| e.sub.as_ref())
            .map(|s| s.query.clone())
    }

    fn plan(&self) -> Arc<PublishPlan> {
        let mut inner = lock_recover(&self.inner);
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
    /// subscription through the combined automaton and, when any
    /// subscription is non-streamable, builds the one materialized (and
    /// indexed) copy they each run one-shot against. `publish_limits`
    /// bounds the shared work (tokenization, materialization); each
    /// subscription's own limits bound its output.
    ///
    /// This convenience leases the copy in the engine store directly;
    /// the service routes it through its catalog instead (see
    /// `publish_with_doc`) so budgets and breakers apply.
    pub fn publish(
        &self,
        engine: &Engine,
        name: &str,
        xml: &str,
        publish_limits: Limits,
    ) -> Result<PublishReport> {
        self.publish_with_doc(engine, name, xml, publish_limits, |doc| {
            transient_doc(engine, doc, publish_limits)
        })
    }

    /// [`SubscriptionRegistry::publish`] with caller-controlled
    /// materialization: `materialize` is invoked only when at least one
    /// non-streamable subscription needs the document, receives the
    /// document the shared pass built, and returns a lease on it, held
    /// until the fallback evaluations are done. With no streamable
    /// subscription, a document that cannot be read (or trips
    /// `publish_limits`) is the fallback subscriptions' coded error, not
    /// the publish's.
    pub fn publish_with_doc<F>(
        &self,
        engine: &Engine,
        name: &str,
        xml: &str,
        publish_limits: Limits,
        materialize: F,
    ) -> Result<PublishReport>
    where
        F: FnOnce(Arc<Document>) -> Result<Lease>,
    {
        let tokenizer = Tokenizer::new(xml, engine.names().clone());
        self.open_session(engine, name.into(), publish_limits, tokenizer, false)
            .finish(self, engine, materialize)
    }

    /// [`SubscriptionRegistry::publish_with_doc`] for a document that
    /// outlives the publish: the shared pass always builds it, with
    /// `name` as its URI, and hands it to `retain` before anything is
    /// evaluated; the lease `retain` returns is what the fallback
    /// subscriptions read. A document that cannot be read or retained
    /// fails the publish.
    pub fn publish_retaining<F>(
        &self,
        engine: &Engine,
        name: &str,
        xml: &str,
        publish_limits: Limits,
        retain: F,
    ) -> Result<PublishReport>
    where
        F: FnOnce(Arc<Document>) -> Result<Lease>,
    {
        let tokenizer = Tokenizer::new(xml, engine.names().clone());
        self.open_session(engine, name.into(), publish_limits, tokenizer, true)
            .finish(self, engine, retain)
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
        F: FnOnce() -> Result<Lease>,
    {
        let counters = Counters::default();
        let mut results: Vec<(SubId, Arc<Subscription>, Result<String>)> = Vec::new();
        let mut stats = StreamStats::default();
        let mut matches = 0u64;

        if let Some(outcome) = shared {
            stats = outcome.stats;
            matches += stats.matches;
            for ((id, sub), matched) in plan.streamed.iter().zip(outcome.per_pattern) {
                results.push((*id, sub.clone(), matched));
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
                // The lease drops at the end of this arm, whatever the
                // evaluations did: a transient document is freed there.
                Ok(doc) => {
                    // One deep stack for the whole loop: a publisher
                    // off the worker pool pays one thread, not one per
                    // subscription.
                    let outcomes = on_deep_stack(|| {
                        let ctx = DynamicContext::new().with_context_item(Item::Node(doc.root()));
                        plan.fallback
                            .iter()
                            .map(|(_, sub)| {
                                contain_panic(|| {
                                    let guard = QueryGuard::new(sub.limits);
                                    sub.plan
                                        .execute_serialized(engine, &ctx, guard, None)
                                        .map(|(out, _)| out)
                                })
                            })
                            .collect::<Vec<_>>()
                    });
                    for ((id, sub), r) in plan.fallback.iter().zip(outcomes) {
                        if let Ok(out) = &r {
                            if !out.is_empty() {
                                matches += 1;
                            }
                        }
                        results.push((*id, sub.clone(), r));
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
    ) -> PublishSession<'static> {
        let tokenizer = Tokenizer::incremental(engine.names().clone());
        self.open_session(
            engine,
            name.to_string().into(),
            publish_limits,
            tokenizer,
            false,
        )
    }

    /// A session over `tokenizer`, publishing `document`. One pass
    /// whatever the subscriptions: with only fallback ones it runs an
    /// empty automaton and just builds their copy. A retaining session
    /// always builds the document, under that name.
    fn open_session<'a>(
        &self,
        engine: &Engine,
        document: Cow<'a, str>,
        publish_limits: Limits,
        tokenizer: Tokenizer<'a>,
        retain: bool,
    ) -> PublishSession<'a> {
        let plan = self.plan();
        let pass = (retain || !plan.is_empty()).then(|| {
            let tokenizer = tokenizer.limited(publish_limits);
            let pass = StreamingPass::new(&plan.automaton, tokenizer, plan.guards());
            let builder = || DocumentBuilder::new(engine.names().clone());
            match (retain, plan.fallback.is_empty()) {
                (true, _) => pass.building(builder().with_uri(&*document)),
                (false, false) => pass.building(builder()),
                (false, true) => pass,
            }
        });
        PublishSession {
            plan,
            document,
            pass,
            retain,
            unread: None,
            failed: None,
            bytes_fed: 0,
        }
    }

    /// Convenience chunked publish over an in-memory chunk list — the
    /// differential oracle's entry point. Leases fallback documents
    /// exactly like [`SubscriptionRegistry::publish`].
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
        session.finish(self, engine, |doc| {
            transient_doc(engine, doc, publish_limits)
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
/// arrive; one push pass lexes each byte once, matches streamable
/// subscriptions against whatever tokens complete and, when a
/// non-streamable subscription needs a materialized copy, builds it from
/// the same tokens. No raw copy of the document is kept: memory is the
/// largest single syntactic unit, the matches not yet delivered and the
/// copy under construction.
///
/// Errors are sticky: a failed feed poisons the session, and
/// [`PublishSession::finish`] returns the same error the whole-document
/// publish would have (the oracle's contract). A whole-document publish
/// is a session over the borrowed text, finished at once.
pub struct PublishSession<'a> {
    plan: Arc<PublishPlan>,
    document: Cow<'a, str>,
    /// The tokenizer, resumable automaton run and fallback builder;
    /// absent only when there is no subscription at all and nothing is
    /// retained.
    pass: Option<StreamingPass<'a>>,
    /// The document outlives the publish: `finish` hands it to its
    /// callback before anything is evaluated, and a document that cannot
    /// be read or retained fails the publish.
    retain: bool,
    /// Why the pass stopped, kept when it only builds the fallback copy:
    /// `finish` reports it as every fallback subscription's coded error,
    /// as the whole-document publish does.
    unread: Option<Error>,
    failed: Option<Error>,
    bytes_fed: u64,
}

impl PublishSession<'_> {
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

    /// Total bytes fed so far (for byte budgets and stats).
    pub fn bytes_fed(&self) -> u64 {
        self.bytes_fed
    }

    /// Bytes parked in the lexer awaiting a complete syntactic unit.
    pub fn buffered_bytes(&self) -> usize {
        self.pass.as_ref().map(|s| s.buffered_bytes()).unwrap_or(0)
    }

    /// Matches delivered to streamable subscriptions so far — visible
    /// while bytes are still arriving, which is the point.
    pub fn matches_so_far(&self) -> u64 {
        self.pass.as_ref().map(|s| s.stats().matches).unwrap_or(0)
    }

    /// Does the pass build a document for `finish` (non-streamable
    /// subscriptions present)?
    pub fn needs_fallback_doc(&self) -> bool {
        !self.plan.fallback.is_empty()
    }

    /// End of input: resolve constructs waiting on more bytes, lease the
    /// document the pass built via `materialize`, run the fallback
    /// evaluations on it, deliver every outcome, and report — identically
    /// to the whole-document publish.
    pub fn finish<F>(
        mut self,
        registry: &SubscriptionRegistry,
        engine: &Engine,
        materialize: F,
    ) -> Result<PublishReport>
    where
        F: FnOnce(Arc<Document>) -> Result<Lease>,
    {
        self.check_failed()?;
        let (shared, built) = match self.pass.take() {
            None => (None, None),
            Some(pass) => {
                let ended = match self.unread.take() {
                    Some(e) => Err(e),
                    None => contain_panic(|| pass.finish(&self.plan.automaton, |_| Ok(()))),
                };
                // A document the pass could not read fails the publish,
                // unless the pass only built the fallback copy: then it
                // is every fallback subscription's coded error.
                match ended {
                    Ok((outcome, doc)) => (
                        (!self.plan.streamed.is_empty()).then_some(outcome),
                        doc.map(Ok),
                    ),
                    Err(e) if self.plan.streamed.is_empty() && !self.retain => (None, Some(Err(e))),
                    Err(e) => return self.fail(e),
                }
            }
        };
        let lease = |built: Option<Result<Arc<Document>>>| {
            built
                .expect("built whenever a fallback needs it")
                .and_then(materialize)
        };
        if self.retain {
            let doc = contain_panic(|| lease(built))?;
            registry.complete_publish(engine, &self.document, &self.plan, shared, || Ok(doc))
        } else {
            registry.complete_publish(engine, &self.document, &self.plan, shared, || lease(built))
        }
    }
}

impl PublishSession<'static> {
    /// Feed one chunk, split at any byte boundary. Streamable
    /// subscriptions advance by however many tokens completed.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<()> {
        self.check_failed()?;
        self.bytes_fed += chunk.len() as u64;
        let Some(pass) = self.pass.as_mut().filter(|_| self.unread.is_none()) else {
            return Ok(());
        };
        match contain_panic(|| pass.feed(&self.plan.automaton, chunk)) {
            Ok(()) => Ok(()),
            Err(e) if self.plan.streamed.is_empty() => {
                self.unread = Some(e);
                Ok(())
            }
            Err(e) => self.fail(e),
        }
    }
}

/// The registry's own fallback document: `doc` leased in the engine's
/// store and, when the engine indexes documents, indexed. An index
/// build that fails (budget trip, injected fault, panic) leaves it
/// unindexed, and queries navigate, as the catalog's degraded mode does.
fn transient_doc(engine: &Engine, doc: Arc<Document>, publish_limits: Limits) -> Result<Lease> {
    let doc = engine.store().lease_built(doc)?;
    if engine.options().index_documents {
        let guard = QueryGuard::new(publish_limits);
        let _ = contain_panic(|| xqr_index::ensure_indexed(&doc.doc, &guard).map(|_| ()));
    }
    Ok(doc)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic under the registry lock poisons it; the next caller
    /// recovers the data, clears the poison, and the recovery shows in
    /// the process-wide gauge every service lock reports through.
    #[test]
    fn a_poisoned_registry_lock_is_recovered_and_counted() {
        let registry = SubscriptionRegistry::new();
        let before = xqr_parallel::lock_recoveries();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _inner = registry.inner.lock().unwrap();
                panic!("poisoning the registry lock");
            })
            .join()
            .unwrap_err();
        });
        assert!(registry.inner.is_poisoned());
        assert_eq!(registry.active(), 0);
        assert!(!registry.inner.is_poisoned());
        assert!(xqr_parallel::lock_recoveries() > before);
    }
}
