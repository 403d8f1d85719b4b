//! Chunked-ingestion front-end: documents arrive as byte chunks over
//! many calls instead of one string.
//!
//! Two entry points, both on [`QueryService`]:
//!
//! * **Chunk sessions** ([`QueryService::open_chunk_session`]) publish a
//!   document at the standing-subscription set while its bytes are still
//!   arriving: each [`QueryService::feed_chunk`] advances the combined
//!   automaton incrementally, and
//!   [`QueryService::finish_chunk_session`] runs the same fallback and
//!   delivery tail as [`QueryService::publish`] — the chunked and
//!   whole-document paths produce identical reports, which the
//!   differential oracle enforces. Session ids are generation-checked
//!   (a stale id never touches a slot's current tenant), sessions carry
//!   the service's per-query budgets, idle sessions are reaped, and
//!   admission is bounded: past `max_chunk_sessions` live sessions,
//!   opens fail with `err:XQRL0004 Overloaded`.
//!
//! * **Stream queries** ([`QueryService::open_stream_query`]) run one
//!   query over a chunked document. Streamable plans run the same
//!   in-thread push pass a chunk session does, as a one-pattern
//!   automaton on the caller's thread: each feed matches whatever tokens
//!   completed, and memory stays O(largest syntactic unit + output).
//!   Non-streamable plans buffer and evaluate at finish — same results,
//!   same error codes, just without the bounded-memory guarantee.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::service::QueryService;
use xqr_parallel::lock_recover;
use xqr_pressure::{Category, Charge};
use xqr_runtime::{CombinedAutomaton, StreamingPass};
use xqr_subscribe::{PublishReport, PublishSession};
use xqr_xdm::{Error, QueryGuard, Result};

/// Baseline ledger charge for a live chunk session or stream query
/// (slot bookkeeping, lexer state); fed or matched bytes grow it.
const SESSION_BASE_BYTES: u64 = 4096;

/// Generation-checked handle to a live chunk session. Stale ids (the
/// session finished, aborted, or was reaped, and the slot may have been
/// reused) fail deterministically with `err:XQRL0003` — they can never
/// feed another client's session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    pub(crate) slot: u32,
    pub(crate) generation: u64,
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}g{}", self.slot, self.generation)
    }
}

struct SessionEntry {
    generation: u64,
    session: PublishSession,
    /// Session-wide budget: deadline from open, byte cap over the whole
    /// feed, cancellation.
    guard: QueryGuard,
    last_activity: Instant,
    /// Ledger charge for this session's buffered state; grows with every
    /// fed chunk and releases when the session ends, however it ends.
    charge: Charge,
}

/// Shared ingestion state: the fixed slot table (one mutex per slot, so
/// concurrent sessions never contend) and the counters behind the
/// `ingest:` stats section.
pub(crate) struct IngestState {
    slots: Box<[Mutex<Option<SessionEntry>>]>,
    next_generation: AtomicU64,
    idle_timeout: Duration,
    sessions_opened: AtomicU64,
    sessions_finished: AtomicU64,
    sessions_aborted: AtomicU64,
    sessions_reaped: AtomicU64,
    sessions_failed: AtomicU64,
    chunks_fed: AtomicU64,
    bytes_fed: AtomicU64,
    stream_queries: AtomicU64,
}

/// Point-in-time copy of the ingest counters for [`crate::ServiceStats`].
pub(crate) struct IngestSnapshot {
    pub opened: u64,
    pub active: u64,
    pub finished: u64,
    pub aborted: u64,
    pub reaped: u64,
    pub failed: u64,
    pub chunks: u64,
    pub bytes: u64,
    pub stream_queries: u64,
}

impl IngestState {
    pub(crate) fn new(max_sessions: usize, idle_timeout: Duration) -> Self {
        let slots = (0..max_sessions.max(1))
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        IngestState {
            slots,
            next_generation: AtomicU64::new(0),
            idle_timeout,
            sessions_opened: AtomicU64::new(0),
            sessions_finished: AtomicU64::new(0),
            sessions_aborted: AtomicU64::new(0),
            sessions_reaped: AtomicU64::new(0),
            sessions_failed: AtomicU64::new(0),
            chunks_fed: AtomicU64::new(0),
            bytes_fed: AtomicU64::new(0),
            stream_queries: AtomicU64::new(0),
        }
    }

    fn stale(id: SessionId) -> Error {
        Error::cancelled(format!(
            "ingest session {id} is unknown, finished, or was reaped"
        ))
    }

    fn slot(&self, id: SessionId) -> Result<&Mutex<Option<SessionEntry>>> {
        self.slots
            .get(id.slot as usize)
            .ok_or_else(|| Self::stale(id))
    }

    pub(crate) fn snapshot(&self) -> IngestSnapshot {
        let active = self
            .slots
            .iter()
            .filter(|s| lock_recover(s).is_some())
            .count() as u64;
        IngestSnapshot {
            opened: self.sessions_opened.load(Ordering::Relaxed),
            active,
            finished: self.sessions_finished.load(Ordering::Relaxed),
            aborted: self.sessions_aborted.load(Ordering::Relaxed),
            reaped: self.sessions_reaped.load(Ordering::Relaxed),
            failed: self.sessions_failed.load(Ordering::Relaxed),
            chunks: self.chunks_fed.load(Ordering::Relaxed),
            bytes: self.bytes_fed.load(Ordering::Relaxed),
            stream_queries: self.stream_queries.load(Ordering::Relaxed),
        }
    }
}

impl QueryService {
    /// Open a chunked publish session for a document named `name`.
    /// Bytes then arrive via [`QueryService::feed_chunk`] — split at any
    /// boundary — and [`QueryService::finish_chunk_session`] delivers to
    /// every standing subscription exactly as [`QueryService::publish`]
    /// would have.
    ///
    /// Admission is bounded: when every slot is live (idle sessions are
    /// reaped first), this fails with `err:XQRL0004 Overloaded`. The
    /// session runs under [`crate::ServiceConfig::per_query_limits`]:
    /// the deadline clock starts now, and document-byte budgets cover
    /// the whole feed.
    pub fn open_chunk_session(&self, name: &str) -> Result<SessionId> {
        self.check_red("chunk session")?;
        let st = self.ingest_state();
        let mut reaped = false;
        loop {
            for (i, slot) in st.slots.iter().enumerate() {
                let mut entry = lock_recover(slot);
                if entry.is_none() {
                    // Ceiling-checked: a session that cannot even cover
                    // its base footprint is refused outright (and this
                    // is the `pressure.charge` faultpoint the chaos
                    // suite injects through).
                    let charge = Charge::try_new(
                        Arc::clone(self.ledger()),
                        Category::ChunkSessions,
                        SESSION_BASE_BYTES,
                    )?;
                    let generation = st.next_generation.fetch_add(1, Ordering::Relaxed) + 1;
                    let session =
                        self.subs_registry()
                            .begin_publish(self.engine(), name, self.limits());
                    *entry = Some(SessionEntry {
                        generation,
                        session,
                        guard: QueryGuard::new(self.limits()),
                        last_activity: Instant::now(),
                        charge,
                    });
                    st.sessions_opened.fetch_add(1, Ordering::Relaxed);
                    return Ok(SessionId {
                        slot: i as u32,
                        generation,
                    });
                }
            }
            if reaped {
                return Err(Error::overloaded(format!(
                    "too many live ingest sessions ({}); finish, abort, or let one idle out",
                    st.slots.len()
                )));
            }
            self.reap_idle_sessions();
            reaped = true;
        }
    }

    /// Feed one chunk into a live session. Streamable subscriptions
    /// advance incrementally (see
    /// [`QueryService::chunk_session_matches`]). Any failure — a lexing
    /// error, a tripped budget, an injected fault — removes the session
    /// and returns its stable coded error; later calls with the same id
    /// report the session as gone.
    pub fn feed_chunk(&self, id: SessionId, chunk: &[u8]) -> Result<()> {
        let st = self.ingest_state();
        let slot = st.slot(id)?;
        let mut guard = lock_recover(slot);
        // The entry lives *outside* the slot while the chunk is fed: if
        // feeding fails — or panics past the containment below — the
        // session drops with this frame and the slot is already free,
        // so a fault can never leak a wedged session.
        let mut e = match guard.take() {
            Some(e) if e.generation == id.generation => e,
            other => {
                *guard = other;
                return Err(IngestState::stale(id));
            }
        };
        match feed_entry(&mut e, chunk) {
            Ok(()) => {
                e.last_activity = Instant::now();
                *guard = Some(e);
                st.chunks_fed.fetch_add(1, Ordering::Relaxed);
                st.bytes_fed
                    .fetch_add(chunk.len() as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(err) => {
                // Cleanup on failure: the slot frees immediately, and the
                // session's buffered state drops without ever touching
                // the store or catalog.
                st.sessions_failed.fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
        }
    }

    /// Matches delivered to streamable subscriptions so far — observable
    /// while bytes are still arriving, which is the point of chunked
    /// ingestion.
    pub fn chunk_session_matches(&self, id: SessionId) -> Result<u64> {
        let st = self.ingest_state();
        let slot = st.slot(id)?;
        let entry = lock_recover(slot);
        match entry.as_ref() {
            Some(e) if e.generation == id.generation => Ok(e.session.matches_so_far()),
            _ => Err(IngestState::stale(id)),
        }
    }

    /// End of input: resolve the tail, run fallback evaluations over the
    /// materialized document (routed through the catalog like
    /// [`QueryService::publish`] — transient, never retained), deliver
    /// every outcome, and report. The session is gone afterwards, on
    /// success and on failure alike.
    pub fn finish_chunk_session(&self, id: SessionId) -> Result<PublishReport> {
        let st = self.ingest_state();
        let slot = st.slot(id)?;
        let mut guard = lock_recover(slot);
        let entry = match guard.take() {
            Some(e) if e.generation == id.generation => e,
            other => {
                *guard = other;
                return Err(IngestState::stale(id));
            }
        };
        // The slot is free from here on; the (possibly slow) fallback
        // tail runs outside every lock.
        drop(guard);
        match finish_entry(self, entry) {
            Ok(report) => {
                self.record_publish_stream(&report.stats);
                st.sessions_finished.fetch_add(1, Ordering::Relaxed);
                Ok(report)
            }
            Err(e) => {
                st.sessions_failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Drop a live session without delivering anything. `false` for
    /// stale ids — never affects the slot's current tenant.
    pub fn abort_chunk_session(&self, id: SessionId) -> bool {
        let st = self.ingest_state();
        let Ok(slot) = st.slot(id) else { return false };
        let mut entry = lock_recover(slot);
        match entry.as_ref() {
            Some(e) if e.generation == id.generation => {
                *entry = None;
                st.sessions_aborted.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Remove sessions idle past the configured timeout (abandoned
    /// clients must not pin slots forever). Runs automatically when an
    /// open finds every slot taken; callable directly from an
    /// embedder's housekeeping loop. Returns how many were reaped.
    pub fn reap_idle_sessions(&self) -> usize {
        let st = self.ingest_state();
        let mut reaped = 0;
        for slot in st.slots.iter() {
            let mut entry = lock_recover(slot);
            if let Some(e) = entry.as_ref() {
                if e.last_activity.elapsed() >= st.idle_timeout {
                    *entry = None;
                    reaped += 1;
                }
            }
        }
        st.sessions_reaped
            .fetch_add(reaped as u64, Ordering::Relaxed);
        reaped as usize
    }

    /// Live chunk sessions right now.
    pub fn chunk_sessions(&self) -> usize {
        self.ingest_state()
            .slots
            .iter()
            .filter(|s| lock_recover(s).is_some())
            .count()
    }

    /// Run one query over a document that arrives as chunks. Streamable
    /// plans evaluate as bytes arrive — first results exist before the
    /// last byte does, and memory stays O(largest syntactic unit +
    /// output); everything else buffers and evaluates at
    /// [`StreamQuery::finish`] with identical results and error codes.
    pub fn open_stream_query(&self, query: &str) -> Result<StreamQuery<'_>> {
        self.check_red("stream query")?;
        let plan = self.acquire_plan_for_ingest(query)?;
        let inner = match plan.stream_pattern() {
            Some(pattern) => {
                let automaton = CombinedAutomaton::build(std::slice::from_ref(pattern));
                let guard = QueryGuard::new(self.limits());
                let pass = StreamingPass::new(
                    &automaton,
                    self.engine().names().clone(),
                    guard.clone(),
                    vec![guard],
                );
                StreamQueryInner::Streamed {
                    automaton,
                    pass: Box::new(pass),
                    out: String::new(),
                }
            }
            None => StreamQueryInner::Buffered {
                query: query.to_string(),
                buf: Vec::new(),
            },
        };
        self.ingest_state()
            .stream_queries
            .fetch_add(1, Ordering::Relaxed);
        let charge = Charge::new(
            Arc::clone(self.ledger()),
            Category::IngestChannels,
            SESSION_BASE_BYTES,
        );
        Ok(StreamQuery {
            service: self,
            inner,
            charge,
        })
    }
}

fn feed_entry(e: &mut SessionEntry, chunk: &[u8]) -> Result<()> {
    xqr_faults::faultpoint!("ingest.chunk");
    // Deadline/cancellation, then the byte budget over the whole feed.
    e.guard.check_startup()?;
    e.guard
        .check_document_bytes(e.session.bytes_fed() + chunk.len() as u64)?;
    e.session.feed(chunk)?;
    // Ceiling-checked growth: a feed that would blow the hard ceiling
    // fails the session with `err:XQRL0004` instead of charging past it.
    e.charge.try_grow(chunk.len() as u64)?;
    Ok(())
}

fn finish_entry(service: &QueryService, entry: SessionEntry) -> Result<PublishReport> {
    xqr_faults::faultpoint!("ingest.flush");
    entry.guard.check_startup()?;
    entry
        .session
        .finish(service.subs_registry(), service.engine(), |xml| {
            service
                .catalog()
                .load_transient_indexed(xml)
                .map(|id| (id, true))
        })
}

enum StreamQueryInner {
    Streamed {
        automaton: CombinedAutomaton,
        // Boxed: the pass embeds the tokenizer's lexer state and would
        // otherwise dwarf the other variants.
        pass: Box<StreamingPass>,
        /// Matches completed so far, concatenated in document order.
        out: String,
    },
    Buffered {
        query: String,
        buf: Vec<u8>,
    },
    /// A streamed feed failed: the error is sticky, so a half-matched
    /// document can never finish as a short valid answer.
    Failed(Error),
}

/// An in-flight chunked query from [`QueryService::open_stream_query`].
/// Feed bytes, then [`StreamQuery::finish`] for the serialized result.
pub struct StreamQuery<'s> {
    service: &'s QueryService,
    inner: StreamQueryInner,
    /// Ledger charge for this query's accumulated output (streamed) or
    /// input buffer (buffered); released when the query finishes or is
    /// dropped.
    charge: Charge,
}

impl StreamQuery<'_> {
    /// Feed one chunk. In streamed mode the query advances by however
    /// many tokens completed, on the caller's thread; the charge grows
    /// with the matches collected, ceiling-checked (`err:XQRL0004`).
    pub fn feed(&mut self, chunk: &[u8]) -> Result<()> {
        match &mut self.inner {
            StreamQueryInner::Streamed {
                automaton,
                pass,
                out,
            } => {
                let fed = xqr_core::contain_panic(|| {
                    pass.feed(automaton, chunk)?;
                    pass.take_matches(0)
                })
                .and_then(|ready| {
                    let bytes: usize = ready.iter().map(String::len).sum();
                    self.charge.try_grow(bytes as u64)?;
                    out.extend(ready);
                    Ok(())
                });
                if let Err(e) = &fed {
                    self.inner = StreamQueryInner::Failed(e.clone());
                }
                fed
            }
            StreamQueryInner::Buffered { buf, .. } => {
                buf.extend_from_slice(chunk);
                self.charge.grow(chunk.len() as u64);
                Ok(())
            }
            StreamQueryInner::Failed(e) => Err(e.clone()),
        }
    }

    /// Is this query evaluating while bytes arrive (bounded memory), or
    /// buffering for a whole-document evaluation at finish?
    pub fn is_streamed(&self) -> bool {
        !matches!(self.inner, StreamQueryInner::Buffered { .. })
    }

    /// Input bytes held right now: in streamed mode only what the lexer
    /// parked awaiting a complete syntactic unit, in buffered mode
    /// everything fed so far.
    pub fn buffered_bytes(&self) -> usize {
        match &self.inner {
            StreamQueryInner::Streamed { pass, .. } => pass.buffered_bytes(),
            StreamQueryInner::Buffered { buf, .. } => buf.len(),
            StreamQueryInner::Failed(_) => 0,
        }
    }

    /// End of input: complete the evaluation and return the serialized
    /// result.
    pub fn finish(self) -> Result<String> {
        let outcome = match self.inner {
            StreamQueryInner::Streamed {
                automaton,
                pass,
                mut out,
            } => xqr_core::contain_panic(|| pass.finish(&automaton)).and_then(|mut done| {
                self.service.record_publish_stream(&done.stats);
                out.extend(done.per_pattern.remove(0)?);
                Ok(out)
            }),
            StreamQueryInner::Buffered { query, buf } => {
                let xml = String::from_utf8(buf)
                    .map_err(|_| Error::syntax("invalid UTF-8 in document"))?;
                return self.service.run_on_xml(&query, &xml);
            }
            StreamQueryInner::Failed(e) => Err(e),
        };
        self.service.note_stream_query_outcome(&outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use xqr_xdm::{ErrorCode, Limits};

    fn service() -> QueryService {
        QueryService::new(ServiceConfig::default())
    }

    #[test]
    fn chunked_publish_equals_whole_document_publish() {
        let svc = service();
        let streamed = svc.subscribe("/bib/book/title").unwrap();
        let fallback = svc.subscribe("count(//book)").unwrap();
        let xml = "<bib><book><title>a</title></book><book><title>b</title></book></bib>";
        let whole = svc.publish("doc", xml).unwrap();

        for chunk in [1usize, 3, 16, xml.len()] {
            let id = svc.open_chunk_session("doc").unwrap();
            for c in xml.as_bytes().chunks(chunk) {
                svc.feed_chunk(id, c).unwrap();
            }
            let report = svc.finish_chunk_session(id).unwrap();
            assert_eq!(
                report.result_for(streamed),
                whole.result_for(streamed),
                "chunk {chunk}"
            );
            assert_eq!(report.result_for(fallback), whole.result_for(fallback));
            assert_eq!(report.stats.matches, whole.stats.matches);
            // Transient either way: nothing lingers in the store.
            assert_eq!(svc.engine().store().doc_count(), 0);
        }
        let s = svc.stats();
        assert_eq!(s.ingest_sessions_finished, 4);
        assert_eq!(s.ingest_sessions_active, 0);
        assert!(s.ingest_bytes >= 4 * xml.len() as u64);
    }

    #[test]
    fn matches_surface_while_bytes_still_arrive() {
        let svc = service();
        svc.subscribe("/a/b").unwrap();
        let id = svc.open_chunk_session("live").unwrap();
        svc.feed_chunk(id, b"<a><b>first</b>").unwrap();
        assert_eq!(svc.chunk_session_matches(id).unwrap(), 1);
        svc.feed_chunk(id, b"<b>second</b></a>").unwrap();
        assert_eq!(svc.chunk_session_matches(id).unwrap(), 2);
        svc.finish_chunk_session(id).unwrap();
    }

    #[test]
    fn stale_session_ids_never_touch_a_reused_slot() {
        let svc = QueryService::new(ServiceConfig {
            max_chunk_sessions: 1,
            ..Default::default()
        });
        let first = svc.open_chunk_session("one").unwrap();
        assert!(svc.abort_chunk_session(first));
        let second = svc.open_chunk_session("two").unwrap();
        assert_eq!(first.slot, second.slot, "slot is reused");
        // The stale id fails deterministically and leaves the tenant alone.
        let err = svc.feed_chunk(first, b"<x/>").unwrap_err();
        assert_eq!(err.code, ErrorCode::Cancelled);
        assert!(!svc.abort_chunk_session(first));
        assert!(svc.finish_chunk_session(first).is_err());
        svc.feed_chunk(second, b"<x/>").unwrap();
        svc.finish_chunk_session(second).unwrap();
    }

    #[test]
    fn admission_is_bounded_and_idle_sessions_are_reaped() {
        let svc = QueryService::new(ServiceConfig {
            max_chunk_sessions: 2,
            chunk_session_idle: Duration::from_millis(0),
            ..Default::default()
        });
        let a = svc.open_chunk_session("a").unwrap();
        let _b = svc.open_chunk_session("b").unwrap();
        assert_eq!(svc.chunk_sessions(), 2);
        // Full table, but both sessions are idle past the (zero) timeout:
        // the open reaps and succeeds.
        let c = svc.open_chunk_session("c").unwrap();
        assert!(svc.feed_chunk(a, b"<x/>").is_err(), "a was reaped");
        let svc2 = QueryService::new(ServiceConfig {
            max_chunk_sessions: 1,
            ..Default::default()
        });
        let _live = svc2.open_chunk_session("live").unwrap();
        let err = svc2.open_chunk_session("more").unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded);
        let _ = c;
        assert!(svc.stats().ingest_sessions_reaped >= 2);
    }

    #[test]
    fn feed_failures_clean_the_session_up() {
        let svc = service();
        svc.subscribe("/a/b").unwrap();
        let id = svc.open_chunk_session("bad").unwrap();
        svc.feed_chunk(id, b"<a><b>x</b>").unwrap();
        let err = svc.feed_chunk(id, b"</wrong>").unwrap_err();
        assert_eq!(err.code, ErrorCode::Syntax);
        // Session is gone; nothing leaked into the store.
        assert_eq!(svc.chunk_sessions(), 0);
        assert_eq!(svc.engine().store().doc_count(), 0);
        assert!(svc.feed_chunk(id, b"more").is_err());
        assert_eq!(svc.stats().ingest_sessions_failed, 1);
    }

    #[test]
    fn session_byte_budget_trips_across_chunks() {
        let svc = QueryService::new(ServiceConfig {
            per_query_limits: Limits::unlimited().with_max_document_bytes(10),
            ..Default::default()
        });
        let id = svc.open_chunk_session("budget").unwrap();
        svc.feed_chunk(id, b"<a>12").unwrap();
        let err = svc.feed_chunk(id, b"3456789</a>").unwrap_err();
        assert_eq!(err.code, ErrorCode::Limit);
        assert_eq!(svc.chunk_sessions(), 0);
    }

    #[test]
    fn stream_query_evaluates_while_chunks_arrive() {
        let svc = service();
        let mut q = svc.open_stream_query("/order/date").unwrap();
        assert!(q.is_streamed());
        let xml = r#"<order><date>2003-08-19</date><qty>2</qty></order>"#;
        for c in xml.as_bytes().chunks(5) {
            q.feed(c).unwrap();
        }
        assert_eq!(q.finish().unwrap(), "<date>2003-08-19</date>");
        let s = svc.stats();
        assert_eq!(s.ingest_stream_queries, 1);
        assert!(s.stream_tokens_seen > 0);
    }

    #[test]
    fn descendant_stream_queries_stream_with_every_nested_match() {
        let svc = service();
        let xml = "<a><d>1<d>2</d></d><d>3</d></a>";
        let mut q = svc.open_stream_query("//d").unwrap();
        assert!(q.is_streamed());
        for c in xml.as_bytes().chunks(4) {
            q.feed(c).unwrap();
        }
        assert_eq!(q.finish().unwrap(), svc.run_on_xml("//d", xml).unwrap());
    }

    #[test]
    fn non_streamable_queries_buffer_with_identical_results() {
        let svc = service();
        let xml = "<bib><book/><book/></bib>";
        let mut q = svc.open_stream_query("count(//book)").unwrap();
        assert!(!q.is_streamed());
        for c in xml.as_bytes().chunks(3) {
            q.feed(c).unwrap();
        }
        assert_eq!(
            q.finish().unwrap(),
            svc.run_on_xml("count(//book)", xml).unwrap()
        );
    }

    #[test]
    fn stream_query_reports_lexer_errors_like_the_whole_document_path() {
        let svc = service();
        let mut q = svc.open_stream_query("/a/b").unwrap();
        q.feed(b"<a><b>x</b>").unwrap();
        let err = q.feed(b"</wrong>").unwrap_err();
        assert_eq!(err.code, ErrorCode::Syntax);
        // Sticky: the half-matched document cannot finish as an answer.
        assert_eq!(q.finish().unwrap_err().code, ErrorCode::Syntax);
    }
}
