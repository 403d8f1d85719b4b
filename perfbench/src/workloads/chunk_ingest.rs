//! `chunk_ingest`: the subscriptions and generator of `pubsub_fanout`,
//! but each ~256 KiB document arrives as a chunk session — open, 4 KiB
//! feeds, finish; one session is one operation. The same lexer,
//! tokenizer and automaton layers run the other way round (push,
//! resumable at any byte), so a gain for whole-document publish that
//! costs chunked delivery, or the reverse, shows here. It is also the
//! only workload where results are visible before the reply: time to
//! first match is its `first_result_p50_ms`.

use super::pubsub_fanout::{Client, FeedService};
use super::{OpOutcome, Workload};
use crate::inputs::rng_for;
use crate::json::Json;
use crate::trace::Tracer;
use std::time::Instant;
use xqr_service::{PublishReport, QueryService};
use xqr_tokenstream::PushTokenizer;

const DOC_BYTES: usize = 64 * 1024;
const CHUNK_BYTES: usize = 4 * 1024;
const POOL: usize = 24;

pub struct ChunkIngest {
    feed: FeedService,
    seed: u64,
}

impl ChunkIngest {
    /// One whole session through the service API, a span around each
    /// call. The untraced run passes a disabled tracer, which records
    /// nothing; the calls are the same.
    fn session(
        &self,
        doc: usize,
        tracer: &mut Tracer,
    ) -> (xqr_xdm::Result<PublishReport>, u64, u64) {
        let service = &self.feed.service;
        let xml = self.feed.docs[doc].xml.as_bytes();
        let t0 = Instant::now();
        let mut first_match_ns = None;
        let reply = (|| {
            let id = tracer.span("ingest.open", |_| service.open_chunk_session("feed.xml"))?;
            for chunk in xml.chunks(CHUNK_BYTES) {
                tracer.span("ingest.feed", |_| service.feed_chunk(id, chunk))?;
                if first_match_ns.is_none() && service.chunk_session_matches(id)? > 0 {
                    first_match_ns = Some(t0.elapsed().as_nanos() as u64);
                }
            }
            tracer.span("ingest.finish", |_| service.finish_chunk_session(id))
        })();
        let total = t0.elapsed().as_nanos() as u64;
        (reply, total, first_match_ns.unwrap_or(total))
    }

    fn outcome(
        &self,
        doc: usize,
        (reply, latency_ns, first_result_ns): (xqr_xdm::Result<PublishReport>, u64, u64),
    ) -> OpOutcome {
        OpOutcome {
            ok: self.feed.reply_is_correct(Self::NAME, doc, &reply),
            latency_ns,
            first_result_ns,
            payload_bytes: self.feed.payload(doc),
        }
    }
}

impl Workload for ChunkIngest {
    const NAME: &'static str = "chunk_ingest";
    type Client = Client;

    fn setup(seed: u64) -> Self {
        let feed = FeedService::new(seed, 300, POOL, DOC_BYTES);
        // A session's report must equal the whole-document publish of
        // the same bytes: both are held to the generator's expectation,
        // the whole-document side here, once per pool document.
        for doc in 1..POOL {
            let report = feed
                .service
                .publish("feed.xml", &feed.docs[doc].xml)
                .expect("a generated feed document publishes");
            assert!(feed.matches(doc, &report), "generator and service disagree");
        }
        ChunkIngest { feed, seed }
    }

    fn client(&self, index: usize) -> Client {
        Client::new(POOL, rng_for(self.seed, 310 + index as u64))
    }

    fn run_op(&self, client: &mut Client) -> OpOutcome {
        let doc = client.next_doc();
        self.outcome(doc, self.session(doc, &mut Tracer::new(false)))
    }

    fn traced_op(&self, client: &mut Client, tracer: &mut Tracer) -> OpOutcome {
        let doc = client.next_doc();
        let xml = &self.feed.docs[doc].xml;
        tracer.span("op", |t| {
            self.feed.probe_layers(t, xml);
            // The push tokenizer alone, fed the way a session feeds it.
            t.span("probe.tokenstream.push_tokenize", |_| {
                let mut tok = PushTokenizer::new(self.feed.service.engine().names().clone());
                let mut tokens = 0u64;
                for chunk in xml.as_bytes().chunks(CHUNK_BYTES) {
                    tok.feed(chunk).expect("a generated document lexes");
                    while tok.poll_token().expect("it tokenizes").is_some() {
                        tokens += 1;
                    }
                }
                tok.finish().expect("the document is complete");
                while tok.poll_token().expect("it tokenizes").is_some() {
                    tokens += 1;
                }
                tokens
            });
            t.count("tokenstream.push_bytes", xml.len() as u64);
            let result = t.span("ingest.session", |t| self.session(doc, t));
            t.count("ingest.sessions", 1);
            t.count("ingest.first_match_ns", result.2);
            t.count("subscribe.publish_bytes", xml.len() as u64);
            self.outcome(doc, result)
        })
    }

    fn service(&self) -> &QueryService {
        &self.feed.service
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("document_bytes", Json::Num(DOC_BYTES as f64)),
            ("chunk_bytes", Json::Num(CHUNK_BYTES as f64)),
            ("documents", Json::Num(POOL as f64)),
            ("subscriptions", Json::Num(self.feed.subs.len() as f64)),
        ])
    }
}
