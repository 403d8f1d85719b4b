//! `pubsub_fanout`: the paper's message-broker case. Whole ~32 KiB
//! `/feed/item` documents are published at 64 standing subscriptions: 56
//! streamable ones sharing one automaton pass, and 8 with a value
//! predicate that take the one-shot fallback over a materialized copy.
//! Time goes to lexer → pull tokenizer → automaton → delivery; the query
//! compiler, the plan cache and the join kernels are bypassed, and the
//! eight fallbacks keep the store and index load path honest.

use super::{report_failure, service_config, timed, OpOutcome, Workload};
use crate::inputs::{feed_doc, feed_subscriptions, rng_for, shuffle, FeedDoc, FEED_FIELDS};
use crate::json::Json;
use crate::trace::Tracer;
use std::sync::Arc;
use xqr_service::{PublishReport, QueryService, SubId};
use xqr_subscribe::{run_document, CombinedAutomaton};
use xqr_tokenstream::{drain, ParserTokenIterator, Token, TokenStream};
use xqr_xmlparse::{XmlEvent, XmlReader};

const DOC_BYTES: usize = 32 * 1024;
/// Distinct documents a run cycles through, in seeded order.
const POOL: usize = 48;

/// A service with the feed subscriptions registered, the documents to
/// publish at it, and — for the traced run — the same streamable
/// subscriptions alone, so the fallback's cost can be read as a
/// difference.
pub struct FeedService {
    pub service: QueryService,
    pub subs: Vec<SubId>,
    pub docs: Vec<FeedDoc>,
    pub streamable_only: QueryService,
    pub automaton: CombinedAutomaton,
}

impl FeedService {
    pub fn new(seed: u64, stream: u64, pool: usize, doc_bytes: usize) -> FeedService {
        let queries = feed_subscriptions();
        let service = QueryService::new(service_config());
        let streamable_only = QueryService::new(service_config());
        let mut patterns = Vec::new();
        let subs = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if i < FEED_FIELDS {
                    streamable_only
                        .subscribe(q)
                        .expect("a feed subscription compiles");
                    let plan = service.prepare(q).expect("a feed subscription compiles");
                    patterns.push(
                        plan.stream_pattern()
                            .expect("a child-step path is streamable")
                            .clone(),
                    );
                }
                service.subscribe(q).expect("a feed subscription compiles")
            })
            .collect();
        let mut rng = rng_for(seed, stream);
        let docs: Vec<FeedDoc> = (0..pool).map(|_| feed_doc(&mut rng, doc_bytes)).collect();
        let this = FeedService {
            service,
            subs,
            docs,
            streamable_only,
            automaton: CombinedAutomaton::build(&patterns),
        };
        // The expected strings come from the generator alone; the first
        // document also pins the split the workload claims to exercise.
        let report = this
            .service
            .publish("feed.xml", &this.docs[0].xml)
            .expect("a generated feed document publishes");
        assert_eq!(
            (report.shared_pass, report.fallback),
            (FEED_FIELDS, queries.len() - FEED_FIELDS),
            "streamable/fallback split of the feed subscriptions"
        );
        assert!(this.matches(0, &report), "generator and service disagree");
        this
    }

    /// Does `report` carry, for every subscription, exactly what the
    /// generator says document `doc` must yield?
    pub fn matches(&self, doc: usize, report: &PublishReport) -> bool {
        let expected = &self.docs[doc].expected;
        report.results.len() == expected.len()
            && self
                .subs
                .iter()
                .zip(expected)
                .all(|(id, want)| matches!(report.result_for(*id), Some(Ok(got)) if got == want))
    }

    /// [`FeedService::matches`] on a reply that may be an error, saying
    /// on standard error what went wrong.
    pub fn reply_is_correct(
        &self,
        workload: &str,
        doc: usize,
        reply: &xqr_xdm::Result<PublishReport>,
    ) -> bool {
        match reply {
            Ok(report) if self.matches(doc, report) => true,
            Ok(_) => {
                report_failure(
                    workload,
                    format_args!(
                        "document {doc}: a subscription's matches differ from the generator's"
                    ),
                );
                false
            }
            Err(e) => {
                report_failure(workload, format_args!("document {doc}: {e}"));
                false
            }
        }
    }

    /// Bytes a publish of `doc` moves: the document in, the matches out.
    pub fn payload(&self, doc: usize) -> u64 {
        let d = &self.docs[doc];
        (d.xml.len() + d.expected.iter().map(String::len).sum::<usize>()) as u64
    }

    /// The layers under a publish, one probe span each, on `xml`: the
    /// lexer alone; the pull adapter as the shared pass drives it (lexing,
    /// event-to-token mapping and string pooling in one loop); and the
    /// automaton alone, over tokens materialized beforehand.
    pub fn probe_layers(&self, tracer: &mut Tracer, xml: &str) {
        let names = self.service.engine().names().clone();
        tracer.span("probe.xmlparse.lex", |_| {
            let mut reader = XmlReader::new(xml);
            let mut events = 0u64;
            loop {
                let ev = reader.next_event().expect("a generated document lexes");
                events += 1;
                if matches!(ev, XmlEvent::EndDocument) {
                    break events;
                }
            }
        });
        tracer.span("probe.tokenstream.pull", |_| {
            drain(&mut ParserTokenIterator::new(xml, Arc::clone(&names)))
                .expect("a generated document tokenizes")
        });
        tracer.count("xmlparse.lex_bytes", xml.len() as u64);
        let stream = TokenStream::from_xml(xml, names).expect("a generated document tokenizes");
        let strings = stream
            .tokens()
            .iter()
            .filter(|t| matches!(t, Token::Text(_) | Token::Attribute(..)))
            .count();
        tracer.count("tokenstream.string_tokens", strings as u64);
        tracer.count("tokenstream.pooled_strings", stream.pool().len() as u64);
        let outcome = tracer.span("probe.subscribe.automaton", |_| {
            run_document(&self.automaton, &mut stream.iter(), |_, _| Ok(()))
                .expect("materialized tokens replay")
        });
        tracer.count("subscribe.tokens_seen", outcome.stats.tokens_seen);
        tracer.count("subscribe.tokens_skipped", outcome.stats.tokens_skipped);
    }
}

pub struct PubsubFanout {
    feed: FeedService,
    seed: u64,
}

/// A seeded walk over the document pool: one shuffled pass after another.
pub struct Client {
    order: Vec<usize>,
    pos: usize,
    rng: rand::rngs::StdRng,
}

impl Client {
    pub fn new(pool: usize, rng: rand::rngs::StdRng) -> Client {
        Client {
            order: (0..pool).collect(),
            pos: pool,
            rng,
        }
    }

    pub fn next_doc(&mut self) -> usize {
        if self.pos == self.order.len() {
            shuffle(&mut self.order, &mut self.rng);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

impl PubsubFanout {
    fn outcome(&self, doc: usize, reply: xqr_xdm::Result<PublishReport>, ns: u64) -> OpOutcome {
        let ok = self.feed.reply_is_correct(Self::NAME, doc, &reply);
        OpOutcome::replied(ok, ns, self.feed.payload(doc))
    }
}

impl Workload for PubsubFanout {
    const NAME: &'static str = "pubsub_fanout";
    type Client = Client;

    fn setup(seed: u64) -> Self {
        PubsubFanout {
            feed: FeedService::new(seed, 200, POOL, DOC_BYTES),
            seed,
        }
    }

    fn client(&self, index: usize) -> Client {
        Client::new(POOL, rng_for(self.seed, 210 + index as u64))
    }

    fn run_op(&self, client: &mut Client) -> OpOutcome {
        let doc = client.next_doc();
        let xml = &self.feed.docs[doc].xml;
        let (reply, ns) = timed(|| self.feed.service.publish("feed.xml", xml));
        self.outcome(doc, reply, ns)
    }

    fn traced_op(&self, client: &mut Client, tracer: &mut Tracer) -> OpOutcome {
        let doc = client.next_doc();
        let xml = &self.feed.docs[doc].xml;
        tracer.span("op", |t| {
            self.feed.probe_layers(t, xml);
            t.span("probe.subscribe.publish_streamable", |_| {
                self.feed
                    .streamable_only
                    .publish("feed.xml", xml)
                    .expect("a generated feed document publishes")
            });
            let (reply, ns) = timed(|| {
                t.span("subscribe.publish", |_| {
                    self.feed.service.publish("feed.xml", xml)
                })
            });
            if let Ok(report) = &reply {
                t.count("subscribe.publish_bytes", xml.len() as u64);
                t.count("subscribe.matches", report.matches);
                t.count("subscribe.fallback_subs", report.fallback as u64);
            }
            self.outcome(doc, reply, ns)
        })
    }

    fn service(&self) -> &QueryService {
        &self.feed.service
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("document_bytes", Json::Num(DOC_BYTES as f64)),
            ("documents", Json::Num(POOL as f64)),
            ("subscriptions", Json::Num(self.feed.subs.len() as f64)),
            ("streamable_subscriptions", Json::Num(FEED_FIELDS as f64)),
        ])
    }
}
