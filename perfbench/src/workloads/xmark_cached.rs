//! `xmark_cached`: the paper's "large centralized data" case. Eleven
//! XMark-style queries against one resident, indexed auction document of
//! about 1.8 MiB, every plan already cached: all time goes to the
//! evaluator, the join kernels, the index and the serializer, while the
//! query parser, the compile phases, the XML lexer and the store's load
//! path are bypassed.

use super::{report_failure, service_config, timed, traced_query, OpOutcome, Workload};
use crate::inputs::{rng_for, BlockMix};
use crate::json::Json;
use crate::trace::Tracer;
use xqr_core::{Engine, EngineOptions};
use xqr_service::QueryService;
use xqr_xmlgen::{auction_site, XmarkConfig};

pub const DOC: &str = "auction.xml";

/// Items carry the bulk of the ~1.8 MiB, as in XMark proper. People and
/// auctions are kept to a few hundred each because the reference engine
/// answers the three join queries by nested loops, quadratic in them,
/// and that time is set-up.
const ITEMS: usize = 2_500;
const PEOPLE_AND_AUCTIONS: usize = 400;

/// (id, query): the suite of `examples/xmark_queries.rs`, which a
/// package outside the workspace cannot import.
pub const QUERIES: &[(&str, &str)] = &[
    (
        "Q1",
        r#"for $b in doc("auction.xml")/site/open_auctions/open_auction[1]
           for $p in doc("auction.xml")/site/people/person
           where $p/@id = $b/seller/@person
           return string($p/name)"#,
    ),
    (
        "Q2",
        r#"for $b in doc("auction.xml")/site/open_auctions/open_auction
           return <increase>{string($b/bidder[1]/increase)}</increase>"#,
    ),
    (
        "Q4",
        r#"count(for $b in doc("auction.xml")/site/open_auctions/open_auction
               where some $i in $b/bidder/increase satisfies number($i) > 10
               return $b)"#,
    ),
    (
        "Q5",
        r#"count(for $i in doc("auction.xml")/site/closed_auctions/closed_auction
               where $i/price >= 100
               return $i/price)"#,
    ),
    (
        "Q6",
        r#"for $r in doc("auction.xml")/site/regions/* return count($r/item)"#,
    ),
    (
        "Q8",
        r#"for $p in doc("auction.xml")/site/people/person
           let $a := for $t in doc("auction.xml")/site/closed_auctions/closed_auction
                     where $t/buyer/@person = $p/@id
                     return $t
           where count($a) ge 3
           order by count($a) descending, $p/@id
           return <buyer name="{$p/name}">{count($a)}</buyer>"#,
    ),
    (
        "Q8b",
        r#"for $r in (for $p in doc("auction.xml")/site/people/person
                      let $a := for $t in doc("auction.xml")/site/closed_auctions/closed_auction
                                return if ($t/buyer/@person = $p/@id) then $t else ()
                      return if (count($a) ge 3)
                             then <buyer id="{$p/@id}" name="{$p/name}" n="{count($a)}"/>
                             else ())
           order by number($r/@n) descending, $r/@id
           return $r"#,
    ),
    (
        "Q11",
        r#"count(for $p in doc("auction.xml")/site/people/person[creditcard]
               for $o in doc("auction.xml")/site/open_auctions/open_auction
               where $o/seller/@person = $p/@id
               return $o)"#,
    ),
    (
        "Q13",
        r#"for $i in doc("auction.xml")/site/regions/europe/item
           return <item name="{$i/name}">{string($i/description)}</item>"#,
    ),
    (
        "Q17",
        r#"count(for $p in doc("auction.xml")/site/people/person
               where empty($p/address)
               return $p)"#,
    ),
    (
        "Q20",
        r#"<result>
             <with>{count(doc("auction.xml")/site/people/person[creditcard])}</with>
             <without>{count(doc("auction.xml")/site/people/person[empty(creditcard)])}</without>
           </result>"#,
    ),
];

pub struct XmarkCached {
    service: QueryService,
    seed: u64,
    doc_bytes: usize,
    /// Per query, the answer of an engine with every optimisation off.
    reference: Vec<String>,
}

pub struct Client {
    mix: BlockMix,
}

pub fn auction_xml(seed: u64) -> String {
    auction_site(&XmarkConfig {
        seed,
        people: PEOPLE_AND_AUCTIONS,
        items: ITEMS,
        open_auctions: PEOPLE_AND_AUCTIONS,
        closed_auctions: PEOPLE_AND_AUCTIONS,
        description_words: 60,
    })
}

impl XmarkCached {
    fn check(&self, query: usize, reply: xqr_xdm::Result<String>, ns: u64) -> OpOutcome {
        let (id, text) = QUERIES[query];
        match reply {
            Ok(out) => {
                let ok = out == self.reference[query];
                if !ok {
                    report_failure(Self::NAME, format_args!("{id} differs from the reference"));
                }
                OpOutcome::replied(ok, ns, (text.len() + out.len()) as u64)
            }
            Err(e) => {
                report_failure(Self::NAME, format_args!("{id}: {e}"));
                OpOutcome::replied(false, ns, text.len() as u64)
            }
        }
    }
}

impl Workload for XmarkCached {
    const NAME: &'static str = "xmark_cached";
    type Client = Client;

    fn setup(seed: u64) -> Self {
        let xml = auction_xml(seed);
        let service = QueryService::new(service_config());
        service
            .load_document(DOC, &xml)
            .expect("the generated auction document loads");
        let oracle = Engine::with_options(EngineOptions::unoptimized());
        oracle
            .load_document(DOC, &xml)
            .expect("the generated auction document loads");
        let reference = QUERIES
            .iter()
            .map(|(id, q)| {
                service.prepare(q).expect("suite query compiles");
                oracle
                    .query(q)
                    .unwrap_or_else(|e| panic!("reference answer for {id}: {e}"))
            })
            .collect();
        XmarkCached {
            service,
            seed,
            doc_bytes: xml.len(),
            reference,
        }
    }

    fn client(&self, index: usize) -> Client {
        Client {
            mix: BlockMix::new(&[1; QUERIES.len()], rng_for(self.seed, 100 + index as u64)),
        }
    }

    fn run_op(&self, client: &mut Client) -> OpOutcome {
        let q = client.mix.next_kind();
        let (reply, ns) = timed(|| self.service.run(QUERIES[q].1));
        self.check(q, reply, ns)
    }

    fn traced_op(&self, client: &mut Client, tracer: &mut Tracer) -> OpOutcome {
        let q = client.mix.next_kind();
        let (id, text) = QUERIES[q];
        let (reply, ns) = timed(|| {
            tracer.span("op", |t| {
                traced_query(&self.service, t, text, DOC, "hit", id)
            })
        });
        self.check(q, reply, ns)
    }

    fn service(&self) -> &QueryService {
        &self.service
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("document_bytes", Json::Num(self.doc_bytes as f64)),
            ("queries", Json::Num(QUERIES.len() as f64)),
        ])
    }
}
