//! `adhoc_compile`: every request is a query text the plan cache has not
//! seen for 4,096 requests. Seeded variants of three templates — E8's
//! tiny arithmetic, its medium FLWOR, and the reconstructed giant
//! trading-partner query, drawn 9 : 9 : 2 — run against a 50-book
//! bibliography and a small partner configuration. The 4,096 texts cycle
//! through a 256-entry plan cache, so every lookup misses and evicts: the
//! query parser, the five compile phases and the cache's miss path are on
//! the blocking path and execution is near zero — the mirror image of
//! `xmark_cached`.

use super::{report_failure, service_config, timed, traced_query, OpOutcome, Workload};
use crate::inputs::{rng_for, BlockMix};
use crate::json::Json;
use crate::trace::Tracer;
use rand::Rng;
use std::fmt::Write;
use xqr_compiler::{normalize_module, optimize_module, typing, CompileOptions};
use xqr_core::{Engine, EngineOptions};
use xqr_service::QueryService;
use xqr_xmlgen::{bibliography, trading_partners};

const TEXTS: usize = 4096;
const BOOKS: usize = 50;
const PARTNERS: usize = 6;
const BIB: &str = "bib.xml";
const PARTNER_DOC: &str = "ebsample.xml";
/// Tiny, medium, giant per block of twenty requests.
const MIX: [usize; 3] = [9, 9, 2];
pub const TEMPLATES: [&str; 3] = ["tiny", "medium", "giant"];
/// Price thresholds the medium template draws from.
const THRESHOLDS: std::ops::Range<u32> = 10..150;

fn tiny(a: u32, b: u32) -> String {
    format!("{a} + {b}")
}

/// E8's medium FLWOR with the variable renamed and the threshold drawn.
fn medium(var: usize, threshold: u32) -> String {
    format!(
        "for $b{var} in doc(\"{BIB}\")//book where $b{var}/price > {threshold} \
         order by $b{var}/title return <r>{{$b{var}/title, $b{var}/price}}</r>"
    )
}

/// The talk's customer query at full length (after
/// `xqr_bench::experiments::giant_customer_query`), every variable
/// carrying `var` so each text is new to the plan cache while the answer
/// stays the same.
fn giant(var: usize) -> String {
    let v = var;
    let mut q = format!("declare variable $wlc{v} := doc(\"{PARTNER_DOC}\");\n<result>{{\n");
    for (i, proto) in ["ebXML", "RosettaNet"].iter().enumerate() {
        if i > 0 {
            q.push(',');
        }
        let _ = write!(
            q,
            r#"
    for $tp{v} in $wlc{v}/wlc/trading-partner
    return
      <trading-partner name="{{$tp{v}/@name}}" type="{{$tp{v}/@type}}">
        {{
          for $dc{v} in $tp{v}/delivery-channel
          for $de{v} in $tp{v}/document-exchange
          for $tr{v} in $tp{v}/transport
          where $dc{v}/@document-exchange-name = $de{v}/@name
            and $dc{v}/@transport-name = $tr{v}/@name
            and $de{v}/@business-protocol-name = "{proto}"
          return
            <binding protocol="{proto}" name="{{$dc{v}/@name}}">
              <transport protocol="{{$tr{v}/@protocol}}" endpoint="{{$tr{v}/endpoint[1]/@uri}}">
                {{
                  for $ca{v} in $wlc{v}/wlc/collaboration-agreement
                  for $p{v} in $ca{v}/party[1]
                  where $p{v}/@delivery-channel-name = $dc{v}/@name
                  return
                    if ($p{v}/@trading-partner-name = $tp{v}/@name)
                    then <authentication side="own"/>
                    else <authentication side="peer" client-partner-name="{{$p{v}/@trading-partner-name}}"/>
                }}
              </transport>
            </binding>
        }}
      </trading-partner>
"#
        );
    }
    let _ = write!(
        q,
        r#",
    for $cd{v} in $wlc{v}/wlc/conversation-definition
    for $role{v} in $cd{v}/role
    where not(empty($role{v}/@wlpi-template) or $role{v}/@wlpi-template = "")
    return
      <service name="{{concat("flows/", $role{v}/@wlpi-template, ".jpd")}}"
               business-protocol="{{upper-case($cd{v}/@business-protocol-name)}}"/>
}}</result>"#
    );
    q
}

struct Request {
    template: usize,
    text: String,
    /// Index into `AdhocCompile::answers`.
    answer: usize,
}

pub struct AdhocCompile {
    service: QueryService,
    requests: Vec<Request>,
    /// Distinct expected replies; many texts share one.
    answers: Vec<String>,
}

/// Clients interleave over the one text cycle, so a text comes round
/// again only after every other text has.
pub struct Client {
    next: usize,
}

impl AdhocCompile {
    fn outcome(&self, req: &Request, reply: xqr_xdm::Result<String>, ns: u64) -> OpOutcome {
        let template = TEMPLATES[req.template];
        match reply {
            Ok(out) => {
                let ok = out == self.answers[req.answer];
                if !ok {
                    report_failure(
                        Self::NAME,
                        format_args!(
                            "a {template} query differs from the reference: {}",
                            req.text
                        ),
                    );
                }
                OpOutcome::replied(ok, ns, (req.text.len() + out.len()) as u64)
            }
            Err(e) => {
                report_failure(Self::NAME, format_args!("a {template} query: {e}"));
                OpOutcome::replied(false, ns, req.text.len() as u64)
            }
        }
    }

    fn next_request(&self, client: &mut Client) -> &Request {
        let req = &self.requests[client.next % TEXTS];
        client.next += super::CLIENTS;
        req
    }
}

/// The compile pipeline phase by phase, a probe span each, then whole.
fn probe_compile_phases(tracer: &mut Tracer, text: &str, tag: &'static str) {
    let ast = tracer.span_tagged("probe.xqparser.parse", tag, |_| {
        xqr_xqparser::parse_query(text).expect("a generated query parses")
    });
    let mut module = tracer.span_tagged("probe.compiler.normalize", tag, |_| {
        normalize_module(&ast).expect("a generated query normalizes")
    });
    tracer.span_tagged("probe.compiler.typecheck", tag, |_| {
        typing::check_module(&module, false).expect("a generated query type-checks")
    });
    let options = CompileOptions::default();
    let fired: usize = tracer
        .span_tagged("probe.compiler.rewrite", tag, |_| {
            optimize_module(&mut module, &options.rewrite)
        })
        .values()
        .sum();
    let planted = tracer.span_tagged("probe.compiler.access", tag, |_| {
        xqr_compiler::access::select_access_paths(&mut module)
    });
    tracer.count("compiler.rewrites_fired", (fired + planted) as u64);
    tracer.span_tagged("probe.compiler.compile", tag, |_| {
        xqr_compiler::compile(text, &options).expect("a generated query compiles")
    });
}

impl Workload for AdhocCompile {
    const NAME: &'static str = "adhoc_compile";
    type Client = Client;

    fn setup(seed: u64) -> Self {
        let bib = bibliography(seed, BOOKS);
        let partners = trading_partners(seed, PARTNERS);
        let service = QueryService::new(service_config());
        let oracle = Engine::with_options(EngineOptions::unoptimized());
        for (name, xml) in [(BIB, &bib), (PARTNER_DOC, &partners)] {
            service
                .load_document(name, xml)
                .expect("a generated document loads");
            oracle
                .load_document(name, xml)
                .expect("a generated document loads");
        }
        let reference =
            |q: &str| -> String { oracle.query(q).expect("the reference engine answers") };

        // Answers 0..len(THRESHOLDS) belong to the medium template by
        // threshold, the next one to every giant text; tiny sums follow.
        let mut answers: Vec<String> = THRESHOLDS.map(|t| reference(&medium(0, t))).collect();
        let giant_answer = answers.len();
        answers.push(reference(&giant(0)));

        let mut rng = rng_for(seed, 500);
        let mut mix = BlockMix::new(&MIX, rng_for(seed, 501));
        let requests = (0..TEXTS)
            .map(|i| {
                let template = mix.next_kind();
                // `i` in the text makes it distinct from every other.
                match template {
                    0 => {
                        let (a, b) = (i as u32, rng.gen_range(0..1_000_000u32));
                        answers.push((a + b).to_string());
                        Request {
                            template,
                            text: tiny(a, b),
                            answer: answers.len() - 1,
                        }
                    }
                    1 => {
                        let t = rng.gen_range(THRESHOLDS);
                        Request {
                            template,
                            text: medium(i, t),
                            answer: (t - THRESHOLDS.start) as usize,
                        }
                    }
                    _ => Request {
                        template,
                        text: giant(i),
                        answer: giant_answer,
                    },
                }
            })
            .collect();
        AdhocCompile {
            service,
            requests,
            answers,
        }
    }

    fn client(&self, index: usize) -> Client {
        // Repetitions hand out client numbers beyond the first pair; the
        // parity keeps the two clients of a repetition on disjoint texts
        // and the offset starts each repetition elsewhere in the cycle.
        Client {
            next: index % super::CLIENTS + (index / super::CLIENTS) * (TEXTS / 8),
        }
    }

    fn run_op(&self, client: &mut Client) -> OpOutcome {
        let req = self.next_request(client);
        let (reply, ns) = timed(|| self.service.run(&req.text));
        self.outcome(req, reply, ns)
    }

    fn traced_op(&self, client: &mut Client, tracer: &mut Tracer) -> OpOutcome {
        let req = self.next_request(client);
        let tag = TEMPLATES[req.template];
        let doc = if req.template == 2 { PARTNER_DOC } else { BIB };
        tracer.span("op", |t| {
            probe_compile_phases(t, &req.text, tag);
            let (reply, ns) = timed(|| traced_query(&self.service, t, &req.text, doc, "miss", tag));
            self.outcome(req, reply, ns)
        })
    }

    fn service(&self) -> &QueryService {
        &self.service
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("distinct_texts", Json::Num(TEXTS as f64)),
            ("plan_cache_capacity", Json::Num(256.0)),
            ("books", Json::Num(BOOKS as f64)),
            ("partners", Json::Num(PARTNERS as f64)),
            ("giant_query_bytes", Json::Num(giant(0).len() as f64)),
        ])
    }
}
