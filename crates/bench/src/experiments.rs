//! The experiment suite E1–E12 (DESIGN.md's experiment index).
//!
//! Each experiment is a function returning a [`Table`]; the `harness`
//! binary prints them, EXPERIMENTS.md records one run. Criterion benches
//! reuse the same workload builders with statistical repetition; the
//! tables here use single timed runs at larger scales (shape, not
//! microseconds, is the claim being reproduced).

use std::sync::Arc;
use std::time::{Duration, Instant};
use xqr_compiler::{normalize_module, optimize_module, typing, Family, RewriteConfig};
use xqr_core::{CompileOptions, DynamicContext, Engine, EngineOptions};
use xqr_joins::{
    element_list, enumerate_matches, mpmgjn, nested_loop, normalize, stack_tree_desc, twig_stack,
    JoinKind, TwigPattern,
};
use xqr_runtime::RuntimeOptions;
use xqr_store::{dom, Document};
use xqr_tokenstream::{drain, BufferFactory, TokenStream, Tokenizer};
use xqr_xdm::NamePool;
use xqr_xmlgen::{
    auction_site, bibliography, random_tree, trading_partners, RandomTreeConfig, XmarkConfig,
};

/// One result table.
pub struct Table {
    pub id: &'static str,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

fn ms(d: Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1000.0)
}

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Scale knob: `quick` for CI-sized runs, `full` for the recorded tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    fn pick(&self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

// ---------------------------------------------------------------- E1

/// E1 — streaming: time-to-first-result and totals, streaming matcher vs
/// materialized execution, growing documents.
pub fn e1_streaming(scale: Scale) -> Table {
    let mut rows = Vec::new();
    let sizes = match scale {
        Scale::Quick => vec![200, 1_000],
        Scale::Full => vec![1_000, 5_000, 20_000, 80_000],
    };
    for n in sizes {
        let xml = auction_site(&XmarkConfig::scaled(n));
        let engine = Engine::new();
        let q = engine.compile("/site/people/person").unwrap();
        assert!(q.is_streamable());
        // Streaming: first match + total.
        let mut first: Option<Duration> = None;
        let t0 = Instant::now();
        let mut matches = 0u64;
        q.execute_streaming(&engine, &xml, |_| {
            matches += 1;
            if first.is_none() {
                first = Some(t0.elapsed());
            }
        })
        .unwrap();
        let stream_total = t0.elapsed();
        // Materialized: parse into the store, evaluate, serialize.
        let (out, mat_total) = time(|| engine.query_xml(&xml, "/site/people/person").unwrap());
        rows.push(vec![
            format!("{}", xml.len() / 1024),
            matches.to_string(),
            ms(first.unwrap_or_default()),
            ms(stream_total),
            ms(mat_total),
            format!(
                "{:.1}x",
                mat_total.as_secs_f64() / stream_total.as_secs_f64().max(1e-9)
            ),
        ]);
        let _ = out;
    }
    Table {
        id: "E1",
        title: "streaming vs materialized (query: /site/people/person)".into(),
        headers: vec![
            "doc KiB".into(),
            "matches".into(),
            "first result".into(),
            "stream total".into(),
            "materialized".into(),
            "speedup".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------- E2

/// E2 — lazy evaluation: items produced for early-exit queries vs the
/// nominal input size.
pub fn e2_lazy(scale: Scale) -> Table {
    let n = scale.pick(100_000, 10_000_000);
    let engine = Engine::new();
    let cases = [
        (format!("(1 to {n})[3]"), "positional [3]"),
        (format!("exists(1 to {n})"), "exists()"),
        (
            format!("some $x in (1 to {n}) satisfies $x eq 5"),
            "some … satisfies",
        ),
        (format!("count(1 to {n})"), "count() (no early exit)"),
    ];
    let mut rows = Vec::new();
    for (q, label) in &cases {
        let prepared = engine.compile(q).unwrap();
        let (r, t) = time(|| prepared.execute(&engine, &DynamicContext::new()).unwrap());
        rows.push(vec![
            (*label).to_string(),
            n.to_string(),
            r.counters.items_produced.get().to_string(),
            r.counters.early_exits.get().to_string(),
            ms(t),
        ]);
    }
    Table {
        id: "E2",
        title: "lazy evaluation: work is proportional to demand".into(),
        headers: vec![
            "query".into(),
            "input size".into(),
            "items produced".into(),
            "early exits".into(),
            "time".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------- E3

/// E3 — data representation: DOM tree vs TokenStream array vs labeled
/// store: build time, memory, scan time.
pub fn e3_representation(scale: Scale) -> Table {
    let n = scale.pick(2_000, 40_000);
    let xml = auction_site(&XmarkConfig::scaled(n));
    let names = Arc::new(NamePool::new());

    let (dom_tree, dom_build) = time(|| dom::parse_dom(&xml).unwrap());
    let (dom_count, dom_scan) = time(|| dom::count_nodes(&dom_tree));
    let dom_mem = dom::memory_bytes(&dom_tree);

    let (stream, ts_build) = time(|| TokenStream::from_xml(&xml, names.clone()).unwrap());
    let (ts_count, ts_scan) = time(|| drain(&mut stream.iter()).unwrap());
    let ts_mem = stream.memory_bytes();

    let (doc, store_build) = time(|| Document::parse(&xml, names.clone()).unwrap());
    let (store_count, store_scan) = time(|| doc.all_elements().count());
    let store_mem = doc.memory_bytes();

    let row = |name: &str, build: Duration, scan: Duration, mem: usize, units: usize| {
        vec![
            name.to_string(),
            ms(build),
            ms(scan),
            format!("{}", mem / 1024),
            units.to_string(),
        ]
    };
    Table {
        id: "E3",
        title: format!(
            "representation comparison ({} KiB XMark document)",
            xml.len() / 1024
        ),
        headers: vec![
            "representation".into(),
            "build".into(),
            "full scan".into(),
            "memory KiB".into(),
            "units scanned".into(),
        ],
        rows: vec![
            row(
                "DOM tree (Rc nodes)",
                dom_build,
                dom_scan,
                dom_mem,
                dom_count,
            ),
            row("TokenStream (array)", ts_build, ts_scan, ts_mem, ts_count),
            row(
                "labeled store (SoA)",
                store_build,
                store_scan,
                store_mem,
                store_count,
            ),
        ],
    }
}

// ---------------------------------------------------------------- E4

/// E4 — pooling (dictionary compression) on the wire.
pub fn e4_pooling(scale: Scale) -> Table {
    let n = scale.pick(1_000, 20_000);
    let mut rows = Vec::new();
    for (name, xml) in [
        ("xmark", auction_site(&XmarkConfig::scaled(n))),
        ("ebxml", trading_partners(11, n / 20 + 2)),
        ("bib", bibliography(5, n / 4 + 1)),
    ] {
        let names = Arc::new(NamePool::new());
        let stream = TokenStream::from_xml(&xml, names).unwrap();
        let pooled = xqr_tokenstream::encode(&stream, true).len();
        let unpooled = xqr_tokenstream::encode(&stream, false).len();
        rows.push(vec![
            name.to_string(),
            format!("{}", xml.len() / 1024),
            format!("{}", unpooled / 1024),
            format!("{}", pooled / 1024),
            format!("{:.2}x", unpooled as f64 / pooled as f64),
            format!("{:.2}x", xml.len() as f64 / pooled as f64),
        ]);
    }
    Table {
        id: "E4",
        title: "binary encoding: pooled (pragma dictionary) vs unpooled".into(),
        headers: vec![
            "workload".into(),
            "XML KiB".into(),
            "unpooled KiB".into(),
            "pooled KiB".into(),
            "pooling gain".into(),
            "vs raw XML".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------- E5

/// E5 — binary structural joins vs navigation across ancestor
/// selectivities.
pub fn e5_structural_join(scale: Scale) -> Table {
    let nodes = scale.pick(5_000, 100_000);
    let mut rows = Vec::new();
    for p_anc in [0.01, 0.05, 0.15, 0.35] {
        let cfg = RandomTreeConfig {
            nodes,
            p_ancestor: p_anc,
            p_descendant: 0.2,
            ..Default::default()
        };
        let xml = random_tree(&cfg);
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&xml, names.clone()).unwrap();
        let a = names.intern(&xqr_xdm::QName::local("a"));
        let d = names.intern(&xqr_xdm::QName::local("d"));
        let alist = element_list(&doc, a);
        let dlist = element_list(&doc, d);

        let (st_pairs, t_stack) =
            time(|| stack_tree_desc(&alist, &dlist, JoinKind::AncestorDescendant));
        let (mj_pairs, t_merge) = time(|| mpmgjn(&alist, &dlist, JoinKind::AncestorDescendant));
        let nl_time = if alist.len() * dlist.len() <= 50_000_000 {
            let (nl_pairs, t) = time(|| nested_loop(&alist, &dlist, JoinKind::AncestorDescendant));
            assert_eq!(normalize(nl_pairs).len(), normalize(st_pairs.clone()).len());
            ms(t)
        } else {
            "-".into()
        };
        assert_eq!(st_pairs.len(), mj_pairs.len());
        // Navigation baseline through the twig machinery.
        let twig = TwigPattern::parse("//a//d", &names).unwrap();
        let (nav, t_nav) = time(|| enumerate_matches(&doc, &twig));
        assert_eq!(nav.len(), st_pairs.len());

        rows.push(vec![
            format!("{p_anc:.2}"),
            alist.len().to_string(),
            dlist.len().to_string(),
            st_pairs.len().to_string(),
            ms(t_stack),
            ms(t_merge),
            nl_time,
            ms(t_nav),
        ]);
    }
    Table {
        id: "E5",
        title: format!("structural join //a//d over {nodes}-node random trees"),
        headers: vec![
            "P(a)".into(),
            "|A|".into(),
            "|D|".into(),
            "output".into(),
            "stack-tree".into(),
            "mpmgjn".into(),
            "nested-loop".into(),
            "navigation".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------- E6

/// E6 — holistic twig join vs a binary-join plan: intermediate sizes.
pub fn e6_twig(scale: Scale) -> Table {
    let nodes = scale.pick(5_000, 80_000);
    let mut rows = Vec::new();
    // Pattern //a[t0]/d : binary plan joins (a,t0) and (a,d) separately.
    for p_anc in [0.05, 0.15, 0.30] {
        let cfg = RandomTreeConfig {
            nodes,
            p_ancestor: p_anc,
            p_descendant: 0.25,
            alphabet: 3,
            ..Default::default()
        };
        let xml = random_tree(&cfg);
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&xml, names.clone()).unwrap();
        let twig = TwigPattern::parse("//a[t0]/d", &names).unwrap();
        let lists: Vec<_> = twig
            .nodes
            .iter()
            .map(|n| element_list(&doc, n.name))
            .collect();

        let ((matches, stats), t_twig) = time(|| twig_stack(&twig, &lists));
        // Binary plan: (a ad t0) then (a pc d), merge on a.
        let (binary_intermediate, t_binary, merged) = {
            let t0i = Instant::now();
            // `[t0]` and `/d` are both child edges in the pattern.
            let ab = stack_tree_desc(&lists[0], &lists[1], JoinKind::ParentChild);
            let ad = stack_tree_desc(&lists[0], &lists[2], JoinKind::ParentChild);
            let inter = ab.len() + ad.len();
            // Merge phase: group by the `a` node.
            let mut result = 0usize;
            let mut b_by_a: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for (a, _) in &ab {
                *b_by_a.entry(a.start).or_insert(0) += 1;
            }
            for (a, _) in &ad {
                if let Some(&bcount) = b_by_a.get(&a.start) {
                    result += bcount;
                }
            }
            (inter, t0i.elapsed(), result)
        };
        assert_eq!(matches.len(), merged, "binary plan result must agree");
        rows.push(vec![
            format!("{p_anc:.2}"),
            matches.len().to_string(),
            stats.path_solutions.to_string(),
            binary_intermediate.to_string(),
            ms(t_twig),
            ms(t_binary),
        ]);
    }
    Table {
        id: "E6",
        title: format!("twig //a[t0]/d: TwigStack vs binary join plan ({nodes} nodes)"),
        headers: vec![
            "P(a)".into(),
            "matches".into(),
            "twig intermediates".into(),
            "binary intermediates".into(),
            "twigstack".into(),
            "binary plan".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------- E7

/// E7 — rewrite ablation: execution time with each family disabled.
pub fn e7_rewrites(scale: Scale) -> Table {
    let n = scale.pick(500, 5_000);
    let bib = bibliography(3, n);
    let queries: Vec<(&str, String)> = vec![
        (
            "ddo-heavy path",
            "count(doc(\"bib.xml\")/bib/book/author/last)".to_string(),
        ),
        (
            "join query",
            "for $a in doc(\"bib.xml\")//book return for $b in doc(\"bib.xml\")//book \
             return if ($a/publisher = $b/publisher and $a/@year = 1967) then $b/title else ()"
                .to_string(),
        ),
        (
            "let + constants",
            "let $k := 2 * 3 + 4 return for $b in doc(\"bib.xml\")//book \
             where count($b/author) ge $k - 7 return $b/title"
                .to_string(),
        ),
        (
            "positional",
            "(doc(\"bib.xml\")//book)[5]/title".to_string(),
        ),
    ];
    let ablated = [
        Family::DdoElimination,
        Family::JoinDetection,
        Family::LetFolding,
        Family::ConstantFolding,
        Family::PathRewrites,
    ];
    let configs = std::iter::once(("none-disabled", RewriteConfig::all()))
        .chain(ablated.map(|f| (f.name(), RewriteConfig::without(f))))
        .chain(std::iter::once(("all-disabled", RewriteConfig::none())));
    let mut rows = Vec::new();
    for (label, cfg) in configs {
        let mut cells = vec![label.to_string()];
        for (_, q) in &queries {
            let engine = Engine::with_options(EngineOptions {
                compile: CompileOptions {
                    rewrite: cfg.clone(),
                    ..Default::default()
                },
                runtime: RuntimeOptions::default(),
                ..Default::default()
            });
            engine.load_document("bib.xml", &bib).unwrap();
            let prepared = engine.compile(q).unwrap();
            // warm the doc cache, then measure.
            prepared.execute(&engine, &DynamicContext::new()).unwrap();
            let (_, t) = time(|| prepared.execute(&engine, &DynamicContext::new()).unwrap());
            cells.push(ms(t));
        }
        rows.push(cells);
    }
    let mut headers = vec!["disabled family".to_string()];
    headers.extend(queries.iter().map(|(l, _)| l.to_string()));
    Table {
        id: "E7",
        title: format!("rewrite-family ablation over a {n}-book bibliography"),
        headers,
        rows,
    }
}

// ---------------------------------------------------------------- E8

/// E8 — compilation pipeline phase costs.
pub fn e8_compile(_scale: Scale) -> Table {
    let small = "1 + 2";
    let medium = "for $b in doc(\"bib.xml\")//book where $b/price > 50 \
                  order by $b/title return <r>{$b/title, $b/price}</r>";
    let giant = giant_customer_query();
    let mut rows = Vec::new();
    for (label, q) in [
        ("tiny", small),
        ("medium", medium),
        ("trading-partner (giant)", &giant),
    ] {
        let (ast, t_parse) = time(|| xqr_xqparser::parse_query(q).unwrap());
        let (mut module, t_norm) = time(|| normalize_module(&ast).unwrap());
        let (_, t_type) = time(|| typing::check_module(&module, false).unwrap());
        let (_, t_opt) = time(|| optimize_module(&mut module, &RewriteConfig::all()));
        rows.push(vec![
            label.to_string(),
            q.len().to_string(),
            ms(t_parse),
            ms(t_norm),
            ms(t_type),
            ms(t_opt),
        ]);
    }
    Table {
        id: "E8",
        title: "compilation phases".into(),
        headers: vec![
            "query".into(),
            "bytes".into(),
            "parse".into(),
            "normalize".into(),
            "typecheck".into(),
            "optimize".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------- E9

/// The condensed trading-partner transformation (the talk's customer
/// query, reduced to its load-bearing joins and constructors).
pub fn customer_query() -> &'static str {
    r#"
    declare variable $wlc := doc("ebsample.xml");
    <result>{
      for $tp in $wlc/wlc/trading-partner
      return
        <trading-partner name="{$tp/@name}"
                         business-id="{$tp/party-identifier/@business-id}"
                         type="{$tp/@type}">
          { for $eps in $wlc/wlc/extended-property-set
            where $tp/@extended-property-set-name = $eps/@name
            return <property-set name="{$eps/@name}"/> }
          { for $cc in $tp/client-certificate
            return <client-certificate name="{$cc/@name}"/> }
          {
            for $dc in $tp/delivery-channel
            for $de in $tp/document-exchange
            for $tr in $tp/transport
            where $dc/@document-exchange-name = $de/@name
              and $dc/@transport-name = $tr/@name
              and $de/@business-protocol-name = "ebXML"
            return
              <ebxml-binding name="{$dc/@name}"
                             is-signature-required="{$dc/@nonrepudiation-of-origin}">
                { if (empty($de/EBXML-binding/@retries)) then ()
                  else attribute retries { string($de/EBXML-binding/@retries) } }
                <transport protocol="{$tr/@protocol}" endpoint="{$tr/endpoint[1]/@uri}">
                  {
                    for $ca in $wlc/wlc/collaboration-agreement
                    for $p1 in $ca/party[1]
                    where $p1/@delivery-channel-name = $dc/@name
                    return <authentication client-partner-name="{$p1/@trading-partner-name}"/>
                  }
                </transport>
              </ebxml-binding>
          }
        </trading-partner>
    }</result>
    "#
}

/// A hand-written DOM-walking transformer doing the same job the way a
/// naive template engine would: re-scanning the whole tree for every
/// cross-reference (no indexes, no join detection) — the talk's
/// "best-XSLT-implementation" stand-in per DESIGN.md's substitution note.
pub fn dom_baseline_transform(xml: &str) -> String {
    let root = dom::parse_dom(xml).unwrap();
    let mut out = String::from("<result>");
    let mut partners = Vec::new();
    dom::descendants_named(&root, "trading-partner", &mut partners);
    let get_attr = |n: &dom::DomRef, name: &str| -> String {
        n.borrow()
            .attributes
            .iter()
            .find(|(q, _)| q.local_name() == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    for tp in &partners {
        let name = get_attr(tp, "name");
        let mut pid = Vec::new();
        dom::descendants_named(tp, "party-identifier", &mut pid);
        let bid = pid
            .first()
            .map(|p| get_attr(p, "business-id"))
            .unwrap_or_default();
        out.push_str(&format!(
            "<trading-partner name=\"{}\" business-id=\"{}\" type=\"{}\">",
            name,
            bid,
            get_attr(tp, "type")
        ));
        // property sets: full-tree scan per partner (the quadratic bit).
        let mut epss = Vec::new();
        dom::descendants_named(&root, "extended-property-set", &mut epss);
        let want = get_attr(tp, "extended-property-set-name");
        for eps in &epss {
            if get_attr(eps, "name") == want {
                out.push_str(&format!("<property-set name=\"{}\"/>", want));
            }
        }
        let mut ccs = Vec::new();
        dom::descendants_named(tp, "client-certificate", &mut ccs);
        for cc in &ccs {
            out.push_str(&format!(
                "<client-certificate name=\"{}\"/>",
                get_attr(cc, "name")
            ));
        }
        // dc × de × tr triple join by nested scans.
        let (mut dcs, mut des, mut trs) = (Vec::new(), Vec::new(), Vec::new());
        dom::descendants_named(tp, "delivery-channel", &mut dcs);
        dom::descendants_named(tp, "document-exchange", &mut des);
        dom::descendants_named(tp, "transport", &mut trs);
        for dc in &dcs {
            for de in &des {
                if get_attr(dc, "document-exchange-name") != get_attr(de, "name")
                    || get_attr(de, "business-protocol-name") != "ebXML"
                {
                    continue;
                }
                for tr in &trs {
                    if get_attr(dc, "transport-name") != get_attr(tr, "name") {
                        continue;
                    }
                    out.push_str(&format!(
                        "<ebxml-binding name=\"{}\" is-signature-required=\"{}\">",
                        get_attr(dc, "name"),
                        get_attr(dc, "nonrepudiation-of-origin")
                    ));
                    let mut eps2 = Vec::new();
                    dom::descendants_named(tr, "endpoint", &mut eps2);
                    let uri = eps2.first().map(|e| get_attr(e, "uri")).unwrap_or_default();
                    out.push_str(&format!(
                        "<transport protocol=\"{}\" endpoint=\"{}\">",
                        get_attr(tr, "protocol"),
                        uri
                    ));
                    // collaboration agreements: another full-tree scan.
                    let mut cas = Vec::new();
                    dom::descendants_named(&root, "collaboration-agreement", &mut cas);
                    for ca in &cas {
                        let mut parties = Vec::new();
                        dom::descendants_named(ca, "party", &mut parties);
                        if let Some(p1) = parties.first() {
                            if get_attr(p1, "delivery-channel-name") == get_attr(dc, "name") {
                                out.push_str(&format!(
                                    "<authentication client-partner-name=\"{}\"/>",
                                    get_attr(p1, "trading-partner-name")
                                ));
                            }
                        }
                    }
                    out.push_str("</transport></ebxml-binding>");
                }
            }
        }
        out.push_str("</trading-partner>");
    }
    out.push_str("</result>");
    out
}

/// E9 — the headline: optimized XQuery vs the materializing baseline vs
/// the naive tree-walking transformer.
pub fn e9_transform(scale: Scale) -> Table {
    let sizes = match scale {
        Scale::Quick => vec![20, 60],
        Scale::Full => vec![50, 150, 400, 800],
    };
    let mut rows = Vec::new();
    for partners in sizes {
        let xml = trading_partners(9, partners);
        // Optimized engine.
        let engine = Engine::new();
        engine.load_document("ebsample.xml", &xml).unwrap();
        let q = engine.compile(customer_query()).unwrap();
        q.execute(&engine, &DynamicContext::new()).unwrap(); // warm
        let (r_opt, t_opt) = time(|| q.execute(&engine, &DynamicContext::new()).unwrap());
        // Unoptimized engine (no join detection, no ddo elimination).
        let engine2 = Engine::with_options(EngineOptions::unoptimized());
        engine2.load_document("ebsample.xml", &xml).unwrap();
        let q2 = engine2.compile(customer_query()).unwrap();
        q2.execute(&engine2, &DynamicContext::new()).unwrap();
        let (r_unopt, t_unopt) = time(|| q2.execute(&engine2, &DynamicContext::new()).unwrap());
        // Naive DOM transformer (parse + walk each run, like a CLI XSLT).
        let (_, t_dom) = time(|| dom_baseline_transform(&xml));
        assert_eq!(
            r_opt.serialize_guarded().unwrap().len(),
            r_unopt.serialize_guarded().unwrap().len()
        );
        rows.push(vec![
            partners.to_string(),
            format!("{}", xml.len() / 1024),
            ms(t_opt),
            ms(t_unopt),
            ms(t_dom),
            format!(
                "{:.1}x",
                t_dom.as_secs_f64() / t_opt.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    Table {
        id: "E9",
        title: "trading-partner transformation: engine vs baselines".into(),
        headers: vec![
            "partners".into(),
            "doc KiB".into(),
            "optimized".into(),
            "unoptimized".into(),
            "DOM transformer".into(),
            "vs DOM".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------- E10

/// E10 — skip(): tokens skipped by the streaming matcher for selective
/// vs unselective patterns.
pub fn e10_skip(scale: Scale) -> Table {
    let n = scale.pick(2_000, 40_000);
    let xml = auction_site(&XmarkConfig::scaled(n));
    let engine = Engine::new();
    let mut rows = Vec::new();
    for (label, q) in [
        (
            "selective child path",
            "/site/closed_auctions/closed_auction",
        ),
        ("semi-selective", "/site/people/person/name"),
        ("descendant (no skip)", "//name"),
        ("streaming count", "count(/site/people/person)"),
    ] {
        let prepared = engine.compile(q).unwrap();
        let t0 = Instant::now();
        let mut count = 0u64;
        let stats = if prepared.is_streamable_count() {
            let (n, stats) = prepared.execute_streaming_count(&engine, &xml).unwrap();
            count = n;
            stats
        } else {
            prepared
                .execute_streaming(&engine, &xml, |_| count += 1)
                .unwrap()
        };
        let t = t0.elapsed();
        rows.push(vec![
            label.to_string(),
            q.to_string(),
            count.to_string(),
            stats.tokens_seen.to_string(),
            stats.tokens_skipped.to_string(),
            format!(
                "{:.0}%",
                100.0 * stats.tokens_skipped as f64
                    / (stats.tokens_seen + stats.tokens_skipped) as f64
            ),
            ms(t),
        ]);
    }
    Table {
        id: "E10",
        title: format!(
            "skip() effectiveness on a {} KiB document",
            xml.len() / 1024
        ),
        headers: vec![
            "case".into(),
            "query".into(),
            "matches".into(),
            "tokens seen".into(),
            "tokens skipped".into(),
            "skipped %".into(),
            "time".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------- E11

/// E11 — on-demand node identity: the compiler's analysis plus the cost
/// of identity-dependent operators on construction pipelines.
pub fn e11_nodeids(scale: Scale) -> Table {
    let n = scale.pick(2_000, 30_000);
    let engine = Engine::new();
    engine
        .load_document("bib.xml", &bibliography(2, n))
        .unwrap();
    let mut rows = Vec::new();
    for (label, q) in [
        (
            "construct only (no ids needed)",
            "for $i in 1 to 500 return <item n=\"{$i}\">{$i * 2}</item>",
        ),
        (
            "construct + identity ops (ids needed)",
            "count((for $i in 1 to 500 return <item/>) | (for $i in 1 to 500 return <item/>))",
        ),
        (
            "path query (ddo ⇒ ids)",
            "count(doc(\"bib.xml\")//book/author)",
        ),
    ] {
        let prepared = engine.compile(q).unwrap();
        prepared.execute(&engine, &DynamicContext::new()).unwrap();
        let (r, t) = time(|| prepared.execute(&engine, &DynamicContext::new()).unwrap());
        rows.push(vec![
            label.to_string(),
            prepared.needs_node_ids().to_string(),
            r.counters.nodes_constructed.get().to_string(),
            r.counters.ddo_sorts.get().to_string(),
            ms(t),
        ]);
    }
    Table {
        id: "E11",
        title: "node-identity demand analysis".into(),
        headers: vec![
            "query".into(),
            "needs ids".into(),
            "nodes constructed".into(),
            "ddo sorts".into(),
            "time".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------- E12

/// E12 — sharing: buffer factory (one upstream pass for N consumers)
/// and function memoization.
pub fn e12_memo(scale: Scale) -> Table {
    let n = scale.pick(2_000, 40_000);
    let xml = auction_site(&XmarkConfig::scaled(n));
    let mut rows = Vec::new();

    // Buffer sharing: 3 consumers over one parse vs 3 parses.
    let names = Arc::new(NamePool::new());
    let t0 = Instant::now();
    let factory = BufferFactory::new(Tokenizer::new(&xml, names.clone()));
    let mut total = 0usize;
    for _ in 0..3 {
        let mut c = factory.consumer();
        total += drain(&mut c).unwrap();
    }
    let shared = t0.elapsed();
    let pulled_once = factory.upstream_pulled();
    let t1 = Instant::now();
    let mut total2 = 0usize;
    for _ in 0..3 {
        let mut it = Tokenizer::new(&xml, names.clone());
        total2 += drain(&mut it).unwrap();
    }
    let reparsed = t1.elapsed();
    assert_eq!(total, total2);
    rows.push(vec![
        "buffer factory, 3 consumers".into(),
        pulled_once.to_string(),
        (total / 3).to_string(),
        ms(shared),
        ms(reparsed),
        format!(
            "{:.1}x",
            reparsed.as_secs_f64() / shared.as_secs_f64().max(1e-9)
        ),
    ]);

    // Function memoization: fib with and without.
    let q = "declare function local:fib($n as xs:integer) as xs:integer {
               if ($n lt 2) then $n else local:fib($n - 1) + local:fib($n - 2)
             }; local:fib(22)";
    let engine_plain = Engine::new();
    let prepared = engine_plain.compile(q).unwrap();
    let (r1, t_plain) = time(|| {
        prepared
            .execute(&engine_plain, &DynamicContext::new())
            .unwrap()
    });
    let engine_memo = Engine::with_options(EngineOptions {
        compile: CompileOptions::default(),
        runtime: RuntimeOptions {
            memoize_functions: true,
            ..Default::default()
        },
        ..Default::default()
    });
    let prepared_m = engine_memo.compile(q).unwrap();
    let (r2, t_memo) = time(|| {
        prepared_m
            .execute(&engine_memo, &DynamicContext::new())
            .unwrap()
    });
    assert_eq!(
        r1.serialize_guarded().unwrap(),
        r2.serialize_guarded().unwrap()
    );
    rows.push(vec![
        "memoized fib(22)".into(),
        r2.counters.function_calls.get().to_string(),
        r1.counters.function_calls.get().to_string(),
        ms(t_memo),
        ms(t_plain),
        format!(
            "{:.1}x",
            t_plain.as_secs_f64() / t_memo.as_secs_f64().max(1e-9)
        ),
    ]);

    Table {
        id: "E12",
        title: "sharing: buffered consumers & function memoization".into(),
        headers: vec![
            "case".into(),
            "work (shared)".into(),
            "work (unshared)".into(),
            "time shared".into(),
            "time unshared".into(),
            "gain".into(),
        ],
        rows,
    }
}

/// The talk's 60% customer query, reconstructed at full length (used by
/// E8 to measure compile costs on a realistically giant query).
pub fn giant_customer_query() -> String {
    // Build a long query programmatically: the condensed transformation
    // repeated across protocol branches, mirroring the talk's repetition
    // of the ebXML and RosettaNet binding sections.
    let mut q = String::from("declare variable $wlc := doc(\"ebsample.xml\");\n<result>{\n");
    let mut first = true;
    for proto in ["ebXML", "RosettaNet"] {
        if !first {
            q.push(',');
        }
        first = false;
        q.push_str(&format!(
            r#"
    for $tp in $wlc/wlc/trading-partner
    return
      <trading-partner name="{{$tp/@name}}" type="{{$tp/@type}}">
        {{
          for $dc in $tp/delivery-channel
          for $de in $tp/document-exchange
          for $tr in $tp/transport
          where $dc/@document-exchange-name = $de/@name
            and $dc/@transport-name = $tr/@name
            and $de/@business-protocol-name = "{proto}"
          return
            <binding protocol="{proto}" name="{{$dc/@name}}">
              <transport protocol="{{$tr/@protocol}}" endpoint="{{$tr/endpoint[1]/@uri}}">
                {{
                  for $ca in $wlc/wlc/collaboration-agreement
                  for $p1 in $ca/party[1]
                  where $p1/@delivery-channel-name = $dc/@name
                  return
                    if ($p1/@trading-partner-name = $tp/@name)
                    then <authentication side="own"/>
                    else <authentication side="peer" client-partner-name="{{$p1/@trading-partner-name}}"/>
                }}
              </transport>
            </binding>
        }}
      </trading-partner>
"#
        ));
    }
    q.push_str(
        r#",
    for $cd in $wlc/wlc/conversation-definition
    for $role in $cd/role
    where not(empty($role/@wlpi-template) or $role/@wlpi-template = "")
    return
      <service name="{concat("flows/", $role/@wlpi-template, ".jpd")}"
               business-protocol="{upper-case($cd/@business-protocol-name)}"/>
}</result>"#,
    );
    q
}

/// Run every experiment at the given scale.
pub fn all_experiments(scale: Scale) -> Vec<Table> {
    vec![
        e1_streaming(scale),
        e2_lazy(scale),
        e3_representation(scale),
        e4_pooling(scale),
        e5_structural_join(scale),
        e6_twig(scale),
        e7_rewrites(scale),
        e8_compile(scale),
        e9_transform(scale),
        e10_skip(scale),
        e11_nodeids(scale),
        e12_memo(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn customer_query_compiles_and_runs() {
        let engine = Engine::new();
        engine
            .load_document("ebsample.xml", &trading_partners(9, 10))
            .unwrap();
        let q = engine.compile(customer_query()).unwrap();
        let r = q.execute(&engine, &DynamicContext::new()).unwrap();
        let out = r.serialize_guarded().unwrap();
        assert!(out.starts_with("<result>"));
        assert_eq!(out.matches("<trading-partner ").count(), 10);
        assert!(
            out.contains("<ebxml-binding"),
            "{}",
            &out[..500.min(out.len())]
        );
    }

    #[test]
    fn giant_query_compiles() {
        let q = giant_customer_query();
        assert!(q.len() > 1500);
        let engine = Engine::new();
        engine
            .load_document("ebsample.xml", &trading_partners(9, 6))
            .unwrap();
        let prepared = engine.compile(&q).unwrap();
        let r = prepared.execute(&engine, &DynamicContext::new()).unwrap();
        assert!(r.serialize_guarded().unwrap().contains("<binding"));
    }

    #[test]
    fn dom_baseline_agrees_with_engine_on_counts() {
        let xml = trading_partners(9, 12);
        let engine = Engine::new();
        engine.load_document("ebsample.xml", &xml).unwrap();
        let q = engine.compile(customer_query()).unwrap();
        let engine_out = q
            .execute(&engine, &DynamicContext::new())
            .unwrap()
            .serialize_guarded()
            .unwrap();
        let dom_out = dom_baseline_transform(&xml);
        assert_eq!(
            engine_out.matches("<trading-partner ").count(),
            dom_out.matches("<trading-partner ").count()
        );
        assert_eq!(
            engine_out.matches("<ebxml-binding").count(),
            dom_out.matches("<ebxml-binding").count()
        );
        assert_eq!(
            engine_out.matches("<authentication").count(),
            dom_out.matches("<authentication").count()
        );
    }

    #[test]
    fn quick_experiments_run() {
        // Smoke: every experiment produces a table with rows at quick
        // scale (this is what `harness --quick` prints).
        for t in all_experiments(Scale::Quick) {
            assert!(!t.rows.is_empty(), "{}", t.id);
            assert!(t.render().contains(t.id));
        }
    }
}
