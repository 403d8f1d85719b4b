//! The traced run: per-layer metrics of one workload.
//!
//! Single-threaded, so nothing contends: a faster layer saves at most its
//! self-time share of an operation here, and what the two-client run adds
//! on top is waiting for the worker queue, the plan-cache shards, the
//! catalog lock and the ledger atomics.
//!
//! Three freshly set-up services replay the same first `ops` operations of
//! client 0's seeded stream, so counts repeat exactly for a seed:
//!
//! 1. **service** — through the public API, as the untraced run issues
//!    them. Gives the service's own counters, the ledger's per-category
//!    peaks, and the time the pool hand-off adds.
//! 2. **decomposed, tracer off** and
//! 3. **decomposed, tracer on** — the operation rebuilt from the
//!    benchmark's own code out of each layer's public calls, a span around
//!    each. The two differ only in whether spans are recorded; their time
//!    difference is `trace.overhead_share`.
//!
//! The three take turns operation by operation rather than running one
//! after the other: on this sandbox whatever runs later runs up to 10%
//! faster, which is more than either difference being measured. The
//! service instance then runs the next `ops` operations of its stream with
//! allocations counted — counted apart, because counting slows what it
//! counts.
//!
//! Spans named `probe.*` run one layer alone on the operation's input
//! (the lexer over the document a publish is about to tokenize, the five
//! compile phases over the text a plan lookup is about to compile). They
//! repeat work the real call does inside, where no span can reach; every
//! other span is the real call. An operation's latency counts the real
//! calls only.

use crate::alloc_count;
use crate::cli::declared;
use crate::kernels;
use crate::runner::{quantile, Metric, RunResult};
use crate::trace::{Total, Tracer};
use crate::workloads::adhoc_compile::TEMPLATES;
use crate::workloads::xmark_cached::{XmarkCached, QUERIES};
use crate::workloads::{OpOutcome, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use xqr_pressure::{Category, LedgerSnapshot};
use xqr_service::ServiceStats;

/// Operations replayed and discarded before each replay proper: worker
/// threads started, first-touch page faults taken.
const WARM_OPS: usize = 32;

const COMPILE_PHASES: [(&str, &str); 5] = [
    ("xqparser.parse_us", "probe.xqparser.parse"),
    ("compiler.normalize_us", "probe.compiler.normalize"),
    ("compiler.typecheck_us", "probe.compiler.typecheck"),
    ("compiler.rewrite_us", "probe.compiler.rewrite"),
    ("compiler.access_us", "probe.compiler.access"),
];

/// The storage layers under a document load, as probed.
const LOAD_PROBES: [&str; 4] = [
    "probe.store.load",
    "probe.index.build",
    "probe.segment.encode",
    "probe.segment.write",
];

/// One of the three replays: its instance, its position in client 0's
/// stream, what its operations did and how long they took in all.
struct Replay<W: Workload> {
    workload: W,
    client: W::Client,
    outcomes: Vec<OpOutcome>,
    elapsed_ns: u64,
}

impl<W: Workload> Replay<W> {
    /// Set up, then run and discard the warm-up operations; `all` gets
    /// their outcomes, since a failure there is a failure too.
    fn start(seed: u64, all: &mut Vec<OpOutcome>) -> Replay<W> {
        let workload = W::setup(seed);
        let mut client = workload.client(0);
        all.extend((0..WARM_OPS).map(|_| workload.run_op(&mut client)));
        Replay {
            workload,
            client,
            outcomes: Vec::new(),
            elapsed_ns: 0,
        }
    }

    fn step(&mut self, op: impl FnOnce(&W, &mut W::Client) -> OpOutcome) {
        let t0 = Instant::now();
        let outcome = op(&self.workload, &mut self.client);
        self.elapsed_ns += t0.elapsed().as_nanos() as u64;
        self.outcomes.push(outcome);
    }

    fn real_latency_ns(&self) -> u64 {
        self.outcomes.iter().map(|o| o.latency_ns).sum()
    }
}

/// What the service-API replay leaves behind.
struct ServiceSide {
    real_latency_ns: u64,
    before: ServiceStats,
    after: ServiceStats,
    ledger: LedgerSnapshot,
    alloc_bytes: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

pub fn traced_run<W: Workload>(seed: u64, seconds: f64, ops: usize) -> RunResult {
    // The kernels go first, while no service's threads exist.
    let kernel_values: BTreeMap<String, f64> = if W::NAME == XmarkCached::NAME {
        kernels::measure(seed, seconds)
    } else {
        kernels::NAMES
            .iter()
            .map(|name| (name.to_string(), 0.0))
            .collect()
    };

    let mut all: Vec<OpOutcome> = Vec::new();
    let mut service = Replay::<W>::start(seed, &mut all);
    let mut untraced = Replay::<W>::start(seed, &mut all);
    let mut traced = Replay::<W>::start(seed, &mut all);
    let mut tracer_off = Tracer::new(false);
    let mut tracer = Tracer::new(true);

    let before = service.workload.service().stats();
    for op_id in 0..ops as u64 {
        service.step(|w, c| w.run_op(c));
        untraced.step(|w, c| w.traced_op(c, &mut tracer_off));
        tracer.begin_op(op_id);
        traced.step(|w, c| w.traced_op(c, &mut tracer));
    }
    let after = service.workload.service().stats();
    let ledger = service.workload.service().ledger().snapshot();
    let scope = alloc_count::Scope::begin();
    for _ in 0..ops {
        service.step(|w, c| w.run_op(c));
    }
    let alloc_bytes = scope.allocated();
    drop(scope);
    let service_side = ServiceSide {
        real_latency_ns: service.outcomes[..ops].iter().map(|o| o.latency_ns).sum(),
        before,
        after,
        ledger,
        alloc_bytes,
    };
    for replay in [&service.outcomes, &untraced.outcomes, &traced.outcomes] {
        all.extend(replay);
    }
    let workload = &traced.workload;

    let mut values = derive(
        &tracer,
        &service_side,
        (untraced.elapsed_ns, untraced.real_latency_ns()),
        (traced.elapsed_ns, traced.real_latency_ns()),
        ops,
    );
    values.extend(kernel_values);

    let mut notes = vec![format!(
        "single client, three replays of {ops} operations taking turns, after {WARM_OPS} warm-up operations each"
    )];
    let path = results_dir().join(format!("trace_{}.json", W::NAME));
    let written = std::fs::create_dir_all(results_dir())
        .and_then(|()| std::fs::write(&path, tracer.to_json(W::NAME, seed).render()));
    match written {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => notes.push(format!("span file {} not written: {e}", path.display())),
    }
    // Where the traced replay's time went, by span name: self time is a
    // span's duration minus what its direct children cover.
    notes.push(format!(
        "{:44} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    ));
    for (name, t) in tracer.totals() {
        notes.push(format!(
            "{name:44} {:>7} {:>12.3} {:>12.3}",
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }

    // Every declared per-layer metric is printed for every workload; a
    // layer the workload bypasses reads 0 there. A declared name nothing
    // above computes is left out, and the caller reports it as missing.
    let metrics = declared("per_layer")
        .into_iter()
        .filter_map(|(name, unit)| {
            let value = *values.get(&name)?;
            let spread = 0.0;
            Some((
                name,
                Metric {
                    value,
                    unit,
                    spread,
                },
            ))
        })
        .collect();

    RunResult {
        attempted: all.len() as u64,
        failed: all.iter().filter(|o| !o.ok).count() as u64,
        metrics,
        notes,
        inputs: workload.describe(),
    }
}

/// Turn spans and counts into the per-layer metrics. Names here are the
/// names `BENCHMARK.json` declares; the table in `README.md` says which
/// end-to-end metric each should move, on which workload.
fn derive(
    tracer: &Tracer,
    svc: &ServiceSide,
    (untraced_ns, untraced_real_ns): (u64, u64),
    (traced_ns, traced_real_ns): (u64, u64),
    ops: usize,
) -> BTreeMap<String, f64> {
    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ns = |name: &str| get(name).total_ns as f64;
    // Total over every tag of a base name (`core.execute.Q1`, `.Q2`, …).
    let ns_any = |base: &str| -> Total {
        let prefix = format!("{base}.");
        totals
            .iter()
            .filter(|(k, _)| k.as_str() == base || k.starts_with(&prefix))
            .fold(Total::default(), |acc, (_, t)| Total {
                spans: acc.spans + t.spans,
                total_ns: acc.total_ns + t.total_ns,
                self_ns: acc.self_ns + t.self_ns,
            })
    };
    let mean_us = |t: Total| ratio(t.total_ns as f64, t.spans as f64) / 1e3;
    let cnt = |name: &str| tracer.counted(name) as f64;
    let ops_f = ops as f64;

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };

    // xmlparse, tokenstream
    let lex_bytes = cnt("xmlparse.lex_bytes");
    put(
        "xmlparse.lex_ns_per_byte",
        ratio(ns("probe.xmlparse.lex"), lex_bytes),
    );
    put(
        "xmlparse.serialize_ns_per_byte",
        ratio(ns("core.serialize"), cnt("core.output_bytes")),
    );
    // The pull adapter's own cost: its loop minus the lexing inside it.
    put(
        "tokenstream.tokenize_ns_per_byte",
        ratio(
            (ns("probe.tokenstream.pull") - ns("probe.xmlparse.lex")).max(0.0),
            lex_bytes,
        ),
    );
    let strings = cnt("tokenstream.string_tokens");
    put(
        "tokenstream.pool_hit_share",
        if strings > 0.0 {
            1.0 - cnt("tokenstream.pooled_strings") / strings
        } else {
            0.0
        },
    );
    put(
        "tokenstream.push_tokenize_ns_per_byte",
        ratio(
            ns("probe.tokenstream.push_tokenize"),
            cnt("tokenstream.push_bytes"),
        ),
    );

    // store, index, segment
    put(
        "store.load_ns_per_node",
        ratio(ns("probe.store.load"), cnt("store.nodes")),
    );
    put(
        "store.bytes_per_input_byte",
        ratio(cnt("store.doc_bytes"), cnt("store.load_bytes")),
    );
    put(
        "index.build_ns_per_node",
        ratio(ns("probe.index.build"), cnt("index.nodes")),
    );
    put(
        "index.bytes_per_node",
        ratio(cnt("index.bytes"), cnt("index.nodes")),
    );
    put(
        "segment.write_ns_per_byte",
        ratio(
            ns("probe.segment.encode") + ns("probe.segment.write"),
            cnt("segment.bytes"),
        ),
    );
    put(
        "segment.adopt_us",
        ratio(ns("probe.segment.adopt"), cnt("segment.adopts")) / 1e3,
    );
    put(
        "segment.bytes_per_input_byte",
        ratio(cnt("segment.bytes"), cnt("segment.input_bytes")),
    );

    // xqparser, compiler: one value per phase and template.
    let mut phase_sum = 0.0;
    for (metric, span) in COMPILE_PHASES {
        for tag in TEMPLATES {
            let t = get(&format!("{span}.{tag}"));
            phase_sum += t.total_ns as f64;
            put(&format!("{metric}.{tag}"), mean_us(t));
        }
    }
    put("compiler.rewrites_fired", cnt("compiler.rewrites_fired"));
    put(
        "compiler.phase_sum_vs_compile",
        ratio(phase_sum, ns_any("probe.compiler.compile").total_ns as f64),
    );

    // runtime, core
    for (id, _) in QUERIES {
        put(
            &format!("runtime.eval_us.{id}"),
            mean_us(get(&format!("core.execute.{id}"))),
        );
    }
    put(
        "runtime.index_hit_share",
        ratio(
            cnt("runtime.index_hits"),
            cnt("runtime.index_hits") + cnt("runtime.index_misses"),
        ),
    );
    put("core.execute_us", mean_us(ns_any("core.execute")));
    put("core.serialize_us", mean_us(get("core.serialize")));
    put("core.alloc_bytes_per_op", svc.alloc_bytes as f64 / ops_f);

    // subscribe, ingest
    put(
        "subscribe.automaton_ns_per_token",
        ratio(
            ns("probe.subscribe.automaton"),
            cnt("subscribe.tokens_seen"),
        ),
    );
    put(
        "subscribe.tokens_skipped_share",
        ratio(
            cnt("subscribe.tokens_skipped"),
            cnt("subscribe.tokens_seen") + cnt("subscribe.tokens_skipped"),
        ),
    );
    let publish = ns("subscribe.publish");
    let streamable = ns("probe.subscribe.publish_streamable");
    put("subscribe.shared_pass_share", ratio(streamable, publish));
    put(
        "subscribe.fallback_us_per_sub",
        ratio(
            (publish - streamable).max(0.0),
            cnt("subscribe.fallback_subs"),
        ) / 1e3,
    );
    put(
        "subscribe.publish_ns_per_byte",
        ratio(
            publish + ns("ingest.session"),
            cnt("subscribe.publish_bytes"),
        ),
    );
    let mut feeds = tracer.durations_ns("ingest.feed");
    feeds.sort_unstable();
    put(
        "ingest.feed_chunk_p50_us",
        if feeds.is_empty() {
            0.0
        } else {
            quantile(&feeds, 0.5) as f64 / 1e3
        },
    );
    put("ingest.finish_us", mean_us(get("ingest.finish")));
    put(
        "ingest.first_match_mean_us",
        ratio(cnt("ingest.first_match_ns"), cnt("ingest.sessions")) / 1e3,
    );

    // service: plan cache, catalog, pool hand-off
    put(
        "service.plan_hit_us",
        mean_us(get("service.plan_lookup.hit")),
    );
    put(
        "service.plan_miss_us",
        mean_us(get("service.plan_lookup.miss")),
    );
    let (b, a) = (&svc.before, &svc.after);
    put(
        "service.plan_hit_share",
        ratio(
            (a.plan_hits - b.plan_hits) as f64,
            (a.plan_lookups - b.plan_lookups) as f64,
        ),
    );
    put(
        "service.plan_evictions",
        (a.plan_evictions - b.plan_evictions) as f64,
    );
    put(
        "service.catalog_resolve_us",
        ratio(cnt("service.catalog_hit_ns"), cnt("service.catalog_hits")) / 1e3,
    );
    put(
        "service.catalog_readopt_us",
        ratio(
            cnt("service.catalog_readopt_ns"),
            cnt("service.catalog_readopts"),
        ) / 1e3,
    );
    put(
        "service.catalog_hit_share",
        ratio(
            cnt("service.catalog_hits"),
            cnt("service.catalog_hits") + cnt("service.catalog_readopts"),
        ),
    );
    put(
        "service.catalog_evictions",
        (a.catalog_evictions - b.catalog_evictions) as f64,
    );
    put(
        "service.load_ns_per_byte",
        ratio(ns("service.load_document"), cnt("service.load_bytes")),
    );
    // What going through `run()` costs beyond the four calls a worker
    // makes: admission, the queue, two thread hand-offs, the result copy.
    put(
        "service.submit_overhead_us",
        (svc.real_latency_ns as f64 - untraced_real_ns as f64) / ops_f / 1e3,
    );

    // parallel (the service's worker queue), pressure
    put(
        "parallel.queue_wait_mean_us",
        a.queue_wait_mean.as_nanos() as f64 / 1e3,
    );
    put(
        "parallel.queue_wait_p99_us",
        a.queue_wait_p99.as_nanos() as f64 / 1e3,
    );
    for cat in Category::ALL {
        put(
            &format!("pressure.peak_bytes.{}", cat.as_str()),
            svc.ledger.category(cat).peak as f64,
        );
    }
    put("pressure.transitions", svc.ledger.transitions() as f64);

    // trace: what recording costs, and where an operation's time goes.
    put(
        "trace.overhead_share",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64,
    );
    let real = traced_real_ns as f64;
    put(
        "trace.compile_share",
        ratio(ns_any("service.plan_lookup").total_ns as f64, real),
    );
    put(
        "trace.storage_share",
        ratio(
            LOAD_PROBES.iter().map(|p| ns(p)).sum(),
            ns("service.load_document"),
        ),
    );
    values
}
