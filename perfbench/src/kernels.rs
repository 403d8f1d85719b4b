//! Layer kernels no service operation isolates: the path dictionary
//! lookup, the two structural join algorithms, and the morsel-parallel
//! twig join against its serial base. Measured in the traced run of
//! `xmark_cached` — the workload whose queries sit on them — before its
//! services exist, each called in a loop for an equal share of a tenth of
//! `--seconds`, median call reported.

use crate::runner::median;
use crate::workloads::xmark_cached::{auction_xml, DOC};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xqr_core::Engine;
use xqr_joins::{stack_tree_desc, twig_stack, EdgeKind, JoinKind, Labeled, TwigPattern};
use xqr_parallel::{parallel_twig_stack, ParallelConfig};
use xqr_store::Document;
use xqr_xdm::{NamePool, QName, QueryGuard};
use xqr_xmlgen::{random_tree, RandomTreeConfig};

/// Every metric this module produces; the other workloads report 0.
pub const NAMES: [&str; 8] = [
    "index.path_lookup_ns",
    "joins.stack_tree_ns_per_input",
    "joins.twig_stack_ns_per_input",
    "joins.twig_intermediate_per_output",
    "parallel.serial_twig_us",
    "parallel.morsel_speedup_2t",
    "parallel.small_split_overhead",
    "parallel.cores",
];

const KERNELS: u32 = 6;

/// Median nanoseconds of one call of `f`, calling it for `budget`.
fn median_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < 5 || t0.elapsed() < budget {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_nanos() as f64);
    }
    median(&mut times)
}

/// E18's fixture: a random tree and the lists of the twig `//t0[t1]//t2`.
fn twig_fixture(seed: u64, nodes: usize) -> (TwigPattern, Vec<Arc<Vec<Labeled>>>) {
    let names = Arc::new(NamePool::new());
    let xml = random_tree(&RandomTreeConfig {
        seed,
        nodes,
        max_depth: 12,
        alphabet: 3,
        p_ancestor: 0.2,
        p_descendant: 0.25,
        ..Default::default()
    });
    let doc = Document::parse(&xml, names.clone()).expect("a generated tree parses");
    let twig = TwigPattern::parse("//t0[t1]//t2", &names).expect("the twig parses");
    let lists = twig
        .nodes
        .iter()
        .map(|n| Arc::new(xqr_joins::element_list(&doc, n.name)))
        .collect();
    (twig, lists)
}

/// The twig join under `config`, timed once.
fn twig_join_ns(twig: &TwigPattern, lists: &[Arc<Vec<Labeled>>], config: ParallelConfig) -> f64 {
    let guard = QueryGuard::unlimited();
    let t = Instant::now();
    black_box(parallel_twig_stack(twig, lists.to_vec(), &config, &guard).expect("the join runs"));
    t.elapsed().as_nanos() as f64
}

/// Serial and `other` configurations of the same join, taking turns for
/// `budget`: the median serial time and the median of the per-pair ratios
/// serial / other. Pairing keeps the sandbox's slow drifts out of the
/// ratio.
fn serial_against(
    budget: Duration,
    twig: &TwigPattern,
    lists: &[Arc<Vec<Labeled>>],
    other: ParallelConfig,
) -> (f64, f64) {
    let (mut serial, mut ratios) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while ratios.len() < 5 || t0.elapsed() < budget {
        let base = twig_join_ns(twig, lists, ParallelConfig::off());
        ratios.push(base / twig_join_ns(twig, lists, other));
        serial.push(base);
    }
    (median(&mut serial), median(&mut ratios))
}

pub fn measure(seed: u64, seconds: f64) -> BTreeMap<String, f64> {
    let budget = Duration::from_secs_f64(seconds / 10.0) / KERNELS;
    let mut out = BTreeMap::new();

    let engine = Engine::new();
    let id = engine
        .load_document(DOC, &auction_xml(seed))
        .expect("the generated auction document loads");
    let index = xqr_index::index_of(engine.store(), id).expect("loaded documents are indexed");
    let name = |local: &str| engine.names().intern(&QName::local(local));

    let person_path = [
        (EdgeKind::Child, name("site")),
        (EdgeKind::Child, name("people")),
        (EdgeKind::Child, name("person")),
    ];
    out.insert(
        "index.path_lookup_ns".to_string(),
        median_ns(budget, || index.linear_elements(&person_path)),
    );

    let auctions = index.element_labels(name("open_auction"));
    let increases = index.element_labels(name("increase"));
    out.insert(
        "joins.stack_tree_ns_per_input".to_string(),
        median_ns(budget, || {
            stack_tree_desc(auctions, increases, JoinKind::AncestorDescendant)
        }) / (auctions.len() + increases.len()) as f64,
    );

    let twig = TwigPattern::parse("//open_auction[seller]//increase", engine.names())
        .expect("the twig parses");
    let lists: Vec<Vec<Labeled>> = twig
        .nodes
        .iter()
        .map(|n| index.element_labels(n.name).to_vec())
        .collect();
    let inputs: usize = lists.iter().map(Vec::len).sum();
    out.insert(
        "joins.twig_stack_ns_per_input".to_string(),
        median_ns(budget, || twig_stack(&twig, &lists)) / inputs as f64,
    );
    let (_, stats) = twig_stack(&twig, &lists);
    out.insert(
        "joins.twig_intermediate_per_output".to_string(),
        stats.path_solutions as f64 / stats.merged.max(1) as f64,
    );

    // E18 on this host's cores: the same twig with parallel joins off and
    // with the default configuration, and the honest negative — a forced
    // split of a document far below `min_split`.
    let (twig, lists) = twig_fixture(seed, 120_000);
    let (serial, speedup) = serial_against(budget * 2, &twig, &lists, ParallelConfig::default());
    out.insert("parallel.serial_twig_us".to_string(), serial / 1e3);
    out.insert("parallel.morsel_speedup_2t".to_string(), speedup);
    let (twig, lists) = twig_fixture(seed, 300);
    let (_, speedup) = serial_against(budget, &twig, &lists, ParallelConfig::forced(2));
    out.insert("parallel.small_split_overhead".to_string(), 1.0 / speedup);
    out.insert(
        "parallel.cores".to_string(),
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    out
}
