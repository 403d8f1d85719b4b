//! E15: index-backed access paths vs scan-fed joins vs navigation.
//!
//! The question the structural index answers: how much of a structural
//! or twig join's cost is *building its input lists*? A scan-fed join
//! walks the whole document per query to materialize each name's label
//! list; the index hands out the same lists as pre-built slices, and the
//! path dictionary collapses linear patterns to a lookup with no join at
//! all. Two document regimes: `bib` (regular — the path dictionary has a
//! handful of entries, the DataGuide assumption) and `rand` (adversarial
//! — thousands of distinct paths).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use xqr_core::{DynamicContext, Engine, EngineOptions};
use xqr_index::{DocIndex, PathStep};
use xqr_joins::{
    element_list, enumerate_matches, stack_tree_desc, twig_stack, EdgeKind, JoinKind, Labeled,
    TwigPattern,
};
use xqr_store::Document;
use xqr_xdm::{NameId, NamePool, QName};
use xqr_xmlgen::{bibliography, random_tree, RandomTreeConfig};

struct Fixture {
    doc: Arc<Document>,
    names: Arc<NamePool>,
    index: DocIndex,
}

fn fixture(xml: &str) -> Fixture {
    let names = Arc::new(NamePool::new());
    let doc = Document::parse(xml, names.clone()).unwrap();
    let index = DocIndex::build(&doc).unwrap();
    Fixture { doc, names, index }
}

fn rand_xml(nodes: usize) -> String {
    random_tree(&RandomTreeConfig {
        nodes,
        p_ancestor: 0.15,
        p_descendant: 0.2,
        ..Default::default()
    })
}

fn name(f: &Fixture, local: &str) -> NameId {
    f.names.intern(&QName::local(local))
}

/// Linear patterns: scan + structural join vs index-fed join vs a pure
/// path dictionary lookup vs navigation.
fn bench_linear(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_linear_access_path");
    let cases = [
        ("bib", fixture(&bibliography(7, 5_000)), "author", "last"),
        ("rand", fixture(&rand_xml(50_000)), "a", "d"),
    ];
    for (label, f, anc, desc) in &cases {
        let (a, d) = (name(f, anc), name(f, desc));
        let steps: Vec<PathStep> = vec![(EdgeKind::Descendant, a), (EdgeKind::Descendant, d)];
        group.bench_with_input(BenchmarkId::new("scan+join", label), &(), |b, _| {
            b.iter(|| {
                let alist = element_list(&f.doc, a);
                let dlist = element_list(&f.doc, d);
                stack_tree_desc(&alist, &dlist, JoinKind::AncestorDescendant).len()
            })
        });
        group.bench_with_input(BenchmarkId::new("index-fed join", label), &(), |b, _| {
            b.iter(|| {
                let alist = f.index.element_labels(a);
                let dlist = f.index.element_labels(d);
                stack_tree_desc(alist, dlist, JoinKind::AncestorDescendant).len()
            })
        });
        group.bench_with_input(BenchmarkId::new("path-dict lookup", label), &(), |b, _| {
            b.iter(|| f.index.linear_elements(&steps).len())
        });
        group.bench_with_input(BenchmarkId::new("navigation", label), &(), |b, _| {
            let twig = TwigPattern::parse(&format!("//{anc}//{desc}"), &f.names).unwrap();
            b.iter(|| enumerate_matches(&f.doc, &twig).len())
        });
    }
    group.finish();
}

/// Branching twigs: scan-fed vs index-fed vs path-prefiltered holistic
/// joins vs navigation.
fn bench_twig(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_twig_access_path");
    let cases = [
        (
            "bib",
            fixture(&bibliography(7, 5_000)),
            "//book[author]/price",
        ),
        ("rand", fixture(&rand_xml(50_000)), "//a[t0]/d"),
    ];
    for (label, f, pattern) in &cases {
        let twig = TwigPattern::parse(pattern, &f.names).unwrap();
        let twig_names: Vec<NameId> = twig.nodes.iter().map(|n| n.name).collect();
        // Root chains for the path prefilter, as access-path answering
        // builds them (trunk root `//x`, branches `//x/y`).
        let chains: Vec<Vec<PathStep>> = vec![
            vec![(EdgeKind::Descendant, twig_names[0])],
            vec![
                (EdgeKind::Descendant, twig_names[0]),
                (EdgeKind::Child, twig_names[1]),
            ],
            vec![
                (EdgeKind::Descendant, twig_names[0]),
                (EdgeKind::Child, twig_names[2]),
            ],
        ];
        group.bench_with_input(BenchmarkId::new("scan+twig_stack", label), &(), |b, _| {
            b.iter(|| {
                let lists: Vec<Vec<Labeled>> = twig_names
                    .iter()
                    .map(|&n| element_list(&f.doc, n))
                    .collect();
                twig_stack(&twig, &lists).0.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("index+twig_stack", label), &(), |b, _| {
            b.iter(|| {
                let lists: Vec<Vec<Labeled>> = twig_names
                    .iter()
                    .map(|&n| f.index.element_labels(n).to_vec())
                    .collect();
                twig_stack(&twig, &lists).0.len()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("index+path-prefilter+twig_stack", label),
            &(),
            |b, _| {
                b.iter(|| {
                    let lists: Vec<Vec<Labeled>> = chains
                        .iter()
                        .map(|chain| f.index.linear_elements(chain))
                        .collect();
                    twig_stack(&twig, &lists).0.len()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("navigation", label), &(), |b, _| {
            b.iter(|| enumerate_matches(&f.doc, &twig).len())
        });
    }
    group.finish();
}

/// End to end through the engine: the same prepared query against an
/// indexed document, an unindexed one (IndexScan falls back), and the
/// fully unoptimized baseline.
fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_engine_access_path");
    let bib = bibliography(7, 5_000);
    let configs: [(&str, EngineOptions); 3] = [
        ("indexed", EngineOptions::default()),
        (
            "fallback-navigation",
            EngineOptions {
                index_documents: false,
                ..Default::default()
            },
        ),
        ("unoptimized", EngineOptions::unoptimized()),
    ];
    for (q_label, q) in [
        ("twig", r#"count(doc("bib.xml")//book[author]/price)"#),
        ("linear", r#"count(doc("bib.xml")//author/last)"#),
    ] {
        for (label, opts) in &configs {
            let engine = Engine::with_options(opts.clone());
            engine.load_document("bib.xml", &bib).unwrap();
            let plan = engine.compile(q).unwrap();
            let ctx = DynamicContext::new();
            group.bench_with_input(BenchmarkId::new(*label, q_label), &(), |b, _| {
                b.iter(|| plan.execute(&engine, &ctx).unwrap().len())
            });
        }
    }
    group.finish();
}

/// What a catalog load pays to build the index in the first place.
fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_index_build");
    for (label, xml) in [
        ("bib5000", bibliography(7, 5_000)),
        ("rand50000", rand_xml(50_000)),
    ] {
        let f = fixture(&xml);
        group.bench_with_input(BenchmarkId::new("build", label), &(), |b, _| {
            b.iter(|| DocIndex::build(&f.doc).unwrap().entry_count())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_linear, bench_twig, bench_engine, bench_build);
criterion_main!(benches);
