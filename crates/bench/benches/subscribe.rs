//! E17: standing continuous queries — one shared-automaton publish vs N
//! independent streaming passes.
//!
//! The claim under test: matching a subscription set against a document
//! costs one tokenization pass plus automaton work that scales with the
//! *shared-prefix trie*, not with the subscription count. The control
//! runs the same N patterns as N independent single-pattern passes,
//! each re-tokenizing the document.
//!
//! The `disjoint` group is the honest negative: patterns with no common
//! prefix build a wide trie whose root fan-out every element must be
//! checked against, so the combined pass's per-element cost grows with
//! N even though it still tokenizes once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xqr_core::Engine;
use xqr_runtime::{run_document, CombinedAutomaton};
use xqr_subscribe::SubscriptionRegistry;
use xqr_tokenstream::Tokenizer;
use xqr_xdm::Limits;

/// A feed-shaped document: `items` entries under a shared `/feed/item`
/// spine, each carrying a handful of the `f0..f{width}` field tags the
/// subscription set selects on, plus text payload.
fn feed(items: usize, width: usize) -> String {
    let mut xml = String::with_capacity(items * 64);
    xml.push_str("<feed>");
    for i in 0..items {
        xml.push_str("<item>");
        // Each item carries 4 of the field tags, rotating so every
        // field appears in roughly items*4/width entries.
        for k in 0..4 {
            let f = (i * 4 + k) % width;
            xml.push_str(&format!("<f{f}>payload {i}.{k}</f{f}>"));
        }
        xml.push_str("</item>");
    }
    xml.push_str("</feed>");
    xml
}

/// N shared-prefix subscriptions: `/feed/item/f{i}` — the trie shares
/// the two-step spine, fanning out only at the leaves.
fn shared_prefix_queries(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("/feed/item/f{i}")).collect()
}

/// N disjoint subscriptions: `//f{i}` — descendant steps at the root,
/// no shared prefix, maximal live fan-out at every element.
fn disjoint_queries(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("//f{i}")).collect()
}

fn bench_publish_vs_independent(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_publish");
    group.sample_size(10);
    let xml = feed(2_000, 256);
    for n in [16usize, 64, 256] {
        let queries = shared_prefix_queries(n);

        // One publish: shared tokenization + combined automaton.
        group.bench_with_input(BenchmarkId::new("combined_publish", n), &xml, |b, xml| {
            let engine = Engine::new();
            let reg = SubscriptionRegistry::new();
            for q in &queries {
                let plan = engine.compile_shared(q).unwrap();
                reg.register(q, plan, Limits::unlimited(), None);
            }
            b.iter(|| {
                let report = reg
                    .publish(&engine, "feed.xml", xml, Limits::unlimited())
                    .unwrap();
                report.matches
            })
        });

        // The control: N independent single-pattern streaming passes,
        // each re-tokenizing the document from scratch.
        group.bench_with_input(BenchmarkId::new("independent_passes", n), &xml, |b, xml| {
            let engine = Engine::new();
            let plans: Vec<_> = queries
                .iter()
                .map(|q| engine.compile_shared(q).unwrap())
                .collect();
            b.iter(|| {
                let mut matches = 0u64;
                for plan in &plans {
                    plan.execute_streaming(&engine, xml, |_| matches += 1)
                        .unwrap();
                }
                matches
            })
        });
    }
    group.finish();
}

fn bench_automaton_scaling(c: &mut Criterion) {
    // The raw combined pass (no registry, no delivery) so the scaling
    // curve isolates automaton cost: shared-prefix vs disjoint fan-out.
    let mut group = c.benchmark_group("e17_automaton");
    group.sample_size(10);
    let xml = feed(2_000, 256);
    for n in [16usize, 64, 256] {
        for (shape, queries) in [
            ("shared", shared_prefix_queries(n)),
            ("disjoint", disjoint_queries(n)),
        ] {
            let engine = Engine::new();
            let patterns: Vec<_> = queries
                .iter()
                .map(|q| {
                    engine
                        .compile_shared(q)
                        .unwrap()
                        .stream_pattern()
                        .expect("streamable")
                        .clone()
                })
                .collect();
            let automaton = CombinedAutomaton::build(&patterns);
            group.bench_function(BenchmarkId::new(shape, n), |b| {
                b.iter(|| {
                    let mut it = Tokenizer::new(&xml, engine.names().clone());
                    let outcome = run_document(&automaton, &mut it, |_, _| Ok(())).unwrap();
                    outcome.stats.matches
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_publish_vs_independent,
    bench_automaton_scaling
);
criterion_main!(benches);
