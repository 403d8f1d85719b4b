//! Plan-cache benchmark: what a cache hit is worth.
//!
//! Three rungs per query shape:
//! * `cold_compile`   — full parse → normalize → typecheck → optimize,
//!   what every query pays without a cache;
//! * `cache_hit`      — the sharded-LRU lookup returning an `Arc` to the
//!   already-compiled plan;
//! * `execute_only`   — running the prepared plan, the floor a perfect
//!   cache approaches.
//!
//! A fourth group measures the full service path (admission + cache +
//! worker pool + stats) against bare `Engine::query` to price the
//! service layer itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use xqr_core::{DynamicContext, Engine};
use xqr_pressure::MemoryLedger;
use xqr_service::{PlanCache, QueryService, ServiceConfig};
use xqr_xmlgen::bibliography;

const QUERIES: &[(&str, &str)] = &[
    ("tiny", "1 + 1"),
    ("path", r#"count(doc("bib.xml")//book/title)"#),
    (
        "flwor",
        r#"for $b in doc("bib.xml")//book
           where xs:decimal($b/price) < 50
           order by string($b/title)
           return <cheap>{string($b/title)}</cheap>"#,
    ),
];

fn bench_compile_vs_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_cache");
    let engine = Engine::new();
    engine
        .load_document("bib.xml", &bibliography(2, 100))
        .unwrap();

    for (label, q) in QUERIES {
        group.bench_with_input(BenchmarkId::new("cold_compile", label), q, |b, q| {
            b.iter(|| engine.compile(q).unwrap())
        });

        let cache = PlanCache::new(64, 8, Arc::new(MemoryLedger::unbounded()));
        cache.get_or_compile(&engine, q).unwrap();
        group.bench_with_input(BenchmarkId::new("cache_hit", label), q, |b, q| {
            b.iter(|| cache.get_or_compile(&engine, q).unwrap())
        });

        let prepared = engine.compile(q).unwrap();
        group.bench_with_input(
            BenchmarkId::new("execute_only", label),
            &prepared,
            |b, p| b.iter(|| p.execute(&engine, &DynamicContext::new()).unwrap().len()),
        );
    }
    group.finish();
}

fn bench_service_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_path");
    let bib = bibliography(2, 100);
    let q = r#"count(doc("bib.xml")//book)"#;

    let engine = Engine::new();
    engine.load_document("bib.xml", &bib).unwrap();
    group.bench_function("engine_query", |b| b.iter(|| engine.query(q).unwrap()));

    let service = QueryService::new(ServiceConfig::default());
    service.load_document("bib.xml", &bib).unwrap();
    service.run(q).unwrap(); // warm the cache
    group.bench_function("service_run", |b| b.iter(|| service.run(q).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_compile_vs_hit, bench_service_overhead);
criterion_main!(benches);
