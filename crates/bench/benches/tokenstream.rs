//! E4/E11/E12 micro-benchmarks: wire encoding with/without pooling,
//! construction pipelines, buffer sharing and memoization.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use xqr_core::{DynamicContext, Engine, EngineOptions};
use xqr_runtime::RuntimeOptions;
use xqr_tokenstream::{decode, drain, encode, BufferFactory, TokenStream, Tokenizer};
use xqr_xdm::NamePool;
use xqr_xmlgen::{auction_site, XmarkConfig};

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_encoding");
    let xml = auction_site(&XmarkConfig::scaled(2_000));
    let stream = TokenStream::from_xml(&xml, Arc::new(NamePool::new())).unwrap();
    group.bench_function("encode_pooled", |b| b.iter(|| encode(&stream, true).len()));
    group.bench_function("encode_unpooled", |b| {
        b.iter(|| encode(&stream, false).len())
    });
    let pooled = encode(&stream, true);
    group.bench_function("decode_pooled", |b| {
        b.iter(|| {
            decode(pooled.clone(), Arc::new(NamePool::new()))
                .unwrap()
                .len()
        })
    });
    group.finish();
}

fn bench_buffer_sharing(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_sharing");
    group.sample_size(20);
    let xml = auction_site(&XmarkConfig::scaled(1_000));
    let names = Arc::new(NamePool::new());
    group.bench_function("three_consumers_buffered", |b| {
        b.iter(|| {
            let f = BufferFactory::new(Tokenizer::new(&xml, names.clone()));
            let mut total = 0usize;
            for _ in 0..3 {
                total += drain(&mut f.consumer()).unwrap();
            }
            total
        })
    });
    group.bench_function("three_consumers_reparsed", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..3 {
                total += drain(&mut Tokenizer::new(&xml, names.clone())).unwrap();
            }
            total
        })
    });
    group.finish();
}

fn bench_memoization(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_memoization");
    group.sample_size(15);
    let q = "declare function local:fib($n as xs:integer) as xs:integer {
               if ($n lt 2) then $n else local:fib($n - 1) + local:fib($n - 2)
             }; local:fib(18)";
    let plain = Engine::new();
    let prepared = plain.compile(q).unwrap();
    group.bench_function("fib18_plain", |b| {
        b.iter(|| {
            prepared
                .execute(&plain, &DynamicContext::new())
                .unwrap()
                .len()
        })
    });
    let memo = Engine::with_options(EngineOptions {
        compile: Default::default(),
        runtime: RuntimeOptions {
            memoize_functions: true,
            ..Default::default()
        },
        ..Default::default()
    });
    let prepared_m = memo.compile(q).unwrap();
    group.bench_function("fib18_memoized", |b| {
        b.iter(|| {
            prepared_m
                .execute(&memo, &DynamicContext::new())
                .unwrap()
                .len()
        })
    });
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    // E11's construction pipelines.
    let mut group = c.benchmark_group("e11_construction");
    group.sample_size(20);
    let engine = Engine::new();
    let no_ids = engine
        .compile("for $i in 1 to 200 return <item n=\"{$i}\">{$i}</item>")
        .unwrap();
    let with_ids = engine
        .compile("count((for $i in 1 to 200 return <i/>) | (for $i in 1 to 200 return <i/>))")
        .unwrap();
    group.bench_function("construct_no_identity", |b| {
        b.iter(|| {
            no_ids
                .execute(&engine, &DynamicContext::new())
                .unwrap()
                .len()
        })
    });
    group.bench_function("construct_with_identity_ops", |b| {
        b.iter(|| {
            with_ids
                .execute(&engine, &DynamicContext::new())
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_encoding,
    bench_buffer_sharing,
    bench_memoization,
    bench_construction
);
criterion_main!(benches);
