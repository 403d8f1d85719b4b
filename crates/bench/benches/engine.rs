//! E7/E8/E9 micro-benchmarks: optimizer ablation, compilation phases,
//! and the customer transformation vs its baselines.

use criterion::{criterion_group, BenchmarkId, Criterion};
use xqr_bench::experiments::{customer_query, dom_baseline_transform, giant_customer_query};
use xqr_compiler::{Family, RewriteConfig};
use xqr_core::{CompileOptions, DynamicContext, Engine, EngineOptions};
use xqr_runtime::RuntimeOptions;
use xqr_xmlgen::{bibliography, trading_partners};

fn bench_rewrite_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_ablation");
    group.sample_size(15);
    let bib = bibliography(3, 300);
    let q = "for $a in doc(\"bib.xml\")//book return for $b in doc(\"bib.xml\")//book \
             return if ($a/publisher = $b/publisher and $a/@year = 1967) then $b/title else ()";
    for (label, cfg) in [
        ("all_rules", RewriteConfig::all()),
        (
            "no_join_detection",
            RewriteConfig::without(Family::JoinDetection),
        ),
        (
            "no_ddo_elimination",
            RewriteConfig::without(Family::DdoElimination),
        ),
        ("no_rules", RewriteConfig::none()),
    ] {
        let engine = Engine::with_options(EngineOptions {
            compile: CompileOptions {
                rewrite: cfg,
                ..Default::default()
            },
            runtime: RuntimeOptions::default(),
            ..Default::default()
        });
        engine.load_document("bib.xml", &bib).unwrap();
        let prepared = engine.compile(q).unwrap();
        prepared.execute(&engine, &DynamicContext::new()).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                prepared
                    .execute(&engine, &DynamicContext::new())
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_compile_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_compile");
    let giant = giant_customer_query();
    for (label, q) in [("tiny", "1 + 2"), ("giant", giant.as_str())] {
        group.bench_with_input(BenchmarkId::new("parse", label), &q, |b, q| {
            b.iter(|| xqr_xqparser::parse_query(q).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("full_compile", label), &q, |b, q| {
            b.iter(|| xqr_compiler::compile(q, &xqr_compiler::CompileOptions::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_transformation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_transform");
    group.sample_size(15);
    let xml = trading_partners(9, 40);
    let engine = Engine::new();
    engine.load_document("ebsample.xml", &xml).unwrap();
    let q = engine.compile(customer_query()).unwrap();
    q.execute(&engine, &DynamicContext::new()).unwrap();
    group.bench_function("engine_optimized", |b| {
        b.iter(|| q.execute(&engine, &DynamicContext::new()).unwrap().len())
    });
    let engine2 = Engine::with_options(EngineOptions::unoptimized());
    engine2.load_document("ebsample.xml", &xml).unwrap();
    let q2 = engine2.compile(customer_query()).unwrap();
    q2.execute(&engine2, &DynamicContext::new()).unwrap();
    group.bench_function("engine_unoptimized", |b| {
        b.iter(|| q2.execute(&engine2, &DynamicContext::new()).unwrap().len())
    });
    group.bench_function("dom_transformer", |b| {
        b.iter(|| dom_baseline_transform(&xml).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rewrite_ablation,
    bench_compile_phases,
    bench_transformation
);
fn main() {
    // CI sets XQR_REQUIRE_FAULTS_OFF=1 to prove that benchmark builds
    // carry the no-op faultpoint macros, not the injection machinery: a
    // bench binary that can inject faults is also paying for armed()
    // checks on every measured hot path.
    if std::env::var_os("XQR_REQUIRE_FAULTS_OFF").is_some() {
        assert!(
            !xqr_faults::compiled_with_failpoints(),
            "bench build was compiled with the failpoints feature"
        );
        // ...and that the thread hand-offs then carry nothing.
        assert_eq!(std::mem::size_of::<xqr_faults::FaultScope>(), 0);
        assert_eq!(std::mem::size_of::<xqr_faults::FaultGuard>(), 0);
    }
    benches();
}
