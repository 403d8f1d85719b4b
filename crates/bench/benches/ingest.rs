//! E19: chunked ingestion — time-to-first-match and peak allocation,
//! push-fed chunks vs materialize-then-parse.
//!
//! Two claims under test:
//!
//! 1. **Time-to-first-match**: a standing subscription fed the document
//!    as chunks can act on its first match after a prefix of the bytes;
//!    the materialize-then-parse control cannot report anything until
//!    the whole document has been assembled and published.
//! 2. **Bounded memory**: a chunked publish whose subscriptions all
//!    ride the streamed pass holds O(lexer buffer) bytes regardless of
//!    document size, while the control holds the entire document (and
//!    its parse) at once. Measured with a tracking allocator, reported
//!    as peak-delta bytes next to the timing groups.
//!
//! Run with `cargo bench -p xqr-bench --bench ingest`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use xqr_core::Engine;
use xqr_subscribe::SubscriptionRegistry;
use xqr_xdm::Limits;

/// A tracking allocator: live bytes and the high-water mark, cheap
/// enough to leave on for the timing groups too.
struct PeakAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

#[allow(unsafe_code)] // the peak gauge is a global allocator: an unsafe trait impl
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = self.live.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

impl PeakAlloc {
    /// Peak-delta of `f` relative to the live bytes when it started.
    fn peak_delta(&self, f: impl FnOnce()) -> usize {
        let before = self.live.load(Ordering::Relaxed);
        self.peak.store(before, Ordering::Relaxed);
        f();
        self.peak.load(Ordering::Relaxed).saturating_sub(before)
    }
}

/// One log entry, ~40 bytes. The generator yields the document as
/// per-entry chunks so the chunked leg never materializes it.
fn entry(i: usize) -> String {
    format!("<entry><seq>{i}</seq><msg>payload {i}</msg></entry>")
}

fn registry_with(engine: &Engine, queries: &[&str]) -> SubscriptionRegistry {
    let reg = SubscriptionRegistry::new();
    for q in queries {
        let plan = engine.compile_shared(q).unwrap();
        reg.register(q, plan, Limits::unlimited(), None);
    }
    reg
}

/// Time-to-first-match: the needle sits right after the front of the
/// document; the tail is `entries` more of them. The chunked leg feeds
/// until the subscription reports a match, then stops — the control
/// must assemble and publish everything first.
fn bench_first_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_first_match");
    group.sample_size(10);
    let engine = Engine::new();
    let reg = registry_with(&engine, &["/log/needle"]);

    for entries in [1_000usize, 10_000, 50_000] {
        let chunks: Vec<String> = std::iter::once("<log><needle>hit</needle>".to_string())
            .chain((0..entries).map(entry))
            .chain(std::iter::once("</log>".to_string()))
            .collect();

        group.bench_with_input(
            BenchmarkId::new("chunked_until_match", entries),
            &chunks,
            |b, chunks| {
                b.iter(|| {
                    let mut session = reg.begin_publish(&engine, "log.xml", Limits::unlimited());
                    for c in chunks {
                        session.feed(c.as_bytes()).unwrap();
                        if session.matches_so_far() > 0 {
                            break;
                        }
                    }
                    // Acting on the first match: the session is simply
                    // dropped; nothing was delivered or stored yet.
                    session.matches_so_far()
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("materialize_then_publish", entries),
            &chunks,
            |b, chunks| {
                b.iter(|| {
                    let xml: String = chunks.concat();
                    let report = reg
                        .publish(&engine, "log.xml", &xml, Limits::unlimited())
                        .unwrap();
                    report.matches
                })
            },
        );
    }
    group.finish();
}

/// Full chunked publish vs whole-document publish, end to end — the
/// overhead of resumable lexing when the client *does* want the whole
/// report, not just the first match.
fn bench_full_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_full_publish");
    group.sample_size(10);
    let engine = Engine::new();
    let reg = registry_with(&engine, &["/log/entry/seq", "/log/needle"]);

    for entries in [10_000usize, 50_000] {
        let xml: String = std::iter::once("<log>".to_string())
            .chain((0..entries).map(entry))
            .chain(std::iter::once("</log>".to_string()))
            .collect();

        group.bench_with_input(BenchmarkId::new("chunked", entries), &xml, |b, xml| {
            b.iter(|| {
                reg.publish_chunked(
                    &engine,
                    "log.xml",
                    xml.as_bytes().chunks(4096),
                    Limits::unlimited(),
                )
                .unwrap()
                .matches
            })
        });

        group.bench_with_input(BenchmarkId::new("whole", entries), &xml, |b, xml| {
            b.iter(|| {
                reg.publish(&engine, "log.xml", xml, Limits::unlimited())
                    .unwrap()
                    .matches
            })
        });
    }
    group.finish();
}

/// Peak allocation, printed once: a generator-fed chunked publish holds
/// the lexer buffer; the control holds the whole document. The
/// subscription matches once, at the very end — the automaton works
/// over every element, but match *storage* (which any leg pays in
/// proportion to its result) stays out of the measurement.
fn report_peak_memory() {
    let entries = 200_000usize; // ~9.4 MiB of document text

    let engine = Engine::new();
    let reg = registry_with(&engine, &["/log/needle"]);

    let chunked = ALLOC.peak_delta(|| {
        let mut session = reg.begin_publish(&engine, "log.xml", Limits::unlimited());
        session.feed(b"<log>").unwrap();
        for i in 0..entries {
            session.feed(entry(i).as_bytes()).unwrap();
            if std::env::var_os("E19_DEBUG").is_some() && i % 50_000 == 0 {
                println!(
                    "  after {} entries: live {} KiB, session buffered {} B",
                    i,
                    ALLOC.live.load(Ordering::Relaxed) / 1024,
                    session.buffered_bytes()
                );
            }
        }
        session.feed(b"<needle>hit</needle></log>").unwrap();
        assert!(!session.needs_fallback_doc());
        let report = session
            .finish(&reg, &engine, |_| unreachable!("no fallback subscriptions"))
            .unwrap();
        assert_eq!(report.matches, 1);
    });

    let materialized = ALLOC.peak_delta(|| {
        let mut xml = String::from("<log>");
        for i in 0..entries {
            xml.push_str(&entry(i));
        }
        xml.push_str("<needle>hit</needle></log>");
        reg.publish(&engine, "log.xml", &xml, Limits::unlimited())
            .unwrap();
    });

    println!(
        "e19_peak_alloc: {entries} entries — chunked publish {} KiB vs \
         materialize-then-publish {} KiB ({:.1}x)",
        chunked / 1024,
        materialized / 1024,
        materialized as f64 / chunked.max(1) as f64
    );
}

fn bench_all(c: &mut Criterion) {
    report_peak_memory();
    bench_first_match(c);
    bench_full_publish(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
