//! E16: cold start from durable segments vs re-parse + re-index.
//!
//! The durability claim in one measurement: a restarted service used to
//! pay `parse(xml) + DocIndex::build(doc)` per document to rebuild its
//! corpus; with the segment store it pays `Segment::open` (file read +
//! checksum verification, no per-node work) up front and a binary
//! decode on first touch — the structural index is read back, never
//! rebuilt. Three rungs per document size:
//!
//! * `reparse` — the old cold start: XML parse + index build;
//! * `load`    — segment cold start: open + verify + decode the document
//!   and its index;
//! * `open`    — open + verify alone, document untouched (the part of a
//!   first touch that does no per-node work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xqr_index::DocIndex;
use xqr_segment::{segment_bytes, write_segment_file, Segment};
use xqr_store::Document;
use xqr_xdm::NamePool;
use xqr_xmlgen::bibliography;

struct Fixture {
    xml: String,
    path: PathBuf,
}

fn fixture(dir: &Path, books: usize) -> Fixture {
    let xml = bibliography(7, books);
    let names = Arc::new(NamePool::new());
    let doc = Document::parse_with_uri(&xml, names, Some("bib.xml")).unwrap();
    let index = DocIndex::build(&doc).unwrap();
    let bytes = segment_bytes(&doc, &index).unwrap();
    let file = format!("bib-{books}.seg");
    write_segment_file(dir, &file, &bytes).unwrap();
    Fixture {
        xml,
        path: dir.join(file),
    }
}

fn bench_cold_start(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("xqr-bench-segment-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut group = c.benchmark_group("e16_cold_start");
    for books in [1_000usize, 10_000] {
        let f = fixture(&dir, books);
        group.bench_with_input(BenchmarkId::new("reparse", books), &f, |b, f| {
            b.iter(|| {
                let names = Arc::new(NamePool::new());
                let doc = Document::parse_with_uri(&f.xml, names, Some("bib.xml")).unwrap();
                let index = DocIndex::build(&doc).unwrap();
                (doc.len(), index.entry_count())
            })
        });
        group.bench_with_input(BenchmarkId::new("load", books), &f, |b, f| {
            b.iter(|| {
                let seg = Segment::open(&f.path).unwrap();
                let names = Arc::new(NamePool::new());
                let (doc, index) = seg.load(&names).unwrap();
                (doc.len(), index.entry_count())
            })
        });
        group.bench_with_input(BenchmarkId::new("open", books), &f, |b, f| {
            b.iter(|| {
                let seg = Segment::open(&f.path).unwrap();
                (seg.node_count(), seg.file_bytes())
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_cold_start);
criterion_main!(benches);
