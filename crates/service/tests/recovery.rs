//! Catalog recovery integration tests: crash-safety, quarantine through
//! the query path, byte accounting for quarantined segments, and
//! manifest replay edge cases observed at the catalog level. The
//! kill-and-recover harness (`harness recover`) sweeps the
//! same ground with seeded schedules; these tests pin the individual
//! contracts.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_pressure::MemoryLedger;
use xqr_segment::{segment_bytes, write_segment_file, Manifest, ManifestRecord};
use xqr_service::{DocumentCatalog, QueryService, ServiceConfig};
use xqr_store::{Document, Store};
use xqr_xdm::{ErrorCode, NamePool};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xqr-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        persist_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

/// A persistent, unindexed catalog over `dir` on a ledger of its own.
fn persistent(store: Arc<Store>, max_bytes: Option<u64>, dir: &Path) -> Arc<DocumentCatalog> {
    let ledger = Arc::new(MemoryLedger::unbounded());
    DocumentCatalog::open(store, max_bytes, None, Some(dir.to_path_buf()), ledger).unwrap()
}

/// An in-place change to a segment file's bytes.
type Edit = fn(&mut [u8]);

/// Rewrite the only `.seg` file under `dir` through `edit`.
fn edit_segment(dir: &Path, edit: Edit) {
    let seg = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("a segment file");
    let mut bytes = std::fs::read(&seg).unwrap();
    edit(&mut bytes);
    std::fs::write(&seg, bytes).unwrap();
}

fn flip_middle_byte(bytes: &mut [u8]) {
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
}

/// Flip one byte in the only `.seg` file under `dir`.
fn flip_a_byte(dir: &Path) {
    edit_segment(dir, flip_middle_byte);
}

#[test]
fn byte_flip_surfaces_as_coded_quarantine_through_queries() {
    // A flipped body byte, and a head whose format-version byte (offset 7)
    // names version 1, which this build does not read.
    let cases: [(&str, Edit, &str); 2] = [
        ("bitflip-query", flip_middle_byte, "checksum mismatch"),
        (
            "version-query",
            |bytes| bytes[7] = 0x01,
            "version 1 unsupported",
        ),
    ];
    for (name, edit, message) in cases {
        let dir = scratch(name);
        {
            let service = QueryService::open(config(&dir)).unwrap();
            service
                .load_document("a.xml", "<a><b>text</b></a>")
                .unwrap();
        }
        edit_segment(&dir, edit);

        let service = QueryService::open(config(&dir)).unwrap();
        // The corruption is discovered on first touch and reported with
        // the stable code — not as "document not found", not as a panic.
        let err = service.run(r#"doc("a.xml")"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::CorruptSegment, "{name}: {err}");
        assert!(!err.is_retryable(), "corruption is not transient: {err}");
        assert!(err.message.contains(message), "{name}: {err}");
        // Quarantine is sticky: the next touch fails the same way without
        // re-reading the segment.
        let err = service.run(r#"count(doc("a.xml")//b)"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::CorruptSegment, "{name}");
        assert_eq!(service.stats().segments_quarantined, 1, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn quarantined_bytes_are_a_gauge_not_a_budget_charge() {
    let dir = scratch("quarantine-accounting");
    let file_len;
    {
        let store = Store::new();
        let catalog = persistent(store, None, &dir);
        catalog.put("a.xml", "<a><b/><b/><c>txt</c></a>").unwrap();
        file_len = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "seg"))
            .unwrap()
            .metadata()
            .unwrap()
            .len();
    }
    flip_a_byte(&dir);

    let store = Store::new();
    let catalog = persistent(store, None, &dir);
    // Adopted but untouched: on-disk entries charge nothing.
    assert_eq!(catalog.total_bytes(), 0);
    let err = catalog.resolve("a.xml").unwrap_err();
    assert_eq!(err.code, ErrorCode::CorruptSegment);
    // Regression: a quarantined entry holds no memory, so it charges
    // nothing against `catalog_max_bytes` — a poisoned segment must not
    // permanently shrink the effective capacity for healthy documents.
    // Its disk footprint is visible in the dedicated gauge instead.
    assert_eq!(catalog.total_bytes(), 0);
    assert_eq!(catalog.stats().quarantined_bytes, file_len);
    assert_eq!(catalog.stats().segments_quarantined, 1);
    assert!(catalog.contains("a.xml"), "quarantined, not forgotten");

    assert!(catalog.remove("a.xml"));
    assert_eq!(catalog.total_bytes(), 0);
    assert_eq!(catalog.stats().quarantined_bytes, 0, "gauge released");
    assert!(!catalog.contains("a.xml"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_does_not_shrink_effective_capacity() {
    let dir = scratch("quarantine-capacity");
    {
        let store = Store::new();
        let catalog = persistent(store, None, &dir);
        catalog.put("bad.xml", "<a><b/><b/><c>txt</c></a>").unwrap();
    }
    flip_a_byte(&dir);

    // A budget sized for one healthy document. If the quarantined
    // segment's disk bytes were still charged, this load would thrash or
    // evict the healthy document immediately.
    let store = Store::new();
    let catalog = persistent(store.clone(), Some(64 * 1024), &dir);
    assert_eq!(
        catalog.resolve("bad.xml").unwrap_err().code,
        ErrorCode::CorruptSegment
    );
    let id = catalog.put("good.xml", "<g>healthy</g>").unwrap();
    assert_eq!(catalog.get("good.xml"), Some(id), "stays resident");
    assert_eq!(catalog.stats().evictions, 0, "no pressure from quarantine");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_generation_records_replay_idempotently() {
    let dir = scratch("dup-generation");
    // Hand-author a manifest whose Add record is duplicated — the shape
    // a crash between append and ack can leave after a blind retry.
    let names = Arc::new(NamePool::new());
    let doc = Document::parse_with_uri("<a><b/></a>", names, Some("a.xml")).unwrap();
    let index = xqr_index::DocIndex::build(&doc).unwrap();
    let bytes = segment_bytes(&doc, &index).unwrap();
    let manifest = Manifest::open(&dir).unwrap();
    write_segment_file(&dir, "seg-1.seg", &bytes).unwrap();
    for _ in 0..2 {
        manifest
            .append(&ManifestRecord::Add {
                generation: 1,
                file: "seg-1.seg".into(),
                uri: "a.xml".into(),
            })
            .unwrap();
    }

    let store = Store::new();
    let catalog = persistent(store, None, &dir);
    assert_eq!(catalog.len(), 1, "one live document, not two");
    let id = catalog.get("a.xml").expect("reloads");
    assert!(id.index() < u32::MAX);
    assert_eq!(catalog.stats().segments_recovered, 1);
    // New generations allocate past the duplicate, not on top of it.
    catalog.put("b.xml", "<b/>").unwrap();
    assert!(catalog.get("b.xml").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphan_files_are_swept_and_the_catalog_recovers() {
    let dir = scratch("orphans");
    {
        let service = QueryService::open(config(&dir)).unwrap();
        service.load_document("a.xml", "<a>keep</a>").unwrap();
    }
    // A crash can strand temp files and unreferenced segments.
    std::fs::write(dir.join("seg-99.seg"), b"not a segment").unwrap();
    std::fs::write(dir.join("seg-100.seg.tmp"), b"torn write").unwrap();

    let service = QueryService::open(config(&dir)).unwrap();
    assert!(!dir.join("seg-99.seg").exists(), "orphan segment swept");
    assert!(!dir.join("seg-100.seg.tmp").exists(), "temp file swept");
    assert_eq!(service.run(r#"string(doc("a.xml")/a)"#).unwrap(), "keep");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_demotes_to_disk_and_queries_reload_transparently() {
    let dir = scratch("demote-reload");
    let store = Store::new();
    // A 1-byte budget: every put immediately demotes the previous
    // resident to its on-disk segment.
    let catalog = persistent(store.clone(), Some(1), &dir);
    catalog.put("a.xml", "<a>alpha</a>").unwrap();
    catalog.put("b.xml", "<b>beta</b>").unwrap();
    assert!(catalog.stats().evictions >= 1);
    // Both stay reachable: the demoted one reloads from its segment on
    // access, byte-identically.
    for (name, text) in [("a.xml", "alpha"), ("b.xml", "beta")] {
        let id = catalog.get(name).expect(name);
        let doc = store.try_document(id).expect("live after reload");
        assert!(doc.serialize_node(doc.root()).contains(text));
    }
    assert!(catalog.stats().segments_recovered >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_each_persist_site_reopens_cleanly() {
    for site in [
        "segment.write",
        "segment.fsync",
        "segment.rename",
        "manifest.append",
    ] {
        let dir = scratch(&format!("crash-{}", site.replace('.', "-")));
        let acked;
        {
            let service = QueryService::open(config(&dir)).unwrap();
            let _guard = xqr_faults::install(
                FaultSchedule::new(7).rule(FaultRule::new(site, FaultKind::ErrorReturn).one_in(1)),
            );
            acked = service.load_document("a.xml", "<a/>").is_ok();
        }
        assert!(!acked, "{site}: injected persist fault must fail the load");

        // Whatever the crash left behind, reopening is clean and the
        // unacknowledged document is absent — not partial, not stale.
        let service = QueryService::open(config(&dir)).unwrap();
        let err = service.run(r#"doc("a.xml")"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::DocumentNotFound, "{site}: {err}");
        // The directory still works for new loads.
        service.load_document("b.xml", "<b/>").unwrap();
        assert_eq!(service.run(r#"count(doc("b.xml"))"#).unwrap(), "1");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
