//! The write protocol and manifest recovery semantics: a written
//! segment reopens, replay never trusts a torn tail, and the orphan
//! sweep removes exactly what no record references — then the same
//! protocol under deterministic failpoints: a fault at any site must
//! leave the directory in a state recovery fully repairs, the final
//! segment path never partially visible, and a failed manifest append
//! keeping every prior record.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_index::DocIndex;
use xqr_segment::{
    clean_orphans, segment_bytes, write_segment_file, Manifest, ManifestRecord, Segment,
};
use xqr_store::Document;
use xqr_xdm::NamePool;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xqr-seg-crash-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_bytes() -> Vec<u8> {
    let names = Arc::new(NamePool::new());
    let doc = Document::parse_with_uri("<a><b/>text</a>", names, Some("a.xml")).unwrap();
    segment_bytes(&doc, &DocIndex::build(&doc).unwrap()).unwrap()
}

#[test]
fn fault_free_write_is_durable_and_reopenable() {
    let dir = scratch("ok");
    let bytes = sample_bytes();
    write_segment_file(&dir, "seg-1.seg", &bytes).unwrap();
    let seg = Segment::open(&dir.join("seg-1.seg")).unwrap();
    assert_eq!(seg.uri(), Some("a.xml"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replay_stops_at_torn_tail_and_keeps_prefix() {
    let dir = scratch("torn");
    let manifest = Manifest::open(&dir).unwrap();
    for g in 1..=3u64 {
        manifest
            .append(&ManifestRecord::Add {
                generation: g,
                file: format!("seg-{g}.seg"),
                uri: format!("doc{g}.xml"),
            })
            .unwrap();
    }
    // Simulate a crash mid-append: chop the file inside the last record.
    let raw = fs::read(manifest.path()).unwrap();
    fs::write(manifest.path(), &raw[..raw.len() - 5]).unwrap();
    let replay = manifest.replay().unwrap();
    assert!(replay.torn);
    assert_eq!(replay.records.len(), 2);
    let live = replay.live();
    assert!(live.contains_key("doc1.xml") && live.contains_key("doc2.xml"));
    // Generations keep ascending past the torn record's survivors.
    assert_eq!(replay.next_generation(), 3);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replay_handles_empty_and_missing_manifest() {
    let dir = scratch("empty");
    let manifest = Manifest::open(&dir).unwrap();
    let replay = manifest.replay().unwrap();
    assert!(!replay.torn && replay.records.is_empty());
    assert_eq!(replay.next_generation(), 1);
    assert!(replay.live().is_empty());
    // Manifest file deleted out from under us: still an empty replay.
    fs::remove_file(manifest.path()).unwrap();
    let replay = manifest.replay().unwrap();
    assert!(replay.records.is_empty() && !replay.torn);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn orphan_cleanup_removes_unreferenced_files_only() {
    let dir = scratch("orphans");
    let bytes = sample_bytes();
    write_segment_file(&dir, "seg-1.seg", &bytes).unwrap();
    write_segment_file(&dir, "seg-2.seg", &bytes).unwrap();
    fs::write(dir.join("seg-9.seg.tmp"), b"partial").unwrap();
    let manifest = Manifest::open(&dir).unwrap();
    manifest
        .append(&ManifestRecord::Add {
            generation: 1,
            file: "seg-1.seg".into(),
            uri: "a.xml".into(),
        })
        .unwrap();
    let live = manifest.replay().unwrap().live();
    let removed = clean_orphans(&dir, |f| live.values().any(|l| l.file == f)).unwrap();
    assert_eq!(
        removed,
        vec!["seg-2.seg".to_string(), "seg-9.seg.tmp".to_string()]
    );
    assert!(dir.join("seg-1.seg").exists());
    assert!(dir.join(Manifest::FILE_NAME).exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn faults_at_each_write_site_leave_no_visible_segment() {
    let bytes = sample_bytes();
    for site in ["segment.write", "segment.fsync", "segment.rename"] {
        let dir = scratch(&format!("w-{}", site.replace('.', "-")));
        let guard = xqr_faults::install(
            FaultSchedule::new(1).rule(FaultRule::new(site, FaultKind::ErrorReturn)),
        );
        let err = write_segment_file(&dir, "seg-1.seg", &bytes).unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::Unavailable, "{site}");
        assert!(xqr_faults::fires() >= 1, "{site} did not fire");
        drop(guard);
        // The final path must not exist; at worst a .tmp orphan remains.
        assert!(
            !dir.join("seg-1.seg").exists(),
            "{site} left a visible file"
        );
        // Recovery sweeps any leftovers.
        let removed = clean_orphans(&dir, |_| true).unwrap();
        assert!(
            fs::read_dir(&dir).unwrap().next().is_none(),
            "{site}: dir not clean after sweep (removed {removed:?})"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn manifest_append_fault_keeps_prior_records() {
    let dir = scratch("manifest-fault");
    let manifest = Manifest::open(&dir).unwrap();
    let rec1 = ManifestRecord::Add {
        generation: 1,
        file: "seg-1.seg".into(),
        uri: "a.xml".into(),
    };
    manifest.append(&rec1).unwrap();
    let guard = xqr_faults::install(
        FaultSchedule::new(1).rule(FaultRule::new("manifest.append", FaultKind::ErrorReturn)),
    );
    let rec2 = ManifestRecord::Add {
        generation: 2,
        file: "seg-2.seg".into(),
        uri: "b.xml".into(),
    };
    assert!(manifest.append(&rec2).is_err());
    drop(guard);
    let replay = manifest.replay().unwrap();
    assert!(!replay.torn);
    assert_eq!(replay.records, vec![rec1]);
    assert_eq!(replay.next_generation(), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn panic_fault_mid_write_is_recoverable() {
    // The kill-and-recover primitive: a Panic fault simulates the
    // process dying between protocol steps; catch_unwind stands in for
    // the crash, and reopen-from-disk is the recovery.
    let dir = scratch("panic");
    let bytes = sample_bytes();
    let guard = xqr_faults::install(
        FaultSchedule::new(1).rule(FaultRule::new("segment.rename", FaultKind::Panic)),
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        write_segment_file(&dir, "seg-1.seg", &bytes)
    }));
    drop(guard);
    assert!(result.is_err(), "panic fault did not fire");
    assert!(!dir.join("seg-1.seg").exists());
    // Recovery: sweep orphans, write again, open.
    clean_orphans(&dir, |_| false).unwrap();
    write_segment_file(&dir, "seg-1.seg", &bytes).unwrap();
    assert!(Segment::open(&dir.join("seg-1.seg")).is_ok());
    let _ = fs::remove_dir_all(&dir);
}
