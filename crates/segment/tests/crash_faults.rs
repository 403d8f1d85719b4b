//! Crash-safety of the write protocol, driven by deterministic
//! failpoints: a fault at any site must leave the directory in a state
//! recovery fully repairs — the final segment path is never partially
//! visible, and a failed manifest append keeps every prior record.
//!
//! Every test here arms the process (see "Armed tests get a binary of
//! their own" in the `xqr-faults` crate docs); the un-armed protocol
//! tests are in `crash_protocol.rs`.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_index::DocIndex;
use xqr_segment::{
    clean_orphans, segment_bytes, write_segment_file, Manifest, ManifestRecord, Segment,
};
use xqr_store::Document;
use xqr_xdm::NamePool;

/// One armed test at a time, for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xqr-seg-faults-{}-{name}", std::process::id()));
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
fn faults_at_each_write_site_leave_no_visible_segment() {
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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
