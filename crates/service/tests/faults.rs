//! The service crate's armed tests. `xqr_faults::install` arms every
//! failpoint in the *process* and only serializes against other
//! installs, so a test that arms must not share a binary with tests that
//! expect fault-free I/O (`tests/recovery.rs`), and the tests here take
//! turns through [`serial`] because each also does un-armed work.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use xqr_core::{DynamicContext, Engine, Item, NodeId, NodeRef};
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_pressure::MemoryLedger;
use xqr_service::{DocumentCatalog, QueryService, ServiceConfig};
use xqr_xdm::{ErrorCode, Limits};

/// One armed test at a time, for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xqr-faults-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        persist_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

#[test]
fn crash_at_each_persist_site_reopens_cleanly() {
    let _serial = serial();
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

/// The unindexed-load rung of the ladder: an index build that fails leaves the document
/// resident and unindexed — for a catalog entry and for a publish's
/// transient copy alike — and navigation gives the indexed answers.
#[test]
fn failing_index_builds_serve_put_and_transient_loads_unindexed() {
    let _serial = serial();
    let xml = "<bib><book><author/><title>a</title></book><book><title>b</title></book></bib>";
    let run = |fail_builds: bool| {
        let engine = Engine::new();
        let catalog = DocumentCatalog::open(
            engine.store().clone(),
            None,
            Some(Limits::unlimited()),
            None,
            Arc::new(MemoryLedger::unbounded()),
        )
        .unwrap();
        let (entry, transient) = {
            let _guard = fail_builds.then(|| {
                xqr_faults::install(
                    FaultSchedule::new(3)
                        .rule(FaultRule::new("index.build", FaultKind::ErrorReturn)),
                )
            });
            (
                catalog.put("bib.xml", xml).unwrap(),
                catalog.load_transient_indexed(xml).unwrap(),
            )
        };
        let indexed =
            [entry, transient].map(|id| xqr_index::index_of(engine.store(), id).is_some());
        let mut ctx = DynamicContext::new();
        ctx.context_item = Some(Item::Node(NodeRef::new(transient, NodeId(0))));
        let answers = [
            engine.query(r#"doc("bib.xml")//book[author]/title"#),
            engine.query(r#"count(doc("bib.xml")//title)"#),
            engine
                .compile("//book[author]/title")
                .and_then(|q| q.execute(&engine, &ctx)?.serialize_guarded()),
        ]
        .map(|a| a.unwrap());
        (indexed, answers, catalog.stats())
    };

    let (indexed, expected, stats) = run(false);
    assert_eq!(indexed, [true, true]);
    assert_eq!((stats.index_builds, stats.index_build_failures), (2, 0));

    let (indexed, answers, stats) = run(true);
    assert_eq!(indexed, [false, false], "both stay unindexed");
    assert_eq!((stats.index_builds, stats.index_build_failures), (0, 2));
    assert_eq!(stats.docs, 1, "the entry is live");
    assert_eq!(answers, expected, "navigation answers byte-identically");
}
