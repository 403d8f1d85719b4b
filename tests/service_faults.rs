//! Service tests that arm failpoints. `xqr_faults::install` arms the
//! whole process, so these live apart from `tests/service.rs` (whose
//! tests expect a fault-free process) and take turns through [`serial`].

use std::sync::{Mutex, MutexGuard};
use xqr::xqr_service::{QueryService, ServiceConfig};
use xqr::ErrorCode;
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};

/// One armed test at a time, for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Satellite of the chaos PR: a worker panic mid-evaluation (injected
/// through the failpoint framework) must surface as the stable internal
/// error code and leave the service fully healthy — stats readable,
/// plan cache serving, later queries correct. Poisoned-lock recovery at
/// the structure level is covered by the pool and plan-cache unit tests.
#[test]
fn an_injected_worker_panic_leaves_the_service_healthy() {
    let _serial = serial();
    assert!(xqr_faults::compiled_with_failpoints());
    // Keep the injected panic quiet; real (unarmed) panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !xqr_faults::armed() {
            default_hook(info);
        }
    }));

    let service = QueryService::new(ServiceConfig::default());
    assert_eq!(service.run("1 + 1").unwrap(), "2"); // warm the plan cache
    let err = {
        let _faults = xqr_faults::install(
            FaultSchedule::new(11).rule(
                FaultRule::new("eval.next", FaultKind::Panic)
                    .one_in(1)
                    .max_fires(1),
            ),
        );
        service.run("2 + 3").unwrap_err()
    };
    // The panic is contained into the deterministic internal code — it
    // neither unwinds into the waiter nor triggers a retry.
    assert_eq!(err.code, ErrorCode::Internal);
    // The service keeps serving: the same query now answers, the cached
    // plan still hits, and the stats snapshot is consistent.
    assert_eq!(service.run("2 + 3").unwrap(), "5");
    assert_eq!(service.run("1 + 1").unwrap(), "2");
    let s = service.stats();
    assert_eq!(s.failed, 1, "{s}");
    assert!(s.plan_hits >= 1, "{s}");
    assert_eq!(s.served, 3, "{s}");
}

/// The uncached-compile rung of the ladder: while the plan cache's insert side fails, every
/// query compiles for its own execution and still answers; nothing is
/// cached, nothing is retried, and caching resumes with the fault gone.
#[test]
fn a_failing_plan_cache_insert_compiles_uncached() {
    let _serial = serial();
    let service = QueryService::new(ServiceConfig::default());
    {
        let _faults = xqr_faults::install(
            FaultSchedule::new(5).rule(FaultRule::new("plans.insert", FaultKind::ErrorReturn)),
        );
        for i in 0..20 {
            assert_eq!(
                service.run(&format!("{i} + 1")).unwrap(),
                (i + 1).to_string()
            );
        }
        assert_eq!(xqr_faults::fires_at("plans.insert"), 20);
    }
    let s = service.stats();
    assert_eq!(s.uncached_compiles, 20, "{s}");
    assert_eq!((s.plan_entries, s.plan_hits, s.retries), (0, 0, 0), "{s}");
    assert_eq!((s.served, s.failed), (20, 0), "{s}");

    assert_eq!(service.run("0 + 1").unwrap(), "1");
    assert_eq!(service.run("0 + 1").unwrap(), "1");
    let s = service.stats();
    assert_eq!((s.plan_entries, s.plan_hits), (1, 1), "{s}");
    assert_eq!(s.uncached_compiles, 20, "{s}");
}
