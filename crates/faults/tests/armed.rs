//! The framework's own armed tests, apart from the lib's un-armed one
//! (see "Armed tests get a binary of their own" in the crate docs).
#![cfg(feature = "failpoints")]

use std::sync::{Mutex, MutexGuard};
use xqr_faults::{
    armed, evaluate_infallible, faultpoint, fires, fires_at, hits_at, install, FaultKind,
    FaultRule, FaultSchedule,
};
use xqr_xdm::{ErrorCode, Result};

/// One armed test at a time, for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn probe(site: &'static str) -> Result<()> {
    faultpoint!(site);
    Ok(())
}

#[test]
fn error_rule_fires_with_stable_code_and_uninstalls_on_drop() {
    let _serial = serial();
    {
        let _g = install(
            FaultSchedule::new(1).rule(FaultRule::new("store.read", FaultKind::ErrorReturn)),
        );
        assert!(armed());
        let err = probe("store.read").unwrap_err();
        assert_eq!(err.code, ErrorCode::Unavailable);
        assert_eq!(err.code.as_str(), "XQRL0005");
        assert!(err.is_retryable());
        probe("store.load").unwrap(); // unmatched site passes
        assert_eq!(fires(), 1);
        assert_eq!(fires_at("store.read"), 1);
        assert_eq!(hits_at("store.read"), 1);
    }
    assert!(!armed());
    probe("store.read").unwrap();
}

#[test]
fn skip_first_and_max_fires_bound_injection() {
    let _serial = serial();
    let _g = install(
        FaultSchedule::new(7).rule(
            FaultRule::new("eval.next", FaultKind::BudgetTrip)
                .skip_first(2)
                .max_fires(1),
        ),
    );
    probe("eval.next").unwrap();
    probe("eval.next").unwrap();
    let err = probe("eval.next").unwrap_err();
    assert_eq!(err.code, ErrorCode::Limit);
    // Bounded: later hits pass — the shape retry loops rely on.
    for _ in 0..10 {
        probe("eval.next").unwrap();
    }
    assert_eq!(fires(), 1);
}

#[test]
fn wildcard_rules_match_prefixes() {
    let _serial = serial();
    let _g = install(FaultSchedule::new(3).rule(FaultRule::new("store.*", FaultKind::Cancel)));
    assert_eq!(
        probe("store.remove").unwrap_err().code,
        ErrorCode::Cancelled
    );
    probe("plans.insert").unwrap();
}

#[test]
fn decisions_are_deterministic_in_the_seed() {
    let _serial = serial();
    let run = |seed: u64| -> Vec<bool> {
        let _g = install(
            FaultSchedule::new(seed)
                .rule(FaultRule::new("xml.read", FaultKind::ErrorReturn).one_in(3)),
        );
        (0..32).map(|_| probe("xml.read").is_err()).collect()
    };
    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert_eq!(a, b, "same seed, same decisions");
    assert_ne!(a, c, "different seed, different decisions");
    assert!(a.iter().any(|f| *f) && a.iter().any(|f| !*f), "{a:?}");
}

#[test]
fn infallible_sites_only_panic_or_delay() {
    let _serial = serial();
    let _g =
        install(FaultSchedule::new(5).rule(FaultRule::new("store.remove", FaultKind::ErrorReturn)));
    // Error kind at an infallible site: counted, but nothing thrown.
    evaluate_infallible("store.remove");
    assert_eq!(fires(), 1);
}

#[test]
fn injected_panic_carries_the_site_name() {
    let _serial = serial();
    let _g = install(FaultSchedule::new(9).rule(FaultRule::new("pool.dispatch", FaultKind::Panic)));
    let payload = std::panic::catch_unwind(|| probe("pool.dispatch")).unwrap_err();
    let msg = payload.downcast_ref::<String>().expect("string payload");
    assert!(msg.contains("pool.dispatch"), "{msg}");
}
