//! The ledger's one armed test, in a binary of its own:
//! `xqr_faults::install` arms the whole process, and the lib tests'
//! ceiling-checked charges all pass through the `pressure.charge` site.

use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_pressure::{Category, MemoryLedger, PressureConfig};
use xqr_xdm::ErrorCode;

#[test]
fn injected_fault_at_pressure_charge_is_a_coded_error() {
    let l = MemoryLedger::new(PressureConfig::with_ceiling(1000));
    let _g = xqr_faults::install(
        FaultSchedule::new(7).rule(FaultRule::new("pressure.charge", FaultKind::ErrorReturn)),
    );
    let err = l.try_charge(Category::ChunkSessions, 10).unwrap_err();
    assert_eq!(err.code, ErrorCode::Unavailable);
    assert_eq!(l.total(), 0, "failed charge charged nothing");
}
