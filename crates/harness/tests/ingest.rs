//! One faulted ingestion case end to end — the `ingest` bin runs
//! hundreds. The faulted replay arms failpoints, which arms the whole
//! process, so this is a test binary of its own (one test, like
//! `tests/chaos.rs`) rather than a lib test.

use xqr_harness::ingest::run_case;

#[test]
fn a_single_faulted_case_upholds_the_chaos_rules() {
    let case = run_case(7, true);
    assert!(case.violations.is_empty(), "{:?}", case.violations);
}
