//! One kill-and-recover case per side, end to end — the `recover` bin
//! sweeps all sites × kinds × seeds. The cases arm failpoints, which
//! arms the whole process, so this is a test binary of its own (one
//! test, like `tests/chaos.rs`) rather than a lib test.

use xqr_harness::recover::{run_case, DOCS_PER_CASE};

#[test]
fn a_single_kill_case_upholds_the_invariant() {
    // One persist-side and one recovery-side site.
    for site in ["segment.rename", "segment.verify"] {
        let case = run_case(3, site, false);
        assert!(case.violations.is_empty(), "{:?}", case.violations);
        assert_eq!(case.ends.len(), DOCS_PER_CASE, "{case:?}");
    }
}
