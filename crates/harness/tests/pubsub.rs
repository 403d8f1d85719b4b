//! The pub/sub suite: fixed seeds, one invariant — N standing
//! subscriptions over a document stream ≡ N independent one-shot
//! queries per document, byte-for-byte or the same coded error, with
//! and without injected delivery faults. A failing case replays
//! standalone via the printed `harness pubsub --seed <s> --cases 1`.

use xqr_harness::pubsub::run_case;
use xqr_harness::run_cases;

const MASTER_SEED: u64 = 0x5B5C;
const SLICE: u64 = 40;

/// Cases `from .. from + SLICE` of the master seed.
fn slice(from: u64) {
    xqr_faults::silence_injected_panics();
    let seed = MASTER_SEED + from;
    let totals = run_cases(seed, SLICE, false, run_case).unwrap_or_else(|(i, case)| {
        panic!(
            "case {} (replay: harness pubsub --seed {} --cases 1): {:#?}",
            from + i,
            seed + i,
            case.violations
        )
    });
    // The slice must exercise what it claims to: both routes ran, some
    // comparisons agreed byte-for-byte, and faults actually fired.
    assert!(totals.count("comparisons agreed") > 0, "{totals:?}");
    assert!(totals.count("shared pass") > 0, "{totals:?}");
    assert!(totals.count("fallback") > 0, "{totals:?}");
    assert!(totals.count("injections fired") > 0, "{totals:?}");
}

#[test]
fn pubsub_cases_0_to_39_match_one_shot() {
    slice(0);
}

#[test]
fn pubsub_cases_40_to_79_match_one_shot() {
    slice(SLICE);
}

#[test]
fn pubsub_cases_80_to_119_match_one_shot() {
    slice(2 * SLICE);
}
