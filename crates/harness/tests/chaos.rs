//! The chaos suite: fixed-seed fault schedules against the whole stack.
//!
//! Many seeds, one invariant: every injected fault yields a correct
//! result (after retry or degradation) or a stable coded error — never
//! a wrong answer, an escaped panic, or a leaked store document. The
//! seeds are fixed so the suite is exactly reproducible; a failing case
//! replays standalone via the printed `harness chaos --seed <s>
//! --cases 1`. The range is cut into slices that run side by side, each
//! on a runner (and long-lived service) of its own: a schedule belongs
//! to the thread that installed it.

use xqr_harness::chaos::ChaosRunner;
use xqr_harness::run_cases;

const MASTER_SEED: u64 = 0xC4405;
const SLICE: u64 = 55;

/// Cases `from .. from + SLICE` of the master seed.
fn slice(from: u64) {
    xqr_faults::silence_injected_panics();
    let seed = MASTER_SEED + from;
    let mut runner = ChaosRunner::new();
    let totals =
        run_cases(seed, SLICE, false, |s| runner.run_case(s)).unwrap_or_else(|(i, case)| {
            panic!(
                "case {} (replay: harness chaos --seed {} --cases 1): {:#?}",
                from + i,
                seed + i,
                case.violations
            )
        });

    // The slice must not be a silent no-op: faults actually fired, some
    // legs absorbed them and still answered correctly, some surfaced
    // stable coded errors, and the service's ladder engaged somewhere.
    assert!(totals.count("injections fired") > 0, "{totals:?}");
    assert!(
        totals.count("cases surviving injection") > 0,
        "retry/degradation never engaged: {totals:?}"
    );
    assert!(totals.count("legs coded-error") > 0, "{totals:?}");
    let stats = runner.service_stats();
    assert!(
        stats.retries + stats.index_build_failures + stats.failed > 0,
        "service never exercised retry or a fallback: {stats:?}"
    );
}

#[test]
fn chaos_cases_0_to_54_hold_the_invariant() {
    slice(0);
}

#[test]
fn chaos_cases_55_to_109_hold_the_invariant() {
    slice(SLICE);
}

#[test]
fn chaos_cases_110_to_164_hold_the_invariant() {
    slice(2 * SLICE);
}

#[test]
fn chaos_cases_165_to_219_hold_the_invariant() {
    slice(3 * SLICE);
}
