//! The chaos suite: fixed-seed fault schedules against the whole stack.
//!
//! One test, many seeds, one invariant: every injected fault yields a
//! correct result (after retry or degradation) or a stable coded error
//! — never a wrong answer, an escaped panic, or a leaked store
//! document. The seeds are fixed so the suite is exactly reproducible;
//! a failing seed replays standalone via
//! `cargo run -p xqr-harness --bin chaos -- --seed <s> --cases 1`.
//!
//! All cases run inside ONE test function on purpose: `install()` holds
//! a process-wide exclusive lock, so splitting cases across `#[test]`
//! functions would serialize them anyway while multiplying runner
//! setup. Directed regression tests that need their own schedule live
//! in the service/faults crates (separate processes).

use xqr_harness::case_seed;
use xqr_harness::chaos::ChaosRunner;

const MASTER_SEED: u64 = 0xC4405;
const CASES: u64 = 220;

#[test]
fn chaos_suite_holds_the_invariant_across_fixed_seeds() {
    assert!(
        xqr_faults::compiled_with_failpoints(),
        "the chaos suite requires the failpoints feature (harness dev graph turns it on)"
    );

    // Injected panics are expected traffic: silence the default hook's
    // backtraces while a schedule is armed. Assertion failures in this
    // test run unarmed and still print normally.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !xqr_faults::armed() {
            default_hook(info);
        }
    }));

    let mut runner = ChaosRunner::new();
    let mut fired = 0u64;
    let mut survived = 0u64;
    let mut coded = 0u64;
    let mut violations = Vec::new();

    for i in 0..CASES {
        let seed = case_seed(MASTER_SEED, i);
        let case = runner.run_case(seed);
        fired += case.fired;
        coded += case
            .legs
            .iter()
            .filter(|(_, e)| matches!(e, xqr_harness::chaos::LegEnd::Coded(_)))
            .count() as u64;
        if case.survived_injection() {
            survived += 1;
        }
        for v in case.violations {
            violations.push(format!(
                "case {i} (replay: chaos --seed {} --cases 1) leg {}: {}",
                MASTER_SEED.wrapping_add(i),
                v.leg,
                v.detail
            ));
        }
    }

    assert!(
        violations.is_empty(),
        "{} invariant violations:\n{}",
        violations.len(),
        violations.join("\n")
    );

    // The suite must not be a silent no-op: faults actually fired, some
    // legs absorbed them and still answered correctly, and some legs
    // surfaced stable coded errors.
    assert!(fired > 0, "no injections fired across {CASES} cases");
    assert!(
        survived > 0,
        "no case survived an injection with a correct answer — retry/degradation never engaged"
    );
    assert!(coded > 0, "no leg ever surfaced a coded error");

    // Resilience machinery engaged somewhere across the run.
    let stats = runner.service_stats();
    assert!(
        stats.retries + stats.index_build_failures + stats.failed > 0,
        "service never exercised retry or a fallback: {stats:?}"
    );
}
