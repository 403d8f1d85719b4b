//! The kill-and-recover leg of the oracle: crash the persistence path
//! at every faultpoint site mid-persist, reopen the segment store, and
//! hold the catalog to the durability invariant.
//!
//! Where the chaos runner ([`crate::chaos`]) asks "does a *running*
//! service misbehave when its substrate fails?", this leg asks "does a
//! *restarted* service lie about what survived?" Each case opens a
//! persistent [`QueryService`] over a scratch directory, loads three
//! documents while a seeded fault (panic or error-return) is armed at
//! one segment-persistence site, then simulates a kill: the service is
//! dropped with no cleanup, and a fresh incarnation reopens whatever
//! bytes actually reached the directory.
//!
//! The invariant the recovered service must uphold:
//!
//! 1. **acknowledged ⇒ readable** — a document whose load returned `Ok`
//!    was durably persisted; after restart it must be fully queryable
//!    with a byte-identical serialization;
//! 2. **unacknowledged ⇒ cleanly absent** — a load that failed (or
//!    panicked) may leave temp files or torn manifest tails, but never a
//!    document that answers queries with partial or stale content: the
//!    restarted catalog reports `err:XQRL0001 DocumentNotFound`;
//! 3. **corruption ⇒ quarantine** — flipping any single byte of a
//!    segment file makes the first touch fail with `err:XQRL0006
//!    CorruptSegment`; the document is never served and *stays*
//!    quarantined on later touches, while sibling documents are
//!    unaffected;
//! 4. **no panic escapes** a public API in any phase, and recovery-time
//!    injection (at `segment.read` / `segment.verify`) may only produce
//!    the correct answer or a stable coded error — once disarmed, the
//!    next touch must succeed.
//!
//! Determinism: document content, the crash site's hit index, and the
//! flipped byte all derive from the case seed, so a failure replays
//! from `(seed, site, kind)` alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use crate::verdict::Violation;
use crate::{case_seed, Case};
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_service::{QueryService, ServiceConfig};
use xqr_xdm::ErrorCode;
use xqr_xmlgen::{random_tree, RandomTreeConfig};

/// The six persistence faultpoint sites, in pipeline order. The first
/// four fire while a document is being persisted; the last two fire
/// while a restarted catalog reloads one.
pub const SEGMENT_SITES: &[&str] = &[
    "segment.write",
    "segment.fsync",
    "segment.rename",
    "manifest.append",
    "segment.read",
    "segment.verify",
];

/// Documents per case — enough that a mid-sequence crash leaves both
/// acknowledged and unacknowledged documents behind.
pub const DOCS_PER_CASE: usize = 3;

/// What one document looked like after recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocEnd {
    /// Byte-identical to the pre-crash serialization.
    Correct,
    /// Cleanly absent: `err:XQRL0001`.
    Absent,
    /// Quarantined: `err:XQRL0006`.
    Quarantined,
}

/// Record where one document ended up after recovery.
fn settle(case: &mut Case, name: &str, end: DocEnd) {
    case.add("quarantines observed", (end == DocEnd::Quarantined) as u64);
    case.notes.push(format!("{name}: {end:?}"));
}

/// One round — one case of the recover leg: every persistence site
/// crashed with both an error return and a panic, plus one single-byte
/// corruption, each under its own seed derived from the round's.
/// Tallies: `crash cases`, `crashes fired`, `loads acknowledged`,
/// `quarantines observed`.
pub fn run_round(seed: u64) -> Case {
    let mut round = Case::tallying(&[
        "crash cases",
        "crashes fired",
        "loads acknowledged",
        "quarantines observed",
    ]);
    for (s, site) in SEGMENT_SITES.iter().enumerate() {
        for panic_kind in [false, true] {
            let cseed = case_seed(seed, s as u64 * 2 + panic_kind as u64);
            run_case(cseed, site, panic_kind, &mut round);
        }
    }
    run_corruption_case(case_seed(seed, 1000), &mut round);
    round
}

fn scratch(seed: u64, tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xqr-recover-{}-{tag}-{seed}", std::process::id()))
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        persist_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

fn case_docs(seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..DOCS_PER_CASE)
        .map(|i| {
            let xml = random_tree(&RandomTreeConfig {
                seed: seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9),
                nodes: rng.gen_range(20usize..80),
                max_depth: rng.gen_range(3usize..6),
                alphabet: 4,
                p_text: 0.3,
                p_attribute: 0.25,
                ..Default::default()
            });
            (format!("d{i}.xml"), xml)
        })
        .collect()
}

/// The un-faulted serialization of each document, via a throwaway
/// in-memory service running the exact query the recovered side runs.
fn references(docs: &[(String, String)]) -> Vec<String> {
    let service = QueryService::new(ServiceConfig::default());
    docs.iter()
        .map(|(name, xml)| {
            service.load_document(name, xml).expect("reference load");
            service
                .run(&format!("doc(\"{name}\")"))
                .expect("reference query")
        })
        .collect()
}

/// Touch one document on the recovered service and classify the ending.
/// `None` means the touch produced neither a correct answer nor an
/// allowed coded error; the violation has already been recorded.
fn touch(
    service: &QueryService,
    name: &str,
    want: &str,
    allow_transient: bool,
    violations: &mut Vec<Violation>,
) -> Option<DocEnd> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        service.run(&format!("doc(\"{name}\")"))
    }));
    match run {
        Err(_) => {
            violations.push(Violation::new(
                "recover",
                format!("panic escaped while touching {name} after restart"),
            ));
            None
        }
        Ok(Ok(got)) if got == want => Some(DocEnd::Correct),
        Ok(Ok(got)) => {
            violations.push(Violation::new(
                "recover",
                format!("wrong answer after restart for {name}: want {want:?}, got {got:?}"),
            ));
            None
        }
        Ok(Err(e)) if e.code == ErrorCode::DocumentNotFound => Some(DocEnd::Absent),
        Ok(Err(e)) if e.code == ErrorCode::CorruptSegment => Some(DocEnd::Quarantined),
        // While recovery-side injection is armed, transient coded errors
        // (and contained panics) are legal intermediate outcomes.
        Ok(Err(_)) if allow_transient => None,
        Ok(Err(e)) => {
            violations.push(Violation::new(
                "recover",
                format!("unexpected error after restart for {name}: {e}"),
            ));
            None
        }
    }
}

/// Crash the persistence pipeline at `site` and hold recovery to the
/// invariant. `panic_kind` selects `FaultKind::Panic` over
/// `FaultKind::ErrorReturn`.
pub fn run_case(seed: u64, site: &'static str, panic_kind: bool, case: &mut Case) {
    let kind_name = if panic_kind { "panic" } else { "error" };
    let dir = scratch(seed, &format!("{}-{kind_name}", site.replace('.', "-")));
    let _ = std::fs::remove_dir_all(&dir);

    let docs = case_docs(seed);
    let refs = references(&docs);
    case.add("crash cases", 1);
    case.notes
        .push(format!("seed {seed} site {site} kind {kind_name}"));
    // The crash fires on a seed-chosen hit of the site, so across seeds
    // every document position gets to be the victim.
    let kind = if panic_kind {
        FaultKind::Panic
    } else {
        FaultKind::ErrorReturn
    };
    let schedule = FaultSchedule::new(seed).rule(
        FaultRule::new(site, kind)
            .one_in(1)
            .skip_first(seed % DOCS_PER_CASE as u64)
            .max_fires(1),
    );
    let persist_side = !matches!(site, "segment.read" | "segment.verify");

    // Phase 1: load under injection (for persist-side sites), then kill.
    let mut acked = vec![false; docs.len()];
    {
        let service = match QueryService::open(config(&dir)) {
            Ok(s) => s,
            Err(e) => {
                case.violations
                    .push(Violation::new("recover", format!("fresh open failed: {e}")));
                return;
            }
        };
        let guard = persist_side.then(|| xqr_faults::install(schedule.clone()));
        for (i, (name, xml)) in docs.iter().enumerate() {
            // load_document contains panics; an escape is a violation.
            match catch_unwind(AssertUnwindSafe(|| service.load_document(name, xml))) {
                Ok(outcome) => acked[i] = outcome.is_ok(),
                Err(_) => case.violations.push(Violation::new(
                    "recover",
                    format!("panic escaped load_document({name})"),
                )),
            }
        }
        if persist_side {
            case.add("crashes fired", xqr_faults::fires());
        }
        drop(guard);
        // The kill: drop with no shutdown courtesy. Whatever bytes the
        // directory holds are what recovery gets.
        drop(service);
    }
    case.add(
        "loads acknowledged",
        acked.iter().filter(|a| **a).count() as u64,
    );

    // Phase 2: reopen. Open is O(manifest) and must succeed — the crash
    // left at worst a torn manifest tail and orphan temp files.
    let service = match QueryService::open(config(&dir)) {
        Ok(s) => s,
        Err(e) => {
            case.violations.push(Violation::new(
                "recover",
                format!("reopen after crash at {site} failed: {e}"),
            ));
            return;
        }
    };

    // Phase 3: for recovery-side sites, touch once with the fault armed
    // (correct or coded, never wrong), then disarm for the verdict pass.
    if !persist_side {
        let _guard = xqr_faults::install(schedule);
        for (i, (name, _)) in docs.iter().enumerate() {
            touch(&service, name, &refs[i], true, &mut case.violations);
        }
        case.add("crashes fired", xqr_faults::fires());
    }

    // Phase 4: the verdict pass, un-faulted. Every document must land in
    // a stable end state, and acknowledged loads must have survived.
    for (i, (name, _)) in docs.iter().enumerate() {
        let Some(end) = touch(&service, name, &refs[i], false, &mut case.violations) else {
            continue;
        };
        settle(case, name, end);
        if acked[i] && end != DocEnd::Correct {
            case.violations.push(Violation::new(
                "recover",
                format!(
                    "durability lie: load of {name} was acknowledged but after \
                     restart it is {end:?}"
                ),
            ));
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one seed-chosen byte of one persisted segment file, reopen, and
/// require quarantine: the victim fails with `err:XQRL0006` on every
/// touch and is never served; the other documents are unaffected.
pub fn run_corruption_case(seed: u64, case: &mut Case) {
    let dir = scratch(seed, "bitflip");
    let _ = std::fs::remove_dir_all(&dir);
    let docs = case_docs(seed);
    let refs = references(&docs);
    case.add("crash cases", 1);
    case.notes
        .push(format!("seed {seed} single-byte corruption"));

    {
        let service = QueryService::open(config(&dir)).expect("fresh open");
        for (name, xml) in &docs {
            service.load_document(name, xml).expect("clean load");
        }
        case.add("loads acknowledged", docs.len() as u64);
    }

    // Pick a victim segment and a byte offset from the seed, flip it.
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read segment dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB17F11B);
    let victim = &segs[rng.gen_range(0..segs.len())];
    let mut bytes = std::fs::read(victim).expect("read victim");
    let at = rng.gen_range(0..bytes.len());
    bytes[at] ^= 1 << rng.gen_range(0..8u32);
    std::fs::write(victim, &bytes).expect("write flipped victim");
    let victim_gen: usize = segs.iter().position(|p| p == victim).expect("victim idx");

    let service = QueryService::open(config(&dir)).expect("reopen after flip");
    // Segments are written in load order, so position == document index.
    for (i, (name, _)) in docs.iter().enumerate() {
        // Two touches: quarantine must be sticky, not a one-shot error.
        for pass in 0..2 {
            let end = touch(&service, name, &refs[i], false, &mut case.violations);
            match end {
                Some(e) => settle(case, name, e),
                None => continue,
            }
            let expect = if i == victim_gen {
                DocEnd::Quarantined
            } else {
                DocEnd::Correct
            };
            if end != Some(expect) {
                case.violations.push(Violation::new(
                    "recover",
                    format!(
                        "byte {at} flipped in segment {victim_gen}: document {name} \
                         pass {pass} ended {end:?}, expected {expect:?}"
                    ),
                ));
            }
        }
    }
    let stats = service.stats();
    if stats.segments_quarantined == 0 {
        case.violations.push(Violation::new(
            "recover",
            "byte flip produced no quarantine counter",
        ));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_kill_case_upholds_the_invariant() {
        // One persist-side and one recovery-side site.
        for site in ["segment.rename", "segment.verify"] {
            let mut case = Case::default();
            run_case(3, site, false, &mut case);
            assert!(case.violations.is_empty(), "{:?}", case.violations);
            assert_eq!(case.count("crashes fired"), 1, "{case:?}");
        }
    }

    #[test]
    fn a_single_byte_flip_is_quarantined() {
        let mut case = Case::default();
        run_corruption_case(5, &mut case);
        assert!(case.violations.is_empty(), "{:?}", case.violations);
        assert!(case.count("quarantines observed") > 0, "{case:?}");
    }
}
