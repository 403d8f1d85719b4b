//! Differential fuzzing harness for the query engine.
//!
//! The idea: the same query over the same document must mean the same
//! thing no matter *how* it is executed. This crate generates random
//! well-typed queries at the AST level (so every case is syntactically
//! valid by construction), prints them through the parser's
//! printer (a tested print→parse→print fixpoint), pairs each with a
//! random document from `xqr-xmlgen`, and runs the pair through a
//! lattice of engine configurations:
//!
//! * the **reference**: a plain [`xqr_core::Engine`] with
//!   [`xqr_compiler::RewriteConfig::none()`] — fully materialized,
//!   unoptimized evaluation;
//! * an optimized engine with `RewriteConfig::all()`;
//! * the [`xqr_service::QueryService`] (sharded plan cache, document
//!   catalog, worker pool), run **twice** per case so the second run is
//!   served from the plan cache;
//! * the token-streaming automaton, whenever the optimized plan reports
//!   `is_streamable()`.
//!
//! What "the same thing" means — the optimizer may **avoid** errors but
//! never **introduce** them, never change a successful result, and
//! `err:XQRL0000` is always a bug — is the [`verdict`] module: one
//! `judge` for every leg, with the differential leg's relaxation spelled
//! [`verdict::Contract::Optimizer`].
//!
//! The same driver runs five more legs over the same generators, each
//! holding the stack to that contract under a different kind of stress:
//! [`chaos`] (seeded fault schedules against engine and service),
//! [`pubsub`] (standing subscriptions ≡ one-shot queries), [`ingest`]
//! (chunked ≡ whole documents), [`recover`] (kill mid-persist, reopen)
//! and [`overload`] (10× offered load under a memory ceiling). A leg is
//! a function from a case seed to a [`Case`] (a method, where state
//! carries across cases); [`run_cases`] is the one case loop, and
//! `src/bin/harness.rs` the one command line.
//!
//! Divergent cases are auto-shrunk ([`shrink`]) by structural greedy
//! reduction of both the query AST and the document, and every case is
//! replayable from the printed seed: case `i` of a run with master seed
//! `S` is exactly case `0` of a run with `--seed S+i`.

pub mod chaos;
pub mod gen;
pub mod ingest;
pub mod oracle;
pub mod overload;
pub mod pubsub;
pub mod recover;
pub mod report;
pub mod schedule;
pub mod shrink;
pub mod verdict;

use verdict::Violation;

/// What one seeded case of any leg hands the driver.
#[derive(Debug, Default)]
pub struct Case {
    /// Tallies, summed over the run into the summary line, in print
    /// order.
    pub counts: Vec<(&'static str, u64)>,
    /// Lines for `--verbose`.
    pub notes: Vec<String>,
    /// Empty means the case held its invariant.
    pub violations: Vec<Violation>,
}

impl Case {
    /// An empty report whose tallies print in the order of `labels`.
    pub fn tallying(labels: &[&'static str]) -> Case {
        Case {
            counts: labels.iter().map(|l| (*l, 0)).collect(),
            ..Default::default()
        }
    }

    /// The tally under `label` (0 when the case did not report it).
    pub fn count(&self, label: &str) -> u64 {
        self.counts
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, n)| *n)
    }

    /// Add `n` to the tally under `label`.
    pub fn add(&mut self, label: &'static str, n: u64) {
        match self.counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, total)) => *total += n,
            None => self.counts.push((label, n)),
        }
    }
}

/// The one case loop: run `cases` cases derived from `master`, summing
/// their tallies, and stop at the first that breaks its invariant.
/// `Ok` is the run's totals; `Err` is the failing case's index (replay
/// it alone with master seed `master + index`) and its report.
pub fn run_cases(
    master: u64,
    cases: u64,
    verbose: bool,
    mut run_case: impl FnMut(u64) -> Case,
) -> Result<Case, (u64, Case)> {
    let mut totals = Case::default();
    for i in 0..cases {
        let case = run_case(case_seed(master, i));
        if verbose {
            for note in &case.notes {
                println!("case {i}: {note}");
            }
        }
        if !case.violations.is_empty() {
            return Err((i, case));
        }
        for (label, n) in case.counts {
            totals.add(label, n);
        }
    }
    Ok(totals)
}

/// Budgets for one generated case outside the differential leg (which
/// has its own, larger ones): bounded so a pathological generated query
/// cannot wedge a run or stretch an injected delay to seconds, generous
/// enough that resource trips stay rare (each one skips a comparison).
pub fn case_limits() -> xqr_xdm::Limits {
    xqr_xdm::Limits::unlimited()
        .with_deadline(std::time::Duration::from_secs(10))
        .with_max_items(200_000)
        .with_max_output_bytes(4 * 1024 * 1024)
}

/// The per-case seed derivation: case `i` under master seed `s` uses
/// `splitmix64(s + i)`, so `--seed s+i --cases 1` replays exactly case
/// `i` of the larger run.
pub fn case_seed(master: u64, index: u64) -> u64 {
    splitmix64(master.wrapping_add(index))
}

/// SplitMix64 — the standard 64-bit seed scrambler. Keeps neighbouring
/// master seeds from producing correlated case streams.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_replays_as_shifted_master() {
        // The replay identity the fuzz binary prints on divergence.
        for master in [0u64, 1, 42, u64::MAX - 10] {
            for i in 0..20u64 {
                assert_eq!(case_seed(master, i), case_seed(master.wrapping_add(i), 0));
            }
        }
    }

    #[test]
    fn splitmix_scrambles_neighbours() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10, "{a:x} vs {b:x}");
    }
}
