//! The churn leg: readers against a writer on one long-lived service.
//!
//! The invariant document leases exist for:
//!
//! > **A read is one version's answer.** Every read is byte-identical
//! > to the answer of some version of its document that was current
//! > while the read ran — or carries a stable code. Never a mix of two
//! > versions, never `err:XQRL0000`.
//!
//! Each case draws a few names and a seeded sequence of replacements.
//! A churner thread loads the new versions, each `put` evicting the
//! previous resident (the catalog holds one document and persists to
//! segments, so a victim is demoted and a later read re-adopts it).
//! Two reader threads run a fixed query set against the same names —
//! by `fn:doc`, each query reading its document twice, and through
//! `run_batch` with the document as context item — their evaluations
//! slowed by seeded delays at `eval.next`, so replacements land
//! mid-query. The reference answers are computed per version on a
//! throwaway engine before the threads start.
//!
//! After each case the case's names are removed and the store must be
//! back to the documents and bytes it held before the case: every
//! version died with its last lease.
//!
//! Which version a read meets depends on the interleaving, which no
//! seed fixes yet; the summary line prints only what the seed fixes
//! (cases, reads, replacements), the rest goes under `--verbose`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::verdict::{judge, outcome, Contract, Outcome, Verdict, Violation};
use crate::Case;
use xqr_core::{contain_panic, Engine};
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_service::{QueryService, ServiceConfig};

/// Names per case.
const NAMES: usize = 3;
/// Reader threads per case, and the reads each makes.
const READERS: usize = 2;
const READS: usize = 12;

/// The fixed query set; `{N}` is the document's name. The last one runs
/// through `run_batch`, with the document as context item.
const QUERIES: &[&str] = &[
    r#"(string(doc("{N}")/catalog/@version), count(doc("{N}")//entry))"#,
    r#"string-join((doc("{N}")/catalog/entry[price > 500]/@id, string(sum(doc("{N}")//price))), ",")"#,
    r#"for $e in doc("{N}")/catalog/entry[last()] return (string($e/@id), count(doc("{N}")//price))"#,
    "(string(/catalog/@version), count(//entry[price > 500]))",
];

fn is_batch(q: usize) -> bool {
    q == QUERIES.len() - 1
}

/// Version `v` of a catalog document: a seeded number of entries with
/// seeded prices, stamped with `v`.
fn version_doc(rng: &mut StdRng, v: usize) -> String {
    let mut xml = format!(r#"<catalog version="{v}">"#);
    for i in 0..rng.gen_range(3..40) {
        let price: u32 = rng.gen_range(1..1000);
        xml.push_str(&format!(
            r#"<entry id="e{i}"><price>{price}</price></entry>"#
        ));
    }
    xml.push_str("</catalog>");
    xml
}

/// The churn leg's state across cases: one service, one segment
/// directory.
pub struct ChurnRunner {
    service: QueryService,
    dir: PathBuf,
    case_no: u64,
}

impl Default for ChurnRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ChurnRunner {
    pub fn new() -> ChurnRunner {
        let dir = std::env::temp_dir().join(format!("xqr-churn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = QueryService::open(ServiceConfig {
            catalog_max_bytes: Some(1),
            persist_dir: Some(dir.clone()),
            ..Default::default()
        })
        .expect("a fresh segment directory opens");
        ChurnRunner {
            service,
            dir,
            case_no: 0,
        }
    }

    /// Run one seeded case. Tallies: `reads`, `replacements`.
    pub fn run_case(&mut self, seed: u64) -> Case {
        self.case_no += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> = (0..NAMES)
            .map(|k| format!("churn-{}-{k}.xml", self.case_no))
            .collect();
        let replacements: Vec<usize> = (0..rng.gen_range(4..10))
            .map(|_| rng.gen_range(0..NAMES))
            .collect();
        // versions[name][v], version 0 first.
        let mut versions: Vec<Vec<String>> = vec![Vec::new(); NAMES];
        for (k, vs) in versions.iter_mut().enumerate() {
            let n = 1 + replacements.iter().filter(|&&r| r == k).count();
            *vs = (0..n).map(|v| version_doc(&mut rng, v)).collect();
        }
        let reference: Vec<Vec<Vec<Outcome>>> = (0..QUERIES.len())
            .map(|q| {
                (0..NAMES)
                    .map(|k| {
                        versions[k]
                            .iter()
                            .map(|xml| reference_read(q, &names[k], xml))
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let mut case = Case::tallying(&["reads", "replacements"]);
        let store = self.service.engine().store().clone();
        let (base_docs, base_bytes) = (store.doc_count(), store.live_bytes());
        for k in 0..NAMES {
            if let Err(e) = self.service.load_document(&names[k], &versions[k][0]) {
                case.violations
                    .push(Violation::new("churner", format!("initial load: {e}")));
                return case;
            }
        }

        // Per name: the last version a load acknowledged, and the last
        // one a load began. A read that starts after `published` reached
        // `lo` and ends before `pending` passed `hi` may meet lo..=hi.
        let published: Vec<AtomicUsize> = (0..NAMES).map(|_| AtomicUsize::new(0)).collect();
        let pending: Vec<AtomicUsize> = (0..NAMES).map(|_| AtomicUsize::new(0)).collect();
        let reader_seeds: Vec<u64> = (0..READERS).map(|_| rng.gen()).collect();
        let service = &self.service;
        let (churned, reads) = std::thread::scope(|s| {
            let readers: Vec<_> = reader_seeds
                .iter()
                .map(|&rs| {
                    let (names, published, pending) = (&names, &published, &pending);
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(rs);
                        let _faults = xqr_faults::install(
                            FaultSchedule::new(rs).rule(
                                FaultRule::new(
                                    "eval.next",
                                    FaultKind::Delay(Duration::from_micros(300)),
                                )
                                .one_in(3),
                            ),
                        );
                        (0..READS)
                            .map(|_| {
                                let (q, k) =
                                    (rng.gen_range(0..QUERIES.len()), rng.gen_range(0..NAMES));
                                let lo = published[k].load(Ordering::SeqCst);
                                let got = outcome(contain_panic(|| read(service, q, &names[k])));
                                let hi = pending[k].load(Ordering::SeqCst);
                                (q, k, lo, hi, got)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let churned: Result<(), String> = (|| {
                let mut next = [1usize; NAMES];
                for &k in &replacements {
                    std::thread::sleep(Duration::from_millis(1));
                    pending[k].store(next[k], Ordering::SeqCst);
                    service
                        .load_document(&names[k], &versions[k][next[k]])
                        .map_err(|e| format!("replacing {}: {e}", names[k]))?;
                    published[k].store(next[k], Ordering::SeqCst);
                    next[k] += 1;
                }
                Ok(())
            })();
            let reads: Vec<_> = readers
                .into_iter()
                .flat_map(|r| r.join().expect("a reader thread never panics"))
                .collect();
            (churned, reads)
        });
        if let Err(e) = churned {
            case.violations.push(Violation::new("churner", e));
        }

        let (mut agreed, mut coded, mut skipped, mut overlapped) = (0, 0, 0, 0);
        for (q, k, lo, hi, got) in &reads {
            overlapped += (lo != hi) as u64;
            let verdicts: Vec<Verdict> = (*lo..=*hi)
                .map(|v| judge(Contract::Strict, &reference[*q][*k][v], got))
                .collect();
            if verdicts.contains(&Verdict::Agree) {
                agreed += 1;
            } else if let Some(v) = verdicts
                .iter()
                .find(|v| !matches!(v, Verdict::Violation(_)))
            {
                match v {
                    Verdict::Coded(_) => coded += 1,
                    _ => skipped += 1,
                }
            } else {
                let last = match verdicts.last() {
                    Some(Verdict::Violation(detail)) => detail.clone(),
                    _ => String::new(),
                };
                case.violations.push(Violation::new(
                    format!("query {q} on {}", names[*k]),
                    format!("no version in {lo}..={hi} answers like this: {last}"),
                ));
            }
        }
        case.add("reads", reads.len() as u64);
        case.add("replacements", replacements.len() as u64);
        case.notes.push(format!(
            "agreed {agreed}  coded {coded}  skipped {skipped}  \
             reads overlapping a replacement {overlapped}"
        ));

        for name in &names {
            self.service.remove_document(name);
        }
        if store.doc_count() != base_docs || store.live_bytes() != base_bytes {
            case.violations.push(Violation::new(
                "store",
                format!(
                    "store leak: docs {} -> {}, bytes {} -> {}",
                    base_docs,
                    store.doc_count(),
                    base_bytes,
                    store.live_bytes()
                ),
            ));
        }
        case
    }
}

impl Drop for ChurnRunner {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Query `q` over the document named `name`, through the service.
fn read(service: &QueryService, q: usize, name: &str) -> xqr_xdm::Result<String> {
    if is_batch(q) {
        service
            .run_batch(name, &[QUERIES[q]])
            .and_then(|mut r| r.remove(0))
    } else {
        service.run(&QUERIES[q].replace("{N}", name))
    }
}

/// Query `q` over one version, on a throwaway engine.
fn reference_read(q: usize, name: &str, xml: &str) -> Outcome {
    let engine = Engine::new();
    outcome(contain_panic(|| {
        if is_batch(q) {
            engine.query_xml(xml, QUERIES[q])
        } else {
            engine.load_document(name, xml)?;
            engine.query(&QUERIES[q].replace("{N}", name))
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_cases_hold_the_invariant() {
        let mut runner = ChurnRunner::new();
        let totals = crate::run_cases(7, 3, false, |s| runner.run_case(s))
            .unwrap_or_else(|(i, case)| panic!("case {i}: {:#?}", case.violations));
        assert_eq!(totals.count("reads"), 3 * (READERS * READS) as u64);
        assert!(totals.count("replacements") >= 3 * 4);
    }
}
