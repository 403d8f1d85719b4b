//! `--compare old.json new.json`: hold a new report against an old one
//! with the bounds `BENCHMARK.json` fixes.
//!
//! One row per (end-to-end metric, workload): *regressed* when the new
//! median is worse than the old by more than the metric's bound,
//! *improved* when it is better by more than the bound, otherwise
//! *unchanged* — or *unresolved* when either report's spread over its
//! repetitions is wider than the bound, because then "no change" is not
//! something these two runs can show. A row per workload holds the share
//! of failed operations, which may not rise at all.

use crate::cli::DECLARATION;
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `old`, as a share of `old`; negative when
/// it is better.
fn worsening(old: f64, new: f64, higher_is_better: bool) -> f64 {
    let change = (new - old) / old;
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(old: f64, new: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let worse = worsening(old, new, higher_is_better);
    if worse > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn number(j: Option<&Json>) -> Option<f64> {
    j.and_then(Json::as_f64)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two reports written by `--all --out`. `Ok(true)` when nothing
/// regressed and no workload failed a larger share of its operations.
pub fn compare(old: &Json, new: &Json) -> Result<bool, String> {
    let decl = Json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    let section = |report: &Json, which: &str| -> Result<Json, String> {
        report
            .get("end_to_end")
            .cloned()
            .ok_or_else(|| format!("the {which} report has no end_to_end section"))
    };
    let (old, new) = (section(old, "old")?, section(new, "new")?);
    let mut passed = true;
    println!(
        "{:16} {:22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "old", "new", "change", "bound", "spread"
    );
    for w in decl.get("workloads").map(Json::as_arr).unwrap_or_default() {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or_default();
        let (Some(o), Some(n)) = (old.get(workload), new.get(workload)) else {
            return Err(format!("workload {workload} is missing from a report"));
        };
        for m in decl.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = number(m.get("bound")).unwrap_or(0.0);
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let value = |r: &Json| number(r.get("metrics").and_then(|x| x.get(name)?.get("value")));
            let spread =
                |r: &Json| number(r.get("spread").and_then(|x| x.get(name))).unwrap_or(0.0);
            let (Some(ov), Some(nv)) = (value(o), value(n)) else {
                return Err(format!(
                    "{workload}: metric {name} is missing from a report"
                ));
            };
            let sp = spread(o).max(spread(n));
            let v = verdict(ov, nv, higher, bound, sp);
            passed &= v != Verdict::Regressed;
            println!(
                "{workload:16} {name:22} {ov:>14.5} {nv:>14.5} {:>+7.1}% {:>6.0}% {:>6.1}%  {}",
                (nv - ov) / ov * 100.0,
                bound * 100.0,
                sp * 100.0,
                v.as_str()
            );
        }
        let failed_share = |r: &Json| {
            number(r.get("failed")).unwrap_or(0.0) / number(r.get("attempted")).unwrap_or(1.0)
        };
        let (of, nf) = (failed_share(o), failed_share(n));
        let worse = nf > of;
        passed &= !worse;
        println!(
            "{workload:16} {:22} {of:>14.5} {nf:>14.5} {:>32}",
            "failed_share",
            if worse { "regressed" } else { "unchanged" }
        );
    }
    Ok(passed)
}

pub fn compare_files(old: &str, new: &str) -> Result<bool, String> {
    compare(&load(old)?, &load(new)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Throughput: higher is better.
        assert_eq!(verdict(100.0, 85.0, true, 0.1, 0.02), Verdict::Regressed);
        assert_eq!(verdict(100.0, 115.0, true, 0.1, 0.02), Verdict::Improved);
        assert_eq!(verdict(100.0, 95.0, true, 0.1, 0.02), Verdict::Unchanged);
        // Latency: lower is better.
        assert_eq!(verdict(10.0, 11.5, false, 0.1, 0.02), Verdict::Regressed);
        assert_eq!(verdict(10.0, 8.5, false, 0.1, 0.02), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(verdict(100.0, 97.0, true, 0.1, 0.3), Verdict::Unresolved);
        // A regression stays a regression however wide the spread.
        assert_eq!(verdict(100.0, 80.0, true, 0.1, 0.3), Verdict::Regressed);
    }
}
