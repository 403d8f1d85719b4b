//! Run-level coverage for the differential leg: error codes seen,
//! expression kinds generated and optimizer rules fired, rendered under
//! the driver's tally line.

use std::collections::BTreeMap;
use xqr_compiler::RewriteStats;
use xqr_xdm::ErrorCode;

#[derive(Default)]
pub struct RunReport {
    /// Stable error codes observed on agreed-error cases.
    pub error_codes: BTreeMap<&'static str, usize>,
    /// Expression kinds emitted by the generator, summed over the run.
    pub expr_kinds: BTreeMap<&'static str, usize>,
    /// Optimizer rules that fired at least once, with firing counts.
    pub rewrite_rules: BTreeMap<&'static str, usize>,
}

impl RunReport {
    pub fn note_kinds(&mut self, kinds: &BTreeMap<&'static str, usize>) {
        for (k, v) in kinds {
            *self.expr_kinds.entry(k).or_insert(0) += v;
        }
    }

    pub fn note_rewrites(&mut self, stats: &RewriteStats) {
        for (rule, n) in stats {
            *self.rewrite_rules.entry(rule).or_insert(0) += n;
        }
    }

    pub fn note_error(&mut self, code: ErrorCode) {
        *self.error_codes.entry(code.as_str()).or_insert(0) += 1;
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.error_codes.is_empty() {
            out.push_str("error codes on agreed-error cases:\n");
            for (code, n) in &self.error_codes {
                out.push_str(&format!("  {code:<10} {n}\n"));
            }
        }
        out.push_str(&format!(
            "expression kinds exercised ({}):\n",
            self.expr_kinds.len()
        ));
        for (kind, n) in &self.expr_kinds {
            out.push_str(&format!("  {kind:<28} {n}\n"));
        }
        out.push_str(&format!(
            "rewrite rules fired ({}):\n",
            self.rewrite_rules.len()
        ));
        for (rule, n) in &self.rewrite_rules {
            out.push_str(&format!("  {rule:<28} {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_sections() {
        let mut r = RunReport::default();
        r.note_kinds(&BTreeMap::from([("path", 5usize)]));
        let mut stats = RewriteStats::default();
        stats.insert("constant-fold-arith", 2);
        r.note_rewrites(&stats);
        r.note_error(ErrorCode::DivisionByZero);
        let text = r.render();
        assert!(text.contains("path"));
        assert!(text.contains("constant-fold-arith"));
        assert!(text.contains("FOAR0001"));
    }
}
