//! Spans recorded by the benchmark's own code around its calls into each
//! layer, kept in memory and written out when the traced run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`. Spans of one
//! operation share its `op_id`; `parent` indexes the span list. A layer's
//! self time is its span's duration minus the part its children cover.
//! Counts are taken at the same boundaries, so a ratio such as ns/byte
//! divides time and work measured in the same place.
//!
//! A disabled tracer runs the same code and records nothing: the traced
//! run replays its operations once with the tracer off and once with it
//! on, and the difference is `trace.overhead_share`.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `core.execute`.
    pub name: &'static str,
    /// Optional qualifier (`Q8`, `giant`); rendered as `name.tag`.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn full_name(&self) -> String {
        if self.tag.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.name, self.tag)
        }
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Currently open spans, innermost last.
    stack: Vec<usize>,
    op_id: u64,
    counts: BTreeMap<&'static str, u64>,
}

/// Time and count totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Spans opened from here on belong to operation `op_id`.
    pub fn begin_op(&mut self, op_id: u64) {
        debug_assert!(self.stack.is_empty(), "an operation left a span open");
        self.op_id = op_id;
    }

    /// Run `f` inside a span named `name`; nested calls become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_tagged(name, "", f)
    }

    pub fn span_tagged<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(idx);
        // Clock reads sit innermost, so bookkeeping lands in the parent.
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        out
    }

    /// Add `n` to the named count (bytes, tokens, nodes, …).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per full name: how many spans, their summed duration, and their
    /// summed self time (duration minus direct children).
    pub fn totals(&self) -> BTreeMap<String, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<String, Total> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.full_name()).or_default();
            t.spans += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Durations of every span with this base name, whatever its tag.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// The span file: every span, plus the counts read beside them.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.full_name())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(s.op_id as f64)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)));
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
            ("counts", Json::obj(counts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.begin_op(7);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span_tagged("inner", "x", |_| ());
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.spans, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(
            outer.self_ns,
            outer.total_ns - inner.total_ns - totals["inner.x"].total_ns
        );
        assert!(t.spans().iter().all(|s| s.op_id == 7));
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("a", |t| t.count("n", 3));
        assert!(t.spans().is_empty());
        assert_eq!(t.counted("n"), 0);
    }
}
