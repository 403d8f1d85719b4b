//! Per-execution resource governance: budgets, deadlines, cancellation.
//!
//! The paper's production lesson is that a shared query processor must
//! survive pathological queries and documents; a runaway FLWOR or a
//! 100k-deep document must fail with a *coded error*, never take the
//! process down or run unbounded. [`QueryGuard`] is the one object every
//! layer (parser, tokenstream, store build, evaluator, serializer)
//! consults: it carries the [`Limits`] chosen by the embedder, a
//! cooperative cancellation flag triggerable from another thread via
//! [`CancelHandle`], and consumption gauges that surface in `explain`
//! output.
//!
//! Hot-loop cost is kept to a relaxed atomic increment: the wall-clock
//! deadline is only polled every [`DEADLINE_STRIDE`] charges (clock reads
//! are orders of magnitude more expensive than the increment), while the
//! cancellation flag and the budget comparisons are checked on every
//! charge — both are single relaxed loads.

use crate::error::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many budget charges happen between deadline (clock) polls.
/// Must be a power of two; the check is `count & (STRIDE-1) == 0`.
pub(crate) const DEADLINE_STRIDE: u64 = 256;

/// Resource limits for one query execution. `None` means unlimited; the
/// default is fully unlimited so embedders opt in per deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock budget from guard creation to completion.
    pub deadline: Option<Duration>,
    /// Materialized items the evaluator may produce (FLWOR bindings,
    /// sequence items, constructed nodes).
    pub max_items: Option<u64>,
    /// Tokens pulled through streaming iterators / replay buffers.
    pub max_tokens: Option<u64>,
    /// Bytes of serialized output.
    pub max_output_bytes: Option<u64>,
    /// Element nesting depth the XML parser accepts.
    pub max_xml_depth: Option<u64>,
    /// Bytes of XML document text a single parse may consume.
    pub max_document_bytes: Option<u64>,
}

impl Limits {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        Limits::default()
    }

    /// True when every field is `None` — lets hot paths skip charging
    /// entirely for unguarded executions.
    pub fn is_unlimited(&self) -> bool {
        *self == Limits::default()
    }

    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    pub fn with_max_items(mut self, n: u64) -> Self {
        self.max_items = Some(n);
        self
    }

    pub fn with_max_tokens(mut self, n: u64) -> Self {
        self.max_tokens = Some(n);
        self
    }

    pub fn with_max_output_bytes(mut self, n: u64) -> Self {
        self.max_output_bytes = Some(n);
        self
    }

    pub fn with_max_xml_depth(mut self, n: u64) -> Self {
        self.max_xml_depth = Some(n);
        self
    }

    pub fn with_max_document_bytes(mut self, n: u64) -> Self {
        self.max_document_bytes = Some(n);
        self
    }
}

impl std::fmt::Display for Limits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_unlimited() {
            return write!(f, "unlimited");
        }
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "-".into(), |n| n.to_string())
        }
        write!(
            f,
            "deadline: {} items: {} tokens: {} output: {} depth: {} doc: {}",
            self.deadline
                .map_or_else(|| "-".into(), |d| format!("{}ms", d.as_millis())),
            opt(self.max_items),
            opt(self.max_tokens),
            opt(self.max_output_bytes),
            opt(self.max_xml_depth),
            opt(self.max_document_bytes),
        )
    }
}

/// Consumption snapshot, taken via [`QueryGuard::usage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardUsage {
    pub items: u64,
    pub tokens: u64,
    pub output_bytes: u64,
    pub peak_depth: u64,
}

struct GuardInner {
    limits: Limits,
    /// Precomputed absolute deadline; `None` when there is no time limit.
    deadline_at: Option<Instant>,
    cancelled: AtomicBool,
    items: AtomicU64,
    tokens: AtomicU64,
    output_bytes: AtomicU64,
    peak_depth: AtomicU64,
}

/// Shared, cheaply clonable guard for one query execution.
#[derive(Clone)]
pub struct QueryGuard {
    inner: Arc<GuardInner>,
}

/// Embedder-facing cancellation trigger, safe to move to another thread.
/// Cancelling is idempotent; the running query observes it at its next
/// budget charge and fails with `err:XQRL0003`.
#[derive(Clone)]
pub struct CancelHandle {
    inner: Arc<GuardInner>,
}

impl CancelHandle {
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }
}

impl QueryGuard {
    /// Start a guarded execution: the deadline clock starts now.
    pub fn new(limits: Limits) -> Self {
        let deadline_at = limits.deadline.map(|d| Instant::now() + d);
        QueryGuard {
            inner: Arc::new(GuardInner {
                limits,
                deadline_at,
                cancelled: AtomicBool::new(false),
                items: AtomicU64::new(0),
                tokens: AtomicU64::new(0),
                output_bytes: AtomicU64::new(0),
                peak_depth: AtomicU64::new(0),
            }),
        }
    }

    /// A guard that never trips — the no-cost default carried by
    /// unguarded executions.
    pub fn unlimited() -> Self {
        QueryGuard::new(Limits::unlimited())
    }

    /// True when no limit is set and cancellation is impossible to
    /// trigger... which it never is (a handle may exist), so this only
    /// reports whether the *limits* are all absent. Hot loops still
    /// charge; the charge is two relaxed atomics.
    pub fn is_unlimited(&self) -> bool {
        self.inner.limits.is_unlimited()
    }

    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            inner: self.inner.clone(),
        }
    }

    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Consumption so far. Gauges are updated with relaxed ordering, so a
    /// snapshot taken mid-run from another thread may lag slightly.
    pub fn usage(&self) -> GuardUsage {
        GuardUsage {
            items: self.inner.items.load(Ordering::Relaxed),
            tokens: self.inner.tokens.load(Ordering::Relaxed),
            output_bytes: self.inner.output_bytes.load(Ordering::Relaxed),
            peak_depth: self.inner.peak_depth.load(Ordering::Relaxed),
        }
    }

    /// The absolute wall-clock deadline, if this execution has one.
    /// Admission queues use it to drop work whose budget expired while
    /// it waited — queue-wait is charged against the same clock the
    /// evaluator polls.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.inner.deadline_at
    }

    /// Unconditionally poll cancellation and the wall-clock deadline —
    /// no stride skip. Called once at execution entry so a query whose
    /// budget expired (or was cancelled) while it sat in a run queue
    /// fails before doing any work; the stride-sampled charges would
    /// never notice on a query too cheap to cross a stride boundary.
    pub fn check_startup(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(Error::cancelled("query cancelled by embedder"));
        }
        if let Some(at) = self.inner.deadline_at {
            if Instant::now() > at {
                return Err(Error::timeout(format!(
                    "deadline of {:?} exceeded before execution started",
                    self.inner.limits.deadline.unwrap_or_default()
                )));
            }
        }
        Ok(())
    }

    #[inline]
    fn check_cancel_and_deadline(&self, count_before: u64, n: u64) -> Result<()> {
        if self.is_cancelled() {
            return Err(Error::cancelled("query cancelled by embedder"));
        }
        // Poll the clock only when the counter crosses a stride boundary,
        // so long runs pay ~1/256th of the clock cost. `n` can be large
        // (byte charges), so detect boundary *crossing*, not landing.
        if let Some(at) = self.inner.deadline_at {
            let crossed = (count_before + n) / DEADLINE_STRIDE > count_before / DEADLINE_STRIDE;
            if (crossed || n >= DEADLINE_STRIDE) && Instant::now() > at {
                return Err(Error::timeout(format!(
                    "deadline of {:?} exceeded",
                    self.inner.limits.deadline.unwrap_or_default()
                )));
            }
        }
        Ok(())
    }

    /// Charge `n` materialized items. Called from the evaluator's item
    /// funnel, so this is the main cancellation/deadline poll point.
    #[inline]
    pub fn note_items(&self, n: u64) -> Result<()> {
        let before = self.inner.items.fetch_add(n, Ordering::Relaxed);
        if let Some(max) = self.inner.limits.max_items {
            if before + n > max {
                return Err(Error::limit(format!(
                    "materialized-item budget of {max} exceeded"
                )));
            }
        }
        self.check_cancel_and_deadline(before, n)
    }

    /// Charge `n` streamed/buffered tokens.
    #[inline]
    pub fn note_tokens(&self, n: u64) -> Result<()> {
        let before = self.inner.tokens.fetch_add(n, Ordering::Relaxed);
        if let Some(max) = self.inner.limits.max_tokens {
            if before + n > max {
                return Err(Error::limit(format!("token budget of {max} exceeded")));
            }
        }
        self.check_cancel_and_deadline(before, n)
    }

    /// Charge `n` bytes of serialized output.
    #[inline]
    pub fn note_output_bytes(&self, n: u64) -> Result<()> {
        let before = self.inner.output_bytes.fetch_add(n, Ordering::Relaxed);
        if let Some(max) = self.inner.limits.max_output_bytes {
            if before + n > max {
                return Err(Error::limit(format!(
                    "output budget of {max} bytes exceeded"
                )));
            }
        }
        self.check_cancel_and_deadline(before, n)
    }

    /// Record entering XML nesting depth `depth` (1-based). The parser's
    /// own hard depth cap still applies; this enforces the per-execution
    /// limit and tracks the peak for observability.
    #[inline]
    pub fn enter_depth(&self, depth: u64) -> Result<()> {
        self.inner.peak_depth.fetch_max(depth, Ordering::Relaxed);
        if let Some(max) = self.inner.limits.max_xml_depth {
            if depth > max {
                return Err(Error::limit(format!(
                    "XML nesting depth limit of {max} exceeded"
                )));
            }
        }
        Ok(())
    }

    /// Enforce the per-parse document size cap against `total` bytes of
    /// input consumed so far.
    #[inline]
    pub fn check_document_bytes(&self, total: u64) -> Result<()> {
        if let Some(max) = self.inner.limits.max_document_bytes {
            if total > max {
                return Err(Error::limit(format!(
                    "document size limit of {max} bytes exceeded"
                )));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for QueryGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryGuard")
            .field("limits", &self.inner.limits)
            .field("cancelled", &self.is_cancelled())
            .field("usage", &self.usage())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorCode;

    #[test]
    fn unlimited_never_trips() {
        let g = QueryGuard::unlimited();
        for _ in 0..10_000 {
            g.note_items(1).unwrap();
            g.note_tokens(3).unwrap();
            g.note_output_bytes(100).unwrap();
        }
        g.enter_depth(1_000_000).unwrap();
        g.check_document_bytes(u64::MAX).unwrap();
        let u = g.usage();
        assert_eq!(u.items, 10_000);
        assert_eq!(u.tokens, 30_000);
        assert_eq!(u.peak_depth, 1_000_000);
    }

    #[test]
    fn item_budget_trips_at_boundary() {
        let g = QueryGuard::new(Limits::unlimited().with_max_items(10));
        for _ in 0..10 {
            g.note_items(1).unwrap();
        }
        let err = g.note_items(1).unwrap_err();
        assert_eq!(err.code, ErrorCode::Limit);
    }

    #[test]
    fn cancellation_observed_from_handle() {
        let g = QueryGuard::unlimited();
        let h = g.cancel_handle();
        g.note_items(1).unwrap();
        std::thread::spawn(move || h.cancel()).join().unwrap();
        let err = g.note_items(1).unwrap_err();
        assert_eq!(err.code, ErrorCode::Cancelled);
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let g = QueryGuard::new(Limits::unlimited().with_deadline(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(10));
        // Charge enough to cross a stride boundary and poll the clock.
        let mut tripped = None;
        for _ in 0..=DEADLINE_STRIDE {
            if let Err(e) = g.note_items(1) {
                tripped = Some(e);
                break;
            }
        }
        assert_eq!(
            tripped.expect("deadline should fire").code,
            ErrorCode::Timeout
        );
    }

    #[test]
    fn large_charges_poll_the_clock() {
        let g = QueryGuard::new(Limits::unlimited().with_deadline(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(10));
        // A single charge bigger than the stride must not skip the poll.
        let err = g.note_output_bytes(100_000).unwrap_err();
        assert_eq!(err.code, ErrorCode::Timeout);
    }

    #[test]
    fn depth_and_doc_size_limits() {
        let g = QueryGuard::new(
            Limits::unlimited()
                .with_max_xml_depth(100)
                .with_max_document_bytes(1000),
        );
        g.enter_depth(100).unwrap();
        assert_eq!(g.enter_depth(101).unwrap_err().code, ErrorCode::Limit);
        g.check_document_bytes(1000).unwrap();
        assert_eq!(
            g.check_document_bytes(1001).unwrap_err().code,
            ErrorCode::Limit
        );
        assert_eq!(g.usage().peak_depth, 101);
    }

    #[test]
    fn display_formats_limits() {
        let l = Limits::unlimited()
            .with_deadline(Duration::from_millis(250))
            .with_max_items(1000);
        let s = l.to_string();
        assert!(s.contains("250ms"), "{s}");
        assert!(s.contains("items: 1000"), "{s}");
        assert_eq!(Limits::unlimited().to_string(), "unlimited");
    }
}
