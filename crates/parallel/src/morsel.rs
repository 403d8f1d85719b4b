//! The morsel-driven parallel join kernel: experiment E18, measured by
//! the service benchmark's `parallel.*` rows and the `parallel` bench.
//! Queries do not run it; they join serially on their own thread.
//!
//! Containment labels make label-range partitioning of the structural
//! join inputs sound: every non-root witness of a twig match starts
//! strictly inside its root match's `(start, end]` interval. So the
//! executor splits the **outermost join input** — the root twig node's
//! inverted list — into contiguous chunks, gives each chunk a label
//! window `[chunk[0].start, max(end over chunk)]`, and slices every
//! other input list to that window by binary search
//! ([`xqr_joins::range_by_start`]). Elements straddling a chunk seam
//! (an ancestor whose interval covers roots in two chunks) land in both
//! morsels' windows; tuples themselves are never duplicated because
//! each tuple is attributed to the single morsel that owns its root.
//!
//! Morsels run on a process-wide bounded [`WorkerPool`], with the
//! caller's thread always taking one morsel itself — a
//! saturated pool degrades to inline execution, never to a deadlock or
//! a spurious `err:XQRL0004`. Each morsel polls the execution's
//! [`QueryGuard`] ([`xqr_joins::guard_tick`]) and a shared abort flag
//! from inside the join loops, so cancellation,
//! deadlines and a failing sibling stop every worker within a bounded
//! stride. The per-morsel outputs — each sorted and deduplicated, with
//! pairwise-disjoint root sets ordered by label window — are merged
//! back into document order by ordered concatenation with a seam
//! verification pass, so the result is bit-identical to the serial
//! join's `sort + dedup` canonical form.

use crate::pool::WorkerPool;
use crate::sync::lock_recover;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use xqr_joins::{guard_tick, range_by_start, twig_stack_on, Labeled, TwigPattern, TwigStats};
use xqr_store::NodeId;
use xqr_xdm::{Error, QueryGuard, Result};

/// How the parallel executor splits index-fed structural joins.
///
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Master switch. Off = every join runs serially on the evaluation
    /// thread.
    pub enabled: bool,
    /// Morsel count; `0` = auto (one per available core). Forcing a
    /// count ≥ 2 is the test knob the differential oracle uses to make
    /// tiny fuzz documents split.
    pub morsels: usize,
    /// Root-list length below which splitting is not attempted: on
    /// small inputs the pool handoff and merge cost more than the join
    /// (the honest negative of experiment E18).
    pub min_split: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            enabled: true,
            morsels: 0,
            min_split: 1024,
        }
    }
}

impl ParallelConfig {
    /// Parallelism off: the serial join path, bit-identical output.
    pub fn off() -> Self {
        ParallelConfig {
            enabled: false,
            ..Default::default()
        }
    }

    /// The test knob: force exactly `morsels` morsels with no minimum
    /// input size, so even a ten-element fuzz document exercises the
    /// split/merge machinery.
    pub fn forced(morsels: usize) -> Self {
        ParallelConfig {
            enabled: true,
            morsels,
            min_split: 0,
        }
    }

    /// The morsel count this config resolves to on this machine.
    pub(crate) fn resolved_morsels(&self) -> usize {
        if self.morsels != 0 {
            self.morsels
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Should a join whose root list has `root_len` entries split?
    pub(crate) fn should_split(&self, root_len: usize) -> bool {
        self.enabled && root_len >= self.min_split.max(2) && self.resolved_morsels() > 1
    }
}

/// Join-loop iterations between polls of the sibling-abort flag inside
/// a morsel, the same cadence as [`guard_tick`]'s cancellation poll.
const ABORT_STRIDE: u32 = 16;

/// What one [`parallel_twig_stack`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelRun {
    /// Morsels executed (1 = the split was refused and the join ran
    /// serially on the calling thread).
    pub morsels: usize,
    /// Morsels that ran on the calling thread because the shared pool
    /// was saturated (plus the caller's own morsel).
    pub inline_morsels: usize,
    /// Aggregated join instrumentation. `pushes`/`path_solutions` are
    /// summed across morsels, so boundary-replicated elements count once
    /// per morsel that touched them; `merged` is the exact final tuple
    /// count.
    pub stats: TwigStats,
}

static MORSEL_POOL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide morsel pool: one worker per available core, shared
/// by every engine in the process. Sized once, never shut down; a
/// saturated pool sheds morsels back to the calling thread (inline
/// execution), so a join never fails with `err:XQRL0004`.
pub(crate) fn morsel_pool() -> &'static WorkerPool {
    MORSEL_POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        WorkerPool::new(workers, workers.max(4) * 4)
    })
}

/// Everything a morsel shares with its siblings.
struct MorselShared {
    twig: TwigPattern,
    lists: Vec<Arc<Vec<Labeled>>>,
    guard: QueryGuard,
    /// Raised by the first failing morsel; siblings observe it at their
    /// next tick and abandon their partial work.
    abort: AtomicBool,
    /// The error that raised `abort` (set-once, *before* the flag, so a
    /// sibling's "aborted" verdict can never overwrite the root cause).
    first_error: Mutex<Option<Error>>,
}

impl MorselShared {
    fn fail(&self, err: Error) {
        {
            let mut slot = lock_recover(&self.first_error);
            if slot.is_none() {
                *slot = Some(err);
            }
        }
        self.abort.store(true, Ordering::Release);
    }
}

/// One morsel's slice plan: index ranges into the shared lists.
/// `ranges[0]` is the root chunk itself; `ranges[i]` for `i > 0` is the
/// window of list `i` that can contain witnesses for roots in the chunk
/// (boundary-straddlers included, and shared with adjacent morsels).
#[derive(Debug, Clone)]
struct MorselPlan {
    ranges: Vec<(usize, usize)>,
}

/// Partition the root list into `m` contiguous chunks and slice every
/// other list to each chunk's label window.
fn plan_morsels(lists: &[Arc<Vec<Labeled>>], m: usize) -> Vec<MorselPlan> {
    let root = &lists[0];
    let chunk = root.len().div_ceil(m);
    let mut plans = Vec::with_capacity(m);
    for c in 0..m {
        let from = c * chunk;
        let to = ((c + 1) * chunk).min(root.len());
        if from >= to {
            // Fewer root entries than requested morsels: trailing
            // morsels are empty and contribute nothing to the merge.
            plans.push(MorselPlan {
                ranges: std::iter::repeat_n((0, 0), lists.len()).collect(),
            });
            continue;
        }
        let lo = root[from].start;
        let hi = root[from..to].iter().map(|e| e.end).max().unwrap_or(lo);
        let mut ranges = Vec::with_capacity(lists.len());
        ranges.push((from, to));
        for list in &lists[1..] {
            let window = range_by_start(list, lo, hi);
            let off = window.as_ptr() as usize - list.as_ptr() as usize;
            let from = off / std::mem::size_of::<Labeled>();
            ranges.push((from, from + window.len()));
        }
        plans.push(MorselPlan { ranges });
    }
    plans
}

/// Run one morsel: slice the shared lists per the plan and run the
/// holistic join with a guard/abort tick. The `parallel.morsel`
/// failpoint sits at the top so chaos schedules can kill, delay,
/// cancel or budget-trip exactly one morsel of a multi-morsel join.
fn run_morsel(sh: &MorselShared, plan: &MorselPlan) -> Result<(Vec<Vec<NodeId>>, TwigStats)> {
    xqr_faults::faultpoint!("parallel.morsel");
    let slices: Vec<&[Labeled]> = plan
        .ranges
        .iter()
        .enumerate()
        .map(|(i, &(from, to))| &sh.lists[i][from..to])
        .collect();
    let mut guarded = guard_tick(&sh.guard);
    let mut n: u32 = 0;
    let mut tick = || -> Result<()> {
        n = n.wrapping_add(1);
        if n.is_multiple_of(ABORT_STRIDE) && sh.abort.load(Ordering::Acquire) {
            // The root cause is already in `first_error`; this verdict
            // is discarded by the collector.
            return Err(Error::cancelled("sibling morsel failed; aborting"));
        }
        guarded()
    };
    twig_stack_on(&sh.twig, &slices, &mut tick)
}

/// Contain a morsel panic as `err:XQRL0000`, exactly like the engine's
/// evaluation boundary: a poisoned morsel fails the query with a stable
/// code, never takes a pool worker or the process down.
fn contained(sh: &MorselShared, plan: &MorselPlan) -> Result<(Vec<Vec<NodeId>>, TwigStats)> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_morsel(sh, plan))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(Error::internal(format!("morsel panicked: {msg}")))
        }
    }
}

/// Run the holistic twig join over `lists` (per-twig-node, sorted by
/// start — exactly [`xqr_joins::twig_stack`]'s input), split into
/// morsels per `config` and executed across the shared worker pool.
///
/// The output is **bit-identical** to `twig_stack(&twig, &lists)`: the
/// same sorted, deduplicated match tuples in document order. Errors
/// (cancellation, deadline, an injected fault or a contained panic in
/// any morsel) fail the whole join with that morsel's stable coded
/// error — and only after every sibling morsel has stopped, so no
/// worker is still touching the inputs when the error surfaces.
pub fn parallel_twig_stack(
    twig: &TwigPattern,
    lists: Vec<Arc<Vec<Labeled>>>,
    config: &ParallelConfig,
    guard: &QueryGuard,
) -> Result<(Vec<Vec<NodeId>>, ParallelRun)> {
    assert_eq!(lists.len(), twig.len());
    let m = config.resolved_morsels().min(lists[0].len()).max(1);
    if m <= 1 || !config.should_split(lists[0].len()) {
        // Serial fallback on the calling thread, still guard-polled.
        let slices: Vec<&[Labeled]> = lists.iter().map(|l| l.as_slice()).collect();
        let (tuples, stats) = twig_stack_on(twig, &slices, &mut guard_tick(guard))?;
        return Ok((
            tuples,
            ParallelRun {
                morsels: 1,
                inline_morsels: 1,
                stats,
            },
        ));
    }

    let plans = plan_morsels(&lists, m);
    let shared = Arc::new(MorselShared {
        twig: twig.clone(),
        lists,
        guard: guard.clone(),
        abort: AtomicBool::new(false),
        first_error: Mutex::new(None),
    });

    // Dispatch morsels 1..m to the pool; the caller always runs morsel 0
    // itself (and adopts any morsel the saturated pool sheds), so the
    // join makes progress even with zero free workers.
    let (tx, rx) = mpsc::channel::<(usize, Option<(Vec<Vec<NodeId>>, TwigStats)>)>();
    let mut pending = 0usize;
    let mut inline = vec![0usize]; // morsel indices run on this thread
    for (c, plan) in plans.iter().enumerate().skip(1) {
        let sh = shared.clone();
        let plan = plan.clone();
        let tx = tx.clone();
        let submitted = morsel_pool().submit(move || {
            let out = match contained(&sh, &plan) {
                Ok(part) => Some(part),
                Err(e) => {
                    sh.fail(e);
                    None
                }
            };
            // The collector owns the receiver for the whole join, so a
            // send can only fail if the caller panicked mid-collect.
            let _ = tx.send((c, out));
        });
        match submitted {
            Ok(()) => pending += 1,
            // Pool saturated (or shutting down): run this morsel inline.
            Err(_) => inline.push(c),
        }
    }

    let mut parts: Vec<Option<(Vec<Vec<NodeId>>, TwigStats)>> = (0..m).map(|_| None).collect();
    let inline_count = inline.len();
    for c in inline {
        match contained(&shared, &plans[c]) {
            Ok(part) => parts[c] = Some(part),
            Err(e) => shared.fail(e),
        }
    }
    // Wait for *every* submitted morsel, success or failure: by the time
    // this loop exits, no pool worker holds a reference to the inputs.
    for _ in 0..pending {
        match rx.recv() {
            Ok((c, part)) => parts[c] = part,
            // Disconnected sender: the worker died mid-job. The pool's
            // own catch makes this unreachable; treat it as a failure
            // rather than hang.
            Err(_) => shared.fail(Error::internal("morsel worker vanished")),
        }
    }

    if let Some(err) = lock_recover(&shared.first_error).take() {
        return Err(err);
    }

    // Merge: per-morsel outputs are sorted and root-disjoint, and the
    // chunks are ordered by label window, so ordered concatenation *is*
    // the k-way merge. Node ids follow document order within a document,
    // so the concatenation is already the serial join's canonical sorted
    // order; the verification pass restores it if that invariant ever
    // breaks, and the seam dedup drops any duplicate a future
    // replication scheme might introduce.
    let mut stats = TwigStats::default();
    let mut merged: Vec<Vec<NodeId>> = Vec::new();
    for part in parts.into_iter().flatten() {
        stats.path_solutions += part.1.path_solutions;
        stats.pushes += part.1.pushes;
        merged.extend(part.0);
    }
    if !merged.windows(2).all(|w| w[0] <= w[1]) {
        merged.sort();
    }
    merged.dedup();
    stats.merged = merged.len();
    Ok((
        merged,
        ParallelRun {
            morsels: m,
            inline_morsels: inline_count,
            stats,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xqr_joins::{element_list, twig_stack};
    use xqr_store::Document;
    use xqr_xdm::{ErrorCode, NamePool};

    fn lists_for(doc: &Document, twig: &TwigPattern) -> Vec<Vec<Labeled>> {
        twig.nodes
            .iter()
            .map(|n| element_list(doc, n.name))
            .collect()
    }

    fn check_all_counts(xml: &str, pattern: &str) {
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(xml, names.clone()).unwrap();
        let twig = TwigPattern::parse(pattern, &names).unwrap();
        let lists = lists_for(&doc, &twig);
        let (want, _) = twig_stack(&twig, &lists);
        let shared: Vec<Arc<Vec<Labeled>>> = lists.into_iter().map(Arc::new).collect();
        for m in [1usize, 2, 3, 5, 8, 64] {
            let cfg = ParallelConfig::forced(m);
            let guard = QueryGuard::unlimited();
            let (got, run) = parallel_twig_stack(&twig, shared.clone(), &cfg, &guard).unwrap();
            assert_eq!(got, want, "{pattern} on {xml} with {m} morsels");
            assert_eq!(run.stats.merged, want.len());
        }
    }

    #[test]
    fn parallel_equals_serial_on_paths_and_twigs() {
        let xml = "<r><a><b/><c/></a><a><b/></a><x><a><b/><c/><c/></a></x><a/></r>";
        for pattern in ["//a", "//a//b", "//a/b", "//a[b]/c", "//r//a[b][c]"] {
            check_all_counts(xml, pattern);
        }
    }

    #[test]
    fn parallel_equals_serial_on_recursive_nesting() {
        // Nested same-name elements: the boundary-straddling case by
        // construction — outer `a`s contain roots in later chunks.
        let mut xml = String::new();
        for i in 0..40 {
            xml.push_str(if i % 3 == 0 { "<a><b/>" } else { "<a>" });
        }
        xml.push_str("<c/>");
        for _ in 0..40 {
            xml.push_str("</a>");
        }
        for pattern in ["//a//a", "//a[b]//c", "//a//c"] {
            check_all_counts(&xml, pattern);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        check_all_counts("<r/>", "//zz");
        check_all_counts("<a/>", "//a");
        check_all_counts("<a><b/></a>", "//a/b");
    }

    /// The morsel submit is a thread hand-off: a schedule installed on
    /// the thread that runs the join is consulted by every morsel,
    /// including the ones pool workers ran — and stops it there.
    #[test]
    fn the_callers_fault_schedule_follows_its_morsels_onto_pool_workers() {
        use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
        let names = Arc::new(NamePool::new());
        let doc = Document::parse("<r><a/><a/><a/><a/><a/><a/></r>", names.clone()).unwrap();
        let twig = TwigPattern::parse("//a", &names).unwrap();
        let lists: Vec<_> = lists_for(&doc, &twig).into_iter().map(Arc::new).collect();
        let join = || {
            let guard = QueryGuard::unlimited();
            parallel_twig_stack(&twig, lists.clone(), &ParallelConfig::forced(3), &guard)
        };
        {
            // A delay of no length: consulted and counted, nothing fails.
            let _faults = xqr_faults::install(FaultSchedule::new(1).rule(FaultRule::new(
                "parallel.morsel",
                FaultKind::Delay(std::time::Duration::ZERO),
            )));
            // (Only a morsel pool saturated by other tests runs more
            // than the caller's own morsel inline; ask again then.)
            let mut joins = 0;
            let reached_a_worker = (0..100).any(|_| {
                let (tuples, run) = join().unwrap();
                joins += 1;
                assert_eq!((tuples.len(), run.morsels), (6, 3));
                assert_eq!(xqr_faults::fires_at("parallel.morsel"), 3 * joins);
                run.inline_morsels < 3 || {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    false
                }
            });
            assert!(reached_a_worker, "no morsel ever ran on a pool worker");
        }
        {
            // The third morsel to start fails the join, whichever thread
            // it started on.
            let _faults = xqr_faults::install(
                FaultSchedule::new(1)
                    .rule(FaultRule::new("parallel.morsel", FaultKind::ErrorReturn).skip_first(2)),
            );
            assert_eq!(join().unwrap_err().code, ErrorCode::Unavailable);
        }
        // Un-armed again, the pool's workers kept nothing.
        assert_eq!(join().unwrap().0.len(), 6);
    }

    #[test]
    fn default_config_refuses_small_inputs() {
        let cfg = ParallelConfig::default();
        assert!(!cfg.should_split(10));
        assert!(cfg.morsels == 0);
        // Forced configs split anything with at least two root entries.
        assert!(ParallelConfig::forced(2).should_split(2));
        assert!(!ParallelConfig::forced(2).should_split(1));
        assert!(!ParallelConfig::off().should_split(1 << 20));
    }

    #[test]
    fn cancellation_stops_a_running_parallel_join() {
        // A pathological self-join: ~1.2M output tuples, plenty of loop
        // iterations for the tick to observe the flag.
        let mut xml = String::new();
        for _ in 0..1500 {
            xml.push_str("<a>");
        }
        for _ in 0..1500 {
            xml.push_str("</a>");
        }
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&xml, names.clone()).unwrap();
        let twig = TwigPattern::parse("//a//a", &names).unwrap();
        let lists: Vec<Arc<Vec<Labeled>>> =
            lists_for(&doc, &twig).into_iter().map(Arc::new).collect();
        let guard = QueryGuard::unlimited();
        let handle = guard.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            handle.cancel();
        });
        let err =
            parallel_twig_stack(&twig, lists, &ParallelConfig::forced(4), &guard).unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err.code, ErrorCode::Cancelled);
        // Every morsel has returned by the time the error surfaces; the
        // shared pool must drain back to idle almost immediately.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while morsel_pool().stats().active > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "morsels still running"
            );
            std::thread::yield_now();
        }
    }
}
