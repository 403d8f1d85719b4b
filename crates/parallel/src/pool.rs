//! Admission-controlled worker pool: bounded queue, fixed workers.
//!
//! The admission state machine has three regions, decided under one
//! lock so the decision is exact (no lost-wakeup or double-count races):
//!
//! 1. **admit-run** — an idle worker exists (`active < workers`): the
//!    job enqueues and a worker picks it up immediately;
//! 2. **admit-queue** — all workers busy but the queue has room
//!    (`queue.len() < max_queued`): the job waits its turn;
//! 3. **reject** — workers and queue both full: the submission fails
//!    *immediately* with `err:XQRL0004 Overloaded`. Back-pressure is the
//!    caller's problem by design — a loaded service must shed work, not
//!    buffer it without bound.
//!
//! Workers mark themselves active while still holding the queue lock as
//! they dequeue, so `active` can never transiently undercount and let an
//! extra job slip past the bound.
//!
//! Admission is **deadline-aware**: a job may carry the absolute
//! deadline of the query it runs (the same clock its guard polls), and
//! a worker dequeuing a job whose deadline already passed *drops* it —
//! running its `expire` notifier instead of the work — so queue-wait is
//! charged against the deadline and over-budget work never occupies a
//! worker just to fail at `check_startup`. Queue-wait for every dequeued
//! job (run or dropped) is recorded in a [`LatencyHistogram`], and the
//! counters hold `dropped_expired + completed == admitted` once the
//! queue drains (shutdown discards queued jobs outside the invariant).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::sync::lock_recover;
use xqr_pressure::MemoryLedger;
use xqr_xdm::{Error, LatencyHistogram, Result};

/// The work phase of a job. It may return a *publish* closure, which the
/// worker runs only after freeing its slot — see
/// [`WorkerPool::submit_with_publish`].
type Job = Box<dyn FnOnce() -> Publish + Send + 'static>;
type Publish = Option<Box<dyn FnOnce() + Send + 'static>>;

/// Pool gauges and counters, snapshotted via [`WorkerPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs currently executing on a worker.
    pub active: u64,
    /// Jobs admitted but not yet started.
    pub queued: u64,
    /// Jobs rejected with `err:XQRL0004` since the pool started.
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs accepted into the queue (run or not).
    pub admitted: u64,
    /// Jobs dropped at dequeue because their deadline had already
    /// passed — queue-wait consumed the whole budget.
    pub dropped_expired: u64,
}

/// One admitted-but-unstarted job.
struct Queued {
    job: Job,
    /// When admission accepted it — start of the queue-wait clock.
    enqueued: Instant,
    /// Absolute deadline of the query this job runs, if any.
    deadline: Option<Instant>,
    /// Runs instead of `job` when the deadline passed in the queue;
    /// delivers the timeout to whoever is waiting on the result.
    expire: Option<Box<dyn FnOnce() + Send + 'static>>,
    /// The submitter's fault schedule: the worker runs the job, `expire`
    /// and the publish closure under it (zero-sized without failpoints).
    faults: xqr_faults::FaultScope,
}

struct PoolState {
    queue: VecDeque<Queued>,
    /// Jobs currently executing. Incremented under the lock at dequeue,
    /// decremented after the job returns.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a job is enqueued or shutdown begins.
    work_ready: Condvar,
    workers: usize,
    max_queued: usize,
    rejected: AtomicU64,
    completed: AtomicU64,
    admitted: AtomicU64,
    dropped_expired: AtomicU64,
    /// Time from admission to dequeue, for every dequeued job.
    queue_wait: LatencyHistogram,
    /// Optional memory-pressure source: lets the shed message say
    /// whether the client hit a full queue under Green or a browning-out
    /// process (set once by the owning service).
    pressure: OnceLock<Arc<MemoryLedger>>,
}

/// A fixed-size worker pool with a bounded run queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (clamped to at least 1) serving a queue
    /// of at most `max_queued` waiting jobs. Workers are started with
    /// the deep stack ([`xqr_faults::deep_stack`]), so the jobs they run
    /// parse and evaluate in place.
    pub fn new(workers: usize, max_queued: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            workers,
            max_queued,
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            dropped_expired: AtomicU64::new(0),
            queue_wait: LatencyHistogram::new(),
            pressure: OnceLock::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                xqr_faults::deep_stack::spawn_deep(format!("xqr-pool-worker-{i}"), move || {
                    worker_loop(shared)
                })
                .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Admit `job` or reject it with `err:XQRL0004`. Admission never
    /// blocks the submitter; the job itself runs on a worker thread.
    pub(crate) fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<()> {
        self.submit_with_publish(move || {
            job();
            None
        })
    }

    /// Like `WorkerPool::submit`, but the job returns an optional
    /// *publish* closure that the worker runs only after decrementing
    /// `active`. Use this when completing the job is observable to other
    /// threads (delivering a result over a channel): by the time an
    /// observer sees the result, the worker slot is already free, so a
    /// caller that serializes "wait for result, then submit" is never
    /// spuriously shed with `XQRL0004` while a worker is logically idle.
    pub fn submit_with_publish(
        &self,
        job: impl FnOnce() -> Publish + Send + 'static,
    ) -> Result<()> {
        self.submit_governed(None, None, job)
    }

    /// Full-control admission: like [`WorkerPool::submit_with_publish`],
    /// but the job may carry the absolute `deadline` of the query it
    /// runs plus an `expire` notifier. If the deadline passes while the
    /// job waits in the queue, a worker *drops* it — runs `expire`
    /// (which should deliver the timeout to the result channel) instead
    /// of the work — so over-budget queries cost the pool nothing but
    /// the dequeue.
    pub fn submit_governed(
        &self,
        deadline: Option<Instant>,
        expire: Option<Box<dyn FnOnce() + Send + 'static>>,
        job: impl FnOnce() -> Publish + Send + 'static,
    ) -> Result<()> {
        xqr_faults::faultpoint!("pool.dispatch");
        let mut state = lock_recover(&self.shared.state);
        if state.shutdown {
            return Err(Error::overloaded("service is shutting down"));
        }
        // Reject only when no worker is idle AND the queue is full.
        if state.active >= self.shared.workers && state.queue.len() >= self.shared.max_queued {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            // Name the pressure state so a client (or operator) can
            // tell "run queue full under Green" from "process is
            // browning out" without correlating logs.
            let pressure = self
                .shared
                .pressure
                .get()
                .map_or("untracked", |l| l.state().as_str());
            return Err(Error::overloaded(format!(
                "all {} workers busy and run queue full ({} waiting; memory pressure: {})",
                self.shared.workers,
                state.queue.len(),
                pressure
            )));
        }
        state.queue.push_back(Queued {
            job: Box::new(job),
            enqueued: Instant::now(),
            deadline,
            expire,
            faults: xqr_faults::current(),
        });
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Install the memory ledger whose pressure state annotates shed
    /// errors. First call wins.
    pub fn set_pressure(&self, ledger: Arc<MemoryLedger>) {
        let _ = self.shared.pressure.set(ledger);
    }

    /// Queue-wait distribution: admission → dequeue, for every dequeued
    /// job (run or expired-and-dropped).
    pub fn queue_wait(&self) -> &LatencyHistogram {
        &self.shared.queue_wait
    }

    pub fn stats(&self) -> PoolStats {
        let state = lock_recover(&self.shared.state);
        PoolStats {
            active: state.active as u64,
            queued: state.queue.len() as u64,
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            dropped_expired: self.shared.dropped_expired.load(Ordering::Relaxed),
        }
    }

    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    pub fn max_queued(&self) -> usize {
        self.shared.max_queued
    }

    /// Begin shutdown: new submissions are rejected with a stable
    /// `err:XQRL0004`, queued-but-unstarted jobs are dropped (their
    /// submitters see the result channel close, not a hang), and
    /// in-flight jobs run to completion. Idempotent; [`Drop`] calls it
    /// before joining the workers.
    pub(crate) fn shutdown(&self) {
        {
            let mut state = lock_recover(&self.shared.state);
            state.shutdown = true;
            state.queue.clear();
        }
        self.shared.work_ready.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        // Jobs whose deadline passed while queued: collected under the
        // lock, expired outside it.
        let mut expired: Vec<Queued> = Vec::new();
        let mut quit = false;
        let live = {
            let mut state = lock_recover(&shared.state);
            'admit: loop {
                while let Some(entry) = state.queue.pop_front() {
                    if entry.deadline.is_some_and(|d| Instant::now() >= d) {
                        // Dropped from the queue, not executed: the
                        // guard's clock already ran out waiting.
                        expired.push(entry);
                        continue;
                    }
                    // Become active before releasing the lock: admission
                    // must see either the queue entry or the active
                    // increment, never neither.
                    state.active += 1;
                    break 'admit Some(entry);
                }
                if state.shutdown {
                    quit = true;
                    break 'admit None;
                }
                if !expired.is_empty() {
                    // Deliver the expirations before going back to sleep.
                    break 'admit None;
                }
                // A Condvar wait can also observe poisoning; the pool
                // state's invariants hold at every unlock, so recover.
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        for entry in expired {
            shared.queue_wait.record(entry.enqueued.elapsed());
            shared.dropped_expired.fetch_add(1, Ordering::Relaxed);
            let _faults = entry.faults.enter();
            if let Some(expire) = entry.expire {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(expire));
            }
        }
        let Some(entry) = live else {
            if quit {
                return;
            }
            continue;
        };
        shared.queue_wait.record(entry.enqueued.elapsed());
        let _faults = entry.faults.enter();
        // Jobs are expected to contain their own panics (the engine's
        // execute path does); a panic here would poison nothing but this
        // worker, and the catch keeps the pool at full strength anyway.
        let publish =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry.job)).unwrap_or(None);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = lock_recover(&shared.state);
            state.active -= 1;
        }
        // Publish only after the slot is free: anyone woken by the result
        // can immediately re-submit without a spurious rejection.
        if let Some(publish) = publish {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(publish));
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_complete() {
        let pool = WorkerPool::new(2, 8);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap()).unwrap();
        }
        let mut got: Vec<i32> = (0..10)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn saturation_rejects_with_overloaded() {
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // ...fill the queue...
        let (q_tx, _q_rx) = mpsc::channel::<()>();
        pool.submit(move || drop(q_tx)).unwrap();
        // ...and the next submission is shed, immediately.
        let err = pool.submit(|| {}).unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::Overloaded);
        assert_eq!(err.code.as_str(), "XQRL0004");
        assert_eq!(pool.stats().rejected, 1);
        // Unblock; the queued job drains and capacity returns.
        block_tx.send(()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().completed < 2 {
            assert!(std::time::Instant::now() < deadline, "pool did not drain");
            std::thread::yield_now();
        }
        pool.submit(|| {}).unwrap();
    }

    #[test]
    fn gauges_track_active_and_queued() {
        let pool = WorkerPool::new(1, 4);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        pool.submit(|| {}).unwrap();
        pool.submit(|| {}).unwrap();
        let s = pool.stats();
        assert_eq!(s.active, 1);
        assert_eq!(s.queued, 2);
        block_tx.send(()).unwrap();
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 4);
        pool.submit(|| panic!("job bug")).unwrap();
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(42).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
    }

    #[test]
    fn shutdown_rejects_new_work_with_a_stable_code() {
        let pool = WorkerPool::new(1, 4);
        pool.shutdown();
        let err = pool.submit(|| {}).unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::Overloaded);
        assert_eq!(err.code.as_str(), "XQRL0004");
        assert!(err.to_string().contains("shutting down"), "{err}");
        // Rejections-at-shutdown are not counted as load shedding.
        assert_eq!(pool.stats().rejected, 0);
        // Idempotent: a second shutdown (and the one in Drop) is a no-op.
        pool.shutdown();
    }

    #[test]
    fn drop_completes_in_flight_work_and_drops_queued_jobs() {
        let pool = WorkerPool::new(1, 4);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<&'static str>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
            done_tx.send("in-flight ran to completion").unwrap();
        })
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // Queue a job that would send if it ever ran; shutdown must drop
        // it instead, closing the channel without a message.
        let (q_tx, q_rx) = mpsc::channel::<()>();
        pool.submit(move || q_tx.send(()).unwrap()).unwrap();

        pool.shutdown();
        // The queued job is gone the moment shutdown returns: its
        // submitter observes a closed channel, never a hang.
        assert_eq!(q_rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
        // The in-flight job is still running; unblock it and drop the
        // pool. Drop joins every worker, so a leaked or wedged thread
        // would hang the test here rather than leak silently.
        block_tx.send(()).unwrap();
        drop(pool);
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "in-flight ran to completion"
        );
    }

    #[test]
    fn expired_queued_jobs_are_dropped_not_executed() {
        let pool = WorkerPool::new(1, 4);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // Queue a job whose deadline is already in the past: it must be
        // dropped at dequeue, with the expire notifier — not the job —
        // delivering the outcome.
        let (tx, rx) = mpsc::channel::<&'static str>();
        let expire_tx = tx.clone();
        pool.submit_governed(
            Some(std::time::Instant::now() - Duration::from_millis(1)),
            Some(Box::new(move || expire_tx.send("expired").unwrap())),
            move || {
                tx.send("executed").unwrap();
                None
            },
        )
        .unwrap();
        block_tx.send(()).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "expired",
            "over-deadline work must be dropped from the queue"
        );
        // Nothing else arrives: the job body never ran.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(200)),
            Err(mpsc::RecvTimeoutError::Disconnected)
        );
        let s = pool.stats();
        assert_eq!(s.dropped_expired, 1);
        assert_eq!(s.completed, 1, "only the blocker executed");
        assert!(pool.queue_wait().count() >= 2, "both dequeues recorded");
    }

    /// All three closures of a governed job run under the schedule of
    /// the thread that submitted it; the worker keeps none of it.
    #[test]
    fn job_expire_and_publish_run_under_the_submitters_fault_schedule() {
        use xqr_faults::{armed, FaultRule, FaultSchedule};
        let pool = WorkerPool::new(1, 4);
        let (tx, rx) = mpsc::channel::<(&'static str, bool)>();
        let report = |what| {
            let tx = tx.clone();
            move || tx.send((what, armed())).unwrap()
        };
        let past = Some(Instant::now() - Duration::from_millis(1));
        {
            let _faults = xqr_faults::install(
                FaultSchedule::new(1).rule(FaultRule::new("nowhere", xqr_faults::FaultKind::Panic)),
            );
            let (job, publish) = (report("job"), report("publish"));
            pool.submit_with_publish(move || {
                job();
                Some(Box::new(publish))
            })
            .unwrap();
            pool.submit_governed(past, Some(Box::new(report("expire"))), || None)
                .unwrap();
        }
        pool.submit(report("un-armed job")).unwrap();
        let seen: Vec<_> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        assert_eq!(
            seen,
            [
                ("job", true),
                ("publish", true),
                ("expire", true),
                ("un-armed job", false)
            ]
        );
    }

    /// Satellite invariant: once the queue drains (and absent shutdown,
    /// which discards jobs), every admitted job was either executed or
    /// dropped expired — `dropped_expired + completed == admitted`.
    #[test]
    fn admission_accounting_invariant_holds_under_mixed_load() {
        let pool = WorkerPool::new(2, 64);
        let (tx, rx) = mpsc::channel::<()>();
        let mut submitted = 0u64;
        for i in 0..200u64 {
            let tx = tx.clone();
            // A third of the jobs carry an already-expired deadline.
            let deadline =
                (i % 3 == 0).then(|| std::time::Instant::now() - Duration::from_millis(1));
            let expire_tx = tx.clone();
            let admitted = pool.submit_governed(
                deadline,
                Some(Box::new(move || expire_tx.send(()).unwrap())),
                move || {
                    tx.send(()).unwrap();
                    None
                },
            );
            if admitted.is_ok() {
                submitted += 1;
            }
        }
        drop(tx);
        // Every admitted job resolves one way or the other — no hang.
        for _ in 0..submitted {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let s = pool.stats();
            if s.queued == 0 && s.dropped_expired + s.completed == s.admitted {
                assert_eq!(s.admitted, submitted);
                assert!(s.dropped_expired > 0, "some jobs expired: {s:?}");
                assert!(s.completed > 0, "some jobs ran: {s:?}");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "invariant never settled: {s:?}"
            );
            std::thread::yield_now();
        }
        assert_eq!(pool.queue_wait().count(), submitted);
    }

    #[test]
    fn shed_error_names_the_pressure_state_and_queue_depth() {
        use xqr_pressure::{Category, MemoryLedger, PressureConfig};
        let pool = WorkerPool::new(1, 1);
        let ledger = Arc::new(MemoryLedger::new(PressureConfig::with_ceiling(1000)));
        ledger.charge(Category::QueryOutput, 950); // drive it Red
        pool.set_pressure(ledger);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        pool.submit(|| {}).unwrap(); // fill the queue
        let err = pool.submit(|| {}).unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::Overloaded);
        let msg = err.to_string();
        assert!(msg.contains("memory pressure: red"), "{msg}");
        assert!(msg.contains("1 waiting"), "{msg}");
        block_tx.send(()).unwrap();
    }

    #[test]
    fn a_poisoned_admission_lock_does_not_take_down_the_pool() {
        let pool = WorkerPool::new(1, 4);
        let before = crate::sync::lock_recoveries();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.shared.state.lock().unwrap();
            panic!("poison the admission lock");
        }));
        // The worker may already have recovered the lock: it can be
        // waiting on it when the panic releases it.
        assert!(pool.shared.state.is_poisoned() || crate::sync::lock_recoveries() > before);
        // Admission, the workers and the gauges all recover the lock
        // rather than propagating the panic to every later caller.
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().completed < 1 {
            assert!(std::time::Instant::now() < deadline, "job never completed");
            std::thread::yield_now();
        }
        assert!(crate::sync::lock_recoveries() > before);
    }
}
