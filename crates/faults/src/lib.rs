//! # xqr-faults — deterministic failpoints for the whole stack.
//!
//! A streaming processor can fail at any `next()` deep inside a
//! pipeline; this crate makes every such failure *injectable* so the
//! chaos suite can prove the stack's invariant: an injected fault yields
//! either a correct result (after retry/degradation) or a stable coded
//! error — never a wrong answer, a process abort, a deadlock, or a
//! leaked store document.
//!
//! ## Sites
//!
//! A **faultpoint** is a named site compiled into production code:
//!
//! ```ignore
//! xqr_faults::faultpoint!("store.read");
//! ```
//!
//! With the `failpoints` feature **off** (the default) the macro expands
//! to nothing — zero code, zero branches, verified by the bench guard in
//! `benches/engine.rs`. With the feature **on**, each site costs one
//! thread-local read until the thread runs under a schedule.
//!
//! ## Schedules
//!
//! A [`FaultSchedule`] is a seed plus rules. Every decision is a pure
//! function of `(seed, site, per-site hit index)`, so a chaos run is
//! exactly replayable from its seed: no clocks, no thread timing, no
//! global RNG. Rules choose a [`FaultKind`]: an error return
//! (`err:XQRL0005 Unavailable`), a panic (contained by the engine's
//! panic boundary as `err:XQRL0000`), a delay, a budget trip
//! (`err:XQRL0001`), or a spurious cancellation (`err:XQRL0003`).
//!
//! ## Scoping: a schedule belongs to the thread that installed it
//!
//! [`install`] puts the schedule — rules, per-site hit and fire
//! counters, the fire total — in a thread-local of the *calling*
//! thread and returns a [`FaultGuard`] that takes it out again. A
//! faultpoint consults only its own thread's schedule, so nothing is
//! process-wide: an armed test and an un-armed test run side by side in
//! one binary, two armed tests each read only their own [`fires_at`],
//! and there is no install lock to take turns on.
//!
//! A query does not stay on the thread that submitted it, so the
//! schedule follows the work to every thread it changes to. Each
//! hand-off captures [`current`] on the handing-off thread and
//! [`enter`](FaultScope::enter)s it on the receiving thread for the
//! duration of the hand-off. A service query crosses one:
//! `WorkerPool::submit_governed` (`xqr-parallel`) captures it at
//! submission, and the worker enters it around the job, its `expire`
//! notifier and its publish closure. This is how a schedule installed
//! by a client thread reaches a service worker. (The morsel kernel's
//! pool submits go through the same hand-off, so its morsels run under
//! the schedule of the join that split.)
//!
//! Parsing and evaluation need a deep stack, which [`deep_stack`] owns.
//! Pool workers are started deep, so on them parse and evaluation run
//! in place and cross no thread. A caller on any other thread (a direct
//! `Engine::query`, a test) gets one scoped deep thread per call from
//! [`deep_stack::on_deep_stack`], which enters the caller's schedule
//! there: the same hand-off, made in one place.
//!
//! Code that spawns its own threads and wants them armed (a test with
//! several clients, say) does the same two calls. With the
//! `failpoints` feature off, [`FaultScope`] and the guard are
//! zero-sized and `current`/`enter` are empty inline functions, so the
//! hand-offs cost release and benchmark builds nothing.

pub mod deep_stack;

use std::time::Duration;

/// What an armed faultpoint does when its rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return `err:XQRL0005 Unavailable` — a transient, retryable
    /// subsystem failure.
    ErrorReturn,
    /// Panic at the site. The engine's containment boundary turns this
    /// into `err:XQRL0000`; outside it, the caller must catch or degrade
    /// (lock-poison recovery is part of what this kind exercises).
    Panic,
    /// Sleep for the given duration, then proceed normally — exercises
    /// deadlines and queue back-pressure, not error paths.
    Delay(Duration),
    /// Return `err:XQRL0003 Cancelled` as if an embedder raced a cancel.
    Cancel,
    /// Return `err:XQRL0001 Limit` as if a budget tripped at the site.
    BudgetTrip,
}

/// One injection rule: which sites, which fault, how often.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Site name, exact (`"store.read"`) or a prefix wildcard
    /// (`"store.*"`, `"*"`).
    pub site: String,
    pub kind: FaultKind,
    /// Fire on (deterministically) one in `one_in` eligible hits;
    /// `1` fires on every eligible hit. Clamped to at least 1.
    pub one_in: u64,
    /// Let the first `skip_first` hits of the site pass untouched, so a
    /// pipeline gets partway in before the fault lands mid-stream.
    pub skip_first: u64,
    /// Stop firing after this many injections (`None` = unbounded).
    /// Bounded rules are what make "correct after retry" reachable.
    pub max_fires: Option<u64>,
}

impl FaultRule {
    pub fn new(site: impl Into<String>, kind: FaultKind) -> Self {
        FaultRule {
            site: site.into(),
            kind,
            one_in: 1,
            skip_first: 0,
            max_fires: None,
        }
    }

    pub fn one_in(mut self, n: u64) -> Self {
        self.one_in = n.max(1);
        self
    }

    pub fn skip_first(mut self, n: u64) -> Self {
        self.skip_first = n;
        self
    }

    pub fn max_fires(mut self, n: u64) -> Self {
        self.max_fires = Some(n);
        self
    }

    #[cfg(feature = "failpoints")]
    fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }
}

/// A seeded set of [`FaultRule`]s. Identical schedules make identical
/// decisions — the whole point.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

impl FaultSchedule {
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            rules: Vec::new(),
        }
    }

    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }
}

/// SplitMix64 — the standard stateless seed scrambler.
#[cfg(feature = "failpoints")]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(feature = "failpoints")]
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// True when this build carries the failpoint machinery (the
/// `failpoints` feature). Bench builds assert this is `false`.
pub const fn compiled_with_failpoints() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
mod active {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::marker::PhantomData;
    use std::sync::{Arc, Mutex, MutexGuard};
    use xqr_xdm::{Error, Result};

    /// One installed schedule and everything it has counted. Shared by
    /// `Arc` between the installing thread and every thread a hand-off
    /// entered it on, so the installer reads fires from all of them.
    struct Registry {
        schedule: FaultSchedule,
        counters: Mutex<Counters>,
    }

    #[derive(Default)]
    struct Counters {
        /// Per-site hit counters (every traversal of an armed site).
        hits: HashMap<&'static str, u64>,
        /// Per-site fire counters (hits where a rule injected).
        fires: HashMap<&'static str, u64>,
    }

    impl Registry {
        fn counters(&self) -> MutexGuard<'_, Counters> {
            // Fault execution runs after release, so an injected panic
            // never holds this lock; a panicking test thread still can,
            // and the contents are only counters — recover.
            self.counters.lock().unwrap_or_else(|p| p.into_inner())
        }
    }

    const INJECTED_PANIC: &str = "injected panic at faultpoint";

    thread_local! {
        /// The schedule this thread runs under, if any.
        static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    }

    fn current_registry() -> Option<Arc<Registry>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// The schedule the current thread runs under (possibly none),
    /// captured so a hand-off can [`enter`](FaultScope::enter) it on
    /// the thread that takes the work over.
    #[derive(Clone)]
    pub struct FaultScope(Option<Arc<Registry>>);

    /// The calling thread's schedule, to carry across a thread hand-off.
    pub fn current() -> FaultScope {
        FaultScope(current_registry())
    }

    impl FaultScope {
        /// Run the calling thread under the captured schedule (or under
        /// none, if none was captured) until the returned guard drops,
        /// which restores whatever the thread ran under before.
        pub fn enter(&self) -> FaultGuard {
            FaultGuard {
                previous: CURRENT.with(|c| c.replace(self.0.clone())),
                _this_thread: PhantomData,
            }
        }
    }

    /// Keeps a schedule current on the thread that created the guard;
    /// dropping it restores the thread's previous schedule. Not `Send`:
    /// it names a thread-local.
    pub struct FaultGuard {
        previous: Option<Arc<Registry>>,
        _this_thread: PhantomData<*const ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
        }
    }

    /// Install `schedule` on the calling thread until the returned guard
    /// drops. Faultpoints on other threads are unaffected unless the
    /// work reached them through one of the hand-off points (see the
    /// crate docs), so armed and un-armed tests share a process freely.
    pub fn install(schedule: FaultSchedule) -> FaultGuard {
        FaultScope(Some(Arc::new(Registry {
            schedule,
            counters: Mutex::default(),
        })))
        .enter()
    }

    /// The gate the faultpoint macros consult: is this thread under a
    /// schedule?
    #[inline]
    pub fn armed() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    /// Injections fired under the calling thread's schedule, on every
    /// thread it reached.
    pub fn fires() -> u64 {
        current_registry().map_or(0, |r| r.counters().fires.values().sum())
    }

    /// Hits (armed traversals) of one site under the calling thread's
    /// schedule.
    pub fn hits_at(site: &'static str) -> u64 {
        current_registry().map_or(0, |r| r.counters().hits.get(site).copied().unwrap_or(0))
    }

    /// Injections fired at one site under the calling thread's schedule.
    pub fn fires_at(site: &'static str) -> u64 {
        current_registry().map_or(0, |r| r.counters().fires.get(site).copied().unwrap_or(0))
    }

    /// Decide whether a rule fires for hit number `hit` of `site`.
    fn decide(schedule: &FaultSchedule, site: &str, hit: u64) -> Option<FaultKind> {
        for rule in &schedule.rules {
            if !rule.matches(site) || hit < rule.skip_first {
                continue;
            }
            let eligible = hit - rule.skip_first;
            let roll = splitmix64(schedule.seed ^ fnv1a(site) ^ eligible.wrapping_mul(0x9E37));
            if roll.is_multiple_of(rule.one_in.max(1)) {
                return Some(rule.kind);
            }
        }
        None
    }

    /// Evaluate a faultpoint. Called by the macros only when [`armed`].
    /// Error-class kinds return `Err`; `Panic` panics; `Delay` sleeps.
    pub fn evaluate(site: &'static str) -> Result<()> {
        let Some(reg) = current_registry() else {
            return Ok(());
        };
        let kind = {
            let mut counters = reg.counters();
            let hit = counters.hits.entry(site).or_insert(0);
            let this_hit = *hit;
            *hit += 1;
            let mut fired = None;
            if let Some(kind) = decide(&reg.schedule, site, this_hit) {
                // Bound per-rule firing via the site fire counter: rules
                // are per-site in practice, and the bound is what lets a
                // retry eventually succeed.
                let fires = counters.fires.entry(site).or_insert(0);
                let cap = reg
                    .schedule
                    .rules
                    .iter()
                    .find(|r| r.matches(site))
                    .and_then(|r| r.max_fires);
                if cap.is_none_or(|max| *fires < max) {
                    *fires += 1;
                    fired = Some(kind);
                }
            }
            fired
            // Lock released here: fault execution (sleep, panic) must
            // never hold the counters.
        };
        match kind {
            None => Ok(()),
            Some(FaultKind::ErrorReturn) => {
                Err(Error::unavailable(format!("injected fault at {site}")))
            }
            Some(FaultKind::Cancel) => Err(Error::cancelled(format!(
                "injected spurious cancellation at {site}"
            ))),
            Some(FaultKind::BudgetTrip) => {
                Err(Error::limit(format!("injected budget trip at {site}")))
            }
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultKind::Panic) => panic!("{INJECTED_PANIC} {site}"),
        }
    }

    /// Keep injected panics off stderr: they are expected traffic in a
    /// chaos run, and the default hook prints a backtrace for each. Every
    /// other panic still reaches the hook that was installed before.
    /// Process-wide (panic hooks are) and idempotent.
    pub fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let injected = payload
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.starts_with(INJECTED_PANIC));
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    /// [`evaluate`] for sites that cannot return an error: error-class
    /// kinds are skipped, `Panic` and `Delay` still execute.
    pub fn evaluate_infallible(site: &'static str) {
        // The fire was counted; an error-class kind at an infallible
        // site degrades to "nothing happened".
        let _ = evaluate(site);
    }
}

#[cfg(feature = "failpoints")]
pub use active::{
    armed, current, evaluate, evaluate_infallible, fires, fires_at, hits_at, install,
    silence_injected_panics, FaultGuard, FaultScope,
};

/// Feature-off stub: never armed, so `check`/the macros fold away.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn armed() -> bool {
    false
}

/// Feature-off stub of the hand-off handle: zero-sized, so capturing and
/// entering it at a thread hand-off compiles to nothing.
#[cfg(not(feature = "failpoints"))]
#[derive(Clone, Copy)]
pub struct FaultScope;

/// Feature-off stub: there is never a schedule to carry.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn current() -> FaultScope {
    FaultScope
}

/// Feature-off stub of the guard [`FaultScope::enter`] returns.
#[cfg(not(feature = "failpoints"))]
pub struct FaultGuard;

#[cfg(not(feature = "failpoints"))]
impl FaultScope {
    #[inline(always)]
    pub fn enter(&self) -> FaultGuard {
        FaultGuard
    }
}

/// Faultpoint in a function returning [`xqr_xdm::Result`]: injected
/// error-class faults propagate with `?`; panics and delays execute in
/// place. Expands to nothing when the `failpoints` feature is off.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        if $crate::armed() {
            $crate::evaluate($site)?;
        }
    };
}

/// No-op: the `failpoints` feature is off.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {};
}

/// Faultpoint in a function that cannot return an error: only `Panic`
/// and `Delay` kinds execute; error-class kinds are ignored. Expands to
/// nothing when the `failpoints` feature is off.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! faultpoint_infallible {
    ($site:expr) => {
        if $crate::armed() {
            $crate::evaluate_infallible($site);
        }
    };
}

/// No-op: the `failpoints` feature is off.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! faultpoint_infallible {
    ($site:expr) => {};
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xdm::Result;

    // (`_site`: the macro expands to nothing with the feature off.)
    fn probe(_site: &'static str) -> Result<()> {
        faultpoint!(_site);
        Ok(())
    }

    #[test]
    fn unarmed_faultpoints_pass() {
        assert!(!armed());
        probe("nowhere").unwrap();
    }

    #[cfg(feature = "failpoints")]
    mod armed {
        use super::*;
        use xqr_xdm::ErrorCode;

        #[test]
        fn error_rule_fires_with_stable_code_and_uninstalls_on_drop() {
            {
                let _g = install(
                    FaultSchedule::new(1)
                        .rule(FaultRule::new("store.read", FaultKind::ErrorReturn)),
                );
                assert!(armed());
                let err = probe("store.read").unwrap_err();
                assert_eq!(err.code, ErrorCode::Unavailable);
                assert_eq!(err.code.as_str(), "XQRL0005");
                assert!(err.is_retryable());
                probe("store.load").unwrap(); // unmatched site passes
                assert_eq!(fires(), 1);
                assert_eq!(fires_at("store.read"), 1);
                assert_eq!(hits_at("store.read"), 1);
            }
            assert!(!armed());
            probe("store.read").unwrap();
        }

        #[test]
        fn skip_first_and_max_fires_bound_injection() {
            let _g = install(
                FaultSchedule::new(7).rule(
                    FaultRule::new("eval.next", FaultKind::BudgetTrip)
                        .skip_first(2)
                        .max_fires(1),
                ),
            );
            probe("eval.next").unwrap();
            probe("eval.next").unwrap();
            let err = probe("eval.next").unwrap_err();
            assert_eq!(err.code, ErrorCode::Limit);
            // Bounded: later hits pass — the shape retry loops rely on.
            for _ in 0..10 {
                probe("eval.next").unwrap();
            }
            assert_eq!(fires(), 1);
        }

        #[test]
        fn wildcard_rules_match_prefixes() {
            let _g =
                install(FaultSchedule::new(3).rule(FaultRule::new("store.*", FaultKind::Cancel)));
            assert_eq!(
                probe("store.remove").unwrap_err().code,
                ErrorCode::Cancelled
            );
            probe("plans.insert").unwrap();
        }

        #[test]
        fn decisions_are_deterministic_in_the_seed() {
            let run = |seed: u64| -> Vec<bool> {
                let _g = install(
                    FaultSchedule::new(seed)
                        .rule(FaultRule::new("xml.read", FaultKind::ErrorReturn).one_in(3)),
                );
                (0..32).map(|_| probe("xml.read").is_err()).collect()
            };
            let a = run(42);
            let b = run(42);
            let c = run(43);
            assert_eq!(a, b, "same seed, same decisions");
            assert_ne!(a, c, "different seed, different decisions");
            assert!(a.iter().any(|f| *f) && a.iter().any(|f| !*f), "{a:?}");
        }

        #[test]
        fn infallible_sites_only_panic_or_delay() {
            let _g = install(
                FaultSchedule::new(5).rule(FaultRule::new("store.remove", FaultKind::ErrorReturn)),
            );
            // Error kind at an infallible site: counted, but nothing thrown.
            evaluate_infallible("store.remove");
            assert_eq!(fires(), 1);
        }

        #[test]
        fn injected_panic_carries_the_site_name() {
            let _g = install(
                FaultSchedule::new(9).rule(FaultRule::new("pool.dispatch", FaultKind::Panic)),
            );
            let payload = std::panic::catch_unwind(|| probe("pool.dispatch")).unwrap_err();
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("pool.dispatch"), "{msg}");
        }

        /// The scoping rule itself: a schedule is invisible to other
        /// threads until a hand-off enters it there, counts are shared
        /// with the installer, and leaving restores what was there.
        #[test]
        fn a_schedule_reaches_another_thread_only_through_enter() {
            let _g = install(
                FaultSchedule::new(2).rule(FaultRule::new("xml.read", FaultKind::ErrorReturn)),
            );
            let scope = current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(!armed(), "a fresh thread runs under no schedule");
                    probe("xml.read").unwrap();
                    {
                        let _entered = scope.enter();
                        assert!(probe("xml.read").is_err());
                    }
                    assert!(!armed(), "leaving restores the previous (no) schedule");
                });
            });
            assert_eq!(fires_at("xml.read"), 1, "the other thread's fire is ours");
            assert_eq!(hits_at("xml.read"), 1, "its un-entered probe never counted");
        }

        /// Two armed tests' worth of schedules side by side: each thread
        /// decides by its own seed and reads only its own counters.
        #[test]
        fn concurrent_schedules_do_not_see_each_other() {
            let run = |seed: u64, site: &'static str, other: &'static str| {
                let _g = install(
                    FaultSchedule::new(seed)
                        .rule(FaultRule::new(site, FaultKind::ErrorReturn).one_in(3)),
                );
                let fired = (0..300).filter(|_| probe(site).is_err()).count() as u64;
                for _ in 0..300 {
                    probe(other).unwrap();
                }
                assert_eq!(fires_at(site), fired);
                assert_eq!(fires(), fired);
                assert_eq!(fires_at(other), 0);
                assert_eq!(hits_at(other), 300);
                fired
            };
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| run(42, "xml.read", "store.read"));
                let b = s.spawn(|| run(43, "store.read", "xml.read"));
                (a.join().unwrap(), b.join().unwrap())
            });
            assert!(a > 0 && b > 0);
            assert!(!armed());
        }
    }
}
