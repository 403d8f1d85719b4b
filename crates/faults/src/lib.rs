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
//! relaxed atomic load until a schedule is installed.
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
//! [`install`] takes a process-wide exclusive lock held by the returned
//! [`FaultGuard`]; concurrent chaos tests serialize on it instead of
//! trampling each other's schedules.
//!
//! ## Armed tests get a binary of their own
//!
//! A schedule arms every faultpoint in the *process*, and the install
//! lock only orders installs against each other: an un-armed test
//! running beside an armed one in the same test binary sees its
//! injections. So a `#[test]` that calls [`install`] lives in a test
//! binary where every test does (`tests/faults.rs`, `tests/armed.rs`,
//! …), and those tests take turns behind a file-local mutex for their
//! whole bodies, because each also does work it expects to be
//! fault-free (references, cleanup, post-drop assertions).

use std::time::Duration;
#[cfg(feature = "failpoints")]
use xqr_xdm::Error;
use xqr_xdm::Result;

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
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard};

    struct Registry {
        schedule: FaultSchedule,
        /// Per-site hit counters (every traversal of an armed site).
        hits: HashMap<&'static str, u64>,
        /// Per-site fire counters (hits where a rule injected).
        site_fires: HashMap<&'static str, u64>,
    }

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static TOTAL_FIRES: AtomicU64 = AtomicU64::new(0);
    static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);
    /// Serializes installations: chaos tests in one binary take turns.
    static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    fn registry() -> MutexGuard<'static, Option<Registry>> {
        // A panic *injected while the registry lock is held* cannot
        // happen (fault execution runs after release), but a panicking
        // chaos test thread can still poison it; recover — the registry
        // is only counters.
        REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Keeps a schedule installed; uninstalls on drop. Holds the
    /// process-wide installation lock, so at most one schedule is ever
    /// active and concurrent chaos tests serialize.
    pub struct FaultGuard {
        _exclusive: MutexGuard<'static, ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            ACTIVE.store(false, Ordering::SeqCst);
            *registry() = None;
        }
    }

    /// Install `schedule`, arming every faultpoint in the process until
    /// the returned guard drops. Blocks while another schedule is live.
    pub fn install(schedule: FaultSchedule) -> FaultGuard {
        let exclusive = INSTALL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        *registry() = Some(Registry {
            schedule,
            hits: HashMap::new(),
            site_fires: HashMap::new(),
        });
        TOTAL_FIRES.store(0, Ordering::SeqCst);
        ACTIVE.store(true, Ordering::SeqCst);
        FaultGuard {
            _exclusive: exclusive,
        }
    }

    /// The fast gate the faultpoint macros consult: one relaxed load.
    #[inline]
    pub fn armed() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Injections fired since the current schedule was installed.
    pub fn fires() -> u64 {
        TOTAL_FIRES.load(Ordering::Relaxed)
    }

    /// Hits (armed traversals) of one site under the current schedule.
    pub fn hits_at(site: &'static str) -> u64 {
        registry()
            .as_ref()
            .and_then(|r| r.hits.get(site).copied())
            .unwrap_or(0)
    }

    /// Injections fired at one site under the current schedule.
    pub fn fires_at(site: &'static str) -> u64 {
        registry()
            .as_ref()
            .and_then(|r| r.site_fires.get(site).copied())
            .unwrap_or(0)
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
        let kind = {
            let mut reg = registry();
            let Some(reg) = reg.as_mut() else {
                return Ok(());
            };
            let hit = reg.hits.entry(site).or_insert(0);
            let this_hit = *hit;
            *hit += 1;
            let mut fired = None;
            if let Some(kind) = decide(&reg.schedule, site, this_hit) {
                // Bound per-rule firing via the site fire counter: rules
                // are per-site in practice, and the bound is what lets a
                // retry eventually succeed.
                let fires = reg.site_fires.entry(site).or_insert(0);
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
            // never hold the registry.
        };
        match kind {
            None => Ok(()),
            Some(k) => {
                TOTAL_FIRES.fetch_add(1, Ordering::Relaxed);
                match k {
                    FaultKind::ErrorReturn => {
                        Err(Error::unavailable(format!("injected fault at {site}")))
                    }
                    FaultKind::Cancel => Err(Error::cancelled(format!(
                        "injected spurious cancellation at {site}"
                    ))),
                    FaultKind::BudgetTrip => {
                        Err(Error::limit(format!("injected budget trip at {site}")))
                    }
                    FaultKind::Delay(d) => {
                        std::thread::sleep(d);
                        Ok(())
                    }
                    FaultKind::Panic => panic!("injected panic at faultpoint {site}"),
                }
            }
        }
    }

    /// [`evaluate`] for sites that cannot return an error: error-class
    /// kinds are skipped, `Panic` and `Delay` still execute.
    pub fn evaluate_infallible(site: &'static str) {
        match evaluate(site) {
            Ok(()) => {}
            Err(_) => {
                // The fire was counted; an error-class kind at an
                // infallible site degrades to "nothing happened".
            }
        }
    }
}

#[cfg(feature = "failpoints")]
pub use active::{evaluate, evaluate_infallible, fires, fires_at, hits_at, install, FaultGuard};

#[cfg(feature = "failpoints")]
#[inline]
pub fn armed() -> bool {
    active::armed()
}

/// Feature-off stub: never armed, so `check`/the macros fold away.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn armed() -> bool {
    false
}

/// Evaluate the faultpoint `site` if a schedule is armed. The callable
/// form of [`faultpoint!`] for sites that want to branch on the outcome
/// instead of propagating it. Always `Ok(())` when the feature is off.
#[inline]
pub fn check(site: &'static str) -> Result<()> {
    #[cfg(feature = "failpoints")]
    if armed() {
        return evaluate(site);
    }
    let _ = site;
    Ok(())
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

    /// The armed tests are in `tests/armed.rs`: a schedule arms the
    /// whole process, so this binary never installs one.
    #[test]
    fn unarmed_faultpoints_pass() {
        // (`_site`: the macro expands to nothing with the feature off.)
        fn probe(_site: &'static str) -> Result<()> {
            faultpoint!(_site);
            Ok(())
        }
        assert!(!armed());
        probe("nowhere").unwrap();
    }
}
