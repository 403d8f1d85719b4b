//! # xqr-pressure — process-wide memory ledger and overload governance
//!
//! Every other resource bound in the system is *local*: the catalog
//! bounds resident documents, the plan cache bounds plans, each ingest
//! channel bounds one session. Nothing bounds their *sum*, so a burst
//! of concurrent ingest + batch + pubsub traffic can blow past any
//! intended process ceiling while every individual limiter reports
//! healthy. This crate is the one memory/overload brain the service
//! layers share:
//!
//! - A [`MemoryLedger`]: cheap atomic byte accounting under named
//!   [`Category`]s, charged at every allocation site that used to grow
//!   unaccounted (chunk-session buffers, ingest channels, subscription
//!   fallback documents, query output) or was
//!   charged only locally (catalog resident bytes, plan cache).
//! - Watermark-driven [`PressureState`]s — Green / Yellow / Red — with
//!   hysteresis: a state is entered at `enter` fraction of the ceiling
//!   and left only below `enter × (1 − hysteresis)`, so charge/release
//!   noise around a watermark cannot flap the brownout ladder.
//! - A hard ceiling: `MemoryLedger::try_charge` refuses a charge that
//!   would exceed the configured ceiling with a stable `XQRL0004`, so
//!   callers shed load instead of allocating past the budget.
//!
//! The ledger never acts on its own — it is a *signal*. Each layer
//! polls [`MemoryLedger::state`] at its admission points and walks its
//! own rung of the brownout ladder (skip index builds, demote cold
//! catalog entries, shrink the plan cache, reject new sessions). Keeping the ledger passive keeps it cheap: a charge
//! is two or three atomic adds; the transition mutex is touched only
//! when a watermark is actually crossed.
//!
//! ## Transition discipline
//!
//! Observable state changes go **one step at a time** — Green→Red
//! passes through Yellow, and each entry bumps the matching transition
//! counter — so operators (and the property tests) can reconstruct the
//! pressure history from the counters alone. A small mutex serializes
//! the read-compute-write of a transition; charges themselves never
//! block on it unless a watermark is being crossed.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use xqr_xdm::{Error, Result};

/// Named accounting buckets. Every byte the service holds beyond plain
/// per-query evaluator state is charged to exactly one category, so the
/// per-category peaks in a [`LedgerSnapshot`] tell an operator *which*
/// subsystem drove a pressure episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Parsed + indexed documents resident in the catalog.
    CatalogResident,
    /// Compiled plans held by the plan cache (estimated).
    PlanCache,
    /// Chunked publish sessions: bytes buffered for the fallback pass.
    ChunkSessions,
    /// Streaming ingest: bounded token channels and buffered stream
    /// queries.
    IngestChannels,
    /// Subscription fallback / transient published documents.
    Subscriptions,
    /// Morsel-parallel join output buffers. Nothing charges it: queries
    /// run their twig joins serially. It stays because the service
    /// benchmark reports `pressure.peak_bytes.morsels`.
    MorselBuffers,
    /// Serialized query output being handed back to clients.
    QueryOutput,
}

impl Category {
    pub const ALL: [Category; 7] = [
        Category::CatalogResident,
        Category::PlanCache,
        Category::ChunkSessions,
        Category::IngestChannels,
        Category::Subscriptions,
        Category::MorselBuffers,
        Category::QueryOutput,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            Category::CatalogResident => "catalog",
            Category::PlanCache => "plans",
            Category::ChunkSessions => "chunks",
            Category::IngestChannels => "ingest",
            Category::Subscriptions => "pubsub",
            Category::MorselBuffers => "morsels",
            Category::QueryOutput => "output",
        }
    }

    fn index(&self) -> usize {
        Category::ALL
            .iter()
            .position(|c| c == self)
            .expect("listed")
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The three overload levels. Ordered: `Green < Yellow < Red`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum PressureState {
    /// Under the Yellow watermark: no degradation.
    #[default]
    Green,
    /// Brownout: expensive optional work (index builds, plan caching
    /// headroom, cold resident documents) is shed to protect foreground
    /// queries.
    Yellow,
    /// Overload: new sessions, publishes and batch jobs are rejected
    /// with `XQRL0004` and resident state is evicted aggressively.
    Red,
}

impl PressureState {
    pub fn as_str(&self) -> &'static str {
        match self {
            PressureState::Green => "green",
            PressureState::Yellow => "yellow",
            PressureState::Red => "red",
        }
    }
}

impl std::fmt::Display for PressureState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Watermark configuration. All fractions are of `ceiling`.
///
/// With the defaults and a 100 MB ceiling: Yellow is entered at 70 MB
/// and left below 63 MB; Red is entered at 90 MB and left below 81 MB;
/// `try_charge` refuses to go past 100 MB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureConfig {
    /// Hard process budget in bytes. `None` disables governance: the
    /// ledger still accounts (peaks stay observable) but the state is
    /// always Green and `try_charge` never refuses.
    pub ceiling: Option<u64>,
    /// Fraction of the ceiling at which Yellow is entered.
    pub yellow_enter: f64,
    /// Fraction of the ceiling at which Red is entered.
    pub red_enter: f64,
    /// Exit watermark slack: a state is left below
    /// `enter × (1 − hysteresis)`. Zero means enter == exit (no
    /// hysteresis, maximal flapping); must stay below 1.
    pub hysteresis: f64,
}

impl Default for PressureConfig {
    fn default() -> Self {
        PressureConfig {
            ceiling: None,
            yellow_enter: 0.70,
            red_enter: 0.90,
            hysteresis: 0.10,
        }
    }
}

impl PressureConfig {
    /// Governance with a hard ceiling and the default watermarks.
    pub fn with_ceiling(bytes: u64) -> Self {
        PressureConfig {
            ceiling: Some(bytes),
            ..Default::default()
        }
    }

    fn yellow_enter_bytes(&self, ceiling: u64) -> u64 {
        (ceiling as f64 * self.yellow_enter.clamp(0.0, 1.0)) as u64
    }

    fn red_enter_bytes(&self, ceiling: u64) -> u64 {
        (ceiling as f64 * self.red_enter.clamp(0.0, 1.0)) as u64
    }

    fn exit_bytes(&self, enter: u64) -> u64 {
        (enter as f64 * (1.0 - self.hysteresis.clamp(0.0, 0.99))) as u64
    }
}

#[derive(Default)]
struct CatCell {
    current: AtomicU64,
    peak: AtomicU64,
}

/// Point-in-time copy of one category's gauge and high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CategorySnapshot {
    pub current: u64,
    pub peak: u64,
}

/// Point-in-time copy of the whole ledger, cheap to take (relaxed
/// loads, no locks). Surfaced through `ServiceStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerSnapshot {
    pub state: PressureState,
    pub total: u64,
    pub peak: u64,
    /// `0` when governance is disabled (no ceiling configured).
    pub ceiling: u64,
    /// Indexed by [`Category::ALL`] order.
    pub categories: [CategorySnapshot; Category::ALL.len()],
    /// Times each state was *entered* since construction.
    pub to_green: u64,
    pub to_yellow: u64,
    pub to_red: u64,
    /// Charges refused at the hard ceiling (`XQRL0004`).
    pub rejected: u64,
}

impl LedgerSnapshot {
    pub fn category(&self, cat: Category) -> CategorySnapshot {
        self.categories[cat.index()]
    }

    /// Total observable state transitions.
    pub fn transitions(&self) -> u64 {
        self.to_green + self.to_yellow + self.to_red
    }
}

/// The process-wide byte ledger. One per [`QueryService`]; every layer
/// holds an `Arc` and charges its category at allocation/release sites.
///
/// [`QueryService`]: ../xqr_service/struct.QueryService.html
pub struct MemoryLedger {
    config: PressureConfig,
    categories: [CatCell; Category::ALL.len()],
    total: AtomicU64,
    peak: AtomicU64,
    /// Encodes [`PressureState`]: 0 green, 1 yellow, 2 red.
    state: AtomicU8,
    /// Serializes watermark transitions so the observable state always
    /// moves one step at a time and each entry is counted exactly once.
    transition: Mutex<()>,
    to_green: AtomicU64,
    to_yellow: AtomicU64,
    to_red: AtomicU64,
    rejected: AtomicU64,
}

impl MemoryLedger {
    pub fn new(config: PressureConfig) -> Self {
        MemoryLedger {
            config,
            categories: Default::default(),
            total: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            state: AtomicU8::new(0),
            transition: Mutex::new(()),
            to_green: AtomicU64::new(0),
            to_yellow: AtomicU64::new(0),
            to_red: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Accounting-only ledger: no ceiling, state pinned Green.
    pub fn unbounded() -> Self {
        MemoryLedger::new(PressureConfig::default())
    }

    /// Current pressure state (relaxed load — a cheap poll).
    pub fn state(&self) -> PressureState {
        match self.state.load(Ordering::Relaxed) {
            0 => PressureState::Green,
            1 => PressureState::Yellow,
            _ => PressureState::Red,
        }
    }

    /// Total bytes currently charged across all categories.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Charge unconditionally: accounting sites that cannot shed (the
    /// bytes already exist). Watermarks still move, so the brownout
    /// ladder reacts on the next poll.
    pub fn charge(&self, cat: Category, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let cell = &self.categories[cat.index()];
        let cur = cell.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        cell.peak.fetch_max(cur, Ordering::Relaxed);
        let total = self.total.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(total, Ordering::Relaxed);
        self.settle(total);
    }

    /// Charge only if the hard ceiling allows it. Refusal is a stable
    /// `XQRL0004` naming the category, the shortfall and the current
    /// state, so a shed at the ceiling is distinguishable from a full
    /// run queue. Carries the `pressure.charge` failpoint: injected
    /// faults here surface as coded errors from whatever admission
    /// path performed the charge.
    pub(crate) fn try_charge(&self, cat: Category, bytes: u64) -> Result<()> {
        xqr_faults::faultpoint!("pressure.charge");
        if let Some(ceiling) = self.config.ceiling {
            // Optimistic reserve: add, then back out on overshoot. Two
            // racing reservations may both back out — that is the safe
            // direction (shed rather than exceed).
            let total = self.total.fetch_add(bytes, Ordering::Relaxed) + bytes;
            if total > ceiling {
                self.total.fetch_sub(bytes, Ordering::Relaxed);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.settle(total - bytes);
                return Err(Error::overloaded(format!(
                    "memory ceiling: {} bytes for {} would put the ledger at {} of {} (state: {})",
                    bytes,
                    cat,
                    total,
                    ceiling,
                    self.state()
                )));
            }
            self.peak.fetch_max(total, Ordering::Relaxed);
            let cell = &self.categories[cat.index()];
            let cur = cell.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
            cell.peak.fetch_max(cur, Ordering::Relaxed);
            self.settle(total);
            Ok(())
        } else {
            self.charge(cat, bytes);
            Ok(())
        }
    }

    /// Release previously charged bytes. Saturates at zero (a release
    /// bug must not wrap the gauge into the exabytes and wedge Red).
    pub fn release(&self, cat: Category, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let cell = &self.categories[cat.index()];
        saturating_sub(&cell.current, bytes);
        let total = saturating_sub(&self.total, bytes);
        self.settle(total);
    }

    /// Walk the state machine toward where `total` says it should be,
    /// one observable step per iteration. Green→Red therefore always
    /// passes through Yellow (and bumps `to_yellow` on the way).
    fn settle(&self, mut total: u64) {
        let Some(ceiling) = self.config.ceiling else {
            return;
        };
        let yellow_enter = self.config.yellow_enter_bytes(ceiling);
        let red_enter = self.config.red_enter_bytes(ceiling);
        let yellow_exit = self.config.exit_bytes(yellow_enter);
        let red_exit = self.config.exit_bytes(red_enter);
        loop {
            let cur = self.state();
            let step = match cur {
                PressureState::Green if total >= yellow_enter => PressureState::Yellow,
                PressureState::Yellow if total >= red_enter => PressureState::Red,
                PressureState::Yellow if total < yellow_exit => PressureState::Green,
                PressureState::Red if total < red_exit => PressureState::Yellow,
                _ => return,
            };
            let _guard = self.transition.lock().unwrap_or_else(|e| e.into_inner());
            // Re-read under the lock: a racer may have already moved.
            if self.state() != cur {
                continue;
            }
            self.state.store(step as u8, Ordering::Relaxed);
            match step {
                PressureState::Green => self.to_green.fetch_add(1, Ordering::Relaxed),
                PressureState::Yellow => self.to_yellow.fetch_add(1, Ordering::Relaxed),
                PressureState::Red => self.to_red.fetch_add(1, Ordering::Relaxed),
            };
            drop(_guard);
            // The gauge may have moved while we held the lock; settle
            // against the freshest value so we neither stop short nor
            // overshoot.
            total = self.total();
        }
    }

    pub fn snapshot(&self) -> LedgerSnapshot {
        let mut categories = [CategorySnapshot::default(); Category::ALL.len()];
        for (i, cell) in self.categories.iter().enumerate() {
            categories[i] = CategorySnapshot {
                current: cell.current.load(Ordering::Relaxed),
                peak: cell.peak.load(Ordering::Relaxed),
            };
        }
        LedgerSnapshot {
            state: self.state(),
            total: self.total(),
            peak: self.peak.load(Ordering::Relaxed),
            ceiling: self.config.ceiling.unwrap_or(0),
            categories,
            to_green: self.to_green.load(Ordering::Relaxed),
            to_yellow: self.to_yellow.load(Ordering::Relaxed),
            to_red: self.to_red.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

fn saturating_sub(cell: &AtomicU64, bytes: u64) -> u64 {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(bytes);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return next,
            Err(seen) => cur = seen,
        }
    }
}

/// RAII charge: releases its bytes on drop, so a panic or early return
/// on any path between charge and release cannot leak ledger bytes.
/// Holds its own `Arc` — safe to move into worker closures and session
/// tables that outlive the charging scope.
pub struct Charge {
    ledger: Arc<MemoryLedger>,
    cat: Category,
    bytes: u64,
}

impl Charge {
    /// Unconditional charge (see [`MemoryLedger::charge`]).
    pub fn new(ledger: Arc<MemoryLedger>, cat: Category, bytes: u64) -> Charge {
        ledger.charge(cat, bytes);
        Charge { ledger, cat, bytes }
    }

    /// Ceiling-checked charge (see `MemoryLedger::try_charge`).
    pub fn try_new(ledger: Arc<MemoryLedger>, cat: Category, bytes: u64) -> Result<Charge> {
        ledger.try_charge(cat, bytes)?;
        Ok(Charge { ledger, cat, bytes })
    }

    /// Grow the charge by `more` bytes, refusing at the ceiling. On
    /// refusal the existing charge is untouched.
    pub fn try_grow(&mut self, more: u64) -> Result<()> {
        self.ledger.try_charge(self.cat, more)?;
        self.bytes += more;
        Ok(())
    }

    /// Grow unconditionally.
    pub fn grow(&mut self, more: u64) {
        self.ledger.charge(self.cat, more);
        self.bytes += more;
    }
}

impl Drop for Charge {
    fn drop(&mut self) {
        self.ledger.release(self.cat, self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xdm::ErrorCode;

    fn bounded(ceiling: u64) -> MemoryLedger {
        MemoryLedger::new(PressureConfig::with_ceiling(ceiling))
    }

    #[test]
    fn accounting_tracks_current_and_peak_per_category() {
        let l = MemoryLedger::unbounded();
        l.charge(Category::PlanCache, 100);
        l.charge(Category::QueryOutput, 50);
        l.release(Category::PlanCache, 40);
        let s = l.snapshot();
        assert_eq!(s.category(Category::PlanCache).current, 60);
        assert_eq!(s.category(Category::PlanCache).peak, 100);
        assert_eq!(s.category(Category::QueryOutput).current, 50);
        assert_eq!(s.total, 110);
        assert_eq!(s.peak, 150);
        assert_eq!(s.state, PressureState::Green);
        assert_eq!(s.transitions(), 0, "no ceiling, no transitions");
    }

    #[test]
    fn release_saturates_instead_of_wrapping() {
        let l = bounded(1000);
        l.charge(Category::ChunkSessions, 10);
        l.release(Category::ChunkSessions, 999);
        let s = l.snapshot();
        assert_eq!(s.total, 0);
        assert_eq!(s.category(Category::ChunkSessions).current, 0);
        assert_eq!(s.state, PressureState::Green, "not wedged by underflow");
    }

    #[test]
    fn watermarks_enter_yellow_then_red_one_step_at_a_time() {
        let l = bounded(1000); // yellow at 700, red at 900
        l.charge(Category::CatalogResident, 650);
        assert_eq!(l.state(), PressureState::Green);
        l.charge(Category::CatalogResident, 100); // 750
        assert_eq!(l.state(), PressureState::Yellow);
        // A single charge that jumps Green-range to Red-range still
        // records an intermediate Yellow entry.
        let l2 = bounded(1000);
        l2.charge(Category::CatalogResident, 950);
        let s = l2.snapshot();
        assert_eq!(s.state, PressureState::Red);
        assert_eq!(s.to_yellow, 1, "passed through yellow: {s:?}");
        assert_eq!(s.to_red, 1);
    }

    #[test]
    fn hysteresis_holds_the_state_until_the_exit_watermark() {
        let l = bounded(1000); // yellow enters at 700, exits below 630
        l.charge(Category::IngestChannels, 750);
        assert_eq!(l.state(), PressureState::Yellow);
        l.release(Category::IngestChannels, 80); // 670: inside the band
        assert_eq!(l.state(), PressureState::Yellow, "no flap inside the band");
        l.release(Category::IngestChannels, 50); // 620 < 630
        assert_eq!(l.state(), PressureState::Green);
        let s = l.snapshot();
        assert_eq!((s.to_yellow, s.to_green), (1, 1));
    }

    #[test]
    fn try_charge_refuses_at_the_ceiling_with_xqrl0004() {
        let l = bounded(1000);
        l.try_charge(Category::QueryOutput, 900).unwrap();
        let err = l.try_charge(Category::QueryOutput, 200).unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert!(err.to_string().contains("memory ceiling"), "{err}");
        let s = l.snapshot();
        assert_eq!(s.total, 900, "refused charge fully backed out");
        assert_eq!(s.rejected, 1);
        // Headroom still admits.
        l.try_charge(Category::QueryOutput, 100).unwrap();
        assert_eq!(l.total(), 1000);
    }

    #[test]
    fn injected_fault_at_pressure_charge_is_a_coded_error() {
        use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
        let l = bounded(1000);
        let _g = xqr_faults::install(
            FaultSchedule::new(7).rule(FaultRule::new("pressure.charge", FaultKind::ErrorReturn)),
        );
        let err = l.try_charge(Category::ChunkSessions, 10).unwrap_err();
        assert_eq!(err.code, ErrorCode::Unavailable);
        assert_eq!(l.total(), 0, "failed charge charged nothing");
    }

    #[test]
    fn unbounded_ledger_never_refuses_and_stays_green() {
        let l = MemoryLedger::unbounded();
        l.try_charge(Category::Subscriptions, u64::MAX / 2).unwrap();
        assert_eq!(l.state(), PressureState::Green);
        assert_eq!(l.snapshot().ceiling, 0);
    }

    #[test]
    fn charge_guard_releases_on_drop_and_grow_is_ceiling_checked() {
        let ledger = Arc::new(bounded(1000));
        {
            let mut c = Charge::try_new(ledger.clone(), Category::ChunkSessions, 400).unwrap();
            c.try_grow(500).unwrap();
            assert_eq!(c.bytes, 900);
            let err = c.try_grow(200).unwrap_err();
            assert_eq!(err.code, ErrorCode::Overloaded);
            assert_eq!(c.bytes, 900, "failed grow leaves the charge intact");
            assert_eq!(ledger.total(), 900);
        }
        assert_eq!(ledger.total(), 0, "drop released everything");
        assert_eq!(ledger.state(), PressureState::Green);
    }

    #[test]
    fn concurrent_charges_balance_to_zero() {
        let ledger = Arc::new(bounded(1 << 40));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let ledger = ledger.clone();
                std::thread::spawn(move || {
                    let cat = Category::ALL[t % Category::ALL.len()];
                    for i in 0..1000u64 {
                        ledger.charge(cat, i % 97 + 1);
                        ledger.release(cat, i % 97 + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = ledger.snapshot();
        assert_eq!(s.total, 0, "{s:?}");
        for cat in Category::ALL {
            assert_eq!(s.category(cat).current, 0);
        }
    }

    /// Satellite: random charge/release sequences never skip a state,
    /// always respect hysteresis, and Green is re-entered after full
    /// release — no sticky Red. The model replays the same sequence
    /// against the watermark rules and checks the ledger agrees after
    /// every step; the transition counters must account for exactly
    /// the entries the model saw.
    #[test]
    fn property_random_sequences_respect_the_state_machine() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let config = PressureConfig::with_ceiling(10_000);
        let ceiling = 10_000u64;
        let yellow_enter = config.yellow_enter_bytes(ceiling);
        let red_enter = config.red_enter_bytes(ceiling);
        let yellow_exit = config.exit_bytes(yellow_enter);
        let red_exit = config.exit_bytes(red_enter);

        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0xB00B007 ^ seed);
            // Single-threaded drive: mirror every operation in a model
            // of the watermark rules and compare after each step.
            let ledger = MemoryLedger::new(config);
            let mut live: Vec<(Category, u64)> = Vec::new();
            let mut model_total: u64 = 0;
            let mut model = PressureState::Green;
            let (mut mg, mut my, mut mr) = (0u64, 0u64, 0u64);
            let mut settle = |total: u64, state: &mut PressureState| loop {
                let next = match *state {
                    PressureState::Green if total >= yellow_enter => PressureState::Yellow,
                    PressureState::Yellow if total >= red_enter => PressureState::Red,
                    PressureState::Yellow if total < yellow_exit => PressureState::Green,
                    PressureState::Red if total < red_exit => PressureState::Yellow,
                    _ => return,
                };
                assert_eq!(
                    (next as i8 - *state as i8).abs(),
                    1,
                    "skip {state:?}->{next:?}"
                );
                match next {
                    PressureState::Green => mg += 1,
                    PressureState::Yellow => my += 1,
                    PressureState::Red => mr += 1,
                }
                *state = next;
            };
            for _ in 0..600 {
                if live.is_empty() || rng.gen_bool(0.55) {
                    let cat = Category::ALL[rng.gen_range(0..Category::ALL.len())];
                    let bytes = rng.gen_range(1..2_501u64);
                    if ledger.try_charge(cat, bytes).is_ok() {
                        live.push((cat, bytes));
                        model_total += bytes;
                        assert!(model_total <= ceiling, "ceiling breached");
                        settle(model_total, &mut model);
                    } else {
                        assert!(model_total + bytes > ceiling, "spurious refusal");
                    }
                } else {
                    let idx = rng.gen_range(0..live.len());
                    let (cat, bytes) = live.swap_remove(idx);
                    ledger.release(cat, bytes);
                    model_total -= bytes;
                    settle(model_total, &mut model);
                }
                assert_eq!(ledger.state(), model, "seed {seed}: state diverged");
                assert_eq!(ledger.total(), model_total, "seed {seed}: gauge diverged");
            }
            // Full release: Green must be re-entered — no sticky Red.
            for (cat, bytes) in live.drain(..) {
                ledger.release(cat, bytes);
                model_total -= bytes;
                settle(model_total, &mut model);
            }
            assert_eq!(ledger.total(), 0);
            assert_eq!(
                ledger.state(),
                PressureState::Green,
                "seed {seed}: sticky state"
            );
            let s = ledger.snapshot();
            assert_eq!(
                (s.to_green, s.to_yellow, s.to_red),
                (mg, my, mr),
                "seed {seed}: transition counters diverged"
            );
        }
    }
}
