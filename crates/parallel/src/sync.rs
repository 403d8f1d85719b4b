//! Poison-recovering locks, shared by the worker pool and every layer
//! above it (the service locks its own structures through these, so
//! they count into the same process-wide gauge).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Process-wide count of poisoned-lock recoveries.
static LOCK_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Lock `mutex`, recovering from poisoning instead of propagating the
/// panic to every subsequent caller.
///
/// Poisoning means some holder panicked — with chaos injection, on
/// purpose. Every structure locked through this helper (pool state,
/// morsel error slots, catalog map, plan-cache shards) keeps its
/// invariants at every unlock, so the data under a poisoned lock is
/// still consistent; turning one contained panic into a permanent
/// outage would be the worse failure. Recoveries are counted so
/// operators can see them.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        LOCK_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// Total poisoned-lock recoveries since process start.
pub fn lock_recoveries() -> u64 {
    LOCK_RECOVERIES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_survives_a_poisoning_panic() {
        let m = Mutex::new(7u32);
        let before = lock_recoveries();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7, "data still readable");
        // The gauge is process-wide: concurrent tests may bump it too.
        assert!(lock_recoveries() > before);
        *lock_recover(&m) = 8;
        assert_eq!(*lock_recover(&m), 8);
    }
}
