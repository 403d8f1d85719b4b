//! The one place a thread gets a deep stack.
//!
//! Parsing and evaluation are recursive descent: unoptimized builds
//! spend kilobytes of stack per nesting level, so both need far more
//! than the 2 MiB a spawned thread gets by default. Instead of starting
//! a fresh thread per parse or per execution, the long-lived threads
//! that run queries — the `WorkerPool` workers of the service and of the
//! morsel pool — are started deep once with [`spawn_deep`], and
//! [`on_deep_stack`] runs work in place on them. Only callers on some
//! other thread (an embedder calling `Engine::query` directly, a test)
//! pay for one scoped deep thread per call.
//!
//! [`DEEP_STACK_BYTES`] is reserved address space, not memory: the
//! kernel commits a stack page only when it is first touched, so a
//! worker that never recurses deeply costs a few pages.

use std::cell::Cell;

/// Stack reserved for every deep thread. Large enough that the parser's
/// and evaluator's own depth limits trip before the stack runs out.
pub const DEEP_STACK_BYTES: usize = 256 * 1024 * 1024;

thread_local! {
    /// Was this thread started with [`DEEP_STACK_BYTES`] of stack?
    static DEEP: Cell<bool> = const { Cell::new(false) };
}

/// Is the calling thread a deep-stack thread?
fn is_deep() -> bool {
    DEEP.with(Cell::get)
}

fn builder(name: String) -> std::thread::Builder {
    std::thread::Builder::new()
        .name(name)
        .stack_size(DEEP_STACK_BYTES)
}

/// Spawn a long-lived thread with the deep stack, marked so that
/// [`on_deep_stack`] runs in place on it.
pub fn spawn_deep<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<T>> {
    builder(name).spawn(move || {
        DEEP.with(|d| d.set(true));
        f()
    })
}

/// Run `f` on a deep stack: in place when the calling thread already is
/// one, otherwise on one scoped deep thread that runs under the caller's
/// fault schedule. A panic in `f` propagates to the caller either way;
/// callers that must not unwind contain it inside `f`.
///
/// Panics if the operating system refuses the fallback thread.
pub fn on_deep_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    if is_deep() {
        return f();
    }
    let faults = crate::current();
    std::thread::scope(|scope| {
        let handle = builder("xqr-deep".into())
            .spawn_scoped(scope, move || {
                DEEP.with(|d| d.set(true));
                let _faults = faults.enter();
                f()
            })
            .expect("spawn deep-stack thread");
        handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_place_on_a_deep_thread() {
        let handle = spawn_deep("deep-test".into(), || {
            let here = std::thread::current().id();
            (
                is_deep(),
                on_deep_stack(|| std::thread::current().id()) == here,
            )
        })
        .unwrap();
        assert_eq!(handle.join().unwrap(), (true, true));
    }

    #[test]
    fn a_plain_thread_hands_off_to_exactly_one_deep_thread() {
        assert!(!is_deep());
        let here = std::thread::current().id();
        let (there, nested) = on_deep_stack(|| {
            let there = std::thread::current().id();
            (
                there,
                on_deep_stack(|| std::thread::current().id()) == there,
            )
        });
        assert_ne!(there, here);
        assert!(nested, "a nested call stays on the fallback thread");
        assert!(!is_deep(), "the caller is still not deep");
    }

    #[test]
    fn a_panic_reaches_the_caller() {
        let payload =
            std::panic::catch_unwind(|| on_deep_stack(|| panic!("deep bug"))).unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"deep bug"));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn the_fallback_thread_runs_under_the_callers_schedule() {
        use crate::{fires_at, install, FaultKind, FaultRule, FaultSchedule};
        let _g = install(
            FaultSchedule::new(4).rule(FaultRule::new("deep.probe", FaultKind::ErrorReturn)),
        );
        let here = std::thread::current().id();
        let (there, fired) = on_deep_stack(|| {
            let probe = || -> xqr_xdm::Result<()> {
                crate::faultpoint!("deep.probe");
                Ok(())
            };
            (std::thread::current().id(), probe().is_err())
        });
        assert_ne!(there, here);
        assert!(fired);
        assert_eq!(fires_at("deep.probe"), 1);
    }
}
