//! End-to-end demo of resource governance: deadline, cancellation and
//! panic containment through the public API.

use std::time::{Duration, Instant};
use xqr::{DynamicContext, Engine, EngineOptions, Limits, QueryGuard, RuntimeOptions};
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};

fn main() {
    // 1. Deadline: the acceptance query under a 100 ms budget.
    let engine = Engine::with_options(EngineOptions {
        runtime: RuntimeOptions {
            limits: Limits::unlimited().with_deadline(Duration::from_millis(100)),
            ..Default::default()
        },
        ..Default::default()
    });
    let t = Instant::now();
    let err = engine
        .query("for $x in 1 to 100000000 return <r/>")
        .unwrap_err();
    println!(
        "deadline: err:{} after {:?}",
        err.code.as_str(),
        t.elapsed()
    );

    // 2. Cancellation from another thread.
    let engine = Engine::new();
    let q = engine.compile("sum(1 to 10000000000)").unwrap();
    let guard = QueryGuard::new(Limits::unlimited());
    let handle = guard.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        handle.cancel();
    });
    let err = q
        .execute_guarded(&engine, &DynamicContext::new(), guard)
        .unwrap_err();
    canceller.join().unwrap();
    println!("cancel:   err:{}", err.code.as_str());

    // 3. Panic containment: the process keeps going.
    // (examples build with the dev-dependency graph, which compiles the
    // failpoints in; the schedule is scoped to this thread and the
    // evaluation thread the engine hands the query to.)
    xqr_faults::silence_injected_panics();
    let engine = Engine::new();
    let err = {
        let _faults = xqr_faults::install(
            FaultSchedule::new(1).rule(FaultRule::new("eval.next", FaultKind::Panic)),
        );
        engine.query("1").unwrap_err()
    };
    println!("panic:    err:{} (process still alive)", err.code.as_str());
    println!("after:    {}", Engine::new().query("6 * 7").unwrap());
}
