//! # xqr-runtime — the streaming evaluator
//!
//! Push-based, lazily short-circuiting interpreter over the compiled
//! core tree, plus the token-level streaming path automaton, the built-in
//! function library, node construction, the three comparison families,
//! and a small regex engine for the string functions.

pub mod automaton;
pub mod compare;
pub mod construct;
pub mod env;
pub mod eval;
pub mod functions;
pub mod index_scan;
pub mod regex;
pub mod stream_path;
pub mod value;

pub use automaton::{
    pull, run_document, CombinedAutomaton, CombinedOutcome, CombinedRun, PatternId, PushAction,
    StreamingPass,
};
pub use env::{DynamicContext, ExecState, Focus, Frame};
pub use eval::{Counters, Evaluator, Flow, RuntimeOptions, Sink};
pub use index_scan::ScanCache;
pub use stream_path::{StreamPattern, StreamStats, StreamStep};
pub use value::{effective_boolean_value, serialize_sequence, Item, Sequence};
pub use xqr_parallel::{ParallelConfig, ParallelRun};

use std::sync::Arc;
use xqr_compiler::CompiledQuery;
use xqr_store::Store;
use xqr_xdm::{QueryGuard, Result};

/// One-shot execution of a compiled query (tests and simple embeddings;
/// the engine facade in `xqr-core` adds streaming serialization and
/// explain output on top). The guard is built from `options.limits`, so
/// budgets and deadlines apply here too.
pub fn execute(
    query: &CompiledQuery,
    store: &Arc<Store>,
    dyn_ctx: &DynamicContext,
    options: RuntimeOptions,
) -> Result<(Sequence, Counters)> {
    let guard = QueryGuard::new(options.limits);
    execute_guarded(query, store, dyn_ctx, options, guard)
}

/// [`execute`] with a caller-supplied guard — how the engine facade
/// shares one guard (and its [`xqr_xdm::CancelHandle`]) across parsing,
/// evaluation and serialization.
pub fn execute_guarded(
    query: &CompiledQuery,
    store: &Arc<Store>,
    dyn_ctx: &DynamicContext,
    options: RuntimeOptions,
    guard: QueryGuard,
) -> Result<(Sequence, Counters)> {
    let ev = Evaluator::new(&query.module, dyn_ctx).with_options(options);
    let mut st = ExecState::with_guard(store.clone(), query.module.var_count, guard);
    let result = ev.eval_module(&mut st);
    ev.counters.record_guard_usage(&st.guard.usage());
    // On success the constructed-document ledger transfers to the
    // caller (the result references those documents); on error — or a
    // panic unwinding past us — `ExecState::drop` frees the leftovers.
    let items = result?;
    let mut counters = ev.counters;
    counters.constructed_docs = st.take_constructed_docs();
    Ok((items, counters))
}

#[cfg(test)]
mod eval_tests;
