//! # xqr-runtime — the streaming evaluator
//!
//! Push-based, lazily short-circuiting interpreter over the compiled
//! core tree, plus the token-level streaming path automaton, the built-in
//! function library, node construction, result serialization, the three
//! comparison families, and a small regex engine for the string
//! functions.

mod automaton;
mod compare;
mod construct;
mod env;
mod eval;
mod functions;
mod index_scan;
mod regex;
mod reply;
mod stream_path;
mod value;

pub use automaton::{
    pull, run_document, CombinedAutomaton, CombinedOutcome, CombinedRun, StreamingPass,
};
pub use env::{DynamicContext, ExecState};
pub use eval::{Counters, RuntimeOptions};
pub use index_scan::ScanCache;
pub use reply::{serialize_sequence, Reply};
pub use stream_path::{StreamPattern, StreamStats};
pub use value::{Item, Sequence};

use eval::{Evaluator, Sink};
use std::sync::Arc;
use xqr_compiler::CompiledQuery;
use xqr_store::{Lease, Store};
use xqr_xdm::{QueryGuard, Result};

/// One-shot execution of a compiled query (tests and simple embeddings;
/// the engine facade in `xqr-core` adds streaming serialization and
/// explain output on top). The guard is built from `options.limits`, so
/// budgets and deadlines apply here too. The leases keep the documents
/// the result's nodes come from alive: hold them while reading it.
pub fn execute(
    query: &CompiledQuery,
    store: &Arc<Store>,
    dyn_ctx: &DynamicContext,
    options: RuntimeOptions,
) -> Result<(Sequence, Counters, Vec<Lease>)> {
    let guard = QueryGuard::new(options.limits);
    execute_guarded(query, store, dyn_ctx, options, guard)
}

/// [`execute`] with a caller-supplied guard — how the engine facade
/// shares one guard (and its [`xqr_xdm::CancelHandle`]) across parsing,
/// evaluation and serialization.
pub(crate) fn execute_guarded(
    query: &CompiledQuery,
    store: &Arc<Store>,
    dyn_ctx: &DynamicContext,
    options: RuntimeOptions,
    guard: QueryGuard,
) -> Result<(Sequence, Counters, Vec<Lease>)> {
    let mut st = ExecState::with_guard(store.clone(), query.module.var_count, guard);
    let mut items = Sequence::new();
    let counters = evaluate(query, dyn_ctx, options, &mut st, &mut items)?;
    Ok((items, counters, st.take_leases()))
}

/// Evaluate `query` in `st`, streaming its result into `sink`; the
/// counters come back with the guard's consumption recorded. The
/// context's documents are leased first (`ExecState::pin_context`).
pub fn evaluate(
    query: &CompiledQuery,
    dyn_ctx: &DynamicContext,
    options: RuntimeOptions,
    st: &mut ExecState,
    sink: &mut dyn Sink,
) -> Result<Counters> {
    st.pin_context(dyn_ctx)?;
    let ev = Evaluator::new(&query.module, dyn_ctx).with_options(options);
    let result = ev.eval_module(st, sink);
    ev.counters.record_guard_usage(&st.guard.usage());
    result?;
    Ok(ev.counters)
}

#[cfg(test)]
mod eval_tests;
