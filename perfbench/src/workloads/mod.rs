//! The five workloads and what they share: the service configuration,
//! the operation outcome, and the decomposed query path of the traced
//! run.

pub mod adhoc_compile;
pub mod catalog_churn;
pub mod chunk_ingest;
pub mod pubsub_fanout;
pub mod xmark_cached;

use crate::json::Json;
use crate::trace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use xqr_runtime::DynamicContext;
use xqr_service::{QueryService, RetryPolicy, ServiceConfig};
use xqr_xdm::QueryGuard;

/// Closed-loop clients in every end-to-end run, and worker threads in
/// the service they call.
pub const CLIENTS: usize = 2;

/// What one operation did. Times cover the calls into the service only:
/// building the request and checking the reply happen outside them.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// The service answered, and the answer was the expected one.
    pub ok: bool,
    /// Call to reply.
    pub latency_ns: u64,
    /// Call to first observable result. Only a chunk session shows
    /// results before its reply; everywhere else this is `latency_ns`.
    pub first_result_ns: u64,
    /// Bytes handed to the service plus bytes it handed back.
    pub payload_bytes: u64,
}

impl OpOutcome {
    pub fn replied(ok: bool, latency_ns: u64, payload_bytes: u64) -> OpOutcome {
        OpOutcome {
            ok,
            latency_ns,
            first_result_ns: latency_ns,
            payload_bytes,
        }
    }
}

/// One workload: a service loaded with seeded inputs, and per-client
/// operation streams against it.
pub trait Workload: Sync + Sized {
    const NAME: &'static str;
    /// One client's position in its seeded operation stream.
    type Client: Send;

    /// Generate inputs from `seed`, build and load the service, register
    /// subscriptions, compute reference answers. This is `setup_s`.
    fn setup(seed: u64) -> Self;

    fn client(&self, index: usize) -> Self::Client;

    /// The client's next operation through the service's public API, as
    /// an embedder would issue it.
    fn run_op(&self, client: &mut Self::Client) -> OpOutcome;

    /// The same operation decomposed into calls on each layer's public
    /// functions, each inside a span.
    fn traced_op(&self, client: &mut Self::Client, tracer: &mut Tracer) -> OpOutcome;

    fn service(&self) -> &QueryService;

    /// Input sizes, for the report's fingerprint.
    fn describe(&self) -> Json;
}

/// The configuration every workload starts from: two workers for two
/// clients, and no retries, so a refusal counts as a failure instead of
/// hiding as latency.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_concurrent: CLIENTS,
        retry: RetryPolicy::none(),
        ..ServiceConfig::default()
    }
}

/// Say on standard error why an operation counted as failed — the first
/// few only; a broken workload fails every operation.
pub fn report_failure(workload: &str, what: std::fmt::Arguments) {
    static REPORTED: AtomicUsize = AtomicUsize::new(0);
    if REPORTED.fetch_add(1, Ordering::Relaxed) < 8 {
        eprintln!("{workload}: failed operation: {what}");
    }
}

/// Time `f`, returning its result and the elapsed nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// `QueryService::run` decomposed: plan cache, catalog, execute,
/// serialize — the four calls a worker makes, here on the caller's
/// thread with a span around each. `plan_tag` says which way the plan
/// lookup is expected to go (`hit`/`miss`); `eval_tag` qualifies the
/// execute span (the query's id).
pub fn traced_query(
    service: &QueryService,
    tracer: &mut Tracer,
    query: &str,
    doc: &str,
    plan_tag: &'static str,
    eval_tag: &'static str,
) -> xqr_xdm::Result<String> {
    let plan = tracer.span_tagged("service.plan_lookup", plan_tag, |_| service.prepare(query))?;
    let recovered = service.catalog().stats().segments_recovered;
    let (resolved, resolve_ns) = timed(|| {
        tracer.span("service.catalog_resolve", |_| {
            service.catalog().resolve(doc)
        })
    });
    resolved?;
    if service.catalog().stats().segments_recovered > recovered {
        tracer.count("service.catalog_readopts", 1);
        tracer.count("service.catalog_readopt_ns", resolve_ns);
    } else {
        tracer.count("service.catalog_hits", 1);
        tracer.count("service.catalog_hit_ns", resolve_ns);
    }
    let result = tracer.span_tagged("core.execute", eval_tag, |_| {
        plan.execute_guarded(
            service.engine(),
            &DynamicContext::new(),
            QueryGuard::unlimited(),
        )
    })?;
    let out = tracer.span("core.serialize", |_| result.serialize_guarded())?;
    let c = &result.counters;
    tracer.count("core.output_bytes", out.len() as u64);
    tracer.count("runtime.index_hits", c.index_hits.get());
    tracer.count("runtime.index_misses", c.index_misses.get());
    Ok(out)
}
