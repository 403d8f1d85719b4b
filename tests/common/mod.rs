//! Shared by the integration suites that hold the two result paths to
//! each other.
#![allow(dead_code)]

use xqr::{DynamicContext, Engine, Item, PreparedQuery, QueryGuard, Result};

/// Run `plan` materialized (`execute` + `serialize_guarded`, the
/// reference) and serialized as it runs (`execute_serialized`, what the
/// service answers with): the two must agree on the bytes or on the
/// error code. Returns the agreed outcome.
pub fn both_legs(engine: &Engine, plan: &PreparedQuery, ctx: &DynamicContext) -> Result<String> {
    let materialized = plan
        .execute(engine, ctx)
        .and_then(|result| result.serialize_guarded());
    let guard = QueryGuard::new(engine.options().runtime.limits);
    let streamed = plan
        .execute_serialized(engine, ctx, guard, None)
        .map(|(out, _)| out);
    match (&materialized, &streamed) {
        (Ok(want), Ok(got)) => assert_eq!(want, got, "the serialized reply differs"),
        (Err(want), Err(got)) => assert_eq!(want.code, got.code, "{want} / {got}"),
        _ => panic!("materialized {materialized:?}, serialized {streamed:?}"),
    }
    materialized
}

/// [`both_legs`] for a query text with an empty context.
pub fn query_both(engine: &Engine, query: &str) -> Result<String> {
    both_legs(engine, &engine.compile(query)?, &DynamicContext::new())
}

/// [`both_legs`] with `xml` as the context document, leased for the
/// call as `Engine::query_xml` does.
pub fn query_xml_both(engine: &Engine, xml: &str, query: &str) -> Result<String> {
    let plan = engine.compile(query)?;
    let doc = engine.store().lease_xml(xml, None)?;
    both_legs(
        engine,
        &plan,
        &DynamicContext::new().with_context_item(Item::Node(doc.root())),
    )
}
