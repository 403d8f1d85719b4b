//! A suite of XMark-style benchmark queries (after Schmidt et al.'s
//! XMark, the standard XQuery benchmark contemporary with the talk) run
//! against the generated auction document — the talk's "large volumes of
//! centralized textual data" use case.
//!
//! ```sh
//! cargo run --release --example xmark_queries
//! ```

use std::time::Instant;
use xqr::{DynamicContext, Engine};
use xqr_xmlgen::{auction_site, XmarkConfig, XMARK_QUERIES as QUERIES};

fn main() -> xqr::Result<()> {
    let xml = auction_site(&XmarkConfig::scaled(8_000));
    println!("auction document: {} KiB\n", xml.len() / 1024);
    let engine = Engine::new();
    engine.load_document("auction.xml", &xml)?;
    for (id, what, query) in QUERIES {
        let prepared = engine.compile(query)?;
        let t0 = Instant::now();
        let result = prepared.execute(&engine, &DynamicContext::new())?;
        let dt = t0.elapsed();
        let out = result.serialize_guarded().unwrap();
        let preview: String = out.chars().take(60).collect();
        println!(
            "{id:>4} {dt:>9.2?}  [{:>5} items]  {what}\n      {preview}",
            result.len()
        );
    }
    Ok(())
}
