//! Quickstart: compile and run XQuery against XML, three ways.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use xqr::{bind, DynamicContext, Engine, Item};

fn main() -> xqr::Result<()> {
    // 1. One-shot: query a document string directly.
    let engine = Engine::new();
    let bib = r#"<bib>
        <book year="1994"><title>TCP/IP Illustrated</title><price>65.95</price></book>
        <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
        <book year="1999"><title>Economics of Tech</title><price>129.95</price></book>
    </bib>"#;
    let cheap = engine.query_xml(bib, "//book[price < 100]/title/text()")?;
    println!("titles under $100: {cheap}");

    // 2. Prepared query, re-executed with different variable bindings.
    let prepared = engine.compile(
        "declare variable $limit external;
         for $b in //book
         where $b/price < $limit
         order by $b/price descending
         return <hit year=\"{$b/@year}\">{string($b/title)}</hit>",
    )?;
    let doc = engine.store().lease_xml(bib, None)?;
    for limit in [50, 100, 200] {
        let mut ctx = DynamicContext::new();
        ctx.context_item = Some(Item::Node(doc.root()));
        bind(&mut ctx, "limit", vec![Item::integer(limit)]);
        let result = prepared.execute(&engine, &ctx)?;
        println!("under ${limit}: {}", result.serialize_guarded().unwrap());
    }

    // 3. Inspect the compiled plan.
    let q = engine.compile("//book[1]/title")?;
    println!("\nplan for //book[1]/title:\n{}", q.explain());
    Ok(())
}
