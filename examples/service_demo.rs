//! Demo of the `xqr-service` layer: N client threads firing M queries
//! each at one shared service, with a plan cache, a byte-budgeted
//! document catalog backed by a durable segment store, and admission
//! control. The run ends with a simulated restart: a second service
//! incarnation opens the same directory and recovers the corpus from
//! checksummed segments instead of re-parsing.
//!
//! Run with `cargo run --release --example service_demo`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use xqr::xqr_service::{QueryService, ServiceConfig};
use xqr::{DynamicContext, ErrorCode, Limits};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 200;

fn main() {
    let dir = std::env::temp_dir().join(format!("xqr-service-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        plan_cache_capacity: 64,
        catalog_max_bytes: Some(4 << 20),
        max_concurrent: 4,
        max_queued: 512,
        per_query_limits: Limits::unlimited().with_deadline(Duration::from_secs(5)),
        persist_dir: Some(dir.clone()),
        ..Default::default()
    };
    let service = Arc::new(QueryService::open(config.clone()).expect("open segment store"));

    // A small catalog of named documents, queryable via doc("name").
    service
        .load_document(
            "bib.xml",
            "<bib>\
               <book year=\"1994\"><title>TCP/IP Illustrated</title><price>65</price></book>\
               <book year=\"2000\"><title>Data on the Web</title><price>39</price></book>\
               <book year=\"1999\"><title>Economics of Tech</title><price>129</price></book>\
             </bib>",
        )
        .unwrap();

    // The working set every client draws from: a handful of query texts,
    // so after the first round everything is a plan-cache hit.
    let queries = [
        r#"count(doc("bib.xml")//book)"#,
        r#"sum(for $p in doc("bib.xml")//price return xs:integer($p))"#,
        r#"for $b in doc("bib.xml")//book where xs:integer($b/price) < 100 return string($b/title)"#,
        r#"string(doc("bib.xml")//book[@year = "2000"]/title)"#,
    ];

    let t = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut shed = 0u64;
                for i in 0..QUERIES_PER_CLIENT {
                    let q = queries[(c + i) % queries.len()];
                    match service.submit(q, DynamicContext::new()) {
                        Ok(ticket) => {
                            ticket.wait().expect("query failed");
                            ok += 1;
                        }
                        // Under overload the service sheds work instead
                        // of queueing without bound; a real client would
                        // back off and retry.
                        Err(e) if e.code == ErrorCode::Overloaded => shed += 1,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                (ok, shed)
            })
        })
        .collect();

    let mut ok = 0;
    let mut shed = 0;
    for c in clients {
        let (o, s) = c.join().unwrap();
        ok += o;
        shed += s;
    }
    let elapsed = t.elapsed();

    println!(
        "{CLIENTS} clients x {QUERIES_PER_CLIENT} queries: {ok} served, {shed} shed in {elapsed:?} \
         ({:.0} queries/s)\n",
        ok as f64 / elapsed.as_secs_f64()
    );
    println!("{}", service.stats_text());

    // Simulated restart: drop the service, reopen the directory. The
    // catalog adopts the persisted corpus in O(manifest) time; the first
    // doc("bib.xml") touch reads and checksum-verifies the segment.
    drop(service);
    let service = QueryService::open(config).expect("reopen segment store");
    let answer = service
        .run(r#"count(doc("bib.xml")//book)"#)
        .expect("recovered query");
    let s = service.stats();
    println!(
        "\nafter restart: count(//book) = {answer}, segments recovered: {} \
         quarantined: {} cold-start: {:?}",
        s.segments_recovered, s.segments_quarantined, s.cold_start_load
    );
    let _ = std::fs::remove_dir_all(&dir);
}
