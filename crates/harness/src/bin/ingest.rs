//! Chunked-ingestion oracle driver.
//!
//! ```text
//! ingest [--seed N] [--cases N] [--verbose]
//! ```
//!
//! Each case derives a subscription set and a few documents from its
//! seed and checks the chunked-ingestion invariant twice: once
//! un-faulted (`publish_chunked` over several re-splits of each
//! document — a 1-byte split always included — must produce a report
//! identical to `publish`, and every streamable query fed through
//! `open_stream_query` in the same re-splits must equal its one-shot
//! evaluation), once with a seeded fault schedule over the
//! ingestion faultpoints (every service chunk session ends correct or
//! coded, is cleaned up on failure, and leaks nothing into the store).
//! On violation a replay line is printed (`ingest --seed S+i --cases 1`
//! reproduces case `i` of seed `S`) and the process exits 1.

use std::process::ExitCode;
use xqr_harness::case_seed;
use xqr_harness::ingest::run_case;

struct Args {
    seed: u64,
    cases: u64,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        cases: 100,
        verbose: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need_value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--seed" => {
                args.seed = need_value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--cases" => {
                args.cases = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
                i += 2;
            }
            "--verbose" => {
                args.verbose = true;
                i += 1;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ingest: {e}");
            eprintln!("usage: ingest [--seed N] [--cases N] [--verbose]");
            return ExitCode::from(2);
        }
    };

    if !xqr_faults::compiled_with_failpoints() {
        eprintln!("ingest: built without the `failpoints` feature — nothing to inject");
        return ExitCode::from(2);
    }

    println!("xqr ingest: seed={} cases={}", args.seed, args.cases);

    // Injected panics are expected traffic while a schedule is armed.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !xqr_faults::armed() {
            default_hook(info);
        }
    }));

    let (mut chunkings, mut stream_queries, mut agreed, mut coded, mut fired) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for i in 0..args.cases {
        let cseed = case_seed(args.seed, i);
        for faulted in [false, true] {
            let case = run_case(cseed, faulted);
            chunkings += case.chunkings;
            stream_queries += case.stream_queries;
            agreed += case.agreed;
            coded += case.coded;
            fired += case.fired;
            if args.verbose {
                println!(
                    "case {i}{}: subs={} docs={} chunkings={} agreed={} coded={} fired={}",
                    if faulted { " [faulted]" } else { "" },
                    case.subscriptions,
                    case.documents,
                    case.chunkings,
                    case.agreed,
                    case.coded,
                    case.fired
                );
            }
            if !case.violations.is_empty() {
                println!("\n=== INGEST VIOLATION at case {i} ===");
                println!(
                    "replay:    ingest --seed {} --cases 1",
                    args.seed.wrapping_add(i)
                );
                for v in &case.violations {
                    println!("{}: {}", v.at, v.detail);
                }
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "cases: {} (x2 legs)  chunked publishes: {}  chunked stream queries: {}  \
         comparisons agreed: {}  coded: {}  injections fired: {}",
        args.cases, chunkings, stream_queries, agreed, coded, fired
    );
    println!("no violations.");
    ExitCode::SUCCESS
}
