//! Chaos testing driver.
//!
//! ```text
//! chaos [--seed N] [--cases N] [--verbose]
//! ```
//!
//! Runs `--cases` seeded chaos cases: each derives a random (query,
//! document) pair *and* a random fault schedule from its seed, installs
//! the schedule, and replays the case through the faulted legs (bare
//! engine, resilient service, streaming when streamable). The invariant: an
//! injected fault yields the correct result (after retry/degradation)
//! or a stable coded error — never a wrong answer, an escaped panic, or
//! a leaked store document. On violation a replay line is printed
//! (`chaos --seed S+i --cases 1` reproduces case `i` of seed `S`) and
//! the process exits 1.

use std::process::ExitCode;
use xqr_harness::case_seed;
use xqr_harness::chaos::{ChaosRunner, LegEnd};

struct Args {
    seed: u64,
    cases: u64,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        cases: 200,
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
            eprintln!("chaos: {e}");
            eprintln!("usage: chaos [--seed N] [--cases N] [--verbose]");
            return ExitCode::from(2);
        }
    };

    if !xqr_faults::compiled_with_failpoints() {
        eprintln!("chaos: built without the `failpoints` feature — nothing to inject");
        return ExitCode::from(2);
    }

    println!("xqr chaos: seed={} cases={}", args.seed, args.cases);

    // Injected panics are expected traffic here: silence the default
    // hook's backtraces while a schedule is armed, keep it for real
    // panics outside the faulted window.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !xqr_faults::armed() {
            default_hook(info);
        }
    }));

    let mut runner = ChaosRunner::new();
    let (mut fired, mut correct, mut coded, mut survived) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..args.cases {
        let cseed = case_seed(args.seed, i);
        let case = runner.run_case(cseed);
        fired += case.fired;
        if case.survived_injection() {
            survived += 1;
        }
        for (leg, end) in &case.legs {
            match end {
                LegEnd::Correct => correct += 1,
                LegEnd::Coded(code) => {
                    coded += 1;
                    if args.verbose {
                        println!("case {i}: {leg} -> {}", code.as_str());
                    }
                }
            }
        }
        if !case.violations.is_empty() {
            println!("\n=== CHAOS VIOLATION at case {i} ===");
            println!(
                "replay:    chaos --seed {} --cases 1",
                args.seed.wrapping_add(i)
            );
            println!("schedule:  {:?}", case.schedule);
            for v in &case.violations {
                println!("leg {}: {}", v.leg, v.detail);
            }
            return ExitCode::FAILURE;
        }
    }

    let stats = runner.service_stats();
    println!(
        "cases: {}  injections fired: {}  legs correct: {}  legs coded-error: {}  \
         cases surviving injection: {}",
        args.cases, fired, correct, coded, survived
    );
    println!(
        "service: retries={} uncached-compiles={} build-failures={} lock-recoveries={}",
        stats.retries, stats.uncached_compiles, stats.index_build_failures, stats.lock_recoveries
    );
    println!("no violations.");
    ExitCode::SUCCESS
}
