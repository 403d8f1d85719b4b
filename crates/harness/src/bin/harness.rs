//! The one oracle driver.
//!
//! ```text
//! harness <fuzz|chaos|pubsub|ingest|recover|overload> [--seed N] [--cases N] [--verbose]
//!         [--mutate]   (fuzz)     [--rounds N]   (recover's name for --cases)
//! ```
//!
//! Every leg is the same loop ([`xqr_harness::run_cases`]): `--cases`
//! seeded cases, each holding the stack to the leg's invariant (see the
//! leg's module docs), tallies summed into one summary line. On the
//! first violation the case's findings and a replay line are printed
//! and the process exits 1 — case `i` of seed `S` replays alone as
//! `--seed S+i --cases 1`.
//!
//! `fuzz --mutate` plants a deliberate constant-folding miscompile in
//! the optimized legs and *inverts* the exit code: the run succeeds only
//! if the oracle catches the planted bug — a blind oracle is a broken
//! oracle (EXPERIMENTS.md E14).
//!
//! The `overload` leg adds the two checks only a process can make, from
//! a counting `#[global_allocator]` that is dormant for the other legs
//! (one relaxed load per allocation): the peak of live bytes over a run
//! stays under a fixed bound instead of scaling with the offered load,
//! and live bytes return to within a small envelope of the pre-run
//! baseline once the service is dropped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

use xqr_harness::chaos::ChaosRunner;
use xqr_harness::oracle::Fuzz;
use xqr_harness::verdict::Violation;
use xqr_harness::{ingest, overload, pubsub, recover, run_cases, Case};

/// Live bytes and their high-water mark, relative to where the overload
/// leg switched counting on.
struct PeakAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the gauges are plain atomics.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            let size = layout.size() as isize;
            PEAK.fetch_max(
                LIVE.fetch_add(size, Ordering::Relaxed) + size,
                Ordering::Relaxed,
            );
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Live-byte envelope tolerated after an overload run: thread-local
/// caches, lazily initialized statics and allocator slack that never
/// return to the exact baseline, but do not grow with the workload.
const LEAK_ENVELOPE: isize = 8 << 20;

/// Peak live bytes tolerated during an overload run. The offered load
/// is tens of megabytes of document text; governance must keep the
/// resident peak at working-set scale, not offered-load scale.
const PEAK_BOUND: isize = 256 << 20;

/// One overload case under the counting allocator.
fn overload_case(seed: u64) -> Case {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let mut case = overload::run_overload(seed, &overload::OverloadConfig::default());
    COUNTING.store(false, Ordering::Relaxed);
    let (peak, residue) = (PEAK.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    case.notes
        .push(format!("process: peak-delta {peak}  residue {residue}"));
    if peak > PEAK_BOUND {
        case.violations.push(Violation::new(
            "process",
            format!("peak of {peak} live bytes over the run exceeded the {PEAK_BOUND}-byte bound"),
        ));
    }
    if residue > LEAK_ENVELOPE {
        case.violations.push(Violation::new(
            "process",
            format!(
                "leak: {residue} live bytes remain after the service was dropped \
                 (envelope {LEAK_ENVELOPE})"
            ),
        ));
    }
    case
}

/// The legs and their default case counts.
const LEGS: &[(&str, u64)] = &[
    ("fuzz", 200),
    ("chaos", 200),
    ("pubsub", 100),
    ("ingest", 100),
    ("recover", 3),
    ("overload", 1),
];

struct Args {
    leg: &'static str,
    seed: u64,
    cases: u64,
    mutate: bool,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().ok_or("which leg?")?;
    let &(leg, cases) = LEGS
        .iter()
        .find(|(l, _)| *l == name)
        .ok_or_else(|| format!("unknown leg: {name}"))?;
    let mut args = Args {
        leg,
        seed: 42,
        cases,
        mutate: false,
        verbose: false,
    };
    while let Some(flag) = argv.next() {
        let mut number = || -> Result<u64, String> {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            value.parse().map_err(|e| format!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = number()?,
            "--cases" => args.cases = number()?,
            "--rounds" if leg == "recover" => args.cases = number()?,
            "--mutate" if leg == "fuzz" => args.mutate = true,
            "--verbose" => args.verbose = true,
            other => return Err(format!("unknown argument for {leg}: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harness: {e}");
            eprintln!(
                "usage: harness <fuzz|chaos|pubsub|ingest|recover|overload> \
                 [--seed N] [--cases N] [--verbose] [--mutate (fuzz)] [--rounds N (recover)]"
            );
            return ExitCode::from(2);
        }
    };
    let Args {
        leg, seed, cases, ..
    } = args;
    let mutate = if args.mutate { " --mutate" } else { "" };
    println!("xqr {leg}: seed={seed} cases={cases}{mutate}");
    // Injected panics are expected traffic, not news.
    xqr_faults::silence_injected_panics();

    let run =
        |run_case: &mut dyn FnMut(u64) -> Case| run_cases(seed, cases, args.verbose, run_case);
    let (result, tail) = match leg {
        "fuzz" => {
            let mut fuzz = Fuzz::new(args.mutate);
            (run(&mut |s| fuzz.run_case(s)), fuzz.finish())
        }
        "chaos" => {
            let mut chaos = ChaosRunner::new();
            (run(&mut |s| chaos.run_case(s)), chaos.finish())
        }
        "pubsub" => (run(&mut pubsub::run_case), vec![]),
        "ingest" => (run(&mut ingest::run_case), vec![]),
        "recover" => (run(&mut recover::run_round), vec![]),
        _ => (run(&mut overload_case), vec![]),
    };

    match result {
        Err((i, case)) => {
            println!("\n=== {} VIOLATION at case {i} ===", leg.to_uppercase());
            println!(
                "replay:    harness {leg} --seed {} --cases 1{mutate}",
                seed.wrapping_add(i)
            );
            for v in &case.violations {
                println!("{}: {}", v.at, v.detail);
            }
            if args.mutate {
                println!("mutation sanity check: PASS (planted bug caught at case {i})");
                return ExitCode::SUCCESS;
            }
            ExitCode::FAILURE
        }
        Ok(totals) => {
            let mut line = format!("cases: {cases}");
            for (label, n) in &totals.counts {
                line.push_str(&format!("  {label}: {n}"));
            }
            println!("{line}");
            for extra in tail {
                println!("{extra}");
            }
            if args.mutate {
                println!(
                    "mutation sanity check: FAIL (planted miscompile survived {cases} cases — \
                     the oracle is blind)"
                );
                return ExitCode::FAILURE;
            }
            println!("no violations.");
            ExitCode::SUCCESS
        }
    }
}
