//! Command line of `xqr-benchmark`.
//!
//! ```text
//! xqr-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--ops N]
//! xqr-benchmark --all [--seed N] [--seconds S] [--out report.json]
//! xqr-benchmark --compare old.json new.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one run,
//! one JSON object as the last line of standard output. `--trace 0`
//! prints the end-to-end metrics of an untraced run, `--trace 1` the
//! per-layer metrics of the traced run. Everything meant for a reader
//! goes to standard error.

use crate::compare;
use crate::json::Json;
use crate::layers;
use crate::runner::{self, RunResult};
use crate::workloads::adhoc_compile::AdhocCompile;
use crate::workloads::catalog_churn::CatalogChurn;
use crate::workloads::chunk_ingest::ChunkIngest;
use crate::workloads::pubsub_fanout::PubsubFanout;
use crate::workloads::xmark_cached::XmarkCached;
use crate::workloads::{Workload, CLIENTS};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The benchmark's declaration, compiled in so that the metrics the
/// binary prints and the metrics the file declares cannot drift apart:
/// a run emits exactly the declared names and fails on a missing one.
pub const DECLARATION: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 5] = [
    XmarkCached::NAME,
    AdhocCompile::NAME,
    PubsubFanout::NAME,
    ChunkIngest::NAME,
    CatalogChurn::NAME,
];

/// Operations the traced run replays when `--ops` does not say.
const TRACE_OPS: usize = 500;

struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: usize,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        ops: TRACE_OPS,
        out: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds wants a positive number")?
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other}")),
                }
            }
            "--ops" => {
                args.ops = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or("--ops wants a positive count")?
            }
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Names and units of one section (`end_to_end` or `per_layer`) of the
/// declaration, in declared order.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let decl = Json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    decl.get(section)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: a {section} metric lacks {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

impl RunResult {
    /// Keep exactly the metrics `section` declares, with their declared
    /// units; a declared metric the run did not produce is an error.
    fn declared_only(mut self, section: &str) -> Result<RunResult, String> {
        let mut kept = BTreeMap::new();
        for (name, unit) in declared(section) {
            let m = self
                .metrics
                .remove(&name)
                .ok_or_else(|| format!("declared metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!(
                    "metric {name} is measured in {} but declared in {unit}",
                    m.unit
                ));
            }
            kept.insert(name, m);
        }
        self.metrics = kept;
        Ok(self)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, m)| {
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit.as_str())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn print_for_reader(&self, workload: &str, mode: &str) {
        eprintln!(
            "== {workload} ({mode}): attempted {} failed {}",
            self.attempted, self.failed
        );
        for (name, m) in &self.metrics {
            if m.spread > 0.0 {
                eprintln!(
                    "{name:44} {:>16.6} {:8} spread {:.3}",
                    m.value, m.unit, m.spread
                );
            } else {
                eprintln!("{name:44} {:>16.6} {}", m.value, m.unit);
            }
        }
        for note in &self.notes {
            eprintln!("   {note}");
        }
    }
}

fn run_one<W: Workload>(seed: u64, seconds: f64, trace: bool, ops: usize) -> RunResult {
    if trace {
        layers::traced_run::<W>(seed, seconds, ops)
    } else {
        runner::end_to_end::<W>(seed, seconds)
    }
}

pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: usize,
) -> Result<RunResult, String> {
    let result = match name {
        XmarkCached::NAME => run_one::<XmarkCached>(seed, seconds, trace, ops),
        AdhocCompile::NAME => run_one::<AdhocCompile>(seed, seconds, trace, ops),
        PubsubFanout::NAME => run_one::<PubsubFanout>(seed, seconds, trace, ops),
        ChunkIngest::NAME => run_one::<ChunkIngest>(seed, seconds, trace, ops),
        CatalogChurn::NAME => run_one::<CatalogChurn>(seed, seconds, trace, ops),
        other => {
            return Err(format!(
                "unknown workload {other}; choose one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    let section = if trace { "per_layer" } else { "end_to_end" };
    let result = result.declared_only(section)?;
    result.print_for_reader(name, if trace { "traced" } else { "untraced" });
    Ok(result)
}

/// First line a command prints, or `unknown` when it cannot run (the
/// driver's checkout, for one, is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_fingerprint(seed: u64, seconds: f64) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("available_parallelism", Json::Num(cores as f64)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("clients", Json::Num(CLIENTS as f64)),
        ("repetitions", Json::Num(runner::REPETITIONS as f64)),
    ])
}

/// Every workload untraced, then every workload traced: the whole report.
fn run_all(args: &Args) -> Result<(Json, bool), String> {
    let mut correct = true;
    let mut sections = BTreeMap::new();
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let mut per_workload = BTreeMap::new();
        for name in WORKLOADS {
            let r = run_workload(name, args.seed, args.seconds, trace, args.ops)?;
            correct &= r.correct();
            let mut entry = r.to_json();
            if let Json::Obj(map) = &mut entry {
                map.insert("inputs".into(), r.inputs.clone());
                let spreads = r
                    .metrics
                    .iter()
                    .map(|(k, m)| (k.clone(), Json::Num(m.spread)));
                map.insert("spread".into(), Json::obj(spreads));
            }
            per_workload.insert(name.to_string(), entry);
        }
        sections.insert(section.to_string(), Json::Obj(per_workload));
    }
    sections.insert("host".into(), host_fingerprint(args.seed, args.seconds));
    Ok((Json::Obj(sections), correct))
}

pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xqr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((old, new)) = &args.compare {
        compare::compare_files(old, new)
    } else if args.all {
        run_all(&args).and_then(|(report, correct)| {
            let text = report.render();
            if let Some(path) = &args.out {
                std::fs::write(path, format!("{text}\n"))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            println!("{text}");
            Ok(correct)
        })
    } else if let Some(name) = &args.workload {
        run_workload(name, args.seed, args.seconds, args.trace, args.ops).map(|r| {
            println!("{}", r.to_json().render());
            r.correct()
        })
    } else {
        Err("say --workload <name>, --all, or --compare old.json new.json".into())
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("xqr-benchmark: a correctness check or a comparison failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xqr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
