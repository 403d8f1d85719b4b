//! Runs the built `xqr-benchmark` the way the driver does, briefly, and
//! holds what it prints to `BENCHMARK.json`: every declared metric once
//! per workload with its unit, no failed operation, a well-formed span
//! forest, and counts that repeat exactly for a seed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;
use xqr_perfbench::cli::{declared, WORKLOADS};
use xqr_perfbench::json::Json;

/// Per-layer metrics that are counts or ratios of counts, not times: the
/// same seed must give the same value.
const EXACT: [&str; 14] = [
    "compiler.rewrites_fired",
    "index.bytes_per_node",
    "joins.twig_intermediate_per_output",
    "runtime.index_hit_share",
    "segment.bytes_per_input_byte",
    "service.catalog_evictions",
    "service.catalog_hit_share",
    "service.plan_evictions",
    "service.plan_hit_share",
    "store.bytes_per_input_byte",
    "subscribe.tokens_skipped_share",
    "tokenstream.pool_hit_share",
    "pressure.peak_bytes.catalog",
    "pressure.transitions",
];

fn run(workload: &str, seed: u64, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_xqr-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(extra)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).unwrap_or_else(|e| panic!("{workload}: result line is not JSON: {e}"))
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The result line has exactly the contract's keys, no failure, and
/// exactly the metrics `section` declares, each with its declared unit.
fn check_result(workload: &str, result: &Json, section: &str) -> BTreeMap<String, f64> {
    let keys: BTreeSet<&str> = result
        .as_obj()
        .expect("the result is an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
        "{workload}"
    );
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
    let declared = declared(section);
    assert_eq!(
        metrics.keys().collect::<BTreeSet<_>>(),
        declared.iter().map(|(n, _)| n).collect::<BTreeSet<_>>(),
        "{workload}: emitted {section} metrics differ from BENCHMARK.json"
    );
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{workload}: a name was declared twice"
    );
    let mut values = BTreeMap::new();
    for (name, unit) in declared {
        assert!(is_metric_name(&name), "{name}");
        let m = &metrics[&name];
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("a numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        values.insert(name, value);
    }
    values
}

/// Parents exist and come earlier, children lie inside their parents and
/// share their operation, every operation has exactly one root.
fn check_span_forest(workload: &str, ops: usize) -> BTreeMap<String, f64> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("trace_{workload}.json"));
    let text = std::fs::read_to_string(&path).expect("the traced run wrote its span file");
    let file = Json::parse(&text).expect("the span file is JSON");
    let spans = file.get("spans").expect("spans").as_arr();
    let field = |s: &Json, k: &str| {
        s.get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{k}"))
    };
    let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        assert!(is_metric_name(
            s.get("name").and_then(Json::as_str).expect("name")
        ));
        let (start, end, op) = (field(s, "start_ns"), field(s, "end_ns"), field(s, "op_id"));
        assert!(start <= end, "{workload}: span {i} ends before it starts");
        match s.get("parent") {
            Some(Json::Null) => *roots.entry(op as u64).or_insert(0) += 1,
            Some(Json::Num(p)) => {
                let p = *p as usize;
                assert!(p < i, "{workload}: span {i} names a later parent");
                let parent = &spans[p];
                assert_eq!(
                    field(parent, "op_id"),
                    op,
                    "{workload}: span {i} left its operation"
                );
                assert!(
                    field(parent, "start_ns") <= start && end <= field(parent, "end_ns"),
                    "{workload}: span {i} is not inside its parent"
                );
            }
            other => panic!("{workload}: span {i} has parent {other:?}"),
        }
    }
    assert_eq!(roots.len(), ops, "{workload}: one op_id per operation");
    assert!(
        roots.values().all(|&n| n == 1),
        "{workload}: one root span per operation"
    );
    assert_eq!(
        roots.keys().copied().collect::<Vec<_>>(),
        (0..ops as u64).collect::<Vec<_>>()
    );

    // Counts read beside the spans; `_ns` entries are times and vary.
    file.get("counts")
        .and_then(Json::as_obj)
        .expect("counts")
        .iter()
        .filter(|(k, _)| !k.ends_with("_ns"))
        .map(|(k, v)| (k.clone(), v.as_f64().unwrap()))
        .collect()
}

fn traced(workload: &str) {
    const OPS: usize = 200;
    let args = ["--trace", "1", "--ops", "200", "--seconds", "2"];
    let first = check_result(workload, &run(workload, 5, &args), "per_layer");
    let first_counts = check_span_forest(workload, OPS);
    let second = check_result(workload, &run(workload, 5, &args), "per_layer");
    let second_counts = check_span_forest(workload, OPS);
    assert_eq!(
        first_counts, second_counts,
        "{workload}: counts differ between runs of one seed"
    );
    for name in EXACT {
        assert_eq!(
            first[name], second[name],
            "{workload}: {name} differs between runs of one seed"
        );
    }
    // Another seed: other inputs, every correctness check still passes.
    check_result(workload, &run(workload, 6, &args), "per_layer");
}

#[test]
fn traced_xmark_cached() {
    traced(WORKLOADS[0]);
}

#[test]
fn traced_adhoc_compile() {
    traced(WORKLOADS[1]);
}

#[test]
fn traced_pubsub_fanout() {
    traced(WORKLOADS[2]);
}

#[test]
fn traced_chunk_ingest() {
    traced(WORKLOADS[3]);
}

#[test]
fn traced_catalog_churn() {
    traced(WORKLOADS[4]);
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let values = check_result(
            workload,
            &run(workload, 5, &["--trace", "0", "--seconds", "1"]),
            "end_to_end",
        );
        for (name, value) in values {
            assert!(value > 0.0, "{workload}: {name} must never be 0");
        }
    }
}

#[test]
fn declaration_is_within_the_contract() {
    let decl = Json::parse(xqr_perfbench::cli::DECLARATION).unwrap();
    let names: Vec<&str> = decl
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    assert!(declared("end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(declared("per_layer").len() <= 128);
    for m in decl.get("end_to_end").unwrap().as_arr() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
}
