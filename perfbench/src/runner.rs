//! The untraced end-to-end run of one workload.
//!
//! Load shape: one process, [`CLIENTS`] client threads, each issuing its
//! next operation when the previous reply returns. In-process callers of
//! `QueryService` block on their reply, so a closed loop is what they
//! are.
//!
//! A run is [`REPETITIONS`] repetitions, each on a freshly set-up service:
//! set-up, a short two-client warm-up, then an equal share of the measured
//! time. Every rate and percentile is computed per repetition and the
//! median repetition is reported. On the two-core sandbox one service
//! instance runs up to 15% faster or slower than the next for as long as
//! it lives (where its documents landed in memory, which core its threads
//! settled on), so measuring one instance for longer does not converge;
//! the median over instances does. The set-up times of the repetitions
//! give `setup_s` its median.

use crate::alloc_count;
use crate::json::Json;
use crate::workloads::{OpOutcome, Workload, CLIENTS};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Fresh set-ups per run; the reported value is the median over them.
pub const REPETITIONS: usize = 5;
/// Two-client warm-up of every repetition, not measured: plan cache
/// full, lazily started threads running.
const WARM_UP: Duration = Duration::from_millis(300);
/// The single-client pass that measures peak heap: this many windows of
/// this many operations, each against its own baseline, median reported.
/// One window of 300 would report the one rarest allocation spike of the
/// pass, which differs from seed to seed by half. Twenty operations span
/// at least one block of every workload's mix, so each window holds its
/// heavy operations (a document load, a giant compile); what still moves
/// a window's peak by a fifth is whether a worker frees the previous
/// reply before or after the next request allocates, and the median over
/// fifteen windows settles that.
const PEAK_WINDOWS: usize = 15;
const PEAK_WINDOW_OPS: usize = 20;
/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`), 100 on
/// every Linux port.
const USER_HZ: f64 = 100.0;

/// One metric as the result line carries it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    /// (max − min) / median over the repetitions; 0 where the metric is
    /// not taken per repetition.
    pub spread: f64,
}

/// One run of one workload, traced or not, as the result line and the
/// report carry it.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// Printed beside the metrics for a reader; not part of the line.
    pub notes: Vec<String>,
    /// The workload's input sizes.
    pub inputs: Json,
}

/// Median of `values`, and (max − min) / median.
fn median_and_spread(values: &mut [f64]) -> (f64, f64) {
    let med = median(values);
    (med, (values[values.len() - 1] - values[0]) / med)
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `q` quantile of `sorted` (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// User plus system CPU seconds this process has used so far.
fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields are counted after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) / USER_HZ
}

/// Run every client for `window`, all starting together; returns every
/// operation that completed inside the window.
fn closed_loop<W: Workload>(
    workload: &W,
    clients: &mut [W::Client],
    window: Duration,
) -> Vec<OpOutcome> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut done = Vec::with_capacity(1 << 16);
                    barrier.wait();
                    let t0 = Instant::now();
                    loop {
                        let outcome = workload.run_op(client);
                        if t0.elapsed() > window {
                            // Straddles the end of the window: not counted.
                            break;
                        }
                        done.push(outcome);
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

fn sorted(ops: &[OpOutcome], key: fn(&OpOutcome) -> u64) -> Vec<u64> {
    let mut v: Vec<u64> = ops.iter().map(key).collect();
    v.sort_unstable();
    v
}

pub fn end_to_end<W: Workload>(seed: u64, seconds: f64) -> RunResult {
    let window = Duration::from_secs_f64(seconds / REPETITIONS as f64);
    let window_s = window.as_secs_f64();
    let mut setup_times = Vec::with_capacity(REPETITIONS);
    let mut measured: Vec<Vec<OpOutcome>> = Vec::with_capacity(REPETITIONS);
    let mut unmeasured: Vec<OpOutcome> = Vec::new();
    let mut peak_bytes = 0.0;
    let mut cpu_seconds = 0.0;
    let mut inputs = Json::Null;

    for rep in 0..REPETITIONS {
        let t0 = Instant::now();
        let workload = W::setup(seed);
        setup_times.push(t0.elapsed().as_secs_f64());
        // Each repetition continues the seeded streams under new client
        // numbers, so no repetition replays another's operation order.
        let mut clients: Vec<W::Client> = (0..CLIENTS)
            .map(|i| workload.client(rep * CLIENTS + i))
            .collect();
        unmeasured.extend(closed_loop(&workload, &mut clients, WARM_UP));
        if rep == 0 {
            // Single client, so the peak does not depend on how two
            // clients' operations happen to overlap; and a client of its
            // own, so the operations are the same however many the timed
            // warm-up got through. Counting stops with each scope: the
            // measured window allocates uncounted.
            let mut client = workload.client(REPETITIONS * CLIENTS);
            let mut peaks: Vec<f64> = (0..PEAK_WINDOWS)
                .map(|_| {
                    let scope = alloc_count::Scope::begin();
                    unmeasured.extend((0..PEAK_WINDOW_OPS).map(|_| workload.run_op(&mut client)));
                    scope.peak_above_baseline() as f64
                })
                .collect();
            peak_bytes = median(&mut peaks);
        }
        let cpu0 = process_cpu_seconds();
        let done = closed_loop(&workload, &mut clients, window);
        cpu_seconds += process_cpu_seconds() - cpu0;
        assert!(
            !done.is_empty(),
            "{}: a repetition of {window_s} s completed no operation",
            W::NAME
        );
        measured.push(done);
        inputs = workload.describe();
    }

    let per_rep = |f: &dyn Fn(&[OpOutcome]) -> f64| -> (f64, f64) {
        median_and_spread(&mut measured.iter().map(|ops| f(ops)).collect::<Vec<f64>>())
    };
    let latency = |o: &OpOutcome| o.latency_ns;
    let first = |o: &OpOutcome| o.first_result_ns;

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, unit: &str, (value, spread): (f64, f64)| {
        let unit = unit.to_string();
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                spread,
            },
        );
    };
    put("setup_s", "s", median_and_spread(&mut setup_times));
    put(
        "throughput_ops_s",
        "ops/s",
        per_rep(&|ops| ops.iter().filter(|o| o.ok).count() as f64 / window_s),
    );
    put(
        "latency_p50_ms",
        "ms",
        per_rep(&|ops| quantile(&sorted(ops, latency), 0.50) as f64 / 1e6),
    );
    put(
        "latency_p99_ms",
        "ms",
        per_rep(&|ops| quantile(&sorted(ops, latency), 0.99) as f64 / 1e6),
    );
    put(
        "first_result_p50_ms",
        "ms",
        per_rep(&|ops| quantile(&sorted(ops, first), 0.50) as f64 / 1e6),
    );
    put(
        "payload_mb_s",
        "MB/s",
        per_rep(&|ops| ops.iter().map(|o| o.payload_bytes).sum::<u64>() as f64 / 1e6 / window_s),
    );
    put(
        "peak_alloc_mib",
        "MiB",
        (peak_bytes / (1024.0 * 1024.0), 0.0),
    );
    let measured_ops: usize = measured.iter().map(Vec::len).sum();
    put(
        "cpu_ms_per_op",
        "ms",
        (cpu_seconds * 1e3 / measured_ops as f64, 0.0),
    );

    let all = measured.iter().flatten().chain(&unmeasured);
    RunResult {
        attempted: all.clone().count() as u64,
        failed: all.filter(|o| !o.ok).count() as u64,
        metrics,
        notes: vec![format!(
            "closed loop, {CLIENTS} clients, {REPETITIONS} repetitions; \
             at least {} operations behind each percentile",
            measured.iter().map(Vec::len).min().unwrap_or(0)
        )],
        inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu_seconds();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() > a);
    }
}
