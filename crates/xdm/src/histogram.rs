//! A fixed-bucket, lock-free latency histogram.
//!
//! The service layer records one end-to-end latency sample per query and
//! reports p50/p99 in its stats snapshot. Recording must be cheap enough
//! to sit on the completion path of every query, so the histogram is a
//! fixed array of relaxed atomic counters with power-of-two microsecond
//! bucket boundaries: bucket `i` covers `[2^i, 2^(i+1))` microseconds
//! (bucket 0 also absorbs sub-microsecond samples). Quantiles are read
//! back as the upper bound of the bucket containing the requested rank —
//! at most 2x off, which is plenty for capacity dashboards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: `2^39` microseconds is ~6.4 days, far beyond any
/// query deadline; larger samples clamp into the last bucket.
pub(crate) const HISTOGRAM_BUCKETS: usize = 40;

/// A concurrent histogram of durations with log2 microsecond buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(micros: u64) -> usize {
        // log2(micros), clamped to the bucket range; 0 and 1 both land
        // in bucket 0.
        (63 - micros.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Record one sample (relaxed atomics; safe from any thread).
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency over all samples (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.total_micros.load(Ordering::Relaxed) / n)
    }

    /// The quantile `q` in `[0, 1]`, reported as the upper bound of the
    /// bucket holding that rank. Returns zero when no samples exist.
    pub(crate) fn quantile(&self, q: f64) -> Duration {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        // Rank of the requested quantile, 1-based (q=0 → first sample).
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) microseconds.
                return Duration::from_micros(1u64 << (i + 1).min(63));
            }
        }
        Duration::from_micros(1u64 << 63)
    }

    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn buckets_are_log2_micros() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(1023), 9);
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = LatencyHistogram::new();
        // 99 fast samples (~100us), 1 slow (~1s).
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_secs(1));
        assert_eq!(h.count(), 100);
        // p50 lands in the 100us bucket [64, 128) → upper bound 128us.
        assert_eq!(h.p50(), Duration::from_micros(128));
        // p99 rank 99 is still in the fast bucket; p100 reaches the slow one.
        assert_eq!(h.quantile(0.99), Duration::from_micros(128));
        assert!(h.quantile(1.0) >= Duration::from_secs(1));
        assert!(h.mean() >= Duration::from_micros(100));
    }

    #[test]
    fn bucket_boundaries_are_half_open() {
        // Bucket i covers [2^i, 2^(i+1)): both edges of each boundary.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = 1u64 << i;
            assert_eq!(LatencyHistogram::bucket_of(lo), i, "lower edge of {i}");
            assert_eq!(
                LatencyHistogram::bucket_of(lo * 2 - 1),
                i,
                "upper edge of {i}"
            );
            assert_eq!(LatencyHistogram::bucket_of(lo * 2), i + 1);
        }
    }

    /// A known bimodal distribution: quantiles must step from the fast
    /// mode to the slow mode exactly where the mass says they should.
    #[test]
    fn quantiles_on_a_known_bimodal_distribution() {
        let h = LatencyHistogram::new();
        // 900 samples at ~50us, 100 samples at ~800ms.
        for _ in 0..900 {
            h.record(Duration::from_micros(50));
        }
        for _ in 0..100 {
            h.record(Duration::from_millis(800));
        }
        // p50 and p90 sit in the fast bucket [32, 64) → upper bound 64us.
        assert_eq!(h.p50(), Duration::from_micros(64));
        assert_eq!(h.quantile(0.90), Duration::from_micros(64));
        // p99 crosses into the slow mode: 800ms lands in [2^19, 2^20)us.
        assert_eq!(h.p99(), Duration::from_micros(1 << 20));
        // Quantiles are monotone in q.
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            assert!(h.quantile(w[0]) <= h.quantile(w[1]), "monotone at {w:?}");
        }
        // Mean is pulled between the modes: 0.9*50us + 0.1*800000us.
        assert_eq!(h.mean(), Duration::from_micros(80_045));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_micros(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        // Every thread recorded the same 0..1000us ramp, so quantiles
        // must match a single-threaded recording of one ramp exactly.
        let reference = LatencyHistogram::new();
        for i in 0..1000u64 {
            reference.record(Duration::from_micros(i));
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(h.quantile(q), reference.quantile(q), "q = {q}");
        }
        assert_eq!(h.mean(), reference.mean());
    }
}
