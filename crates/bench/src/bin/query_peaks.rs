//! Per-query heap attribution for the `xmark_cached` benchmark workload:
//! for each XMark suite query, the peak live heap above the baseline and
//! the bytes allocated while one `QueryService::run` answers it, on the
//! same seeded auction document and service shape `perfbench` uses.
//! It says which query sets the workload's `peak_alloc_mib`.
//!
//! ```sh
//! cargo run --release -p xqr-bench --bin query_peaks      # JSON on stdout
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use xqr_service::{QueryService, RetryPolicy, ServiceConfig};
use xqr_xmlgen::{auction_site, XmarkConfig, XMARK_QUERIES};

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the gauges are plain atomics and never touch the memory.
#[allow(unsafe_code)] // the peak gauge is a global allocator: an unsafe trait impl
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            PEAK.fetch_max(live + layout.size() as isize, Ordering::Relaxed);
            TOTAL.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs per query; the median is reported.
const RUNS: usize = 21;

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map_or(42, |s| s.parse().expect("seed"));
    // perfbench's `xmark_cached`: the same generator settings, two
    // workers, no retries.
    let xml = auction_site(&XmarkConfig {
        seed,
        people: 400,
        items: 2_500,
        open_auctions: 400,
        closed_auctions: 400,
        description_words: 60,
    });
    let service = QueryService::new(ServiceConfig {
        max_concurrent: 2,
        retry: RetryPolicy::none(),
        ..ServiceConfig::default()
    });
    service.load_document("auction.xml", &xml).expect("loads");
    let mut rows = Vec::new();
    for (id, _, query) in XMARK_QUERIES {
        let mut reply_bytes = 0;
        for _ in 0..3 {
            reply_bytes = service.run(query).expect("suite query runs").len();
        }
        let (mut peaks, mut totals) = (Vec::new(), Vec::new());
        for _ in 0..RUNS {
            let base = LIVE.load(Ordering::Relaxed);
            PEAK.store(base, Ordering::Relaxed);
            let total = TOTAL.load(Ordering::Relaxed);
            service.run(query).expect("suite query runs");
            peaks.push((PEAK.load(Ordering::Relaxed) - base).max(0) as u64);
            totals.push(TOTAL.load(Ordering::Relaxed) - total);
        }
        rows.push(format!(
            r#"{{"query": "{id}", "peak_bytes": {}, "alloc_bytes": {}, "reply_bytes": {reply_bytes}}}"#,
            median(peaks),
            median(totals)
        ));
    }
    println!("[\n  {}\n]", rows.join(",\n  "));
}
