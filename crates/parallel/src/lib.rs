//! # xqr-parallel — morsel-driven parallel structural joins
//!
//! Intra-query parallelism for the index-fed PathStack/TwigStack
//! access path. The containment-label scheme makes structural joins
//! range-partitionable: every witness of a twig match starts inside its
//! root match's `(start, end]` interval, so splitting the outermost
//! join input into contiguous label ranges yields morsels that can run
//! on independent workers and merge back into exact document order —
//! bit-identical to the serial join. See `morsel` for the partition
//! and merge invariants, `pool` for the bounded worker set (shared
//! with the query service's admission control), and `sync` for the
//! poison-recovering locks underneath both.

mod morsel;
mod pool;
mod sync;

pub use morsel::{morsel_pool, parallel_stats, parallel_twig_stack, ParallelConfig, ParallelRun};
pub use pool::WorkerPool;
pub use sync::{lock_recover, lock_recoveries, try_lock_recover};
