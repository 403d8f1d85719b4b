//! # xqr-parallel — worker pool, poison-recovering locks, morsel kernel
//!
//! * `pool` — the bounded [`WorkerPool`] behind the query service's
//!   admission control;
//! * `sync` — [`lock_recover`] and friends, the poison-recovering locks
//!   every service lock goes through (counted in [`lock_recoveries`]);
//! * `morsel` — [`parallel_twig_stack`], the morsel-driven twig join of
//!   experiment E18. The containment-label scheme makes structural
//!   joins range-partitionable, so the outermost join input splits into
//!   contiguous label ranges that run on independent workers and merge
//!   back bit-identical to the serial join. It is measured off the query
//!   path: queries run their twig joins serially.

mod morsel;
mod pool;
mod sync;

pub use morsel::{parallel_twig_stack, ParallelConfig, ParallelRun};
pub use pool::WorkerPool;
pub use sync::{lock_recover, lock_recoveries, try_lock_recover};
