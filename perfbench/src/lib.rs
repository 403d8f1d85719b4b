//! The seeded service benchmark of `xqr`: five workloads over
//! `QueryService`, end-to-end metrics from untraced runs, per-layer
//! metrics from a traced run. `README.md` beside this crate says how to
//! run it and how to read what it prints.

pub mod alloc_count;
pub mod cli;
pub mod compare;
pub mod inputs;
pub mod json;
pub mod kernels;
pub mod layers;
pub mod runner;
pub mod trace;
pub mod workloads;
