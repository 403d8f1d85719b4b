//! # xqr-compiler — normalization, analysis, typing, rewrite optimizer
//!
//! The talk's compilation pipeline over the core expression tree:
//!
//! 1. `normalize` — AST → core tree (FLWOR decomposition, explicit
//!    `Ddo`, register allocation, function resolution);
//! 2. [`typing`] — static type inference with an optional strict mode
//!    (the "static typing feature");
//! 3. `analysis` — variable-use counts, node-creation, error
//!    capability, ordering/distinctness facts, node-identity demand;
//! 4. `rewrite` — the rewrite-rule library: one ordered rule table,
//!    per-[`Family`] switches and firing statistics;
//! 5. `pipeline` — ties it together into [`pipeline::compile`].

pub mod access;
mod analysis;
pub mod builtins;
mod core_expr;
mod normalize;
pub mod ops;
mod pipeline;
mod rewrite;
pub mod typing;

pub use core_expr::*;
pub use normalize::normalize_module;
pub use pipeline::{compile, CompileOptions, CompiledQuery};
pub use rewrite::{optimize_module, Family, RewriteConfig, RewriteStats};
