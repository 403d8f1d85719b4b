//! # xqr-joins — structural and holistic twig joins
//!
//! The algorithmic core the talk's "query evaluation, algorithms"
//! reading list surveys, implemented over the store's containment labels:
//!
//! * `stacktree` — Stack-Tree-Desc/-Anc binary structural joins,
//!   MPMGJN merge join, nested-loop oracle (Al-Khalifa et al.);
//! * `pathstack`/`twigstack` — holistic path/twig joins with
//!   bounded intermediate results (Bruno et al.);
//! * `navigate` — the navigational baseline and correctness oracle;
//! * `twig` — the twig pattern language shared by all of them.
//!
//! ```
//! use std::sync::Arc;
//! use xqr_joins::{element_list, stack_tree_desc, JoinKind};
//! use xqr_store::Document;
//! use xqr_xdm::{NamePool, QName};
//!
//! let names = Arc::new(NamePool::new());
//! let doc = Document::parse("<a><b/><a><b/></a></a>", names.clone()).unwrap();
//! let a = names.intern(&QName::local("a"));
//! let b = names.intern(&QName::local("b"));
//! let pairs = stack_tree_desc(
//!     &element_list(&doc, a),
//!     &element_list(&doc, b),
//!     JoinKind::AncestorDescendant,
//! );
//! assert_eq!(pairs.len(), 3); // outer a→2 b's, inner a→1
//! ```

mod label;
mod navigate;
mod pathstack;
mod stacktree;
mod twig;
mod twigstack;

pub use label::{element_list, range_by_start, Labeled};
pub use navigate::{enumerate_matches, matches_of_node};
pub use pathstack::path_stack;
pub use stacktree::{mpmgjn, nested_loop, normalize, stack_tree_anc, stack_tree_desc, JoinKind};
pub use twig::{EdgeKind, TwigPattern};
pub use twigstack::{guard_tick, twig_stack, twig_stack_on, TwigStats};
