//! `ftn-mlir` — a from-scratch, MLIR-like SSA compiler infrastructure.
//!
//! This crate substitutes for the MLIR C++ framework that the paper builds on
//! (the `melior` Rust bindings are too thin to host custom dialects and the
//! pass pipeline the paper needs). It provides:
//!
//! * an arena-based IR: [`Ir`] owns all operations, blocks, regions and values;
//!   entities are referenced by copyable ids ([`OpId`], [`BlockId`], [`RegionId`],
//!   [`ValueId`]) so passes can mutate freely without fighting the borrow checker,
//!   and an op's short lists (operands, results, attributes, regions,
//!   successors, a value's uses) live inline in the arena ([`SmallList`]),
//! * interned [`types`] and [`attrs`] (hash-consed, compared by id),
//! * SSA use–def chains with `replace_all_uses_with`, op erasure and deep cloning,
//! * a [`builder::Builder`] with MLIR-style insertion points,
//! * a textual [`printer`] and round-tripping [`parser`] for the generic
//!   operation form (`"dialect.op"(%0) {attr = 1 : i32} : (i32) -> ()`),
//! * a [`verifier`] (SSA dominance plus registry-based per-op rules),
//! * a [`pass`] manager and a greedy [`rewrite`] pattern driver.
//!
//! Dialect definitions (op names, typed builders, verifiers) live in the
//! `ftn-dialects` crate; this crate is dialect-agnostic.

pub mod attrs;
pub mod builder;
pub mod intern;
pub mod ir;
pub mod parser;
pub mod pass;
pub mod printer;
pub mod rewrite;
pub mod small_list;
pub mod table;
pub mod types;
pub mod verifier;
pub mod walk;

pub use attrs::{AttrId, AttrKind};
pub use builder::Builder;
pub use intern::Istr;
pub use ir::{BlockId, Def, Ir, OpData, OpId, OpSpec, RegionId, Use, ValueId};
pub use parser::{parse_module, ParseError};
pub use pass::{Pass, PassError, PassManager, PassReport};
pub use printer::{print_op, print_type};
pub use rewrite::{apply_patterns_greedily, RewritePattern};
pub use small_list::SmallList;
pub use table::ValueTable;
pub use types::{TypeId, TypeKind};
pub use verifier::{verify, VerifierRegistry, VerifyError};
pub use walk::{find_all, find_first, walk_postorder, walk_preorder};
