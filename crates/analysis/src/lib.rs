//! # dse-analysis — static analyses supporting the expansion pass
//!
//! Section 3.4 of the paper lowers the overhead of data structure
//! expansion with classic compiler analyses:
//!
//! * **alias analysis** decides which data structures are referenced by
//!   private accesses (so everything else is *not* expanded and its
//!   pointers are *not* promoted), and
//! * **constant/copy propagation** discovers pointers whose span is a
//!   compile-time constant, eliminating the fat-pointer bookkeeping.
//!
//! This crate provides those two foundations:
//!
//! * [`points_to`] — a flow-insensitive, field-insensitive, inclusion-based
//!   (Andersen-style) interprocedural points-to analysis over the typed
//!   Cee AST, with allocation-site abstraction.
//! * [`consteval`] — compile-time constant folding for allocation-size
//!   expressions, under the original or a promoted layout.
//! * [`effects`] — which stores to a named variable an assignment does not
//!   show (address taken, assigned by a callee), so a value derived from it
//!   can be kept across statements.

pub mod consteval;
pub mod effects;
pub mod points_to;

pub use consteval::const_eval;
pub use points_to::{analyze, PointsTo, PtObj, VarId};
