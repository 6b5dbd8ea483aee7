//! # drx-bench — figure regeneration and evaluation harness
//!
//! * [`figures`] rebuilds the paper's Figures 1–3 (deterministic address
//!   layouts, asserted against the paper's numbers).
//! * [`experiments`] implements the evaluation suite E1–E9 described in
//!   DESIGN.md §2, reporting deterministic simulated-time tables.
//! * Binaries: `figures` (print the figures) and `harness` (run E1–E9 and
//!   print the tables recorded in EXPERIMENTS.md).

pub mod experiments;
pub mod figures;
pub mod table;

pub use table::Table;
