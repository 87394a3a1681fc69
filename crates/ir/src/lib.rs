#![warn(missing_docs)]

//! Program IR for the Auto-CFD pre-compiler.
//!
//! This crate turns a parsed Fortran [`SourceFile`](autocfd_fortran::SourceFile)
//! into the analysis representation the rest of the pipeline works on:
//!
//! * [`model`] — the IR data model: per-unit loop trees ([`LoopInfo`]),
//!   status-array access records ([`ArrayAccess`]) with decoded subscript
//!   patterns, call sites, and program-order statement indices;
//! * [`build`] — construction of the IR from the AST plus the `!$acf`
//!   directive set (resolving `name(args)` into array reference vs.
//!   function call, locating field loops);
//! * [`classify`](mod@classify) — the paper's §2 loop taxonomy: for every status array
//!   each field loop is **A-type** (assignment-only), **R-type**
//!   (reference-only), **C-type** (combined) or **O-type** (unrelated)
//!   — Figure 1 of the paper;
//! * `relations` — the loop relations of §5.1 Definitions 6.1–6.4
//!   (inner/outer, *direct* inner/outer, adjacent, and simple loops),
//!   kept as tested definitions: nothing outside its tests calls them.
//!
//! The IR deliberately keeps the original AST around (`ProgramIr::file`):
//! the restructurer edits the AST, guided by analysis results keyed by
//! [`StmtId`](autocfd_fortran::StmtId).

pub mod build;
pub mod classify;
pub mod model;
#[cfg(test)]
mod relations;
pub mod report;

pub use build::build_ir;
pub use classify::{classify, LoopClass};
pub use model::{
    ArrayAccess, CallSite, IndexPattern, LoopId, LoopInfo, ProgramIr, StatusArrayInfo, UnitIr,
};
pub use report::{report_program, report_unit};
