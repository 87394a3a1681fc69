#![warn(missing_docs)]

//! Dependency analysis for Auto-CFD — §4.2 of the paper.
//!
//! The paper's signature technique is **analysis after partitioning**: the
//! grid is partitioned *first*, and dependency analysis then only has to
//! decide which references cross subgrid demarcation lines. This crate
//! implements:
//!
//! * [`stencil`] — per-(field loop, status array) stencil extraction:
//!   the set of reference offsets per grid axis, whatever their shape —
//!   regular or not, one dimension or one direction only (§4.2 case 2) —
//!   dependency distances possibly > 1 (§4.2 case 5), and packed-dimension
//!   handling (§4.2 case 4);
//! * [`sldp`] — construction of the set of field-loop dependency pairs
//!   `S_LDP`: every (A-type loop, R-type loop) pair over a shared status
//!   array whose references cross a cut axis, merged with ghost-width
//!   requirements (§4.2: "dependent pairs in S_LDP consist of the
//!   complete dependent information"); a pair whose two loops are the
//!   same loop is a *self-dependent field loop* (Figure 3);
//! * [`mirror`] — **mirror-image decomposition** (Figures 3–4) of a
//!   self-dependent loop: per crossed cut axis and sweep direction, the
//!   reads behind the sweep become a forward pipeline and the reads ahead
//!   of it an old-value exchange.

pub mod mirror;
mod selfdep;
pub mod sldp;
pub mod stencil;

pub use mirror::{mirror_decompose, DecomposeError, MirrorDecomposition, PipeStep};
pub use sldp::{analyze_unit, ArrayDep, LoopDepPair, Sldp};
pub use stencil::{loop_stencil, Stencil};
