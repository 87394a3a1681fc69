#![warn(missing_docs)]

//! Reference CFD kernels and case-study workload generators.
//!
//! Two roles:
//!
//! * [`solvers`] — native Rust implementations of the iterative methods
//!   CFD codes of the paper's era are built from (Jacobi, Gauss–Seidel,
//!   SOR, line sweeps, and a rayon-parallel Jacobi), used to
//!   cross-validate the Fortran interpreter;
//! * [`generate`] — synthetic *case-study program generators*. The
//!   paper's two applications (a 3,600-line aerofoil simulation and a
//!   6,100-line sprayer-flow simulation) are proprietary NWPU codes; the
//!   generators emit Fortran programs with the same structural features
//!   the pre-compiler sees — the A/R/C/O loop mix, 5/7-point stencils,
//!   self-dependent Gauss–Seidel sweeps (aerofoil), multi-subroutine
//!   structure with per-call-site synchronizations, boundary sections
//!   and branch structures, and goto-based convergence loops — at any
//!   grid size, so Tables 1–5 can be regenerated at the paper's scales.

pub mod generate;
pub mod solvers;

pub use generate::{aerofoil_program, sprayer_program, CaseParams};
pub use solvers::{
    adi_step, gauss_seidel_2d, gauss_seidel_step, jacobi_2d, jacobi_2d_parallel, jacobi_step,
    red_black_step, sor_2d, thomas, Field2D,
};
