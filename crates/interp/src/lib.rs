#![warn(missing_docs)]

//! Fortran interpreter: executes the frontend's AST.
//!
//! Auto-CFD's output is *source code*; to validate that the transformed
//! SPMD program computes the same flow field as the sequential original —
//! and to drive real parallel executions for the benchmarks — this crate
//! interprets the Fortran subset directly:
//!
//! * [`value`] — runtime values (integer/real/logical with Fortran's
//!   implicit-typing rule) and column-major arrays with declared bounds;
//! * [`machine`] — the store: scalars per frame, arrays by reference
//!   (Fortran argument semantics), list-directed I/O queues, and
//!   operation counters used by benchmarks;
//! * [`eval`] — expression evaluation including the standard intrinsics
//!   (`abs`, `max`, `min`, `sqrt`, `mod`, …) and user function calls;
//! * [`exec`] — the tree walk: statement execution with `do`/`do while`,
//!   block and logical `if`, `goto` (resolved against enclosing statement
//!   lists), subroutine calls with by-reference arrays and copy-back
//!   scalars;
//! * [`kernel`] — comm-free loop nests compiled to fused kernels that
//!   every run executes in place of the tree walk, bit-exactly;
//! * [`RunConfig`] — the one way to run a program, sequential or
//!   parallel, fresh or resumed;
//! * [`Hooks`] — an escape hatch for the SPMD runtime: `call acf_*`
//!   statements inserted by the restructurer are routed to a hook that
//!   performs halo exchanges / reductions through
//!   [`autocfd_runtime::Comm`] before ordinary execution resumes.
//!
//! Restrictions (documented, enforced by errors): status arrays keep
//! their names across units (no dummy-argument renaming of status
//! arrays); array dummy arguments assume the caller's shape.

pub mod elastic;
pub mod engine;
pub mod eval;
pub mod exec;
pub mod fasthash;
pub mod forecast;
pub mod kernel;
pub mod machine;
pub mod spmd;
pub mod value;

pub use elastic::repartition;
pub use engine::RunConfig;
pub use exec::{Hooks, LoopSplit, NoHooks};
pub use forecast::{forecast, PhaseForecast, RankTraffic};
pub use kernel::{kernel_nests, KernelSet};
pub use machine::{ArrayId, Binding, Frame, Machine, OpCounts, RunError};
pub use spmd::{
    ghost_region, owned_region, region_len, restore_into, verify_owned_regions,
    verify_rank_owned_region, CheckpointOpts, RankResult, RankRun, SpmdHooks,
};
pub use value::ArrayVal;
pub use value::Value;
