#![warn(missing_docs)]

//! Benchmark harnesses reproducing the paper's evaluation (§6).
//!
//! * [`table1`] — runs the *real* pre-compiler on the paper-scale
//!   case-study programs and reports synchronization points before/after
//!   optimization for the paper's nine partitions;
//! * [`models`] — calibrated workload models of the two case studies for
//!   the cluster cost simulator, regenerating Tables 2–5 (absolute
//!   seconds are calibrated to the paper's sequential baselines; the
//!   *shapes* — who wins, where the crossovers fall — are emergent);
//! * [`report`] — row structures and fixed-width table printing shared
//!   by the `table*`, `calibrate` and `ablations` binaries.

pub mod models;
pub mod report;
pub mod table1;

pub use models::{case1_workload, case2_workload, Case1Model, Case2Model};
pub use report::{print_table, Row};
