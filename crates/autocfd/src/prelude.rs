//! One-import surface for driving the pre-compiler as a library.
//!
//! Re-exports the driver-level types: compilation entry points, the
//! unified [`Error`], execution results, the checkpoint/resume surface
//! (snapshots, manifests, epoch selection, elastic repartitioning),
//! and the observability helpers behind `acfc trace`.
//!
//! ```
//! use autocfd::prelude::*;
//!
//! let src = "
//! !$acf grid(16, 16)
//! !$acf status v
//!       program demo
//!       real v(16,16)
//!       integer i, j
//!       do i = 2, 15
//!         do j = 1, 16
//!           v(i,j) = v(i-1,j)
//!         end do
//!       end do
//!       end
//! ";
//! let compiled: Compiled = compile(src, &CompileOptions::with_procs(2)).unwrap();
//! let diff = compiled.verify_opts(vec![], 0.0, true).unwrap();
//! assert_eq!(diff, 0.0);
//! ```

pub use crate::obs::{
    clean_trace_dir, comm_hidden, cross_validate, load_merged, render_cross_validation,
    render_report, write_rank_run, PhaseCheck,
};
pub use crate::{compile, CompileError, CompileOptions, Compiled, Error};
pub use autocfd_codegen::SpmdPlan;
pub use autocfd_grid::{GridShape, Partition, PartitionSpec};
pub use autocfd_interp::{repartition, CheckpointOpts, RankResult, RankRun, RunConfig, RunError};
pub use autocfd_runtime::checkpoint::{
    latest_consistent_epoch, load_epoch, load_manifest, write_manifest, RunManifest, Snapshot,
};
pub use autocfd_runtime::{CommError, MergedTrace};
