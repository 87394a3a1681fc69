#![warn(missing_docs)]

//! # Auto-CFD
//!
//! A from-scratch reproduction of *Auto-CFD: Efficiently Parallelizing
//! CFD Applications on Clusters* (Xiao, Zhang, Kuang, Feng, Kang —
//! IEEE CLUSTER 2003): a pre-compiler that transforms sequential Fortran
//! CFD programs into message-passing SPMD parallel programs.
//!
//! The pipeline (paper Figure 2):
//!
//! ```text
//! Fortran source + !$acf directives
//!   → parse            (autocfd-fortran)
//!   → build IR         (autocfd-ir: loop tree, A/R/C/O classification)
//!   → partition grid   (autocfd-grid: balanced blocks, minimal comm)
//!   → analyze deps     (autocfd-depend: S_LDP, self-dependent loops,
//!                       mirror-image decomposition)    [after partitioning]
//!   → optimize syncs   (autocfd-syncopt: upper-bound regions, minimal
//!                       combining, interprocedural hoisting)
//!   → restructure      (autocfd-codegen: SPMD source + executable plan)
//!   → execute          (autocfd-interp + autocfd-runtime: rank threads)
//! ```
//!
//! # Quickstart
//!
//! ```
//! use autocfd::{compile, CompileOptions};
//!
//! let src = "
//! !$acf grid(32, 32)
//! !$acf status v, vn
//!       program jacobi
//!       real v(32,32), vn(32,32)
//!       integer i, j, it
//!       do i = 1, 32
//!         v(i,1) = 1.0
//!       end do
//!       do it = 1, 10
//!         do i = 2, 31
//!           do j = 2, 31
//!             vn(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
//!           end do
//!         end do
//!         do i = 2, 31
//!           do j = 2, 31
//!             v(i,j) = vn(i,j)
//!           end do
//!         end do
//!       end do
//!       write(*,*) v(16,16)
//!       end
//! ";
//! let compiled = compile(src, &CompileOptions::with_procs(4)).unwrap();
//! assert!(compiled.sync_plan.stats.after <= compiled.sync_plan.stats.before);
//! let diff = compiled.verify(vec![], 1e-12).unwrap();
//! assert!(diff < 1e-12); // parallel == sequential on every owned point
//! ```

pub mod cli;
pub mod obs;
pub mod planio;
pub mod prelude;
pub mod serve;
pub mod transport;

/// Compile-checks the README's library-usage example: its `rust` code
/// block runs as a doctest, so the documented entry points can never
/// drift from the real API.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

use autocfd_codegen::{transform, EnginePref, SpmdPlan, TransformError};
use autocfd_fortran::{FortranError, SourceFile};
use autocfd_grid::{choose_partition, partition, GridShape, Partition, PartitionSpec};
use autocfd_interp::spmd::{verify_owned_regions, RankResult};
use autocfd_interp::{Frame, KernelSet, Machine, RunConfig, RunError};
use autocfd_ir::{build_ir, ProgramIr};
use autocfd_runtime::CommError;
use autocfd_syncopt::{plan_program, SyncPlan};
use std::sync::Arc;

pub use autocfd_advisor as advisor;
pub use autocfd_codegen as codegen;
pub use autocfd_compile_service as compile_service;
pub use autocfd_depend as depend;
pub use autocfd_fortran as fortran;
pub use autocfd_grid as grid;
pub use autocfd_interp as interp;
pub use autocfd_ir as ir;
pub use autocfd_runtime as runtime;
pub use autocfd_runtime_net as runtime_net;
pub use autocfd_syncopt as syncopt;

/// Options controlling a compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOptions {
    /// Number of processors; the partitioner chooses the best shape.
    /// Ignored when `partition` (or the `!$acf partition` directive)
    /// fixes the shape explicitly.
    pub procs: Option<u32>,
    /// Explicit processor-grid shape, overriding the directive.
    pub partition: Option<Vec<u32>>,
    /// Dependency-distance fallback for opaque accesses, overriding the
    /// `!$acf distance` directive (default 1).
    pub distance: Option<u64>,
    /// Apply the synchronization optimizations of §5 (on in
    /// [`with_procs`](Self::with_procs) / [`with_partition`](Self::with_partition),
    /// off in `Default`). `false` keeps one synchronization per writer
    /// loop — the paper's "before optimization" configuration.
    pub optimize: bool,
    /// Compatibility shim, neither recorded nor read: every run
    /// executes eligible comm-free loop nests as fused compiled kernels.
    /// Removed with ROADMAP item 1's `[benchmark]` PR.
    #[doc(hidden)]
    pub engine: EnginePref,
    /// Worker threads per rank recorded in the plan (default 1).
    pub threads: u32,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            procs: None,
            partition: None,
            distance: None,
            optimize: false,
            engine: EnginePref::Kernel,
            threads: 1,
        }
    }
}

impl CompileOptions {
    /// Default options for `procs` processors with optimization on.
    pub fn with_procs(procs: u32) -> Self {
        Self {
            procs: Some(procs),
            optimize: true,
            ..Default::default()
        }
    }

    /// Default options with an explicit partition shape.
    pub fn with_partition(parts: &[u32]) -> Self {
        Self {
            partition: Some(parts.to_vec()),
            optimize: true,
            ..Default::default()
        }
    }
}

/// Errors from the compilation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Frontend (lex/parse/directive) failure.
    Frontend(FortranError),
    /// Missing or inconsistent directives / unpartitionable grid.
    Setup(String),
    /// Restructuring failure.
    Transform(TransformError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::Setup(s) => write!(f, "setup error: {s}"),
            CompileError::Transform(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<FortranError> for CompileError {
    fn from(e: FortranError) -> Self {
        CompileError::Frontend(e)
    }
}

impl From<TransformError> for CompileError {
    fn from(e: TransformError) -> Self {
        CompileError::Transform(e)
    }
}

/// The driver's unified error surface: every layer of the pipeline —
/// frontend, restructurer, interpreter, transport — converts into this
/// one type, and each category maps to a distinct `acfc` process exit
/// code so scripts can tell *what kind* of failure occurred.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Pre-compilation failure: parse, directive/setup, or
    /// restructuring (exit code 2).
    Compile(CompileError),
    /// Execution failure in the interpreter (exit code 3).
    Runtime(RunError),
    /// Communication failure in the transport layer, carrying
    /// rank/peer/tag context (exit code 3).
    Comm(CommError),
    /// The computation ran but its result failed validation:
    /// sequential/parallel divergence or trace checks (exit code 4).
    Validation(String),
    /// A bad command line or an I/O failure on a file the user named
    /// (exit code 1).
    Usage(String),
}

impl Error {
    /// Exit code for the paper's `acfc` binary (compile = 2,
    /// runtime/communication = 3, validation = 4; argument and I/O
    /// errors use the conventional 1).
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Compile(_) => 2,
            Error::Runtime(_) | Error::Comm(_) => 3,
            Error::Validation(_) => 4,
            Error::Usage(_) => 1,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "{e}"),
            Error::Runtime(e) => write!(f, "{e}"),
            Error::Comm(e) => write!(f, "{e}"),
            Error::Validation(s) => write!(f, "validation failed: {s}"),
            Error::Usage(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<FortranError> for Error {
    fn from(e: FortranError) -> Self {
        Error::Compile(CompileError::Frontend(e))
    }
}

impl From<TransformError> for Error {
    fn from(e: TransformError) -> Self {
        Error::Compile(CompileError::Transform(e))
    }
}

impl From<RunError> for Error {
    fn from(e: RunError) -> Self {
        Error::Runtime(e)
    }
}

impl From<CommError> for Error {
    fn from(e: CommError) -> Self {
        Error::Comm(e)
    }
}

/// The result of running the pre-compiler on a program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The analyzed IR (including the original AST).
    pub ir: ProgramIr,
    /// The chosen grid partition.
    pub partition: Partition,
    /// The optimized synchronization plan (Table 1 statistics live in
    /// `sync_plan.stats`).
    pub sync_plan: SyncPlan,
    /// The transformed parallel program.
    pub parallel_file: SourceFile,
    /// The executable plan behind the inserted `acf_*` calls.
    pub spmd_plan: SpmdPlan,
    /// Every kernel-eligible nest of `parallel_file`, compiled once here
    /// and reused by every run of [`Compiled::run_config`].
    kernels: Arc<KernelSet>,
}

impl Compiled {
    /// The generated parallel Fortran source (the paper's Appendix 2
    /// artifact).
    pub fn parallel_source(&self) -> String {
        autocfd_fortran::print(&self.parallel_file)
    }

    /// Run the *original sequential* program on the reference tree walk
    /// — the ground truth every parallel execution is verified against.
    pub fn run_sequential(&self, input: Vec<f64>) -> Result<(Machine, Frame), RunError> {
        RunConfig::new(&self.ir.file)
            .reference()
            .input(input)
            .run_sequential()
    }

    /// A [`RunConfig`] for the transformed parallel program, plan
    /// attached: the plan's thread count and kernel nests apply, and
    /// every execution knob (overlap, checkpointing, threads) is a
    /// builder call away.
    pub fn run_config(&self) -> RunConfig<'_> {
        RunConfig::new(&self.parallel_file)
            .plan(&self.spmd_plan)
            .kernel_set(&self.kernels)
    }

    /// Run the transformed program on `partition.tasks()` rank-threads.
    pub fn run_parallel(&self, input: Vec<f64>) -> Result<Vec<RankResult>, RunError> {
        self.run_config().input(input).run_parallel()
    }

    /// [`Compiled::run_parallel`] with compute/communication overlap on
    /// or off: with `overlap`, sync points the plan marked eligible keep
    /// their last-axis halo exchange in flight while the following loop
    /// nest's interior computes.
    pub fn run_parallel_opts(
        &self,
        input: Vec<f64>,
        overlap: bool,
    ) -> Result<Vec<RankResult>, RunError> {
        self.run_config()
            .input(input)
            .overlap(overlap)
            .run_parallel()
    }

    /// Run both versions and verify that every rank's owned region of
    /// every status array matches the sequential result within `tol`.
    /// Returns the maximum absolute difference.
    pub fn verify(&self, input: Vec<f64>, tol: f64) -> Result<f64, String> {
        let seq = self
            .run_sequential(input.clone())
            .map_err(|e| e.to_string())?;
        let par = self.run_parallel(input).map_err(|e| e.to_string())?;
        verify_owned_regions(&seq, &par, &self.spmd_plan, tol)
    }

    /// [`Compiled::verify`] with overlap on or off, reporting failures
    /// through the unified [`Error`]: execution failures are
    /// [`Error::Runtime`], a sequential/parallel divergence is
    /// [`Error::Validation`].
    pub fn verify_opts(&self, input: Vec<f64>, tol: f64, overlap: bool) -> Result<f64, Error> {
        let seq = self.run_sequential(input.clone())?;
        let par = self.run_parallel_opts(input, overlap)?;
        verify_owned_regions(&seq, &par, &self.spmd_plan, tol).map_err(Error::Validation)
    }
}

/// Run the full Auto-CFD pipeline on `source`.
pub fn compile(source: &str, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    let file = autocfd_fortran::parse(source)?;
    autocfd_fortran::lint(&file)?;
    let ir = build_ir(file)?;

    let shape = GridShape {
        extents: ir.grid_extents(),
    };
    if shape.extents.is_empty() {
        return Err(CompileError::Setup("missing `!$acf grid` directive".into()));
    }

    let distance = opts
        .distance
        .or(ir.directives.distance.map(u64::from))
        .unwrap_or(1);

    // partition precedence: options > directive > automatic choice
    let part = if let Some(parts) = opts
        .partition
        .clone()
        .or_else(|| ir.directives.partition.clone())
    {
        if parts.len() != shape.rank() {
            return Err(CompileError::Setup(format!(
                "partition has {} axes but the grid has {}",
                parts.len(),
                shape.rank()
            )));
        }
        partition(&shape, &PartitionSpec::new(&parts))
    } else {
        // processor-count precedence: options > `!$acf cluster(nodes=N)`
        // directive > 1
        let procs = opts
            .procs
            .or_else(|| ir.directives.cluster.as_ref().map(|(n, _)| *n))
            .unwrap_or(1);
        choose_partition(&shape, procs, distance).0
    };

    let cut_axes: Vec<usize> = part
        .spec
        .parts
        .iter()
        .enumerate()
        .filter(|(_, &p)| p > 1)
        .map(|(a, _)| a)
        .collect();

    let sync_plan = plan_program(&ir, &cut_axes, distance, opts.optimize);
    let (parallel_file, mut spmd_plan) = transform(&ir, &part, &sync_plan, distance)?;

    // Eligibility runs over the *transformed* program — the one that
    // executes — so a `--plan` run compiles the same nests.
    spmd_plan.threads = opts.threads.max(1);
    let kernels = Arc::new(KernelSet::build(&parallel_file, None, 1));
    spmd_plan.kernel_nests = kernels.nests().to_vec();

    Ok(Compiled {
        ir,
        partition: part,
        sync_plan,
        parallel_file,
        spmd_plan,
        kernels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const JACOBI: &str = "
!$acf grid(24, 24)
!$acf status v, vn
      program jacobi
      real v(24,24), vn(24,24)
      integer i, j, it
      do i = 1, 24
        v(i,1) = 1.0
        v(1,i) = 2.0
      end do
      do it = 1, 8
        do i = 2, 23
          do j = 2, 23
            vn(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
          end do
        end do
        do i = 2, 23
          do j = 2, 23
            v(i,j) = vn(i,j)
          end do
        end do
      end do
      end
";

    #[test]
    fn jacobi_parallel_equals_sequential_1d_cut() {
        let c = compile(JACOBI, &CompileOptions::with_partition(&[3, 1])).unwrap();
        let diff = c.verify(vec![], 0.0).unwrap();
        assert_eq!(diff, 0.0, "bitwise identical");
    }

    #[test]
    fn jacobi_parallel_equals_sequential_2d_cut() {
        let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 2])).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0);
    }

    #[test]
    fn gauss_seidel_mirror_image_equals_sequential() {
        let src = "
!$acf grid(20, 20)
!$acf status v
      program gs
      real v(20,20)
      integer i, j, it
      do i = 1, 20
        v(i,1) = 1.0
        v(i,20) = 0.5
      end do
      do it = 1, 6
        do i = 2, 19
          do j = 2, 19
            v(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
          end do
        end do
      end do
      end
";
        for parts in [[4u32, 1], [2, 2], [1, 4]] {
            let c = compile(src, &CompileOptions::with_partition(&parts)).unwrap();
            assert_eq!(
                c.verify(vec![], 0.0).unwrap(),
                0.0,
                "partition {parts:?}: mirror-image execution must be exactly sequential"
            );
        }
    }

    #[test]
    fn convergence_reduction_matches() {
        let src = "
!$acf grid(16, 16)
!$acf status v, vn
      program conv
      real v(16,16), vn(16,16)
      integer i, j, it
      do i = 1, 16
        v(i,1) = 1.0
      end do
      do it = 1, 100
        err = 0.0
        do i = 2, 15
          do j = 2, 15
            vn(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
            d = abs(vn(i,j) - v(i,j))
            if (d .gt. err) err = d
          end do
        end do
        do i = 2, 15
          do j = 2, 15
            v(i,j) = vn(i,j)
          end do
        end do
        if (err .lt. 1.0e-8) goto 900
      end do
900   continue
      write(*,*) it, err
      end
";
        let c = compile(src, &CompileOptions::with_partition(&[4, 1])).unwrap();
        assert!(
            !c.spmd_plan.reduces.is_empty(),
            "err must be recognized as a max-reduction"
        );
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0);
        // every rank must take the same number of frames as sequential
        let seq = c.run_sequential(vec![]).unwrap();
        let par = c.run_parallel(vec![]).unwrap();
        assert_eq!(seq.0.output, par[0].machine.output);
    }

    #[test]
    fn runs_reuse_the_kernels_the_compile_built() {
        let mut c = compile(JACOBI, &CompileOptions::with_partition(&[2, 1])).unwrap();
        let nests = c.spmd_plan.kernel_nests.clone();
        assert!(nests.len() > 1, "{nests:?}");
        let one = c.run_config().build_engine();
        let two = c.run_config().threads(2).build_engine();
        for &id in &nests {
            let (a, b) = (one.get(id).unwrap(), two.get(id).unwrap());
            assert!(std::ptr::eq(a, b), "nest {id:?} compiled twice");
        }
        // a substituted plan's marking still selects
        c.spmd_plan.kernel_nests.truncate(1);
        assert_eq!(c.run_config().build_engine().nests(), &nests[..1]);
    }

    #[test]
    fn generated_source_reparses() {
        let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 2])).unwrap();
        let src = c.parallel_source();
        assert!(src.contains("call acf_init()"));
        assert!(src.contains("acf_sync_"));
        assert!(src.contains("max(2,acflo1)"));
        // the emitted parallel program is valid Fortran for our frontend
        let reparsed = autocfd_fortran::parse(&src).unwrap();
        assert_eq!(reparsed.units.len(), c.parallel_file.units.len());
    }

    #[test]
    fn directive_partition_respected() {
        let src = JACOBI.replace(
            "!$acf status v, vn",
            "!$acf status v, vn\n!$acf partition(4, 1)",
        );
        let c = compile(
            &src,
            &CompileOptions {
                optimize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.partition.spec.parts, vec![4, 1]);
    }

    #[test]
    fn auto_partition_when_unspecified() {
        let c = compile(JACOBI, &CompileOptions::with_procs(2)).unwrap();
        assert_eq!(c.partition.spec.tasks(), 2);
    }

    #[test]
    fn optimization_reduces_sync_points() {
        let src = "
!$acf grid(30, 30)
!$acf status a, b, c, r
      program p
      real a(30,30), b(30,30), c(30,30), r(30,30)
      integer i, j, it
      do it = 1, 5
        do i = 1, 30
          do j = 1, 30
            a(i,j) = 1.0
          end do
        end do
        do i = 1, 30
          do j = 1, 30
            b(i,j) = 2.0
          end do
        end do
        do i = 1, 30
          do j = 1, 30
            c(i,j) = 3.0
          end do
        end do
        do i = 2, 29
          do j = 1, 30
            r(i,j) = a(i-1,j) + b(i+1,j) + c(i-1,j)
          end do
        end do
      end do
      end
";
        let opt = compile(src, &CompileOptions::with_partition(&[3, 1])).unwrap();
        let raw = compile(
            src,
            &CompileOptions {
                partition: Some(vec![3, 1]),
                optimize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(opt.sync_plan.stats.after < raw.sync_plan.stats.before);
        assert_eq!(opt.sync_plan.sync_points.len(), 1, "three writers combine");
        assert_eq!(raw.sync_plan.sync_points.len(), 3);
        // both must still be correct
        assert_eq!(opt.verify(vec![], 0.0).unwrap(), 0.0);
        assert_eq!(raw.verify(vec![], 0.0).unwrap(), 0.0);
    }

    #[test]
    fn partition_rank_mismatch_rejected() {
        let e = compile(JACOBI, &CompileOptions::with_partition(&[2, 2, 2])).unwrap_err();
        assert!(matches!(e, CompileError::Setup(_)));
    }

    #[test]
    fn missing_grid_rejected() {
        let e = compile(
            "      program p\n      x = 1\n      end\n",
            &CompileOptions::with_procs(2),
        )
        .unwrap_err();
        assert!(matches!(e, CompileError::Frontend(_)));
    }
}

#[cfg(test)]
mod directive_tests {
    use super::*;

    #[test]
    fn cluster_directive_sets_default_processor_count() {
        let src = "
!$acf grid(24, 24)
!$acf status v
!$acf cluster(nodes = 3, net = ethernet)
      program p
      real v(24,24)
      integer i, j
      do i = 2, 23
        do j = 1, 24
          v(i,j) = v(i-1,j)
        end do
      end do
      end
";
        // no procs/partition given: the cluster directive decides
        let c = compile(
            src,
            &CompileOptions {
                optimize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.partition.spec.tasks(), 3);
        // explicit options still win
        let c = compile(src, &CompileOptions::with_procs(2)).unwrap();
        assert_eq!(c.partition.spec.tasks(), 2);
    }

    #[test]
    fn distance_directive_flows_to_opaque_ghosts() {
        let src = "
!$acf grid(30, 30)
!$acf status a, b
!$acf distance 3
      program p
      real a(30,30), b(30,30)
      integer i, j, m
      do i = 1, 30
        do j = 1, 30
          a(i,j) = 1.0
        end do
      end do
      do i = 1, 30
        do j = 1, 30
          b(i,j) = a(m, j)
        end do
      end do
      end
";
        let c = compile(src, &CompileOptions::with_partition(&[2, 1])).unwrap();
        let sync = c.spmd_plan.syncs.values().next().unwrap();
        assert_eq!(
            sync.arrays[0].ghost[0],
            [3, 3],
            "opaque access uses the directive distance"
        );
    }

    #[test]
    fn ghost_declared_arrays_with_zero_lower_bounds() {
        // arrays declared with explicit halo room, 0:n+1 style
        let src = "
!$acf grid(16, 12)
!$acf status v, vn
      program p
      integer n, m
      parameter (n = 16, m = 12)
      real v(0:n+1, 0:m+1), vn(0:n+1, 0:m+1)
      integer i, j, it
      do it = 1, 3
        do i = 2, n - 1
          do j = 2, m - 1
            vn(i,j) = 0.25*(v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
        do i = 2, n - 1
          do j = 2, m - 1
            v(i,j) = vn(i,j)
          end do
        end do
      end do
      end
";
        for parts in [[2u32, 1], [2, 2]] {
            let c = compile(src, &CompileOptions::with_partition(&parts)).unwrap();
            assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
        }
    }
}
